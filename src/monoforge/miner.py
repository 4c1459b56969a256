"""Stochastic local search for low-model-count monotone gadgets.

Candidates evolve by swapping one literal between two clauses of equal
polarity, which conserves every variable's occurrence profile and each
clause's width.  A move is kept only if the candidate stays well-formed
(distinct variables per clause, unique clauses, monotone).  Strict
improvements in the satisfying-assignment count are always accepted,
sideways moves with a configured probability, and a restart fires after a
stall window.  Runs are deterministic in (config, seed).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .formula import (
    CnfFormula,
    OccurrenceProfile,
    canonical_clause,
    clause_has_distinct_vars,
    clause_is_monotone,
    occurrence_profile,
)
from .generate import GenerationError, random_mono_22
from .models import DENSE_VAR_LIMIT, count_models


class MinerConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MinerConfig:
    n_vars: int
    n_clauses: int
    population_size: int = 8
    max_iters: int = 500
    sideways_prob: float = 0.2
    stall_window: int = 100
    seed: int = 0
    initial: CnfFormula | None = None  # optional explicit starting candidate

    def __post_init__(self) -> None:
        if self.n_vars > DENSE_VAR_LIMIT:
            raise MinerConfigError(
                f"the miner counts models exactly: n_vars must be at most {DENSE_VAR_LIMIT}")
        if self.initial is not None:
            if self.initial.n_vars != self.n_vars or self.initial.m != self.n_clauses:
                raise MinerConfigError("initial candidate does not match n_vars/n_clauses")
            return
        # generated candidates are all-(2,2) monotone 3-clauses, so the
        # occurrence budget must fill the clauses exactly
        if 4 * self.n_vars != 3 * self.n_clauses:
            raise MinerConfigError(
                f"occurrence budget mismatch: {self.n_vars} vars x 4 != 3 x {self.n_clauses} clauses"
            )
        if self.n_vars % 3:
            raise MinerConfigError("n_vars must be divisible by 3 to split slots by sign")
        if self.n_vars == 3:
            raise MinerConfigError(
                "no all-(2,2) monotone candidate on 3 variables: its two positive clauses coincide")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    candidate_hash: str
    model_count: int
    accepted: bool


@dataclass
class SearchTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    best_formula: CnfFormula | None = None
    best_count: int | None = None
    restarts: int = 0

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "iteration": e.iteration,
                    "hash": e.candidate_hash,
                    "models": e.model_count,
                    "accepted": e.accepted,
                }
                for e in self.entries
            ],
            "best_count": self.best_count,
            "restarts": self.restarts,
            "best_clauses": [list(c) for c in (self.best_formula.clauses if self.best_formula else [])],
        }


def formula_hash(f: CnfFormula) -> str:
    text = ";".join(",".join(str(l) for l in c) for c in sorted(f.clauses))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def candidate_ok(f: CnfFormula, profile: OccurrenceProfile) -> bool:
    """Class constraint: monotone, distinct vars, unique clauses, fixed profile."""
    seen = set()
    for c in f.clauses:
        if not clause_is_monotone(c) or not clause_has_distinct_vars(c):
            return False
        if c in seen:
            return False
        seen.add(c)
    return occurrence_profile(f) == profile


def random_candidate(cfg: MinerConfig, rng: random.Random) -> CnfFormula:
    """A fresh valid candidate for the all-(2,2) monotone configuration."""
    if cfg.initial is not None:
        raise MinerConfigError("config carries an explicit initial candidate")
    return random_mono_22(cfg.n_vars, rng)


def swap_move(f: CnfFormula, rng: random.Random) -> CnfFormula | None:
    """Exchange one literal between two clauses of equal polarity.

    Returns the re-canonicalized candidate, or None when the drawn swap
    would break distinctness or clause uniqueness (a no-move).
    """
    m = f.m
    if m < 2:
        return None
    i = rng.randrange(m)
    pol_i = f.clauses[i][0] > 0
    same = [k for k in range(m) if k != i and (f.clauses[k][0] > 0) == pol_i]
    if not same:
        return None
    j = rng.choice(same)
    pi = rng.randrange(len(f.clauses[i]))
    pj = rng.randrange(len(f.clauses[j]))
    li = f.clauses[i][pi]
    lj = f.clauses[j][pj]
    if li == lj:
        return None
    ci = list(f.clauses[i])
    cj = list(f.clauses[j])
    ci[pi], cj[pj] = lj, li
    if not clause_has_distinct_vars(tuple(ci)) or not clause_has_distinct_vars(tuple(cj)):
        return None
    new_clauses = list(f.clauses)
    new_clauses[i] = canonical_clause(ci)
    new_clauses[j] = canonical_clause(cj)
    if len(set(new_clauses)) != len(new_clauses):
        return None
    return CnfFormula(f.n_vars, tuple(new_clauses), f.allows_duplicate_literals)


def _perturb(f: CnfFormula, rng: random.Random, swaps: int = 3) -> CnfFormula:
    out = f
    done = 0
    guard = 0
    while done < swaps and guard < 200:
        guard += 1
        nxt = swap_move(out, rng)
        if nxt is not None:
            out = nxt
            done += 1
    return out


def _count(f: CnfFormula, cap: int | None) -> int:
    return count_models(f, cap).count


def mine(cfg: MinerConfig) -> SearchTrace:
    """Hill-climb with sideways moves and stall-window restarts.

    The incumbent's model count never increases; every evaluated candidate
    is checked against the class constraint before counting and the run
    aborts if a move ever broke it.
    """
    rng = random.Random(cfg.seed)
    trace = SearchTrace()

    if cfg.initial is not None:
        current = cfg.initial
        profile = occurrence_profile(current)
        if not candidate_ok(current, profile):
            raise MinerConfigError("initial candidate violates the class constraint")
        current_count = _count(current, None)
    else:
        best_seed = None
        for _ in range(max(1, cfg.population_size)):
            cand = random_candidate(cfg, rng)
            cnt = _count(cand, None)
            if best_seed is None or cnt < best_seed[1]:
                best_seed = (cand, cnt)
        current, current_count = best_seed
        profile = occurrence_profile(current)

    trace.best_formula = current
    trace.best_count = current_count
    trace.entries.append(TraceEntry(0, formula_hash(current), current_count, True))
    restart_base = current
    stall = 0

    for it in range(1, cfg.max_iters + 1):
        if trace.best_count == 0:
            break
        proposal = None
        for _ in range(20):
            proposal = swap_move(current, rng)
            if proposal is not None:
                break
        if proposal is None:
            trace.entries.append(
                TraceEntry(it, formula_hash(current), current_count, False))
            stall += 1
        else:
            if not candidate_ok(proposal, profile):
                raise AssertionError("internal error: move produced an invalid candidate")
            cnt = _count(proposal, current_count + 1)
            accepted = cnt < current_count or (
                cnt == current_count and rng.random() < cfg.sideways_prob
            )
            trace.entries.append(
                TraceEntry(it, formula_hash(proposal), cnt, accepted))
            improved = cnt < current_count
            if accepted:
                current, current_count = proposal, cnt
            if current_count < trace.best_count:
                trace.best_formula, trace.best_count = current, current_count
            stall = 0 if improved else stall + 1
        if stall >= cfg.stall_window and trace.best_count > 0:
            stall = 0
            trace.restarts += 1
            if cfg.initial is None:
                try:
                    current = random_candidate(cfg, rng)
                except GenerationError:
                    current = _perturb(restart_base, rng)
            else:
                current = _perturb(restart_base, rng)
            current_count = _count(current, None)
            trace.entries.append(
                TraceEntry(it, formula_hash(current), current_count, True))
            if current_count < trace.best_count:
                trace.best_formula, trace.best_count = current, current_count
    return trace

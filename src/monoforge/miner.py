"""Stochastic local search for low-model-count monotone gadgets.

Candidates evolve by swapping one literal between two clauses of equal
polarity, which conserves every variable's occurrence profile and each
clause's width.  A move is kept only if the candidate stays well-formed
(distinct variables per clause, unique clauses, monotone).  Strict
improvements in the satisfying-assignment count are always accepted,
sideways moves with a configured probability, and a restart fires after a
stall window.  Every candidate is checked before it is counted: the seeds,
each proposal and each restart.  Runs are deterministic in (config, seed).
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
        if self.max_iters < 0:
            raise MinerConfigError(f"max_iters must be at least 0, not {self.max_iters}")
        if self.population_size < 1:
            raise MinerConfigError(f"population_size must be at least 1, not {self.population_size}")
        if not 0 <= self.sideways_prob <= 1:
            raise MinerConfigError(f"sideways_prob must be between 0 and 1, not {self.sideways_prob}")
        if self.stall_window < 1:
            raise MinerConfigError(f"stall_window must be at least 1, not {self.stall_window}")
        if self.n_vars < 1:
            raise MinerConfigError(f"n_vars must be at least 1, not {self.n_vars}")
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


def _perturb(f: CnfFormula, rng: random.Random) -> CnfFormula:
    """``f`` after three swaps, or fewer if 200 draws do not find them."""
    out, done = f, 0
    for _ in range(200):
        nxt = swap_move(out, rng)
        if nxt is not None:
            out, done = nxt, done + 1
            if done == 3:
                break
    return out


def _restart(cfg: MinerConfig, start: CnfFormula, rng: random.Random) -> CnfFormula:
    """A fresh draw for generated runs; the start perturbed otherwise, or when
    the draw fails."""
    if cfg.initial is None:
        try:
            return random_candidate(cfg, rng)
        except GenerationError:
            pass
    return _perturb(start, rng)


def mine(cfg: MinerConfig) -> SearchTrace:
    """Hill-climb with sideways moves and stall-window restarts.

    Every candidate the search counts (the seeds, each proposal and each
    restart) is checked against the class constraint first, and the run
    aborts if one ever broke it.  The incumbent's model count never
    increases.
    """
    rng = random.Random(cfg.seed)
    trace = SearchTrace()
    if cfg.initial is None:
        profile = OccurrenceProfile(((2, 2),) * cfg.n_vars)
        seeds = [random_candidate(cfg, rng) for _ in range(cfg.population_size)]
    else:
        profile = occurrence_profile(cfg.initial)
        if not candidate_ok(cfg.initial, profile):
            raise MinerConfigError("initial candidate violates the class constraint")
        seeds = [cfg.initial]

    def evaluate(f: CnfFormula, cap: int | None = None) -> int:
        if not candidate_ok(f, profile):
            raise AssertionError("internal error: the search produced an invalid candidate")
        return count_models(f, cap).count

    def record(it: int, f: CnfFormula, count: int, accepted: bool) -> None:
        trace.entries.append(TraceEntry(it, formula_hash(f), count, accepted))
        if accepted and (trace.best_count is None or count < trace.best_count):
            trace.best_formula, trace.best_count = f, count

    start, current_count = min(((f, evaluate(f)) for f in seeds), key=lambda fc: fc[1])
    current = start
    record(0, current, current_count, True)
    stall = 0
    for it in range(1, cfg.max_iters + 1):
        if trace.best_count == 0:
            break
        proposal = None
        for _ in range(20):
            proposal = swap_move(current, rng)
            if proposal is not None:
                break
        if proposal is None:  # a no-move: the current candidate, not accepted again
            proposal, cnt, accepted = current, current_count, False
        else:
            cnt = evaluate(proposal, current_count + 1)
            accepted = cnt < current_count or (
                cnt == current_count and rng.random() < cfg.sideways_prob)
        record(it, proposal, cnt, accepted)
        stall = 0 if cnt < current_count else stall + 1
        if accepted:
            current, current_count = proposal, cnt
        if stall >= cfg.stall_window and trace.best_count > 0:
            stall = 0
            trace.restarts += 1
            current = _restart(cfg, start, rng)
            current_count = evaluate(current)
            record(it, current, current_count, True)
    return trace

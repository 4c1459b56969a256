"""Seeded random instance generators for the test corpora.

All generators use a configuration model: every variable contributes its
prescribed occurrence slots, the slots are shuffled into width-3 chunks, and
a bounded swap-repair pass fixes clauses that repeat a variable or duplicate
another clause.  Swaps move whole slots, so occurrence profiles are conserved
by construction.  Identical seeds give identical instances.
"""

from __future__ import annotations

import random
from typing import Sequence

from .formula import (
    CnfFormula,
    InstanceClass,
    canonical_clause,
    cnf,
    validate_class,
)

_MAX_RESTARTS = 200
_MAX_SWAPS = 4000


class GenerationError(RuntimeError):
    pass


def _chunk3(slots: Sequence[int]) -> list[list[int]]:
    return [list(slots[i : i + 3]) for i in range(0, len(slots), 3)]


def _violations(clauses, distinct: bool, unique: bool) -> list[int]:
    bad = set()
    if distinct:
        for j, c in enumerate(clauses):
            if len({abs(l) for l in c}) != len(c):
                bad.add(j)
    if unique:
        seen: dict[tuple, int] = {}
        for j, c in enumerate(clauses):
            key = canonical_clause(c)
            if key in seen:
                bad.add(j)
                bad.add(seen[key])
            else:
                seen[key] = j
    return sorted(bad)


def _repair(
    clauses: list[list[int]],
    rng: random.Random,
    distinct: bool,
    unique: bool,
    groups: list[list[int]],
) -> bool:
    """Swap slots between clauses until constraints hold; bounded attempts.

    ``groups`` partitions clause indices into swap classes (one per slot
    group, which keeps monotone clauses single-signed).
    """
    group_of = {j: gi for gi, idxs in enumerate(groups) for j in idxs}
    for _ in range(_MAX_SWAPS):
        bad = _violations(clauses, distinct, unique)
        if not bad:
            return True
        j = rng.choice(bad)
        pool = [k for k in groups[group_of[j]] if k != j]
        if not pool:
            return False
        k = rng.choice(pool)
        pj = rng.randrange(3)
        pk = rng.randrange(3)
        clauses[j][pj], clauses[k][pk] = clauses[k][pk], clauses[j][pj]
    return False


def _configuration(
    slot_groups: list[list[int]],
    rng: random.Random,
    distinct: bool,
    unique: bool,
) -> list[list[int]]:
    """Shuffle each slot group into clauses, then repair; restart on failure."""
    for _ in range(_MAX_RESTARTS):
        clauses: list[list[int]] = []
        groups: list[list[int]] = []
        for slots in slot_groups:
            if len(slots) % 3:
                raise GenerationError("slot count not divisible by 3")
            work = list(slots)
            rng.shuffle(work)
            chunk = _chunk3(work)
            groups.append(list(range(len(clauses), len(clauses) + len(chunk))))
            clauses.extend(chunk)
        if _repair(clauses, rng, distinct, unique, groups):
            return clauses
    raise GenerationError("repair failed; infeasible or unlucky configuration")


def _random_instance(cls: InstanceClass, n_vars: int, rng: random.Random) -> CnfFormula:
    """One seeded instance of ``cls``, checked by :func:`validate_class`.

    Monotone classes shuffle unnegated and negated slots apart; the
    distinct, unique and duplicate-literal settings follow ``cls``.
    """
    if n_vars % 3:
        raise GenerationError("n_vars must be divisible by 3")
    pos = [v for v in range(1, n_vars + 1) for _ in range(2)]
    neg = [-v for v in pos]
    if cls is InstanceClass.MONO_NAE_E2:
        slot_groups = [pos]
    elif cls is InstanceClass.THREE_SAT_22:
        slot_groups = [pos + neg]
    else:
        slot_groups = [pos, neg]
    star = cls is InstanceClass.MONO_3SAT_STAR_22
    nae = cls is InstanceClass.MONO_NAE_E2
    clauses = _configuration(slot_groups, rng, distinct=not star, unique=not nae)
    f = cnf(clauses, n_vars=n_vars, allows_duplicate_literals=star)
    rep = validate_class(f, cls)
    if not rep.verdict:
        raise GenerationError(f"generator produced an invalid instance: {rep.violations[:3]}")
    return f


def random_3sat22(n_vars: int, seed: int) -> CnfFormula:
    """A (2,2)-balanced 3-SAT instance: mixed clauses allowed, unique, distinct."""
    return _random_instance(InstanceClass.THREE_SAT_22, n_vars, random.Random(seed))


def random_mono_3sat_star22(n_vars: int, seed: int) -> CnfFormula:
    """A monotone (2,2) instance in the duplicate-literal dialect."""
    return _random_instance(InstanceClass.MONO_3SAT_STAR_22, n_vars, random.Random(seed))


def random_mono_nae_e2(n_vars: int, seed: int) -> CnfFormula:
    """All-positive clauses, every variable in exactly two; duplicates allowed."""
    return _random_instance(InstanceClass.MONO_NAE_E2, n_vars, random.Random(seed))


def random_mono_22(n_vars: int, rng: random.Random) -> CnfFormula:
    """A strict monotone (2,2) candidate (used as miner seed material)."""
    return _random_instance(InstanceClass.MONO_3SAT_22, n_vars, rng)


def random_balanced_qbf(p: int, s1: int, s2: int, seed: int):
    """A balanced two-level instance: p universals at (s1, s2), p existentials
    at (2,2), variables split into the blocks at random.

    Supported universal profiles: (1,1) and (2,2); the slot budget must fill
    3-clauses exactly, so (2,2) needs p divisible by 3.
    """
    from .qbf import BalanceSpec, Qbf2Formula, validate_balanced

    if (s1, s2) not in ((1, 1), (2, 2)):
        raise GenerationError("supported universal profiles: (1,1) and (2,2)")
    total_slots = p * (s1 + s2) + 4 * p
    if total_slots % 3:
        raise GenerationError(f"slot budget {total_slots} not divisible by 3")
    rng = random.Random(seed)
    n = 2 * p
    universals = sorted(rng.sample(range(1, n + 1), p))
    existentials = sorted(set(range(1, n + 1)) - set(universals))
    slots: list[int] = []
    for u in universals:
        slots += [u] * s1 + [-u] * s2
    for e in existentials:
        slots += [e] * 2 + [-e] * 2
    clauses = _configuration([slots], rng, distinct=True, unique=True)
    q = Qbf2Formula(tuple(universals), tuple(existentials), cnf(clauses, n_vars=n))
    rep = validate_balanced(q, BalanceSpec(s1, s2, 2, 2, require_equal_counts=True))
    if not rep.verdict:
        raise GenerationError(f"generator produced an invalid instance: {rep.violations[:3]}")
    return q

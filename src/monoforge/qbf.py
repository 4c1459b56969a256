"""Two-level quantified CNF: data model, truth by existential elimination and
a per-component walk with witness reuse, and the monotonization / balancing
pipelines.

A formula is a single universal block followed by a single existential block
over a CNF matrix.  Truth is decided part by part: the matrix splits into
variable-disjoint parts (by union-find over a flat parent array, the parts in
order of their smallest variable), structurally identical parts are decided
once, and each part walks its universal assignments in lexicographic order
(declared variable order, false before true), checking existential
satisfiability with the clause-learning solver.  The verdict and the reported
counterexample are exactly those of plain enumeration over the whole formula.

Before the walk, each distinct part loses its existentials to DP resolution
(the "resolve" half of Quantor: Biere, "Resolve and Expand", SAT 2004),
highest local id first.  That is reverse declared order, so the gadget and
padding existentials the pipelines append go first.  Fixing the universals
commutes with resolution on an existential, so under every universal
assignment the matrix stays satisfiable exactly when it was, and neither the
verdict nor the first counterexample can move.  The elimination is bounded
as in Eén & Biere, "Effective preprocessing in SAT through variable and
clause elimination" (SAT 2005): a variable stays when a resolvent that no
other one subsumes would have more than ``MAX_RESOLVENT_WIDTH`` (9)
literals, or when eliminating it would add more than ``MAX_ADDED_CLAUSES``
(64) clauses.  Tautologies are dropped, a pure existential takes its clauses
with it, and a new resolvent is skipped when a live clause subsumes it and
removes the live clauses it subsumes.  An empty resolvent makes the part
false under every assignment, so its first counterexample is all-false;
otherwise the clauses left split into parts again, decided through the same
cache and walk.  On the pipelines' outputs every existential goes, the
96-variable enforcers that join the three copies of a formula included, and
the walk is left with clauses over the universals alone.

Elimination goes block by block, because a monotonized part is many copies
of one 96-variable enforcer, equal up to their ports and a global sign flip.
Let ``need(x)`` be the highest variable up to x of any clause that also has
one above x.  For a base bound L, every x >= L with ``need(x) <= L`` is a
cut; the cuts split the existentials above L into blocks, and no clause
touches two blocks.  L is the one in k..n with the least (L - k) + the size
of the largest block, the smallest on ties: on the pipelines' parts the
tripled source's variables, with one block per enforcer.  Each block is
eliminated, top down, from the clauses that touch it, once per
``qbf_truth`` call for all blocks that are equal to it with the ports
numbered by first occurrence and the block's own variables by offset,
taking the smaller of the block and its sign flip.  The results, mapped
back, join the other clauses with the subsumption checks of a resolvent,
and the base existentials go last.

Within a part, existential witnesses are reused.  Each SAT answer leaves
its universal residue: the universal parts of the clauses that the model's
existential part leaves unsatisfied.  Every universal assignment that
satisfies the residue is extended by that existential part to a model of
the whole matrix.  The truth-table kernel (:mod:`.kernels`) turns each
residue into its satisfying set, which is ORed into one coverage bitmap of
2^k bits for a part with k universals, and the walk jumps to the lowest
uncovered assignment above the current one; an empty residue or a full map
makes the part true.  Only assignments that do have an extension are
skipped and the walk keeps its order, so the first assignment the solver
refutes is still the lexicographically first counterexample.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .fileio import ParseError, _parse_dimacs, write_dimacs
from .formula import (
    Assignment,
    CnfFormula,
    InvalidInstanceError,
    ValidationReport,
    Violation,
    cnf,
    validate_instance,
)
from .gadgets import FreshVarAllocator
from .reductions import MonotonizeError, build_enforcer, mixed_triples, splice, triple
from .solver import Solver, Status


@dataclass(frozen=True)
class Qbf2Formula:
    universals: tuple[int, ...]
    existentials: tuple[int, ...]
    matrix: CnfFormula

    def __post_init__(self) -> None:
        u = set(self.universals)
        e = set(self.existentials)
        if len(u) != len(self.universals) or len(e) != len(self.existentials):
            raise ValueError("repeated variable in a quantifier block")
        if u & e:
            raise ValueError(f"variables quantified twice: {sorted(u & e)}")
        used = set(map(abs, itertools.chain.from_iterable(self.matrix.clauses)))
        missing = used - u - e
        if missing:
            raise ValueError(f"matrix variables not quantified: {sorted(missing)}")
        for v in itertools.chain(self.universals, self.existentials):
            if not 1 <= v <= self.matrix.n_vars:
                raise ValueError(f"quantified variable {v} outside the universe")

    @property
    def p(self) -> int:
        return len(self.universals)


class QbfValue(Enum):
    YES = "yes"
    NO = "no"
    BUDGET = "budget"


@dataclass(frozen=True)
class QbfResult:
    value: QbfValue
    counterexample: Assignment | None = None


@dataclass(frozen=True)
class BalanceSpec:
    """Occurrence targets: universals (s1, s2), existentials (t1, t2)."""

    s1: int
    s2: int
    t1: int
    t2: int
    require_equal_counts: bool = False
    require_monotone: bool = False


def validate_balanced(q: Qbf2Formula, spec: BalanceSpec) -> ValidationReport:
    """Report-based check of the balanced-occurrence instance conditions."""
    v = validate_instance(
        q.matrix,
        [("universal-occurrence", q.universals, (spec.s1, spec.s2)),
         ("existential-occurrence", q.existentials, (spec.t1, spec.t2))],
        distinct=True, monotone=spec.require_monotone, all_positive=False, unique=False,
    )
    if spec.require_equal_counts and len(q.universals) != len(q.existentials):
        v.append(Violation(
            "equal-counts", None,
            f"{len(q.universals)} universal vs {len(q.existentials)} existential variables"))
    return ValidationReport(not v, tuple(v))


# -- truth ------------------------------------------------------------------

# a part left by elimination with more universals answers BUDGET instead
# of walking 2^k assignments; the walk's coverage map has 2^k bits, 2 MiB
# at 24.  Elimination runs first, so an input part may have more.
MAX_UNIVERSAL_BITS = 24

# existential elimination keeps a variable whose resolvents would include
# one wider than MAX_RESOLVENT_WIDTH literals that no other one subsumes, or
# whose elimination would add more than MAX_ADDED_CLAUSES clauses to those
# it removes
MAX_RESOLVENT_WIDTH = 9
MAX_ADDED_CLAUSES = 64

# a part's answer: 'yes', 'no' with the lexicographically first failing
# assignment of its universals, or 'budget'
PartVerdict = tuple[str, tuple[bool, ...] | None]


def _components(q: Qbf2Formula) -> list[tuple[list[int], list[int], list[int]]]:
    """Variable-disjoint parts: (universals, existentials, clause indices).

    Parts come in order of their smallest variable.  Within a part the
    universals and the existentials keep their declared order and the clause
    indices ascend.  Every clause must be non-empty.
    """
    # union-find on a flat parent array with path halving: the root of each
    # clause's first variable absorbs the roots of the others
    parent = list(range(q.matrix.n_vars + 1))
    for c in q.matrix.clauses:
        r = abs(c[0])
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        for l in c:
            x = abs(l)
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            parent[x] = r
    # number the parts by smallest variable, pointing each variable at its root
    index: dict[int, int] = {}
    for v in sorted(itertools.chain(q.universals, q.existentials)):
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[v] = r
        index.setdefault(r, len(index))
    parts: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in index]
    for v in q.universals:
        parts[index[parent[v]]][0].append(v)
    for v in q.existentials:
        parts[index[parent[v]]][1].append(v)
    for j, c in enumerate(q.matrix.clauses):
        parts[index[parent[abs(c[0])]]][2].append(j)
    return parts


def _component_first_failure(local: CnfFormula, k: int, conflict_budget: int) -> PartVerdict:
    """('yes'|'no'|'budget', lexicographically first failing assignment of
    the universals 1..k of a renumbered part; 'no' only after the solver
    refutes it, 'budget' when k exceeds ``MAX_UNIVERSAL_BITS``).

    The residue of each SAT answer goes through ``kernels.sat_words`` into a
    2^k-bit coverage map; the next assignment asked is the lowest one above
    the current that the map leaves uncovered, and a full map means 'yes'.
    """
    if k > MAX_UNIVERSAL_BITS:
        return "budget", None
    # universal i is kernel variable k - i + 1, so a kernel index is the
    # walk counter (universal i in bit k - i) and counting up is
    # lexicographic order.  Clauses with no universal literal, or both
    # literals of one, never constrain a residue; the universal parts of the
    # others are packed for the kernel once.
    universal: list[list[int]] = []
    existential: list[list[int]] = []
    for c in local.clauses:
        us = [l for l in c if abs(l) <= k]
        if us and not any(-l in us for l in us):
            universal.append([k + 1 - l if l > 0 else -(k + 1 + l) for l in us])
            existential.append([l for l in c if abs(l) > k])
    ulits, uwidths = kernels.clause_arrays(universal)
    covered = np.zeros(max(1 << k >> 6, 1), dtype=np.uint64)
    full = (1 << min(1 << k, 64)) - 1  # a map word with every assignment covered
    solver = Solver(local, conflict_budget=conflict_budget)
    a = 0
    while True:
        bits = tuple(bool(a >> (k - i) & 1) for i in range(1, k + 1))
        res = solver.solve([i if b else -i for i, b in enumerate(bits, 1)])
        if res.status is Status.BUDGET:
            return "budget", None
        if res.status is Status.UNSAT:
            return "no", bits
        model = res.model
        rows = [j for j, ex in enumerate(existential)
                if not any(model[l] if l > 0 else not model[-l] for l in ex)]
        covered |= kernels.sat_words(ulits[rows], uwidths[rows], k)
        # the model satisfies its own residue, so every assignment up to
        # ``a`` is covered now and the next one lies above it
        if not int(covered[a >> 6]) >> (a & 63) & 1:
            raise AssertionError("internal error: a witness misses its own assignment")
        w = (a >> 6) + int(np.argmax(covered[a >> 6:] != full))
        free = ~int(covered[w]) & full
        if not free:
            return "yes", None
        a = 64 * w + (free & -free).bit_length() - 1


def _resolvents(
    v: int, pos: set[frozenset[int]], neg: set[frozenset[int]]
) -> set[frozenset[int]] | None:
    """The distinct non-tautological resolvents on ``v``, or None when they
    outnumber the clauses they replace by more than ``MAX_ADDED_CLAUSES``
    (counted before subsumption, which bounds the work) or when one that no
    other resolvent subsumes is wider than ``MAX_RESOLVENT_WIDTH``."""
    limit = len(pos) + len(neg) + MAX_ADDED_CLAUSES
    rests = [b - {-v} for b in neg]
    out: set[frozenset[int]] = set()
    for a in pos:
        rest = a - {v}
        flipped = {-l for l in rest}
        for b in rests:
            if flipped.isdisjoint(b):
                out.add(rest | b)
        if len(out) > limit:
            return None
    # a wide resolvent that a narrower one subsumes would not be added
    for r in out:
        if len(r) > MAX_RESOLVENT_WIDTH and not any(s < r for s in out):
            return None
    return out


def _eliminate_existentials(
    clauses: Iterable[tuple[int, ...]], k: int, n: int,
    resolved: Iterable[tuple[int, ...]] = (), top: int | None = None,
) -> list[tuple[int, ...]] | None:
    """DP resolution on the existentials k+1..``top`` (default n) of a
    renumbered part, highest first, skipping each variable that
    ``_resolvents`` refuses; None when an empty resolvent makes the matrix
    false under every universal assignment, else the canonical clauses left.
    The ``resolved`` clauses, canonical and non-empty, join before the first
    step with the subsumption checks of a resolvent."""
    # occ[l] holds the live clauses with literal l, and anchored[l] those
    # whose highest variable has literal l, so a live clause that subsumes a
    # resolvent is anchored at one of its literals; both lists have 2n + 1
    # entries, so occ[-l] is entry 2n + 1 - l.  anchor maps each live clause
    # to its anchor literal.
    occ: list[set[frozenset[int]]] = [set() for _ in range(2 * n + 1)]
    anchored: list[set[frozenset[int]]] = [set() for _ in range(2 * n + 1)]
    anchor: dict[frozenset[int], int] = {}

    def add(c: frozenset[int], a: int) -> None:
        anchor[c] = a
        anchored[a].add(c)
        for l in c:
            occ[l].add(c)

    def remove(c: frozenset[int]) -> None:
        anchored[anchor.pop(c)].discard(c)
        for l in c:
            occ[l].discard(c)

    def admit(r: frozenset[int]) -> None:
        # skip a clause that a live one subsumes, else add it and remove the
        # live clauses it subsumes
        if any(c <= r for l in r for c in anchored[l]):
            return
        a = max(r, key=abs)
        for c in [c for c in occ[a] if r < c]:
            remove(c)
        add(r, a)

    for t in clauses:  # canonical: the last literal has the highest variable
        c = frozenset(t)
        if c not in anchor and not any(-l in c for l in c):
            add(c, t[-1])
    for t in resolved:
        admit(frozenset(t))
    for v in range(n if top is None else top, k, -1):
        pos, neg = occ[v], occ[-v]
        resolvents = _resolvents(v, pos, neg) if pos and neg else set()
        if resolvents is None:
            continue
        for c in [*pos, *neg]:
            remove(c)
        # shortest first, so a resolvent subsumed by another is skipped
        # rather than added and removed
        for r in sorted(resolvents, key=len):
            if not r:
                return None
            admit(r)
    return [tuple(sorted(c, key=abs)) for c in anchor]


def _block_cuts(clauses: Iterable[tuple[int, ...]], k: int, n: int) -> list[int]:
    """The base bound L of a renumbered part and its cuts above: [L, ..., n].

    ``need(x)`` is the highest variable up to x of a clause that also has one
    above x, so a clause spans x only through variables up to ``need(x)``.
    For a base bound L, every x >= L with ``need(x) <= L`` is a cut, and no
    clause has variables in two of the blocks (c, c'] between cuts.  L is
    the one in k..n with the least (L - k) + the largest block's size, the
    smallest on ties.
    """
    # reach[a]: the highest variable that follows a in some canonical clause;
    # index 0 is a sentinel that is never popped
    reach = list(range(n + 1))
    reach[0] = n + 1
    for c in clauses:
        a = abs(c[0])
        for l in c[1:]:
            b = abs(l)
            if b > reach[a]:
                reach[a] = b
            a = b
    # need[x] is the highest a <= x with reach[a] > x: a stack of candidates
    # that pops those that end at or before x
    need = [0] * (n + 1)
    stack = [0]
    for x in range(1, n + 1):
        if reach[x] > x:
            stack.append(x)
        while reach[stack[-1]] <= x:
            stack.pop()
        need[x] = stack[-1]
    # descending L: cut L joins at the bottom and the cuts x with
    # need(x) = L + 1 leave.  Leaving merges two blocks, so the largest block
    # only grows and one doubly linked list of cuts tracks it.
    leaving: list[list[int]] = [[] for _ in range(n + 1)]
    for x in range(k + 1, n + 1):
        leaving[need[x]].append(x)
    below, above = [0] * (n + 1), [0] * (n + 1)
    low, largest, best, base = n, 0, n - k, n
    for L in range(n - 1, k - 1, -1):
        above[L], below[low] = low, L
        largest = max(largest, low - L)
        low = L
        for x in leaving[L + 1]:
            b, a = below[x], above[x]
            above[b], below[a] = a, b
            largest = max(largest, a - b)
        if L - k + largest <= best:
            best, base = L - k + largest, L
    return [x for x in range(base, n + 1) if need[x] <= base]


def _eliminate_blocks(
    clauses: Sequence[tuple[int, ...]], k: int, n: int,
    cache: dict[tuple, list[tuple[int, ...]] | None],
) -> list[tuple[int, ...]] | None:
    """``_eliminate_existentials`` on a renumbered part, block by block.

    Each block of ``_block_cuts`` above the base bound is eliminated, top
    down, from the clauses that touch it, through ``cache``: the key is
    those clauses with the ports (variables up to the bound) numbered by
    first occurrence and the block's own variables by offset, or their sign
    flip if that is smaller.  The results, mapped back, join the other
    clauses with the subsumption checks of a resolvent, and the base
    existentials go last.
    """
    cuts = _block_cuts(clauses, k, n)
    base = cuts[0]
    # a clause belongs to the block of its highest variable, if any
    touching: list[list[tuple[int, ...]]] = [[] for _ in cuts[1:]]
    rest = []
    for c in clauses:
        top = abs(c[-1])
        (touching[bisect_left(cuts, top) - 1] if top > base else rest).append(c)
    resolved: list[tuple[int, ...]] = []
    for lo, hi, cs in reversed(list(zip(cuts, cuts[1:], touching))):
        ports = dict.fromkeys(abs(l) for c in cs for l in c if abs(l) <= base)
        glob = [0, *ports, *range(lo + 1, hi + 1)]
        local = {v: i for i, v in enumerate(glob) if v}
        named = sorted(tuple(sorted((local[l] if l > 0 else -local[-l] for l in c), key=abs))
                       for c in cs)
        flipped = sorted(tuple(-l for l in c) for c in named)
        sign = -1 if flipped < named else 1
        key = (len(ports), hi - lo, tuple(flipped if sign < 0 else named))
        if key not in cache:
            cache[key] = _eliminate_existentials(key[2], len(ports), len(glob) - 1)
        out = cache[key]
        if out is None:
            return None
        resolved.extend(
            tuple(sorted((sign * glob[l] if l > 0 else -sign * glob[-l] for l in c), key=abs))
            for c in out)
    return _eliminate_existentials(rest, k, n, resolved=resolved, top=base)


def _first_failure(
    q: Qbf2Formula,
    decide: Callable[[CnfFormula, int], PartVerdict],
    cache: dict[tuple, PartVerdict],
) -> PartVerdict:
    """('yes'|'no'|'budget', first failing assignment of ``q.universals``).

    Each part with clauses is renumbered and decided once per distinct
    renumbered part by ``decide(local, k)``; the first failing assignment of
    the whole formula is the least of the parts' first failing assignments,
    each extended by false.
    """
    candidates: list[tuple[bool, ...]] = []
    for us, es, clause_idx in _components(q):
        if not clause_idx:  # no constraint: true under every assignment
            continue
        # renumber the part: universals 1..k, then existentials, both in
        # declared order.  A matrix clause is canonical, so a stable sort by
        # variable keeps a negative literal before its positive twin and the
        # renumbered clause is canonical too.  The sorted clauses make the
        # cache key: equal keys are equal formulas up to clause order.
        lit: dict[int, int] = {}
        for i, v in enumerate(itertools.chain(us, es), 1):
            lit[v], lit[-v] = i, -i
        clauses = tuple(tuple(sorted(map(lit.__getitem__, q.matrix.clauses[j]), key=abs))
                        for j in clause_idx)
        key = (len(us), len(es), tuple(sorted(clauses)))
        if key not in cache:
            local = CnfFormula(len(us) + len(es), clauses, q.matrix.allows_duplicate_literals)
            cache[key] = decide(local, len(us))
        verdict, bits = cache[key]
        if verdict == "budget":
            return "budget", None
        if verdict == "no":
            assert bits is not None
            alpha = dict.fromkeys(q.universals, False)
            alpha.update(zip(us, bits))
            candidates.append(tuple(alpha.values()))
    if not candidates:
        return "yes", None
    return "no", min(candidates)


def qbf_truth(q: Qbf2Formula, *, conflict_budget: int = 1_000_000) -> QbfResult:
    """Decide the formula; a 'no' carries the lexicographically first failing
    universal assignment (declared order, false < true).

    A part that reaches the walk with more than ``MAX_UNIVERSAL_BITS``
    universals after elimination, or a solver call that runs out of
    ``conflict_budget``, makes the answer BUDGET.
    """
    if any(len(c) == 0 for c in q.matrix.clauses):
        return QbfResult(QbfValue.NO, {v: False for v in q.universals})
    # one cache serves the input's parts and the parts left by elimination:
    # a key fixes the answer, however the part was decided.  Beside it, the
    # eliminated blocks, keyed as in ``_eliminate_blocks``.
    cache: dict[tuple, PartVerdict] = {}
    blocks: dict[tuple, list[tuple[int, ...]] | None] = {}

    def walk(local: CnfFormula, k: int) -> PartVerdict:
        return _component_first_failure(local, k, conflict_budget)

    def eliminate_and_walk(local: CnfFormula, k: int) -> PartVerdict:
        clauses = _eliminate_blocks(local.clauses, k, local.n_vars, blocks)
        if clauses is None:
            return "no", (False,) * k
        n = local.n_vars
        reduced = Qbf2Formula(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)),
                              CnfFormula(n, tuple(clauses)))
        return _first_failure(reduced, walk, cache)

    verdict, bits = _first_failure(q, eliminate_and_walk, cache)
    if verdict == "budget":
        return QbfResult(QbfValue.BUDGET)
    if verdict == "yes":
        return QbfResult(QbfValue.YES)
    assert bits is not None
    return QbfResult(QbfValue.NO, dict(zip(q.universals, bits)))


# -- pipeline stages ---------------------------------------------------------

def triple_copy(q: Qbf2Formula) -> Qbf2Formula:
    """Three variable-disjoint copies under one prefix; truth is preserved."""
    n = q.matrix.n_vars
    matrix = CnfFormula(3 * n, tuple(triple(q.matrix.clauses, n)),
                        q.matrix.allows_duplicate_literals)
    return Qbf2Formula(sum(triple([q.universals], n), ()),
                       sum(triple([q.existentials], n), ()), matrix)


class PadVariant(Enum):
    USE_Q3 = "q3"
    USE_Q1MON = "q1mon"


def monotonize(q: Qbf2Formula) -> Qbf2Formula:
    """Replace mixed clauses, in triples, by the 96-variable combined enforcer.

    Triples pair the i-th mixed clause of each shape with the (i + k)-th and
    (i + 2k)-th, which matches same-source clauses across the copies produced
    by :func:`triple_copy`.  Gadget variables join the existential block.
    Raises :class:`MonotonizeError` unless each shape count is divisible by 3.
    """
    clauses, fresh, _ = splice(
        q.matrix.clauses, q.matrix.n_vars, mixed_triples(q.matrix.clauses), build_enforcer)
    matrix = cnf(
        clauses,
        n_vars=q.matrix.n_vars + len(fresh),
        allows_duplicate_literals=q.matrix.allows_duplicate_literals,
    )
    return Qbf2Formula(q.universals, q.existentials + tuple(fresh), matrix)


def build_Q3(alloc: FreshVarAllocator) -> Qbf2Formula:
    """Quantified yes-enforcer: 5 universals (1,1), 2 existentials (2,2)."""
    u, v, w, qv, r = alloc.reserve(5, "Q3/universal")
    a, b = alloc.reserve(2, "Q3/existential")
    clauses = [
        (u, r, a), (-u, -b, -a), (v, qv, b), (-v, -r, -a), (w, a, b), (-w, -qv, -b),
    ]
    matrix = cnf(clauses, n_vars=alloc.next_id - 1)
    return Qbf2Formula((u, v, w, qv, r), (a, b), matrix)


def build_Q1mon(alloc: FreshVarAllocator) -> Qbf2Formula:
    """Monotone quantified yes-enforcer: 5 universals and 4 existentials, all (2,2)."""
    u, v, w, qv, r = alloc.reserve(5, "Q1mon/universal")
    a, b, c, d = alloc.reserve(4, "Q1mon/existential")
    clauses = [
        (u, r, a), (-u, -b, -a), (v, qv, b), (-v, -r, -a), (w, a, b), (-w, -qv, -b),
        (u, r, c), (-u, -d, -c), (v, qv, d), (-v, -r, -c), (w, c, d), (-w, -qv, -d),
    ]
    matrix = cnf(clauses, n_vars=alloc.next_id - 1)
    return Qbf2Formula((u, v, w, qv, r), (a, b, c, d), matrix)


class PadError(ValueError):
    pass


def pad_to_balance(q: Qbf2Formula, variant: PadVariant) -> Qbf2Formula:
    """Append fresh quantified yes-enforcers until |universals| = |existentials|.

    Each five-universal enforcer nets +3 universals (two existentials) for
    USE_Q3 or +1 (four existentials) for USE_Q1MON, so the existential surplus
    must be divisible by 3 for USE_Q3.
    """
    surplus = len(q.existentials) - len(q.universals)
    if surplus < 0:
        raise PadError(f"more universals than existentials by {-surplus}; cannot pad")
    if surplus == 0:
        return q
    if variant is PadVariant.USE_Q3:
        if surplus % 3:
            raise PadError(f"existential surplus {surplus} is not divisible by 3")
        blocks = surplus // 3
        builder = build_Q3
    else:
        blocks = surplus
        builder = build_Q1mon
    # one block, copied at offsets b * width: a uniform shift keeps every
    # clause in canonical order; each copy maps its literals through one
    # table, so a literal is one int object however often it occurs
    base = q.matrix.n_vars
    block = builder(FreshVarAllocator(base + 1))
    width = block.matrix.n_vars - base
    universals = list(q.universals)
    existentials = list(q.existentials)
    clauses = list(q.matrix.clauses)
    for off in range(0, blocks * width, width):
        shift = {v: v + off for v in range(base + 1, base + width + 1)}
        shift.update({-v: -w for v, w in shift.items()})
        universals.extend(map(shift.__getitem__, block.universals))
        existentials.extend(map(shift.__getitem__, block.existentials))
        clauses.extend(tuple(map(shift.__getitem__, c)) for c in block.matrix.clauses)
    matrix = CnfFormula(base + blocks * width, tuple(clauses),
                        q.matrix.allows_duplicate_literals)
    return Qbf2Formula(tuple(universals), tuple(existentials), matrix)


def transform_1122(q: Qbf2Formula) -> Qbf2Formula:
    """Balanced (1,1,2,2) instance to a monotone one of the same truth value."""
    rep = validate_balanced(q, BalanceSpec(1, 1, 2, 2, require_equal_counts=True))
    if not rep.verdict:
        raise InvalidInstanceError(rep, "balanced (1,1,2,2) input")
    return pad_to_balance(monotonize(triple_copy(q)), PadVariant.USE_Q3)


def transform_2222(q: Qbf2Formula) -> Qbf2Formula:
    """Balanced (2,2,2,2) instance to a monotone one of the same truth value."""
    rep = validate_balanced(q, BalanceSpec(2, 2, 2, 2, require_equal_counts=True))
    if not rep.verdict:
        raise InvalidInstanceError(rep, "balanced (2,2,2,2) input")
    return pad_to_balance(monotonize(triple_copy(q)), PadVariant.USE_Q1MON)


# -- QDIMACS -----------------------------------------------------------------

def read_qdimacs(text: str) -> Qbf2Formula:
    """Parse a two-block (a then e) QDIMACS file; both blocks may be empty.

    The matrix is read in the strict dialect: a clause that repeats a
    variable is rejected.  Every malformed input, quantifier prefix
    included, raises :class:`ParseError`.
    """
    universals: list[int] = []
    existentials: list[int] = []
    seen_e = False

    def quantifier(line: str, lineno: int, n_vars: int | None, after_clauses: bool) -> None:
        nonlocal seen_e
        if n_vars is None:
            raise ParseError("quantifier line before header", lineno)
        if after_clauses:
            raise ParseError("quantifier line after clauses", lineno)
        toks = line.split()
        if toks[-1] != "0":
            raise ParseError("quantifier line missing 0 terminator", lineno)
        try:
            ids = [int(t) for t in toks[1:-1]]
        except ValueError:
            raise ParseError(f"invalid variable in quantifier line {line!r}", lineno) from None
        if any(i <= 0 or i > n_vars for i in ids):
            raise ParseError("quantified variable out of range", lineno)
        if toks[0] == "a":
            if seen_e:
                raise ParseError("universal block after existential block", lineno)
            universals.extend(ids)
        else:
            seen_e = True
            existentials.extend(ids)

    n_vars, clauses = _parse_dimacs(text, quantifier)
    try:
        return Qbf2Formula(tuple(universals), tuple(existentials),
                           CnfFormula(n_vars, tuple(clauses)))
    except ValueError as e:  # the clause checks and the quantifier-prefix checks
        raise ParseError(str(e)) from None


def write_qdimacs(q: Qbf2Formula) -> str:
    """The matrix as DIMACS with the nonempty quantifier blocks after the header."""
    header, body = write_dimacs(q.matrix).split("\n", 1)
    prefix = "".join(f"{kind} {' '.join(map(str, block))} 0\n"
                     for kind, block in (("a", q.universals), ("e", q.existentials)) if block)
    return f"{header}\n{prefix}{body}"

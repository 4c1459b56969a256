"""Two-level quantified CNF: data model, truth by existential elimination and
a per-component walk with witness reuse, and the monotonization / balancing
pipelines.

A formula is a single universal block followed by a single existential block
over a CNF matrix.  Truth takes two passes over variable-disjoint parts (by
union-find over a flat parent array, the parts in order of their smallest
variable), each handling structurally identical parts once: the first
eliminates the existentials of the input's parts, the second splits the
clauses left and walks each part's universal assignments in lexicographic
order (declared variable order, false before true), checking existential
satisfiability with the clause-learning solver.  The verdict and the reported
counterexample are exactly those of plain enumeration over the whole formula.

In the first pass each distinct part loses its existentials to DP resolution
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
false under every assignment, so its first counterexample is all-false.  The
clauses left, over the input's variables, are what the second pass splits.
On the pipelines' outputs every existential goes, the 96-variable enforcers
that join the three copies of a formula included, and the walk is left with
clauses over the universals alone.

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
numbered by first occurrence in matrix order and the block's own variables
by offset, taking the smaller of the block and its sign flip.  The results,
mapped back, join the other clauses with the subsumption checks of a
resolvent, and the base existentials go last.

Within a part of the walk, existential witnesses are reused.  Each SAT
answer leaves its universal residue: the universal parts of the clauses that
the model's existential part leaves unsatisfied.  Every universal assignment
that satisfies the residue is extended by that existential part to a model
of the whole matrix.  The truth-table kernel (:mod:`.kernels`) turns each
residue into its satisfying set, which is ORed into one coverage bitmap of
2^k bits for a part with k universals, and the walk jumps to the lowest
uncovered assignment above the current one; an empty residue or a full map
makes the part true.  Only assignments that do have an extension are skipped
and the walk keeps its order, so the first assignment the solver refutes is
still the lexicographically first counterexample.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Iterable, Sequence
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
    validate_instance,
)
from .gadgets import FreshVarAllocator
from .reductions import MonotonizeError, build_enforcer, copies, mixed_triples, splice
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

# a part's answer: YES, NO with the lexicographically first failing
# assignment of its universals, or BUDGET
PartVerdict = tuple[QbfValue, tuple[bool, ...] | None]


def _components(
    universals: Sequence[int], existentials: Sequence[int], clauses: Sequence[tuple[int, ...]]
) -> list[tuple[list[int], list[int], list[int]]]:
    """Variable-disjoint parts: (universals, existentials, clause indices).

    Parts come in order of their smallest variable.  Within a part the
    universals and the existentials keep their given order and the clause
    indices ascend.  Every clause must be non-empty, over the given
    variables.
    """
    variables = sorted(itertools.chain(universals, existentials))
    # union-find on a flat parent array with path halving: the root of each
    # clause's first variable absorbs the roots of the others
    parent = list(range(variables[-1] + 1 if variables else 1))
    for c in clauses:
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
    for v in variables:
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[v] = r
        index.setdefault(r, len(index))
    parts: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in index]
    for v in universals:
        parts[index[parent[v]]][0].append(v)
    for v in existentials:
        parts[index[parent[v]]][1].append(v)
    for j, c in enumerate(clauses):
        parts[index[parent[abs(c[0])]]][2].append(j)
    return parts


def _component_first_failure(local: CnfFormula, k: int, conflict_budget: int) -> PartVerdict:
    """(YES|NO|BUDGET, lexicographically first failing assignment of the
    universals 1..k of a renumbered part; NO only after the solver refutes
    it, BUDGET when k exceeds ``MAX_UNIVERSAL_BITS``).

    The residue of each SAT answer goes through ``kernels.sat_words`` into a
    2^k-bit coverage map; the next assignment asked is the lowest one above
    the current that the map leaves uncovered, and a full map means YES.
    """
    if k > MAX_UNIVERSAL_BITS:
        return QbfValue.BUDGET, None
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
            return QbfValue.BUDGET, None
        if res.status is Status.UNSAT:
            return QbfValue.NO, bits
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
            return QbfValue.YES, None
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
    # occ[l] holds the live clauses with literal l; it has 2n + 1 entries,
    # so occ[-l] is entry 2n + 1 - l.  live keeps the live clauses in the
    # order they joined.
    occ: list[set[frozenset[int]]] = [set() for _ in range(2 * n + 1)]
    live: dict[frozenset[int], None] = {}

    def add(c: frozenset[int]) -> None:
        live[c] = None
        for l in c:
            occ[l].add(c)

    def remove(c: frozenset[int]) -> None:
        del live[c]
        for l in c:
            occ[l].discard(c)

    def admit(r: frozenset[int]) -> None:
        # skip a clause that a live one subsumes, else add it and remove the
        # live clauses it subsumes, which all hold each literal of r
        if any(c <= r for l in r for c in occ[l]):
            return
        for c in [c for c in occ[max(r, key=abs)] if r < c]:
            remove(c)
        add(r)

    for t in clauses:
        c = frozenset(t)
        if c not in live and not any(-l in c for l in c):
            add(c)
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
    return [tuple(sorted(c, key=abs)) for c in live]


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
        own = range(lo + 1, hi + 1)
        glob = [0, *ports, *own]
        named = sorted(_renumbered(ports, own, cs))
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


def _renumbered(
    us: Sequence[int], es: Sequence[int], clauses: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """A part's clauses, in their order, with ``us`` numbered 1..k and then
    ``es``, both in their order.  A stable sort by variable keeps a negative
    literal before its positive twin, so a canonical clause stays canonical."""
    lit: dict[int, int] = {}
    for i, v in enumerate(itertools.chain(us, es), 1):
        lit[v], lit[-v] = i, -i
    return tuple(tuple(sorted(map(lit.__getitem__, c), key=abs)) for c in clauses)


def qbf_truth(q: Qbf2Formula, *, conflict_budget: int = 1_000_000) -> QbfResult:
    """Decide the formula; a 'no' carries the lexicographically first failing
    universal assignment (declared order, false < true).

    Two passes, each over the parts of a clause list, renumbered by
    ``_renumbered`` and handled once per distinct renumbered part (equal
    clauses up to order).  The first eliminates each part of the input with
    ``_eliminate_blocks``, in matrix order, and maps the clauses left back
    to the input's variables; an empty resolvent makes the all-false
    assignment fail.  The second splits what is left, over the variables it
    still mentions, and walks each part with ``_component_first_failure``.
    The first failing assignment is the least of the parts' first failing
    assignments, each extended by false.  A part that reaches the walk with
    more than ``MAX_UNIVERSAL_BITS`` universals, or a solver call that runs
    out of ``conflict_budget``, makes the answer BUDGET whatever the other
    parts give.
    """
    all_false = (False,) * q.p
    if any(len(c) == 0 for c in q.matrix.clauses):
        return QbfResult(QbfValue.NO, dict(zip(q.universals, all_false)))
    # eliminate: each distinct part's clauses left, None after an empty
    # resolvent, and the eliminated blocks, keyed as in ``_eliminate_blocks``
    eliminated: dict[tuple, list[tuple[int, ...]] | None] = {}
    blocks: dict[tuple, list[tuple[int, ...]] | None] = {}
    candidates: list[tuple[bool, ...]] = []
    left: list[tuple[int, ...]] = []
    for us, es, idx in _components(q.universals, q.existentials, q.matrix.clauses):
        if not idx:  # no constraint: true under every assignment
            continue
        # not sorted: the block keys number the ports by first occurrence
        clauses = _renumbered(us, es, (q.matrix.clauses[j] for j in idx))
        key = (len(us), len(es), tuple(sorted(clauses)))
        if key not in eliminated:
            eliminated[key] = _eliminate_blocks(clauses, len(us), len(us) + len(es), blocks)
        out = eliminated[key]
        if out is None:
            candidates.append(all_false)
            continue
        glob = (0, *us, *es)
        left.extend(tuple(glob[l] if l > 0 else -glob[-l] for l in c) for c in out)
    # walk: each distinct part's answer
    walked: dict[tuple, PartVerdict] = {}
    mentioned = {abs(l) for c in left for l in c}
    for us, es, idx in _components([u for u in q.universals if u in mentioned],
                                   [e for e in q.existentials if e in mentioned], left):
        clauses = _renumbered(us, es, (left[j] for j in idx))
        key = (len(us), len(es), tuple(sorted(clauses)))
        if key not in walked:
            local = CnfFormula(len(us) + len(es), clauses)
            walked[key] = _component_first_failure(local, len(us), conflict_budget)
        value, bits = walked[key]
        if value is QbfValue.BUDGET:
            return QbfResult(QbfValue.BUDGET)
        if value is QbfValue.NO:
            alpha = dict.fromkeys(q.universals, False)
            alpha.update(zip(us, bits))
            candidates.append(tuple(alpha.values()))
    if not candidates:
        return QbfResult(QbfValue.YES)
    return QbfResult(QbfValue.NO, dict(zip(q.universals, min(candidates))))


# -- pipeline stages ---------------------------------------------------------

def _qbf_copies(q: Qbf2Formula, width: int, count: int) -> tuple[tuple, tuple, tuple]:
    """The blocks and clauses of ``count`` copies of q, copy-major, copy k
    shifted by k * width; one :func:`copies` call, so one table per copy."""
    rows = copies([q.universals, q.existentials, *q.matrix.clauses], width, count)
    stride = 2 + q.matrix.m
    return (tuple(itertools.chain.from_iterable(rows[0::stride])),
            tuple(itertools.chain.from_iterable(rows[1::stride])),
            tuple(c for j in range(0, len(rows), stride) for c in rows[j + 2:j + stride]))


def triple_copy(q: Qbf2Formula) -> Qbf2Formula:
    """Three variable-disjoint copies under one prefix; truth is preserved."""
    n = q.matrix.n_vars
    universals, existentials, clauses = _qbf_copies(q, n, 3)
    return Qbf2Formula(universals, existentials,
                       CnfFormula(3 * n, clauses, q.matrix.allows_duplicate_literals))


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
    matrix = CnfFormula(q.matrix.n_vars + len(fresh), tuple(clauses),
                        q.matrix.allows_duplicate_literals)
    return Qbf2Formula(q.universals, q.existentials + tuple(fresh), matrix)


def _build_Q(alloc: FreshVarAllocator, label: str, n_existentials: int) -> Qbf2Formula:
    """Five universals u, v, w, q, r and the six-clause template on each
    consecutive pair (a, b) of ``n_existentials`` existentials."""
    u, v, w, qv, r = alloc.reserve(5, f"{label}/universal")
    es = alloc.reserve(n_existentials, f"{label}/existential")
    # each clause in canonical order, as u < v < w < q < r < a < b
    clauses = tuple(
        c for a, b in zip(es[0::2], es[1::2])
        for c in ((u, r, a), (-u, -a, -b), (v, qv, b), (-v, -r, -a), (w, a, b), (-w, -qv, -b))
    )
    return Qbf2Formula((u, v, w, qv, r), tuple(es), CnfFormula(alloc.next_id - 1, clauses))


def build_Q3(alloc: FreshVarAllocator) -> Qbf2Formula:
    """Quantified yes-enforcer: 5 universals (1,1), 2 existentials (2,2)."""
    return _build_Q(alloc, "Q3", 2)


def build_Q1mon(alloc: FreshVarAllocator) -> Qbf2Formula:
    """Monotone quantified yes-enforcer: 5 universals and 4 existentials, all
    (2,2); the Q3 template on (a, b), then on (c, d)."""
    return _build_Q(alloc, "Q1mon", 4)


class PadError(ValueError):
    pass


def pad_to_balance(q: Qbf2Formula, variant: PadVariant) -> Qbf2Formula:
    """Append fresh quantified yes-enforcers until |universals| = |existentials|.

    Each five-universal enforcer nets +3 universals (two existentials) for
    USE_Q3 or +1 (four existentials) for USE_Q1MON, so the existential surplus
    must be divisible by 3 for USE_Q3.  One enforcer is built above the
    input's variables; :func:`copies`, which also triples, shifts it into
    the others, keeping every clause canonical.
    """
    surplus = len(q.existentials) - len(q.universals)
    if surplus < 0:
        raise PadError(f"more universals than existentials by {-surplus}; cannot pad")
    if surplus == 0:
        return q
    builder = build_Q3 if variant is PadVariant.USE_Q3 else build_Q1mon
    base = q.matrix.n_vars
    block = builder(FreshVarAllocator(base + 1))
    net = len(block.universals) - len(block.existentials)
    if surplus % net:
        raise PadError(f"existential surplus {surplus} is not divisible by {net}")
    blocks = surplus // net
    width = block.matrix.n_vars - base
    universals, existentials, clauses = _qbf_copies(block, width, blocks)
    matrix = CnfFormula(base + blocks * width, q.matrix.clauses + clauses,
                        q.matrix.allows_duplicate_literals)
    return Qbf2Formula(q.universals + universals, q.existentials + existentials, matrix)


def _transform(q: Qbf2Formula, s: int, variant: PadVariant) -> Qbf2Formula:
    """Validate a balanced (s,s,2,2) instance, then triple, monotonize and pad."""
    rep = validate_balanced(q, BalanceSpec(s, s, 2, 2, require_equal_counts=True))
    if not rep.verdict:
        raise InvalidInstanceError(rep, f"balanced ({s},{s},2,2) input")
    return pad_to_balance(monotonize(triple_copy(q)), variant)


def transform_1122(q: Qbf2Formula) -> Qbf2Formula:
    """Balanced (1,1,2,2) instance to a monotone one of the same truth value."""
    return _transform(q, 1, PadVariant.USE_Q3)


def transform_2222(q: Qbf2Formula) -> Qbf2Formula:
    """Balanced (2,2,2,2) instance to a monotone one of the same truth value."""
    return _transform(q, 2, PadVariant.USE_Q1MON)


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

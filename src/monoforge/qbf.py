"""Two-level quantified CNF: data model, truth by existential elimination and
a per-component walk with witness reuse, and the monotonization / balancing
pipelines.

A formula is a single universal block followed by a single existential block
over a CNF matrix.  Its constructor checks the prefix against the matrix's
literals only when the prefix is not n distinct variables in 1..n: such a
prefix is all of 1..n, so every matrix variable is quantified.  Truth takes
one pass over the variable-disjoint parts (by union-find over a flat parent
array, the parts in order of their smallest variable; the same pass fills a
table of local ids indexed by literal and renumbers each part's clauses, so
a part numbered in increasing variable order, as every padding copy is,
needs no sort).  Each distinct part is decided once, in its own ids: its
existentials are eliminated (:mod:`.elimination`), the clauses left split
again, and each of those parts walks its universal assignments in
lexicographic order (declared variable order, false before true), checking
existential satisfiability with the clause-learning solver; only the walked
universals are mapped back.  The verdict and the reported counterexample
are exactly those of plain enumeration over the whole formula.

Within a part of the walk, existential witnesses are reused.  Each SAT
answer leaves its universal residue: the universal parts of the clauses that
the model's existential part leaves unsatisfied.  Every universal assignment
that satisfies the residue is extended by that existential part to a model
of the whole matrix.  A second solver, the abstraction, keeps as its models
the assignments no residue covers (Janota & Marques-Silva, "Abstraction-Based
Algorithm for 2QBF", SAT 2011): the walk asks the least of them next, and an
unsatisfiable abstraction makes the part true.  Only assignments that do
have an extension are skipped and the walk keeps its order, so the first
assignment the solver refutes is still the lexicographically first
counterexample.

The pipeline stages (tripling, monotonization, padding) make each matrix
only of clauses of formulas already built: the input's, its shifted copies,
the enforcers' and the padding block's shifted copies.  So they build it
with :func:`.formula.formula_of_copies`, which checks it by construction
with one comparison per source, and their prefixes are all of 1..n.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .elimination import eliminate_blocks
from .fileio import ParseError, parse_dimacs, write_dimacs
from .formula import (
    Assignment,
    CnfFormula,
    InvalidInstanceError,
    ValidationReport,
    Violation,
    formula_of_copies,
    validate_instance,
)
from .gadgets import FreshVarAllocator
from .reductions import MonotonizeError, build_enforcer, copies, mixed_triples, splice
from .solver import Solver, SolveResult, Status


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
        # n distinct variables in 1..n are all of them, so they quantify every
        # matrix variable without a scan of the literals
        n = self.matrix.n_vars
        if len(u) + len(e) == n and all(1 <= min(b) and max(b) <= n for b in (u, e) if b):
            return
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

# a part's answer: YES, NO with the lexicographically first failing
# assignment of its universals, or BUDGET
PartVerdict = tuple[QbfValue, tuple[bool, ...] | None]


def _components(
    universals: Sequence[int], existentials: Sequence[int], clauses: Sequence[tuple[int, ...]]
) -> list[tuple[list[int], list[int], list[tuple[int, ...]]]]:
    """Variable-disjoint parts: (universals, existentials, clauses), each
    part's clauses renumbered, its universals 1..k and then its
    existentials, each clause kept canonical.

    Parts come in order of their smallest variable.  Within a part the
    universals and the existentials keep their given order and the clauses
    keep theirs.  Every clause must be canonical and non-empty, over the
    given variables.
    """
    variables = sorted(itertools.chain(universals, existentials))
    top = variables[-1] if variables else 0
    # union-find on a flat parent array with path halving: the root of each
    # clause's first variable absorbs the roots of the others
    parent = list(range(top + 1))
    for c in clauses:
        r = abs(c[0])
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        for l in c:
            x = abs(l)
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            parent[x] = r
    # number the parts by smallest variable; part[l] and lid[l] (local id)
    # are indexed by literal, with 2 * top + 1 entries, so a negative
    # literal's entry lies past top
    index: dict[int, int] = {}
    part = [0] * (2 * top + 1)
    for v in variables:
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        part[v] = part[-v] = index.setdefault(r, len(index))
    parts: list[tuple[list[int], list[int], list[tuple[int, ...]]]] = [
        ([], [], []) for _ in index]
    for v in universals:
        parts[part[v]][0].append(v)
    for v in existentials:
        parts[part[v]][1].append(v)
    lid = [0] * (2 * top + 1)
    # a part numbered in increasing variable order keeps a canonical clause
    # canonical; in any other, a stable sort by variable restores the order
    increasing = []
    for us, es, _ in parts:
        order = us + es
        for i, v in enumerate(order, 1):
            lid[v], lid[-v] = i, -i
        increasing.append(order == sorted(order))
    get = lid.__getitem__
    add = [cs.append for _, _, cs in parts]
    for c in clauses:
        j = part[c[0]]
        if increasing[j]:
            add[j](tuple(map(get, c)))
        else:
            add[j](tuple(sorted(map(get, c), key=abs)))
    return parts


def _component_first_failure(local: CnfFormula, k: int, conflict_budget: int) -> PartVerdict:
    """(YES|NO|BUDGET, lexicographically first failing assignment of the
    universals 1..k of a renumbered part; NO only after the matrix solver
    refutes it, BUDGET once the part's ``conflict_budget`` runs out).

    The abstraction holds the universals and a selector k + j per row j, a
    clause with a non-tautological universal part: the clauses (-l, -(k + j))
    for each literal l of that part make a true selector force the part
    false, and each witness adds the OR of its residue rows' selectors.  One
    pool of ``conflict_budget`` pays every solve's conflicts and one unit per step.
    """
    # clauses with no universal literal, or both literals of one, never
    # constrain a residue; the others are the rows
    existential: list[list[int]] = []
    selecting: list[tuple[int, int]] = []
    for c in local.clauses:
        us = [l for l in c if abs(l) <= k]
        if us and not any(-l in us for l in us):
            existential.append([l for l in c if abs(l) > k])
            selecting.extend((-l, -(k + len(existential))) for l in us)
    matrix = Solver(local)
    abstraction = Solver(CnfFormula(k + len(existential), tuple(selecting)))
    pool = conflict_budget

    def ask(solver: Solver, assumptions: list[int]) -> SolveResult:
        nonlocal pool
        solver.conflict_budget = pool
        res = solver.solve(assumptions)
        pool -= res.conflicts
        return res

    bits = (False,) * k
    while True:
        res = ask(matrix, [i if b else -i for i, b in enumerate(bits, 1)])
        if res.status is not Status.SAT:
            return (QbfValue.NO, bits) if res.status is Status.UNSAT else (QbfValue.BUDGET, None)
        abstraction.add_clause(k + 1 + j for j, ex in enumerate(existential)
                               if not any(res.model[abs(l)] == (l > 0) for l in ex))
        # a step costs a unit even when its solves cost no conflict, so the
        # pool bounds the number of steps too
        pool -= 1
        if pool < 0:
            return QbfValue.BUDGET, None
        # the least model: from any model, try each universal it sets true as false
        res = ask(abstraction, [])
        for i in range(1, k + 1):
            if res.status is Status.SAT and res.model[i]:
                trial = ask(abstraction, [j if res.model[j] else -j for j in range(1, i)] + [-i])
                if trial.status is not Status.UNSAT:
                    res = trial
        if res.status is not Status.SAT:
            return (QbfValue.YES, None) if res.status is Status.UNSAT else (QbfValue.BUDGET, None)
        # every assignment up to ``bits`` is covered, its own by its witness
        following = tuple(res.model[i] for i in range(1, k + 1))
        if following <= bits:
            raise AssertionError("internal error: the walk does not move up")
        bits = following


def _parts(
    us: Sequence[int], es: Sequence[int], clauses: Sequence[tuple[int, ...]],
    memo: dict[tuple, Any], decide: Callable[[list[tuple[int, ...]], int, int], Any],
) -> Iterator[tuple[list[int], Any]]:
    """(universals, answer) per part of ``_components`` that has clauses:
    ``decide(local, k, n)`` on its renumbered clauses, once per distinct
    renumbered part (equal clauses up to order) through ``memo``."""
    for part_us, part_es, local in _components(us, es, clauses):
        if local:  # a part without clauses is true under every assignment
            # sorted, so that parts equal up to clause order share one entry:
            # on the pipeline outputs of p = 27-90 sources, a key taken as
            # numbered walks three parts where this one walks one
            key = (len(part_us), len(part_es), tuple(sorted(local)))
            if key not in memo:
                memo[key] = decide(local, len(part_us), len(part_us) + len(part_es))
            yield part_us, memo[key]


def qbf_truth(q: Qbf2Formula, *, conflict_budget: int = 1_000_000) -> QbfResult:
    """Decide the formula; a 'no' carries the lexicographically first failing
    universal assignment (declared order, false < true).

    One pass over the distinct parts of the input that ``_parts`` gives,
    each decided in its own ids: ``eliminate_blocks`` (its blocks memoized
    for the process), then ``_parts`` over the clauses left and
    ``_component_first_failure`` on each distinct part of those.  An empty
    resolvent makes the all-false assignment fail.  The first failing
    assignment is the least of the walked parts' first failing assignments,
    only their universals mapped back, each extended by false.  A walked
    part that spends its own ``conflict_budget``, on conflicts of either
    solver and one unit per step, makes the answer BUDGET whatever the
    other parts give.
    """
    all_false = (False,) * q.p
    if not all(q.matrix.clauses):  # an empty clause
        return QbfResult(QbfValue.NO, dict(zip(q.universals, all_false)))
    walked: dict[tuple, PartVerdict] = {}

    def decide(local: list[tuple[int, ...]], k: int, n: int
               ) -> list[tuple[list[int], PartVerdict]] | None:
        # the walked parts of the clauses left, over the ids they mention,
        # which ascend and so need no sort; None after an empty resolvent
        left = eliminate_blocks(local, k, n)
        if left is None:
            return None
        mentioned = {abs(l) for c in left for l in c}
        return list(_parts(
            [u for u in range(1, k + 1) if u in mentioned],
            [e for e in range(k + 1, n + 1) if e in mentioned], left, walked,
            lambda cs, k, n: _component_first_failure(CnfFormula(n, tuple(cs)), k,
                                                       conflict_budget)))

    candidates: list[tuple[bool, ...]] = []
    for us, walks in _parts(q.universals, q.existentials, q.matrix.clauses, {}, decide):
        if walks is None:
            candidates.append(all_false)
            continue
        for local_us, (value, bits) in walks:
            if value is QbfValue.BUDGET:
                return QbfResult(QbfValue.BUDGET)
            if value is QbfValue.NO:
                alpha = dict.fromkeys(q.universals, False)
                alpha.update(zip([us[u - 1] for u in local_us], bits))
                candidates.append(tuple(alpha.values()))
    if not candidates:
        return QbfResult(QbfValue.YES)
    return QbfResult(QbfValue.NO, dict(zip(q.universals, min(candidates))))


# -- pipeline stages ---------------------------------------------------------

def _qbf_copies(q: Qbf2Formula, width: int, count: int) -> tuple[tuple, tuple, tuple]:
    """The blocks and clauses of ``count`` copies of q, copy-major, copy k
    shifted by k * width; one :func:`copies` call, so one column per literal
    of q and one int object per literal of each copy."""
    universals: list[int] = []
    existentials: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for us, es, *cs in copies([q.universals, q.existentials, *q.matrix.clauses], width, count):
        universals += us
        existentials += es
        clauses += cs
    return tuple(universals), tuple(existentials), tuple(clauses)


def triple_copy(q: Qbf2Formula) -> Qbf2Formula:
    """Three variable-disjoint copies under one prefix; truth is preserved."""
    n = q.matrix.n_vars
    universals, existentials, clauses = _qbf_copies(q, n, 3)
    matrix = formula_of_copies(3 * n, clauses, [(q.matrix, 2 * n)],
                               q.matrix.allows_duplicate_literals)
    return Qbf2Formula(universals, existentials, matrix)


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
    clauses, fresh, _, blocks = splice(
        q.matrix.clauses, q.matrix.n_vars, mixed_triples(q.matrix.clauses), build_enforcer)
    matrix = formula_of_copies(q.matrix.n_vars + len(fresh), tuple(clauses),
                               [(q.matrix, 0), *((b, 0) for b in blocks)],
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
    matrix = formula_of_copies(base + blocks * width, q.matrix.clauses + clauses,
                               [(q.matrix, 0), (block.matrix, (blocks - 1) * width)],
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
    """Parse a two-block (a then e) QDIMACS file; both blocks may be empty,
    and the lines of one kind join into one block.

    The matrix is read in the strict dialect: a clause that repeats a
    variable is rejected.  Every malformed input, quantifier prefix
    included, raises :class:`ParseError`.
    """
    prefix: list[tuple[str, list[int]]] = []
    n_vars, clauses = parse_dimacs(text, prefix)
    universals = tuple(v for kind, ids in prefix if kind == "a" for v in ids)
    existentials = tuple(v for kind, ids in prefix if kind == "e" for v in ids)
    try:
        return Qbf2Formula(universals, existentials, CnfFormula(n_vars, tuple(clauses)))
    except ValueError as e:  # the clause checks and the quantifier-prefix checks
        raise ParseError(str(e)) from None


def write_qdimacs(q: Qbf2Formula) -> str:
    """The matrix as DIMACS with the nonempty quantifier blocks after the header."""
    header, body = write_dimacs(q.matrix).split("\n", 1)
    prefix = "".join(f"{kind} {' '.join(map(str, block))} 0\n"
                     for kind, block in (("a", q.universals), ("e", q.existentials)) if block)
    return f"{header}\n{prefix}{body}"

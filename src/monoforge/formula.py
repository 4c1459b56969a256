"""Propositional data model.

Literals are signed integers in the DIMACS convention: ``v`` is the positive
literal of variable ``v >= 1`` and ``-v`` its negation.  A clause is a tuple of
literals kept in canonical order (ascending variable id, negative before
positive on ties), so clause equality is syntactic.  Formulas keep the clause
list in construction order; use :func:`canonicalize` when order-insensitive
equality is wanted.

A formula checks its clauses when it is built, in one pass per clause
(:func:`check_clauses`, the one clause validator): each literal must be a
nonzero int within range, and its (variable, sign) key must not be below the
previous literal's.  Once the keys never decrease, a repeated variable is two
adjacent literals over one variable, which the strict dialect rejects.
:func:`canonical_clause` returns a clause that is already canonical as it is,
and sorts only the others.

The public constructors (:class:`CnfFormula`, :func:`cnf`, the readers)
always check every clause.  A formula made only of clauses of formulas
already built, each clause shifted by a constant or taken as it is, is
checked by construction (:func:`formula_of_copies`): tripling, padding,
monotonization and the reductions build their outputs that way.  Adding k
to every variable keeps signs, order and distinctness, so such a clause is
canonical and repeats a variable only where its source clause does.  What is
left to check is one comparison per source, its n_vars plus its largest
shift against the new n_vars, and that its dialect is no looser; when either
fails, every clause is checked as the constructor checks it.  So the result
is exactly what the full check accepts, at a cost per source, not per
literal.

:func:`simplify_under` propagates units through occurrence lists and a heap
of the indices of unit clauses, so each value touches only the clauses over
its variable, in time near-linear in the formula's size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

Clause = tuple[int, ...]
Assignment = dict[int, bool]


class FormulaError(ValueError):
    """Raised for structurally invalid literals, clauses or formulas."""


def _lit_key(lit: int) -> tuple[int, bool]:
    return (abs(lit), lit > 0)


def canonical_clause(lits: Iterable[int]) -> Clause:
    """Return the literals sorted by variable id, negative first on ties."""
    c = tuple(lits)
    # an already canonical clause of plain nonzero ints is its own sort
    prev = top = 0
    for l in c:
        if type(l) is not int or l == 0:
            break
        a = abs(l)
        if a < top or a == top and l < prev:
            break
        top, prev = a, l
    else:
        return c
    for l in c:
        if not isinstance(l, int) or isinstance(l, bool) or l == 0:
            raise FormulaError(f"invalid literal {l!r}")
    return tuple(sorted(c, key=_lit_key))


def clause_vars(c: Clause) -> tuple[int, ...]:
    return tuple(abs(l) for l in c)


def clause_is_monotone(c: Clause) -> bool:
    return all(l > 0 for l in c) or all(l < 0 for l in c)


def clause_has_distinct_vars(c: Clause) -> bool:
    vs = clause_vars(c)
    return len(set(vs)) == len(vs)


def check_clauses(
    n_vars: int, clauses: Iterable[Clause], allows_duplicate_literals: bool
) -> None:
    """The checks of :class:`CnfFormula`: raise :class:`FormulaError` for a
    negative ``n_vars`` or for the first clause that is not canonical over
    1..n_vars in its dialect."""
    if n_vars < 0:
        raise FormulaError("n_vars must be non-negative")
    for j, c in enumerate(clauses):
        # a bad literal anywhere in the clause outranks its order error,
        # which outranks a repeat (adjacent literals with one abs)
        prev = top = 0
        unordered = repeats = False
        for l in c:
            if type(l) is not int and (not isinstance(l, int) or isinstance(l, bool)) or l == 0:
                raise FormulaError(f"clause {j}: invalid literal {l!r}")
            a = abs(l)
            if a > n_vars:
                raise FormulaError(f"clause {j}: literal {l} out of range 1..{n_vars}")
            if a <= top:
                if a < top or l < prev:
                    unordered = True
                else:
                    repeats = True
            top, prev = a, l
        if unordered:
            raise FormulaError(f"clause {j} is not in canonical order: {c}")
        if repeats and not allows_duplicate_literals:
            raise FormulaError(
                f"clause {j} repeats a variable but duplicates are not allowed: {c}"
            )


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..n_vars.

    ``allows_duplicate_literals`` marks the dialect in which a variable may
    occur more than once inside a clause.  ``symbol_table`` optionally maps
    variable ids to human-readable template names so gadget provenance
    survives composition; it does not take part in equality.
    """

    n_vars: int
    clauses: tuple[Clause, ...]
    allows_duplicate_literals: bool = False
    symbol_table: dict[int, str] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_clauses(self.n_vars, self.clauses, self.allows_duplicate_literals)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)


def cnf(
    clauses: Iterable[Iterable[int]],
    n_vars: int | None = None,
    allows_duplicate_literals: bool = False,
    symbol_table: dict[int, str] | None = None,
) -> CnfFormula:
    """Build a formula, canonicalizing every clause.

    ``n_vars`` defaults to the largest variable mentioned.
    """
    canon = tuple(canonical_clause(c) for c in clauses)
    if n_vars is None:
        n_vars = max((abs(l) for c in canon for l in c), default=0)
    return CnfFormula(n_vars, canon, allows_duplicate_literals, symbol_table)


def formula_of_copies(
    n_vars: int,
    clauses: tuple[Clause, ...],
    sources: Iterable[tuple[CnfFormula, int]],
    allows_duplicate_literals: bool = False,
) -> CnfFormula:
    """A formula whose clauses are all clauses of built formulas, each source
    given as (formula, shift): every clause taken from it is one of its
    clauses with each variable moved up by one shift from 0 to ``shift``,
    signs and order kept.

    Such a clause is canonical, and it repeats a variable only where its
    source clause does, so the checks of the constructor come down to one
    per source: its variables, shifted, stay within 1..n_vars, and its
    dialect allows no repeat that this one forbids.  If one of those fails,
    the clauses are checked in full, with the constructor's messages.
    """
    if not n_vars >= 0 or not all(
            0 <= shift and f.n_vars + shift <= n_vars
            and (allows_duplicate_literals or not f.allows_duplicate_literals)
            for f, shift in sources):
        check_clauses(n_vars, clauses, allows_duplicate_literals)
    out = object.__new__(CnfFormula)
    # the fields the frozen dataclass's __init__ sets, without its checks
    vars(out).update(n_vars=n_vars, clauses=clauses,
                     allows_duplicate_literals=allows_duplicate_literals, symbol_table=None)
    return out


def canonicalize(f: CnfFormula) -> CnfFormula:
    """Sort the clause list; duplicate clauses keep their multiplicity."""
    ordered = tuple(sorted(f.clauses, key=lambda c: tuple(_lit_key(l) for l in c)))
    return CnfFormula(f.n_vars, ordered, f.allows_duplicate_literals, f.symbol_table)


def negate_formula(f: CnfFormula) -> CnfFormula:
    """Flip the sign of every literal; clause count and widths are unchanged."""
    flipped = tuple(canonical_clause(-l for l in c) for c in f.clauses)
    return CnfFormula(f.n_vars, flipped, f.allows_duplicate_literals, f.symbol_table)


def map_variables(
    f: CnfFormula, var_map: Mapping[int, int], n_vars: int | None = None
) -> CnfFormula:
    """Rename variables through ``var_map`` (must cover every used variable)."""
    out = []
    for c in f.clauses:
        out.append(
            canonical_clause(
                (var_map[abs(l)] if l > 0 else -var_map[abs(l)]) for l in c
            )
        )
    if n_vars is None:
        n_vars = max((abs(l) for c in out for l in c), default=0)
    symbols = None
    if f.symbol_table is not None:
        symbols = {var_map[v]: s for v, s in f.symbol_table.items() if v in var_map}
    return CnfFormula(n_vars, tuple(out), f.allows_duplicate_literals, symbols)


@dataclass(frozen=True)
class OccurrenceProfile:
    """Per-variable (unnegated, negated) appearance counts with multiplicity."""

    counts: tuple[tuple[int, int], ...]  # index v-1 -> (pos, neg)

    def of(self, var: int) -> tuple[int, int]:
        return self.counts[var - 1]

    def items(self) -> Iterator[tuple[int, tuple[int, int]]]:
        return ((v + 1, pair) for v, pair in enumerate(self.counts))

    def total(self) -> int:
        return sum(p + n for p, n in self.counts)


def occurrence_profile(f: CnfFormula) -> OccurrenceProfile:
    pos = [0] * (f.n_vars + 1)
    neg = [0] * (f.n_vars + 1)
    for c in f.clauses:
        for l in c:
            if l > 0:
                pos[l] += 1
            else:
                neg[-l] += 1
    return OccurrenceProfile(tuple((pos[v], neg[v]) for v in range(1, f.n_vars + 1)))


class InstanceClass(Enum):
    MONO_3SAT_22 = "mono3sat22"
    MONO_3SAT_STAR_22 = "mono3sat-star22"
    THREE_SAT_22 = "3sat22"
    MONO_NAE_E2 = "mono-nae-e2"


@dataclass(frozen=True)
class Violation:
    rule: str
    index: int | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    verdict: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.verdict


class InvalidInstanceError(ValueError):
    """An operation's input failed its instance-class validation."""

    def __init__(self, report: ValidationReport, what: str = "input"):
        self.report = report
        lines = "; ".join(v.message for v in report.violations[:5])
        super().__init__(f"{what} fails validation: {lines}")


# the CLI prints these messages, so their text is part of its output
_OCCURRENCE_MESSAGES = {
    "occurrence": "variable {var} appears ({got[0]},{got[1]}), expected ({want[0]},{want[1]})",
    "universal-occurrence": "universal {var} appears {got}, expected {want}",
    "existential-occurrence": "existential {var} appears {got}, expected {want}",
}


def validate_instance(
    f: CnfFormula,
    groups: Iterable[tuple[str, Iterable[int], tuple[int, int]]],
    *,
    distinct: bool,
    monotone: bool,
    all_positive: bool,
    unique: bool,
) -> list[Violation]:
    """The width, clause and occurrence checks behind every instance class.

    Every clause must have width 3; the flags add three pairwise-distinct
    variables, monotone clauses, no negated literal, and no repeated clause.
    Each group ``(rule, variables, (pos, neg))`` requires every listed
    variable to appear exactly ``pos`` times unnegated and ``neg`` times
    negated, reported under ``rule``.  Violations come clause by clause,
    then repeated clauses, then groups in the order given.
    """
    v: list[Violation] = []
    repeats: list[Violation] = []
    seen: dict[Clause, int] = {}
    for j, c in enumerate(f.clauses):
        if len(c) != 3:
            v.append(Violation("width", j, f"clause {j} has width {len(c)}, expected 3"))
        if distinct and not clause_has_distinct_vars(c):
            v.append(Violation("distinct-vars", j, f"clause {j} repeats a variable: {c}"))
        if monotone and not clause_is_monotone(c):
            v.append(Violation("monotone", j, f"clause {j} is mixed: {c}"))
        if all_positive and any(l < 0 for l in c):
            v.append(Violation("all-positive", j, f"clause {j} has a negated literal: {c}"))
        if unique and (first := seen.setdefault(c, j)) != j:
            repeats.append(Violation("unique", j, f"clause {j} duplicates clause {first}: {c}"))
    v.extend(repeats)
    counts = occurrence_profile(f).counts
    for rule, variables, want in groups:
        for var in variables:
            got = counts[var - 1]
            if got != want:
                message = _OCCURRENCE_MESSAGES[rule].format(var=var, got=got, want=want)
                v.append(Violation(rule, var, message))
    return v


def validate_class(f: CnfFormula, cls: InstanceClass) -> ValidationReport:
    """Check membership in one of the bounded-occurrence instance classes.

    Failures are reported, never thrown.  The checks per class:

    * width 3 for every clause (all classes);
    * three pairwise-distinct variables per clause (off for the * dialect);
    * monotone clauses (monotone classes), all-positive for MONO_NAE_E2;
    * unique clauses (all but MONO_NAE_E2, where duplicate pairs are the
      point of the trivial-pair argument);
    * every variable unnegated twice and negated twice, or exactly two
      total all-positive appearances for MONO_NAE_E2.
    """
    nae = cls is InstanceClass.MONO_NAE_E2
    v = validate_instance(
        f,
        [("occurrence", range(1, f.n_vars + 1), (2, 0) if nae else (2, 2))],
        distinct=cls is not InstanceClass.MONO_3SAT_STAR_22,
        monotone=cls is not InstanceClass.THREE_SAT_22,
        all_positive=nae,
        unique=not nae,
    )
    return ValidationReport(not v, tuple(v))


def satisfies(f: CnfFormula, a: Mapping[int, bool]) -> bool:
    """True when the assignment sets at least one literal in each clause true.

    A literal is true when its variable's value (or, negated, the value's
    negation) is truthy; a variable missing from ``a`` or mapped to None
    makes its literals neither true nor false.
    """
    for c in f.clauses:
        for l in c:
            b = a.get(abs(l))
            if b is not None and (b if l > 0 else not b):
                break
        else:
            return False
    return True


def is_total(a: Mapping[int, bool], n_vars: int) -> bool:
    return set(a.keys()) == set(range(1, n_vars + 1))


def simplify_under(f: CnfFormula, a: Mapping[int, bool]) -> CnfFormula:
    """Apply a partial assignment, then propagate units exhaustively.

    Clauses satisfied by ``a`` are dropped and false literals removed.  Unit
    clauses already present or arising afterwards are propagated into the
    other clauses but stay in the output, so forced values remain visible.
    The unit propagated next is always the first one in clause order over an
    unassigned variable, and propagation stops once a clause is empty: an
    empty clause is retained to signal a conflict.
    """
    val: dict[int, bool] = dict(a)

    def keep(c: Clause) -> Clause | None:
        # None means drop (satisfied); true unit clauses stay as the record
        # of a forced value
        if len(set(c)) == 1:
            b = val.get(abs(c[0]))
            if b is not None and b == (c[0] > 0):
                return c
        out = []
        for l in c:
            b = val.get(abs(l))
            if b is None:
                out.append(l)
            elif b == (l > 0):
                return None
        return canonical_clause(out)

    def open_unit(c: Clause) -> bool:
        return len(set(c)) == 1 and val.get(abs(c[0])) is None

    # dropped clauses leave None, so the kept ones keep their indices; a
    # value changes only the clauses over its variable, which occ lists (a
    # clause that repeats it twice; keeping a kept clause again changes
    # nothing), and the least index in the heap of open units is the first
    # unit in order.  Without an open unit, or with an empty clause, nothing
    # propagates and occ is not built.
    clauses = [keep(c) for c in f.clauses]
    units = [j for j, c in enumerate(clauses) if c and open_unit(c)]  # ascending: a heap
    conflict = () in clauses
    if units and not conflict:
        occ: list[list[int]] = [[] for _ in range(f.n_vars + 1)]
        for j, c in enumerate(clauses):
            for l in c or ():
                occ[abs(l)].append(j)
    while not conflict and units:
        c = clauses[heapq.heappop(units)]
        if c is None or not open_unit(c):
            continue
        val[abs(c[0])] = c[0] > 0
        for j in occ[abs(c[0])]:
            if clauses[j] is not None:
                clauses[j] = kept = keep(clauses[j])
                if kept is not None:
                    conflict = conflict or not kept
                    if open_unit(kept):
                        heapq.heappush(units, j)

    return CnfFormula(
        f.n_vars, tuple(c for c in clauses if c is not None),
        f.allows_duplicate_literals, f.symbol_table,
    )

"""The two hardness reductions into the balanced monotone class, as executable
and provenance-tracked transformations, and the copy / splice core they share
with the pipelines of :mod:`monoforge.qbf`: :func:`copies` (tripling and
padding), :func:`mixed_triples`, :func:`build_enforcer` and :func:`splice`.

Outputs keep pass-through clauses first (in copy order after tripling) and
append gadget blocks in the order of their groups, so they are deterministic
functions of their inputs.  Every step keeps clauses canonical, and every
output clause is a clause of the input, possibly shifted by a copy, or of a
gadget block, so outputs are checked by construction
(:func:`.formula.formula_of_copies`) without a re-sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .formula import (
    Clause,
    CnfFormula,
    InstanceClass,
    InvalidInstanceError,
    clause_has_distinct_vars,
    formula_of_copies,
    validate_class,
)
from .gadgets import (
    FreshVarAllocator,
    GadgetInstantiation,
    build_S,
    build_frakM,
    build_frakMbar,
)


@dataclass(frozen=True)
class ProvenanceEntry:
    kind: str  # "original" | "gadget"
    source_clause: int | None
    gadget: str | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "source_clause": self.source_clause, "gadget": self.gadget}


@dataclass(frozen=True)
class ReductionStats:
    vars_added: int
    clauses_added: int
    enforcers_used: int


@dataclass(frozen=True)
class ReductionOutput:
    formula: CnfFormula
    provenance: tuple[ProvenanceEntry, ...]  # aligned with formula.clauses
    stats: ReductionStats

    def provenance_json(self) -> list[dict]:
        return [p.to_json() for p in self.provenance]


class MonotonizeError(ValueError):
    pass


def copies(
    rows: Sequence[Sequence[int]], width: int, count: int
) -> Iterator[list[tuple[int, ...]]]:
    """``count`` variable-disjoint copies of rows of literals, one list of
    rows per copy.

    Copy k adds k * width to every variable and keeps signs and order, so
    canonical clauses stay canonical and quantifier blocks keep their order.
    Each copy maps its literals through one table, so a literal is one int
    object however often it occurs.
    """
    lits = {l for row in rows for l in row}
    for k in range(count):
        shift = {l: l + k * width if l > 0 else l - k * width for l in lits}
        yield [tuple(map(shift.__getitem__, row)) for row in rows]


def _mixed_shape(c: Clause) -> int:
    """The number of positive literals, 1 or 2, of a mixed 3-clause; else 0."""
    pos = sum(1 for l in c if l > 0)
    return pos if len(c) == 3 and pos in (1, 2) else 0


def mixed_triples(clauses: Sequence[Clause]) -> list[tuple[int, int, int]]:
    """Group the mixed clauses into triples of one shape, shape-major.

    With 3k clauses of a shape, the t-th triple holds its t-th, (t + k)-th
    and (t + 2k)-th clause.  After tripling by :func:`copies` these are the
    three copies of one source clause, and the first index is that source
    clause.
    """
    a_idx, b_idx = ([j for j, c in enumerate(clauses) if _mixed_shape(c) == s] for s in (1, 2))
    if len(a_idx) % 3 or len(b_idx) % 3:
        raise MonotonizeError(
            f"mixed-clause counts not divisible by 3: {len(a_idx)} one-positive, "
            f"{len(b_idx)} one-negative"
        )
    triples = []
    for idxs in (a_idx, b_idx):
        k = len(idxs) // 3
        triples.extend((idxs[t], idxs[t + k], idxs[t + 2 * k]) for t in range(k))
    return triples


def build_enforcer(alloc: FreshVarAllocator, group: Sequence[Clause], first: int):
    """The 96-variable combined enforcer for three mixed clauses of one shape."""
    if _mixed_shape(group[0]) == 1:
        return build_frakM(alloc, group, tag=f"frakM{first}")
    return build_frakMbar(alloc, group, tag=f"frakMbar{first}")


def splice(
    clauses: Sequence[Clause],
    n_vars: int,
    groups: Sequence[Sequence[int]],
    build: Callable[..., GadgetInstantiation],
) -> tuple[list[Clause], range, list[tuple[int, str | None]], list[CnfFormula]]:
    """Replace each group of clause indices by the block that
    ``build(alloc, group_clauses, first_index)`` makes.

    Returns the clauses in no group, in input order, then the blocks in group
    order; the fresh variables, numbered from n_vars + 1; per output clause
    its input index (a block's is its group's first index) and the gadget
    tag, None for pass-through clauses; and the blocks' formulas.
    """
    replaced = {j for g in groups for j in g}
    source: list[tuple[int, str | None]] = [
        (j, None) for j in range(len(clauses)) if j not in replaced]
    out = [clauses[j] for j, _ in source]
    alloc = FreshVarAllocator(n_vars + 1)
    blocks = []
    for g in groups:
        inst = build(alloc, [clauses[j] for j in g], g[0])
        blocks.append(inst.formula)
        out.extend(inst.formula.clauses)
        source.extend([(g[0], inst.tag)] * inst.formula.m)
    return out, range(n_vars + 1, alloc.next_id), source, blocks


def _reduction_output(f, clauses, n_vars, groups, build) -> ReductionOutput:
    """The output of splicing ``clauses``, clauses of ``f`` each shifted by
    at most n_vars - f.n_vars, as the reductions return it."""
    out, fresh, source, blocks = splice(clauses, n_vars, groups, build)
    # clause j of a tripled list is a copy of source clause j mod m
    provenance = tuple(
        ProvenanceEntry("original" if tag is None else "gadget", j % f.m, tag)
        for j, tag in source
    )
    formula = formula_of_copies(n_vars + len(fresh), tuple(out),
                                [(f, n_vars - f.n_vars), *((b, 0) for b in blocks)])
    stats = ReductionStats(
        vars_added=formula.n_vars - f.n_vars,
        clauses_added=sum(1 for _, tag in source if tag is not None),
        enforcers_used=len(groups),
    )
    return ReductionOutput(formula, provenance, stats)


def _simulator(alloc, group, j) -> GadgetInstantiation:
    (c,) = group
    negative = c[0] < 0
    tag = f"Sbar{j}" if negative else f"S{j}"
    return build_S(alloc, *(abs(l) for l in c), negative=negative, tag=tag)


def reduce_star22_to_mono22(f: CnfFormula) -> ReductionOutput:
    """Eliminate duplicate-literal clauses from a monotone (2,2) instance.

    A positive clause with a duplicate, say (p or p or q), becomes one
    99-variable simulator block with ports (p, p, q); negative duplicates get
    the negated block.  Clauses without duplicates pass through unchanged.
    """
    rep = validate_class(f, InstanceClass.MONO_3SAT_STAR_22)
    if not rep.verdict:
        raise InvalidInstanceError(rep, "monotone *(2,2) input")
    groups = [(j,) for j, c in enumerate(f.clauses) if not clause_has_distinct_vars(c)]
    return _reduction_output(f, f.clauses, f.n_vars, groups, _simulator)


def reduce_3sat22_to_mono22(f: CnfFormula) -> ReductionOutput:
    """Monotonize a (2,2)-balanced 3-SAT instance by tripling.

    Three variable-disjoint copies make every mixed-clause shape count
    divisible by 3; each mixed source clause together with its two copies is
    then replaced by one 96-variable combined enforcer, in source-clause
    order.  Monotone clauses pass through in copy order.
    """
    rep = validate_class(f, InstanceClass.THREE_SAT_22)
    if not rep.verdict:
        raise InvalidInstanceError(rep, "(2,2)-balanced 3-SAT input")
    tripled = [c for copy in copies(f.clauses, f.n_vars, 3) for c in copy]
    # source-clause order; shape-major order slows the solver on the output
    groups = sorted(mixed_triples(tripled))
    return _reduction_output(f, tripled, 3 * f.n_vars, groups, build_enforcer)

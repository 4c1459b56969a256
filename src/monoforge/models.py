"""Model counting and enumeration.

Small universes (n_vars <= 22) go through the dense truth-table kernels on
Python ints; larger ones fall back to solve-and-block enumeration, which
requires a cap.  Models are returned in ascending assignment-index order on
the dense path (variable v is bit v-1 of the index).

Solve-and-block keeps one incremental :class:`~monoforge.solver.Solver` per
enumeration and adds each blocking clause to it, so learned clauses carry
over from one model to the next.  Neither check on a model trusts the
solver: each is checked against the formula, and a model already returned
raises ``AssertionError``.  A solver that runs out of conflicts raises
:class:`EnumerationBudgetError`.  The solver is imported when solve-and-block
runs, so a dense count loads neither it nor the proof checker.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernels
from .formula import Assignment, CnfFormula, satisfies

DENSE_VAR_LIMIT = 22


class EnumerationBudgetError(RuntimeError):
    """Solve-and-block ran out of conflicts before the enumeration ended."""


class ModelCount(NamedTuple):
    count: int
    capped: bool


class ModelEnumeration(NamedTuple):
    models: list[Assignment]
    capped: bool


def assignment_from_index(idx: int, n_vars: int) -> Assignment:
    return {v: bool((idx >> (v - 1)) & 1) for v in range(1, n_vars + 1)}


def _index_from_assignment(a: Assignment) -> int:
    idx = 0
    for v, b in a.items():
        if b:
            idx |= 1 << (v - 1)
    return idx


def count_models(f: CnfFormula, cap: int | None = None) -> ModelCount:
    """Exact satisfying-assignment count, or (cap, capped=True) past the cap."""
    if cap is not None and cap < 0:
        raise ValueError("cap must be non-negative")
    if f.n_vars <= DENSE_VAR_LIMIT:
        lits, widths = kernels.clause_arrays(f.clauses)
        limit = (1 << f.n_vars) + 1 if cap is None else cap + 1
        raw = kernels.count_sat(lits, widths, f.n_vars, limit)
        if cap is not None and raw > cap:
            return ModelCount(cap, True)
        return ModelCount(raw, False)
    if cap is None:
        raise ValueError(
            f"exact counting needs n_vars <= {DENSE_VAR_LIMIT}; pass a cap"
        )
    enum = _enumerate_blocking(f, cap)
    return ModelCount(len(enum.models), enum.capped)


def enumerate_models(f: CnfFormula, cap: int = 1 << 20) -> ModelEnumeration:
    """All distinct total models up to ``cap``, each verified against f."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if f.n_vars <= DENSE_VAR_LIMIT:
        lits, widths = kernels.clause_arrays(f.clauses)
        idxs = kernels.collect_sat(lits, widths, f.n_vars, cap + 1)
        capped = len(idxs) > cap
        models = [assignment_from_index(i, f.n_vars) for i in idxs[:cap]]
        for a in models:
            if not satisfies(f, a):
                raise AssertionError("internal error: enumerated non-model")
        return ModelEnumeration(models, capped)
    return _enumerate_blocking(f, cap)


def _enumerate_blocking(f: CnfFormula, cap: int) -> ModelEnumeration:
    """Solve-and-block on one solver; blocking clauses span all variables."""
    from .solver import Solver, Status

    models: list[Assignment] = []
    seen: set[int] = set()
    solver = Solver(f)
    while True:
        res = solver.solve()
        if res.status is Status.BUDGET:
            raise EnumerationBudgetError("conflict budget exhausted during enumeration")
        if res.status is Status.UNSAT:
            return ModelEnumeration(models, False)
        model = res.model
        assert model is not None
        if len(models) == cap:
            return ModelEnumeration(models, True)
        if not satisfies(f, model):
            raise AssertionError("internal error: enumerated non-model")
        idx = _index_from_assignment(model)
        if idx in seen:
            raise AssertionError("internal error: enumerated a model twice")
        seen.add(idx)
        models.append(model)
        solver.add_clause([-v if model[v] else v for v in range(1, f.n_vars + 1)])

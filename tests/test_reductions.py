import random

import pytest
from hypothesis import given, settings, strategies as st

from monoforge.formula import (
    CnfFormula,
    InstanceClass,
    InvalidInstanceError,
    canonical_clause,
    cnf,
    satisfies,
    validate_class,
)
from monoforge.generate import random_3sat22, random_mono_22, random_mono_3sat_star22
from monoforge.kernels import clause_arrays, count_sat
from monoforge.reductions import copies, reduce_3sat22_to_mono22, reduce_star22_to_mono22
from monoforge.solver import Status, solve


def brute_sat(f) -> bool:
    lits, widths = clause_arrays(f.clauses)
    return count_sat(lits, widths, f.n_vars, 1) > 0


def test_star_reduction_identity_without_duplicates():
    f = random_mono_22(9, random.Random(1))  # strict monotone (2,2), no duplicates
    out = reduce_star22_to_mono22(f)
    assert out.formula.clauses == f.clauses
    assert out.stats.enforcers_used == 0
    assert out.stats.vars_added == 0


def test_star_reduction_replaces_duplicate_clause(star22_corpus):
    f = next(
        g for g in star22_corpus
        if any(len({abs(l) for l in c}) < 3 for c in g.clauses)
    )
    dups = sum(1 for c in f.clauses if len({abs(l) for l in c}) < 3)
    out = reduce_star22_to_mono22(f)
    assert out.stats.enforcers_used == dups
    assert out.stats.vars_added == 99 * dups
    assert out.stats.clauses_added == 133 * dups
    assert validate_class(out.formula, InstanceClass.MONO_3SAT_22).verdict


def test_star_reduction_rejects_invalid_input():
    bad = cnf([[1, -2, 3]], n_vars=3)
    with pytest.raises(InvalidInstanceError) as err:
        reduce_star22_to_mono22(bad)
    assert err.value.report.violations


def test_star_reduction_corpus(star22_corpus):
    for f in star22_corpus:
        out = reduce_star22_to_mono22(f)
        assert validate_class(out.formula, InstanceClass.MONO_3SAT_22).verdict
        res = solve(out.formula)
        assert res.status in (Status.SAT, Status.UNSAT)
        assert (res.status is Status.SAT) == brute_sat(f)
        assert len(out.provenance) == out.formula.m
        if res.status is Status.SAT:  # the model transports to the source
            assert satisfies(f, {v: res.model[v] for v in range(1, f.n_vars + 1)})


def test_3sat22_reduction_monotone_input_passthrough():
    f = random_mono_22(9, random.Random(2))
    out = reduce_3sat22_to_mono22(f)
    assert out.stats.enforcers_used == 0
    assert out.formula.m == 3 * f.m
    assert out.formula.n_vars == 3 * f.n_vars
    assert validate_class(out.formula, InstanceClass.MONO_3SAT_22).verdict


def test_3sat22_reduction_corpus(sat22_corpus):
    for f in sat22_corpus:
        out = reduce_3sat22_to_mono22(f)
        assert validate_class(out.formula, InstanceClass.MONO_3SAT_22).verdict
        res = solve(out.formula)
        assert (res.status is Status.SAT) == brute_sat(f)
        assert len(out.provenance) == out.formula.m
        mixed = sum(1 for c in f.clauses if 1 <= sum(1 for l in c if l > 0) <= 2)
        assert out.stats.enforcers_used == mixed


def test_3sat22_model_transport(sat22_corpus):
    for f in sat22_corpus[:8]:
        out = reduce_3sat22_to_mono22(f)
        res = solve(out.formula)
        if res.status is not Status.SAT:
            continue
        restricted = {v: res.model[v] for v in range(1, f.n_vars + 1)}
        assert satisfies(f, restricted)


def test_provenance_covers_every_clause(sat22_corpus):
    f = sat22_corpus[0]
    out = reduce_3sat22_to_mono22(f)
    assert len(out.provenance) == out.formula.m
    kinds = {p.kind for p in out.provenance}
    assert kinds <= {"original", "gadget"}
    for p in out.provenance:
        assert 0 <= p.source_clause < f.m


def test_outputs_pass_the_public_constructor(sat22_corpus, star22_corpus):
    # the reductions check their output by construction (the *(2,2) one in
    # full, as its input's dialect is looser than its output's); the full
    # check accepts each output and rebuilds an equal formula
    outs = [reduce_3sat22_to_mono22(f) for f in sat22_corpus]
    outs += [reduce_star22_to_mono22(f) for f in star22_corpus]
    for out in outs:
        f = out.formula
        assert CnfFormula(f.n_vars, tuple(f.clauses), f.allows_duplicate_literals) == f


@pytest.mark.parametrize("reduce, f, message", [
    (reduce_3sat22_to_mono22, random_mono_3sat_star22(6, 1),
     "(2,2)-balanced 3-SAT input fails validation: clause 4 repeats a variable: (-3, -3, -6); "
     "clause 5 repeats a variable: (-1, -2, -2); clause 6 repeats a variable: (-5, -5, -6); "
     "clause 7 repeats a variable: (-1, -4, -4)"),
    (reduce_star22_to_mono22, random_3sat22(6, 21),
     "monotone *(2,2) input fails validation: clause 1 is mixed: (-1, 2, -4); clause 2 is "
     "mixed: (1, -3, 4); clause 3 is mixed: (1, -2, -5); clause 4 is mixed: (2, -5, 6); "
     "clause 6 is mixed: (-3, 5, 6)"),
])
def test_reductions_reject_malformed_input(reduce, f, message):
    with pytest.raises(InvalidInstanceError) as err:
        reduce(f)
    assert str(err.value) == message


@st.composite
def _canonical_rows(draw):
    """A width and canonical rows of literals over variables 1..width."""
    width = draw(st.integers(0, 8))
    row = st.just([])
    if width:
        row = st.lists(st.integers(1, width).flatmap(lambda v: st.sampled_from((v, -v))),
                       max_size=4)
    return width, [canonical_clause(r) for r in draw(st.lists(row, max_size=6))]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_canonical_rows(), st.integers(0, 4))
def test_copies_shifts_by_definition(spec, count):
    width, rows = spec
    per_copy = list(copies(rows, width, count))
    assert all(len(rows_k) == len(rows) for rows_k in per_copy)
    out = [row for rows_k in per_copy for row in rows_k]
    assert out == [tuple(l + k * width if l > 0 else l - k * width for l in row)
                   for k in range(count) for row in rows]
    assert all(canonical_clause(row) == row for row in out)

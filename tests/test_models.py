import pytest
from hypothesis import assume, given, settings, strategies as st

from monoforge import kernels, solver as solver_module
from monoforge.formula import cnf, satisfies
from monoforge.gadgets import build_core8, build_z_core
from monoforge.models import (
    ModelCount,
    _enumerate_blocking,
    _index_from_assignment,
    count_models,
    enumerate_models,
)


def test_count_examples():
    assert count_models(cnf([], n_vars=3)).count == 8
    assert count_models(cnf([[1, 2, 3]])).count == 7
    assert count_models(build_z_core()).count == 0
    assert count_models(build_core8()).count == 0


def test_enumerate_examples():
    res = enumerate_models(cnf([[1]]))
    assert res.models == [{1: True}] and not res.capped

    two = enumerate_models(cnf([[1, 2, 3], [-1, -2, -3]]))
    assert len(two.models) == 6

    assert enumerate_models(build_core8()).models == []


def test_count_matches_enumeration(sat22_corpus, star22_corpus):
    for f in (sat22_corpus + star22_corpus):
        if f.n_vars > 16:
            continue
        enum = enumerate_models(f)
        assert not enum.capped
        assert count_models(f).count == len(enum.models)
        for a in enum.models[:5]:
            assert satisfies(f, a)


def test_cap_semantics():
    f = cnf([], n_vars=4)  # 16 models
    assert count_models(f, cap=5) == count_models(f, cap=5)
    mc = count_models(f, cap=5)
    assert mc.count == 5 and mc.capped
    mc = count_models(f, cap=16)
    assert mc.count == 16 and not mc.capped
    enum = enumerate_models(f, cap=5)
    assert len(enum.models) == 5 and enum.capped
    enum = enumerate_models(f, cap=16)
    assert len(enum.models) == 16 and not enum.capped


def test_enumeration_order_is_ascending_index():
    f = cnf([[1]], n_vars=3)
    res = enumerate_models(f)
    as_bits = [sum(1 << (v - 1) for v, b in a.items() if b) for a in res.models]
    assert as_bits == sorted(as_bits) == [1, 3, 5, 7]


def test_blocking_path_beyond_dense_limit():
    # 25 variables forces the solve-and-block route
    f = cnf([[1], [2]], n_vars=25)
    enum = enumerate_models(f, cap=4)
    assert len(enum.models) == 4 and enum.capped
    for a in enum.models:
        assert a[1] and a[2] and len(a) == 25
    mc = count_models(f, cap=4)
    assert mc.count == 4 and mc.capped
    with pytest.raises(ValueError, match="cap"):
        count_models(f)


def test_blocking_path_exact_when_under_cap():
    f = cnf([[v] for v in range(1, 24)], n_vars=23)  # single model
    mc = count_models(f, cap=10)
    assert mc.count == 1 and not mc.capped


@st.composite
def small_formulas(draw):
    """Up to 12 variables; n to 2n + 2 clauses of width 2-3, up to two
    units and, rarely, an empty clause.  Repeated literals, tautologies and
    repeated clauses are included."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return cnf(draw(st.lists(st.just([]), max_size=1)), n_vars=0)
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=2, max_size=3),
                            min_size=n, max_size=2 * n + 2))
    clauses += draw(st.lists(st.lists(lit, min_size=1, max_size=1), max_size=2))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
    if draw(st.integers(0, 19)) == 13:
        clauses.append([])
    return cnf(clauses, n_vars=n, allows_duplicate_literals=True)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_formulas())
def test_blocking_enumeration_matches_kernel(f):
    lits, widths = kernels.clause_arrays(f.clauses)
    want = [int(i) for i in kernels.collect_sat(lits, widths, f.n_vars, 1 << f.n_vars)]
    count = len(want)
    # solve-and-block time grows with the square of the model count
    assume(count <= 256)
    for cap in sorted({0, 1, count - 1, count, count + 1} - {-1}):
        enum = _enumerate_blocking(f, cap)
        got = [_index_from_assignment(a) for a in enum.models]
        assert len(got) == len(set(got)) == min(cap, count)
        assert set(got) <= set(want)
        assert enum.capped == (count > cap)
        if cap >= count:
            assert sorted(got) == want


def test_one_solver_per_enumeration(monkeypatch):
    built, solves = [], []
    init, solve = solver_module.Solver.__init__, solver_module.Solver.solve

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_solve(self, *args, **kwargs):
        solves.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(solver_module.Solver, "__init__", counting_init)
    monkeypatch.setattr(solver_module.Solver, "solve", counting_solve)
    f = cnf([[1, 2, 3], [-1, -2, -3]] + [[v] for v in range(4, 26)], n_vars=25)
    enum = enumerate_models(f, cap=100)
    assert len(enum.models) == 6 and not enum.capped
    assert len(built) == 1 and len(solves) == 7  # one solve per model, one UNSAT
    built.clear()
    assert count_models(f, cap=3) == ModelCount(3, True)
    assert len(built) == 1


def test_repeated_model_is_an_error(monkeypatch):
    # a solver that forgets its added clauses returns the same model again
    monkeypatch.setattr(solver_module.Solver, "add_clause", lambda self, clause: None)
    with pytest.raises(AssertionError, match="twice"):
        enumerate_models(cnf([[1]], n_vars=23), cap=2)

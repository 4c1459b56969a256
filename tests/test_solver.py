import pytest

from monoforge.formula import cnf, satisfies
from monoforge.gadgets import build_M, build_U, build_y_core, build_z_core
from monoforge.kernels import clause_arrays, count_sat
from monoforge.models import count_models
from monoforge.rup import verify_rup
from monoforge.solver import Solver, Status, solve


def brute_sat(f) -> bool:
    lits, widths = clause_arrays(f.clauses)
    return count_sat(lits, widths, f.n_vars, 1) > 0


def test_empty_formula_sat_with_total_model():
    res = solve(cnf([], n_vars=5))
    assert res.status is Status.SAT
    assert res.model == {v: False for v in range(1, 6)}


def test_empty_clause_unsat():
    res = solve(cnf([[]], n_vars=1), trace=True)
    assert res.status is Status.UNSAT
    assert verify_rup(cnf([[]], n_vars=1), res.proof)


def test_duplicate_literals_collapse():
    f = cnf([[1, 1, 2], [-1, -1]], allows_duplicate_literals=True)
    res = solve(f)
    assert res.status is Status.SAT
    assert res.model[1] is False and res.model[2] is True


def test_tautology_is_ignored():
    f = cnf([[1, -1], [2]], allows_duplicate_literals=True)
    res = solve(f)
    assert res.status is Status.SAT and res.model[2] is True


def test_golden_unsat_with_certificates():
    for g in (build_y_core(), build_z_core(), build_M(), build_U()):
        res = solve(g, trace=True)
        assert res.status is Status.UNSAT
        assert res.proof is not None
        assert res.proof.steps[-1].lits == ()
        assert verify_rup(g, res.proof)


def test_oracle_agreement(sat22_corpus, star22_corpus):
    for f in sat22_corpus + star22_corpus:
        if f.n_vars > 16:
            continue
        res = solve(f)
        assert (res.status is Status.SAT) == brute_sat(f)
        if res.status is Status.SAT:
            assert satisfies(f, res.model)


def test_oracle_agreement_counts(sat22_corpus):
    for f in sat22_corpus[:8]:
        assert (solve(f).status is Status.SAT) == (count_models(f).count > 0)


def test_budget_outcome_never_wrong():
    res = solve(build_U(), conflict_budget=5)
    assert res.status is Status.BUDGET
    assert res.model is None and res.proof is None


def test_assumptions_match_fresh_solves(sat22_corpus):
    f = sat22_corpus[0]
    s = Solver(f)
    for v in range(1, min(f.n_vars, 4) + 1):
        for b in (False, True):
            lit = v if b else -v
            reused = s.solve([lit]).status
            fresh = solve(cnf(list(f.clauses) + [[lit]], n_vars=f.n_vars)).status
            assert reused == fresh


def test_assumption_unsat_has_no_proof():
    f = cnf([[1, 2]])
    s = Solver(f, trace=True)
    res = s.solve([-1, -2])
    assert res.status is Status.UNSAT
    # the formula itself is satisfiable again afterwards
    assert s.solve([]).status is Status.SAT


def test_determinism():
    f = build_M()
    a = solve(f, trace=True)
    b = solve(f, trace=True)
    assert a.proof.lines() == b.proof.lines()
    g = cnf([[1, 2], [-1, 2], [3, -2]])
    assert solve(g).model == solve(g).model


def test_conflicting_pending_units():
    f = cnf([[1], [-1]])
    assert solve(f).status is Status.UNSAT


def test_assumption_out_of_range():
    with pytest.raises(ValueError):
        solve(cnf([[1]]), assumptions=[7])


def test_model_check_rejects_a_violating_model():
    # the solver decides [1 v 2]; the formula it verifies against also holds
    # the units 1 and -1, one of which every total model violates
    solver = Solver(cnf([[1, 2]], n_vars=2))
    solver.formula = cnf([[1, 2], [1], [-1]], n_vars=2)
    with pytest.raises(AssertionError, match="model fails verification"):
        solver.solve()

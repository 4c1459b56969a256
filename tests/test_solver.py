from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from monoforge import solver as solver_module
from monoforge.formula import cnf, satisfies
from monoforge.gadgets import build_M, build_U, build_y_core, build_z_core
from monoforge.generate import random_3sat22
from monoforge.kernels import clause_arrays, count_sat
from monoforge.models import count_models
from monoforge.reductions import reduce_3sat22_to_mono22
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


def check_incremental(f, additions, solve_first=True):
    """Add clauses one at a time; every solve must agree with a fresh solver
    on the formula plus the clauses added so far, with a replayable proof
    on UNSAT and a model of the grown formula on SAT."""
    s = Solver(f, trace=True)
    if solve_first:
        s.solve()
    added = []
    statuses = []
    for c in additions:
        s.add_clause(c)
        added.append(list(c))
        g = cnf(list(f.clauses) + added, n_vars=f.n_vars, allows_duplicate_literals=True)
        res = s.solve()
        assert res.status is solve(g).status
        if res.status is Status.UNSAT:
            assert verify_rup(g, res.proof)
            assert [step.lits for step in res.proof.steps].count(()) == 1
        else:
            assert satisfies(g, res.model)
        statuses.append(res.status)
    return statuses


SAT, UNSAT = Status.SAT, Status.UNSAT


@pytest.mark.parametrize("solve_first", [False, True])
@pytest.mark.parametrize("clauses, additions, want", [
    ([[1, 2]], [[]], [UNSAT]),                                  # empty clause
    ([[1, 2]], [[-1], [-2]], [SAT, UNSAT]),                     # unit clauses
    ([[1], [1, 2]], [[-1]], [UNSAT]),                           # contradicts a root unit
    ([[1, 2]], [[-1, -1, -2], [-2, -2]], [SAT, SAT]),           # duplicate literals
    ([[1, 2]], [[1, -1], [2, -2, 3], [-1], [-2]], [SAT, SAT, SAT, UNSAT]),  # tautologies
    ([[1], [2], [-1, 3]], [[-1, -2, -3]], [UNSAT]),             # all false at level 0
    ([[1], [2], [-1, 3]], [[-1, -2, 4], [-3, -4]], [SAT, UNSAT]),  # one literal left
    ([[1], [-1]], [[2], [-2, 3]], [UNSAT, UNSAT]),              # after an UNSAT answer
])
def test_add_clause_matches_fresh_solves(clauses, additions, want, solve_first):
    f = cnf(clauses, n_vars=4)
    assert check_incremental(f, additions, solve_first) == want


def test_add_clause_blocks_every_model(sat22_corpus):
    # after each SAT answer, block its model: the statuses follow fresh
    # solves, and the final refutation replays against every blocking clause
    f = next(g for g in sat22_corpus if g.n_vars == 6)
    s = Solver(f, trace=True)
    blocks = []
    while True:
        res = s.solve()
        if res.status is Status.UNSAT:
            break
        blocks.append([-v if res.model[v] else v for v in range(1, f.n_vars + 1)])
        check = cnf(list(f.clauses) + blocks[:-1], n_vars=f.n_vars)
        assert satisfies(check, res.model)
        s.add_clause(blocks[-1])
    assert len(blocks) == count_models(f).count > 0
    assert verify_rup(cnf(list(f.clauses) + blocks, n_vars=f.n_vars), res.proof)


@st.composite
def clause_sequences(draw):
    n = draw(st.integers(1, 6))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = st.lists(st.lists(lit, max_size=3), max_size=8)
    return n, draw(clauses), draw(st.lists(st.lists(lit, max_size=3), max_size=6))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(clause_sequences())
def test_add_clause_sequences_match_fresh_solves(case):
    n, clauses, additions = case
    f = cnf(clauses, n_vars=n, allows_duplicate_literals=True)
    check_incremental(f, additions)


@st.composite
def interleaved_calls(draw):
    """A formula, a first conflict budget and a sequence of calls on one
    solver: clauses to add, assumption lists (with repeated and
    contradictory literals) to solve under, and new budgets, 0 among them."""
    n = draw(st.integers(1, 12))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=3, max_size=3), max_size=4 * n))
    # parity constraints on three variables make wrong decisions conflict
    for a, b, c in draw(st.lists(st.lists(lit, min_size=3, max_size=3), max_size=n)):
        clauses += [[a, b, c], [a, -b, -c], [-a, b, -c], [-a, -b, c]]
    budget = st.sampled_from((0, 1, 2, 5, 1_000_000))
    call = st.one_of(
        st.tuples(st.just("add"), st.lists(lit, max_size=3)),
        st.tuples(st.just("solve"), st.lists(lit, max_size=5)),
        st.tuples(st.just("budget"), budget),
    )
    return n, clauses, draw(budget), draw(st.lists(call, max_size=14))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(interleaved_calls())
def test_interleaved_solves_under_assumptions_match_the_kernel(case):
    # a SAT or UNSAT answer agrees with the kernel on the formula, the
    # clauses added so far and the assumptions as units, and a model
    # satisfies all three; BUDGET answers leave the solver usable
    n, clauses, budget, calls = case
    s = Solver(cnf(clauses, n_vars=n, allows_duplicate_literals=True), conflict_budget=budget)
    added = []
    for kind, arg in calls:
        if kind == "add":
            s.add_clause(arg)
            added.append(arg)
        elif kind == "budget":
            s.conflict_budget = arg
        else:
            res = s.solve(arg)
            g = cnf(clauses + added + [[l] for l in arg], n_vars=n, allows_duplicate_literals=True)
            if res.status is not Status.BUDGET:
                assert (res.status is Status.SAT) == brute_sat(g)
            if res.status is Status.SAT:
                assert satisfies(g, res.model)


def test_add_clause_rejects_bad_literals():
    s = Solver(cnf([[1, 2]]))
    for bad in ([3], [0], [-3], [True]):
        with pytest.raises(ValueError, match="out of range"):
            s.add_clause(bad)
    assert s.added == [] and s.solve().status is Status.SAT


def test_solve_rejects_bad_assumptions():
    # the same literal check as add_clause, before any solver state moves
    s = Solver(cnf([[1, 2]]))
    for bad in ([True], [1.5], [3], [0], [-3]):
        with pytest.raises(ValueError, match=r"literal .* out of range 1\.\.2"):
            s.solve(bad)
    assert s.solve([-1]).model == {1: False, 2: True}


def test_model_check_covers_added_clauses():
    solver = Solver(cnf([[1, 2]], n_vars=2))
    solver.added += [(1,), (-1,)]  # recorded, but never watched
    with pytest.raises(AssertionError, match="model fails verification"):
        solver.solve()


@pytest.mark.parametrize("build", [
    build_U,
    lambda: reduce_3sat22_to_mono22(random_3sat22(6, 2)).formula,
], ids=["U", "reduced-3sat22"])
def test_activity_rescale_keeps_answers_checked(monkeypatch, build):
    f = build()
    want = solve(f).status
    monkeypatch.setattr(solver_module, "_ACT_RESCALE", 1e3)
    s = Solver(f, trace=True)
    res = s.solve()
    # with no rescale var_inc is 1 / decay ** conflicts; each rescale divides it by 1e3
    assert s.var_inc < solver_module._ACT_DECAY ** -res.conflicts / 100
    assert res.status is want
    if res.status is Status.SAT:
        assert satisfies(f, res.model)
    else:
        assert res.status is Status.UNSAT and verify_rup(f, res.proof)


def assert_one_live_entry_per_free_variable(s):
    # a live entry carries the variable's current activity; in_heap flags it
    live = Counter(e for e in s.heap if e[0] == -s.activity[e[1]])
    for v in range(1, s.n + 1):
        assert live[(-s.activity[v], v)] == s.in_heap[v]
        assert s.in_heap[v] or s.val[v] != 0


def test_heap_keeps_one_live_entry_per_free_variable(monkeypatch):
    # checked after every backtrack too: a SAT answer drains the heap, which
    # would hide a wrong flag from checks between solves alone
    monkeypatch.setattr(solver_module, "_ACT_RESCALE", 1e3)
    backtrack = Solver._backtrack
    backtracks = []

    def checked_backtrack(self, level):
        backtrack(self, level)
        assert_one_live_entry_per_free_variable(self)
        backtracks.append(level)

    monkeypatch.setattr(Solver, "_backtrack", checked_backtrack)
    f = reduce_3sat22_to_mono22(random_3sat22(6, 2)).formula
    s = Solver(f)
    assert_one_live_entry_per_free_variable(s)
    conflicts, statuses = 0, []
    for assumptions, budget in (([], 200), ([], 1_000_000), ([1, -2], 1_000_000),
                                ([-1, 3], 1_000_000), ([], 1_000_000), ([2], 1_000_000)):
        s.conflict_budget = budget
        res = s.solve(assumptions)
        conflicts += res.conflicts
        statuses.append(res.status)
        assert_one_live_entry_per_free_variable(s)
        if res.status is Status.SAT:
            s.add_clause([-v if res.model[v] else v for v in range(1, f.n_vars + 1)])
            assert_one_live_entry_per_free_variable(s)
    assert statuses == [Status.BUDGET] + [Status.SAT] * 5
    assert len(backtracks) > conflicts
    # the activities were rescaled on the way
    assert s.var_inc < solver_module._ACT_DECAY ** -conflicts / 100

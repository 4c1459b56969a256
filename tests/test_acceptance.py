"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured times.  Every tolerance and budget is asserted, not just printed.
"""

import itertools
import time

import corpus
from monoforge import refdata
from monoforge.fileio import read_clause_list
from monoforge.formula import (
    InstanceClass,
    occurrence_profile,
    validate_class,
)
from monoforge.gadgets import (
    FreshVarAllocator,
    build_core8,
    build_frakM,
    build_frakMbar,
    build_M,
    build_M_enforcer,
    build_Mbar_enforcer,
    build_N,
    build_S,
    build_Sbar,
    build_U,
    build_U_NAE,
    build_y_core,
    build_z_core,
)
from monoforge.generate import (
    random_3sat22,
    random_balanced_qbf,
    random_mono_3sat_star22,
    random_mono_nae_e2,
)
from monoforge.kernels import clause_arrays, count_sat, first_nae
from monoforge.miner import MinerConfig, candidate_ok, mine, swap_move
from monoforge.models import count_models, enumerate_models
from monoforge.nae import (
    complete_component_check,
    is_nae_satisfied,
    nae_solve_e2,
    variable_graph,
)
from monoforge.qbf import (
    BalanceSpec,
    PadVariant,
    QbfValue,
    build_Q1mon,
    build_Q3,
    monotonize,
    pad_to_balance,
    qbf_truth,
    triple_copy,
    validate_balanced,
)
from monoforge.rup import parse_rup, verify_rup
from monoforge.solver import Solver, Status, solve


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, label: str, elapsed: float) -> None:
    print(f"criterion {number:2d} PASS ({elapsed:7.2f} s)  {label}")


def brute_sat(f) -> bool:
    lits, widths = clause_arrays(f.clauses)
    return count_sat(lits, widths, f.n_vars, 1) > 0


def test_criterion_01_golden_instance_u():
    with Timer() as t:
        u = build_U()
        assert u.n_vars == 198
        assert u.m == 264
        assert validate_class(u, InstanceClass.MONO_3SAT_22).verdict
        ref = read_clause_list(refdata.U_LIST_TEXT)
        assert u.clauses == ref.clauses  # clause-for-clause, in order
        with Timer() as st:
            assert solve(u).status is Status.UNSAT
        assert st.elapsed < 60.0
    report(1, "instance U: sizes, class, listing equality, unsatisfiable", t.elapsed)


def test_criterion_02_golden_gadget_m():
    with Timer() as t:
        m = build_M()
        assert m.m == 42
        assert m.n_vars == 32
        assert m.clauses == read_clause_list(refdata.M_LIST_TEXT).clauses
        with Timer() as st:
            assert solve(m).status is Status.UNSAT
        assert st.elapsed < 1.0
        prof = occurrence_profile(m)
        assert {v for v, p in prof.items() if p == (1, 2)} == {1, 5, 6, 14, 32}
        assert all(p in ((2, 2), (1, 2)) for _, p in prof.items())
    report(2, "gadget M: sizes, listing equality, unsatisfiable, (1,2) profile", t.elapsed)


def test_criterion_03_certificate_replay():
    with Timer() as t:
        y = build_y_core()
        z = build_z_core()
        assert verify_rup(y, parse_rup(refdata.Y_CORE_PROOF_LINES)).ok
        assert verify_rup(z, parse_rup(refdata.Z_CORE_PROOF_LINES)).ok
        assert solve(y).status is Status.UNSAT
        assert solve(z).status is Status.UNSAT
        with Timer() as ty:
            assert count_models(y).count == 0  # 2^9 assignments
        assert ty.elapsed < 1.0
        with Timer() as tz:
            assert count_models(z).count == 0  # 2^15 assignments
        assert tz.elapsed < 1.0
    report(3, "published certificates replay; cores unsatisfiable by solver and enumeration", t.elapsed)


def _table(build, arity, expect):
    ports = tuple(range(1, arity + 1))
    alloc = FreshVarAllocator(arity + 1)
    inst = build(alloc, *ports)
    solver = Solver(inst.formula)
    deviations = 0
    for bits in itertools.product((False, True), repeat=arity):
        values = dict(zip(ports, bits))
        assumptions = [v if values[v] else -v for v in ports]
        got = solver.solve(assumptions).status is Status.SAT
        if got != expect(values):
            deviations += 1
    return deviations


def test_criterion_04_enforcer_truth_tables():
    with Timer() as t:
        dev = 0
        dev += _table(build_M_enforcer, 3, lambda v: v[1] or not v[2] or not v[3])
        dev += _table(build_Mbar_enforcer, 3, lambda v: not v[1] or v[2] or v[3])
        dev += _table(build_N, 1, lambda v: not v[1])
        dev += _table(build_S, 3, lambda v: v[1] or v[2] or v[3])
        dev += _table(build_Sbar, 3, lambda v: not (v[1] and v[2] and v[3]))

        def frak(values):
            return (
                (values[1] or not values[2] or not values[3])
                and (values[4] or not values[5] or not values[6])
                and (values[7] or not values[8] or not values[9])
            )

        def frakbar(values):
            return (
                (not values[1] or values[2] or values[3])
                and (not values[4] or values[5] or values[6])
                and (not values[7] or values[8] or values[9])
            )

        alloc = FreshVarAllocator(10)
        fm = build_frakM(alloc, [(1, -2, -3), (4, -5, -6), (7, -8, -9)])
        solver = Solver(fm.formula)
        for bits in itertools.product((False, True), repeat=9):
            values = dict(zip(range(1, 10), bits))
            got = solver.solve([v if values[v] else -v for v in range(1, 10)]).status is Status.SAT
            if got != frak(values):
                dev += 1
        alloc = FreshVarAllocator(10)
        fb = build_frakMbar(alloc, [(-1, 2, 3), (-4, 5, 6), (-7, 8, 9)])
        solver = Solver(fb.formula)
        for bits in itertools.product((False, True), repeat=9):
            values = dict(zip(range(1, 10), bits))
            got = solver.solve([v if values[v] else -v for v in range(1, 10)]).status is Status.SAT
            if got != frakbar(values):
                dev += 1
        assert dev == 0
    assert t.elapsed < 30.0
    report(4, "enforcer truth tables exact over all port assignments", t.elapsed)


def test_criterion_05_size_claims():
    with Timer() as t:
        s = build_S(FreshVarAllocator(4), 1, 2, 3)
        assert len(s.fresh_vars) == 99
        assert s.formula.m == 133
        fm = build_frakM(FreshVarAllocator(10), [(1, -2, -3), (4, -5, -6), (7, -8, -9)])
        fresh = set(fm.fresh_vars.values())
        assert len(fresh) == 96
        prof = occurrence_profile(fm.formula)
        assert all(prof.of(v) == (2, 2) for v in fresh)
    report(5, "size claims: 99/133 for the simulator, 96 balanced fresh variables combined", t.elapsed)


def test_criterion_06_reduction_correctness():
    from monoforge.reductions import reduce_3sat22_to_mono22, reduce_star22_to_mono22

    with Timer() as t:
        for n, seed in corpus.STAR22_SPECS:
            f = random_mono_3sat_star22(n, seed)
            out = reduce_star22_to_mono22(f)
            assert validate_class(out.formula, InstanceClass.MONO_3SAT_22).verdict
            res = solve(out.formula)
            assert res.status in (Status.SAT, Status.UNSAT)
            assert (res.status is Status.SAT) == brute_sat(f)
        for n, seed in corpus.SAT22_SPECS:
            f = random_3sat22(n, seed)
            out = reduce_3sat22_to_mono22(f)
            assert validate_class(out.formula, InstanceClass.MONO_3SAT_22).verdict
            res = solve(out.formula)
            assert (res.status is Status.SAT) == brute_sat(f)
    assert t.elapsed < 120.0
    report(6, "both reductions preserve satisfiability and land in the target class", t.elapsed)


def every_universal_assignment_extends(q) -> bool:
    """Solver-free forall-exists check: each of the 2^p universal assignments
    has an existential assignment that satisfies every clause."""
    def satisfied(ubits, ebits):
        a = dict(zip(q.universals + q.existentials, ubits + ebits))
        return all(any(a[abs(l)] == (l > 0) for l in c) for c in q.matrix.clauses)

    def bits(vs):
        return itertools.product((False, True), repeat=len(vs))

    return all(any(satisfied(u, e) for e in bits(q.existentials)) for u in bits(q.universals))


def test_criterion_07_quantified_enforcers():
    with Timer() as t:
        q3 = build_Q3(FreshVarAllocator(1))  # 2^5 x 2^2 assignments
        assert every_universal_assignment_extends(q3)
        assert qbf_truth(q3).value is QbfValue.YES
        q1 = build_Q1mon(FreshVarAllocator(1))  # 2^5 x 2^4 assignments
        assert every_universal_assignment_extends(q1)
        assert qbf_truth(q1).value is QbfValue.YES
    assert t.elapsed < 1.0
    report(7, "both quantified enforcers decide yes by exhaustive enumeration", t.elapsed)


def test_criterion_08_qbf_pipelines():
    with Timer() as t:
        jobs = [
            (corpus.QBF_1122_SPECS, 1, BalanceSpec(1, 1, 2, 2, True, True), PadVariant.USE_Q3),
            (corpus.QBF_2222_SPECS, 2, BalanceSpec(2, 2, 2, 2, True, True), PadVariant.USE_Q1MON),
        ]
        for specs, s, target, variant in jobs:
            for p, seed in specs:
                q = random_balanced_qbf(p, s, s, seed)
                truth = qbf_truth(q).value
                t3 = triple_copy(q)
                assert qbf_truth(t3).value == truth
                mono = monotonize(t3)
                assert qbf_truth(mono).value == truth
                padded = pad_to_balance(mono, variant)
                assert qbf_truth(padded).value == truth
                assert len(padded.universals) == len(padded.existentials)
                assert validate_balanced(padded, target).verdict
    assert t.elapsed < 300.0
    report(8, "quantified pipelines: stage-by-stage truth, target class reached", t.elapsed)


def test_criterion_09_nae_theorem_as_property():
    with Timer() as t:
        failures = 0
        for n, seed in corpus.NAE_SPECS:
            f = random_mono_nae_e2(n, seed)
            a = nae_solve_e2(f)
            if not is_nae_satisfied(f, a):
                failures += 1
            if f.n_vars <= 18:
                lits, widths = clause_arrays(f.clauses)
                assert first_nae(lits, widths, f.n_vars) >= 0
        assert failures == 0
    assert t.elapsed < 60.0
    report(9, "200 two-appearance instances constructively nae-satisfied; small ones cross-checked", t.elapsed)


def test_criterion_10_u_nae():
    with Timer() as t:
        f = build_U_NAE()
        g = variable_graph(f)
        assert complete_component_check(g, 7) == [[1, 2, 3, 4, 5, 6, 7]]
        lits, widths = clause_arrays(f.clauses)
        assert first_nae(lits, widths, 7) == -1  # all 128 assignments fail
    assert t.elapsed < 1.0
    report(10, "7-variable instance: complete variable graph, no nae-model", t.elapsed)


def test_criterion_11_core8():
    with Timer() as t:
        c = build_core8()
        assert count_models(c).count == 0  # 2^6 assignments
        assert enumerate_models(c).models == []
    assert t.elapsed < 1.0
    report(11, "eight-clause core has no satisfying assignment", t.elapsed)


def test_criterion_12_miner_properties():
    import random

    from monoforge.formula import occurrence_profile as prof

    with Timer() as t:
        for seed in (1, 2, 3):
            cfg = MinerConfig(n_vars=9, n_clauses=12, max_iters=500, seed=seed)
            trace = mine(cfg)
            assert trace.best_count == min(e.model_count for e in trace.entries)
            assert candidate_ok(trace.best_formula, prof(trace.best_formula))
        # occurrence conservation over many raw moves
        rng = random.Random(0)
        y = build_y_core()
        base = prof(y)
        cur = y
        for _ in range(200):
            nxt = swap_move(cur, rng)
            if nxt is not None:
                assert prof(nxt) == base
                cur = nxt
        # the pinned rediscovery run
        rng = random.Random(corpus.REDISCOVERY_PERTURB_SEED)
        perturbed = None
        while perturbed is None:
            perturbed = swap_move(y, rng)
        assert count_models(perturbed).count > 0
        cfg = MinerConfig(n_vars=9, n_clauses=13, initial=perturbed,
                          max_iters=500, seed=corpus.REDISCOVERY_MINE_SEED)
        trace = mine(cfg)
        assert trace.best_count == 0
    assert t.elapsed < 120.0
    report(12, "miner: valid candidates, monotone incumbent, profile conservation, rediscovery", t.elapsed)

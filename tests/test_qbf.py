import bisect
import dataclasses
import hashlib
import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
from monoforge import elimination
from monoforge import solver as solver_module
from monoforge.formula import CnfFormula, InvalidInstanceError, canonical_clause, cnf
from monoforge.gadgets import FreshVarAllocator, build_U
from monoforge.generate import random_balanced_qbf
from monoforge.elimination import block_cuts, eliminate, eliminate_blocks
from monoforge.qbf import (
    _component_first_failure,
    _components,
    BalanceSpec,
    MonotonizeError,
    PadError,
    PadVariant,
    Qbf2Formula,
    QbfResult,
    QbfValue,
    build_Q1mon,
    build_Q3,
    monotonize,
    pad_to_balance,
    qbf_truth,
    read_qdimacs,
    transform_1122,
    transform_2222,
    triple_copy,
    validate_balanced,
    write_qdimacs,
)
from monoforge.fileio import ParseError


def test_formula_invariants():
    with pytest.raises(ValueError, match="quantified twice"):
        Qbf2Formula((1,), (1,), cnf([[1]], n_vars=1))
    with pytest.raises(ValueError, match="not quantified"):
        Qbf2Formula((1,), (), cnf([[1, 2]], n_vars=2))
    with pytest.raises(ValueError, match="universe"):
        Qbf2Formula((1, 3), (2,), cnf([[1, 2]], n_vars=2))


@pytest.mark.parametrize("universals, existentials, clauses, n, message", [
    # n distinct variables in 1..n: no literal is looked at
    ((2,), (1,), [[1, 2]], 2, None),
    ((), (), [], 0, None),
    ((1,), (), [[1, 2]], 2, "matrix variables not quantified: [2]"),
    # a missing variable outranks an out-of-range one
    ((1, 3), (), [[1, 2]], 2, "matrix variables not quantified: [2]"),
    ((0,), (2,), [[1, 2]], 2, "matrix variables not quantified: [1]"),
    # n variables, not all in 1..n
    ((1,), (3,), [[1]], 2, "quantified variable 3 outside the universe"),
    ((-1,), (2,), [[2]], 2, "quantified variable -1 outside the universe"),
    ((0,), (1, 2), [[1, 2]], 2, "quantified variable 0 outside the universe"),
])
def test_prefix_checks(universals, existentials, clauses, n, message):
    matrix = cnf(clauses, n_vars=n)
    if message is None:
        assert Qbf2Formula(universals, existentials, matrix).matrix is matrix
    else:
        with pytest.raises(ValueError) as err:
            Qbf2Formula(universals, existentials, matrix)
        assert str(err.value) == message


def test_stage_outputs_pass_the_public_constructors(qbf_1122_corpus, qbf_2222_corpus):
    # the stages check their clauses by construction; the full checks of
    # the public constructors accept each output and rebuild an equal one,
    # also for a source in the duplicate dialect that repeats a variable
    dup = Qbf2Formula((1,), (2, 3), CnfFormula(3, ((-1, -1, 2), (2, 3, 3)), True))
    stages = [triple_copy(dup), pad_to_balance(dup, PadVariant.USE_Q1MON)]
    for qs, variant in ((qbf_1122_corpus, PadVariant.USE_Q3),
                        (qbf_2222_corpus, PadVariant.USE_Q1MON)):
        for q in qs:
            mono = monotonize(triple_copy(q))
            stages += [triple_copy(q), mono, pad_to_balance(mono, variant)]
    for stage in stages:
        m = stage.matrix
        rebuilt = CnfFormula(m.n_vars, tuple(m.clauses), m.allows_duplicate_literals)
        assert Qbf2Formula(tuple(stage.universals), tuple(stage.existentials), rebuilt) == stage
    assert stages[0].matrix.allows_duplicate_literals and stages[1].matrix.allows_duplicate_literals


@pytest.mark.parametrize("transform, q, error, message", [
    (monotonize, Qbf2Formula((1,), (2, 3), cnf([[1, -2, -3]], n_vars=3)), MonotonizeError,
     "mixed-clause counts not divisible by 3: 1 one-positive, 0 one-negative"),
    (lambda q: monotonize(triple_copy(q)),
     Qbf2Formula((1,), (2,), CnfFormula(2, ((-1, -1, 2),), True)), ValueError,
     "not a 3-clause over distinct variables: (-1, -1, 2)"),
    (lambda q: pad_to_balance(q, PadVariant.USE_Q3),
     Qbf2Formula((1,), (2, 3), cnf([], n_vars=3)), PadError,
     "existential surplus 1 is not divisible by 3"),
    (lambda q: pad_to_balance(q, PadVariant.USE_Q1MON),
     Qbf2Formula((1, 2), (3,), cnf([], n_vars=3)), PadError,
     "more universals than existentials by 1; cannot pad"),
    (transform_1122, Qbf2Formula((1,), (2, 3), cnf([[1, 2, 3]], n_vars=3)), InvalidInstanceError,
     "balanced (1,1,2,2) input fails validation: universal 1 appears (1, 0), expected (1, 1); "
     "existential 2 appears (1, 0), expected (2, 2); existential 3 appears (1, 0), expected "
     "(2, 2); 1 universal vs 2 existential variables"),
    (transform_2222, random_balanced_qbf(3, 1, 1, 1), InvalidInstanceError,
     "balanced (2,2,2,2) input fails validation: universal 1 appears (1, 1), expected (2, 2); "
     "universal 2 appears (1, 1), expected (2, 2); universal 5 appears (1, 1), expected (2, 2)"),
])
def test_transforms_reject_malformed_input(transform, q, error, message):
    with pytest.raises(error) as err:
        transform(q)
    assert type(err.value) is error and str(err.value) == message


def test_truth_trivial_no():
    q = Qbf2Formula((1,), (), cnf([[1]], n_vars=1))
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    assert res.counterexample == {1: False}


def test_truth_forall_exists():
    # for every u there is e with u != e
    q = Qbf2Formula((1,), (2,), cnf([[1, 2], [-1, -2]], n_vars=2))
    assert qbf_truth(q).value is QbfValue.YES


def test_q3_and_q1mon_are_yes_instances():
    q3 = build_Q3(FreshVarAllocator(1))
    assert qbf_truth(q3).value is QbfValue.YES
    q1 = build_Q1mon(FreshVarAllocator(1))
    assert qbf_truth(q1).value is QbfValue.YES
    assert all(
        all(l > 0 for l in c) or all(l < 0 for l in c) for c in q1.matrix.clauses
    )


def test_validate_balanced_on_enforcers():
    q3 = build_Q3(FreshVarAllocator(1))
    assert validate_balanced(q3, BalanceSpec(1, 1, 2, 2)).verdict
    q1 = build_Q1mon(FreshVarAllocator(1))
    rep = validate_balanced(q1, BalanceSpec(2, 2, 2, 2))
    assert rep.verdict
    rep = validate_balanced(q1, BalanceSpec(2, 2, 2, 2, require_equal_counts=True))
    assert not rep.verdict
    assert any(v.rule == "equal-counts" for v in rep.violations)


def test_validate_balanced_empty_formula():
    q = Qbf2Formula((1,), (2,), cnf([], n_vars=2))
    rep = validate_balanced(q, BalanceSpec(1, 1, 2, 2))
    assert not rep.verdict


def test_decompose_matches_naive(qbf_1122_corpus):
    for q in qbf_1122_corpus[:5]:
        res = qbf_truth(q)
        alpha = brute_force_truth(q)
        assert res.value is (QbfValue.YES if alpha is None else QbfValue.NO)
        assert res.counterexample == alpha


@pytest.mark.parametrize("universals, existentials, clauses, want", [
    # two independent parts, one failing
    ((1, 3), (2, 4), [[1, 2], [-1, 2], [3, 4], [-3, -4], [3, -4]], {1: False, 3: False}),
    # one part whose leftover splits: the pure existential 5 takes its
    # clause, leaving (1 -2) and (3 -4), with universals declared out of id
    # order behind the universal 6 of another part
    ((6, 4, 2, 3, 1), (7, 5), [[1, -2], [3, -4], [2, 4, 5], [6, 7]],
     {6: False, 4: False, 2: True, 3: False, 1: False}),
], ids=["two-parts", "leftover-splits"])
def test_decompose_matches_naive_multicomponent(universals, existentials, clauses, want):
    # the counterexample must be the lexicographically first over the
    # declared universal order
    q = Qbf2Formula(universals, existentials,
                    cnf(clauses, n_vars=len(universals) + len(existentials)))
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    assert res.counterexample == brute_force_truth(q) == want


def brute_force_truth(q):
    """First universal assignment (declared order, false < true) with no
    existential extension, or None when every assignment has one."""
    for ubits in itertools.product((False, True), repeat=len(q.universals)):
        alpha = dict(zip(q.universals, ubits))
        for ebits in itertools.product((False, True), repeat=len(q.existentials)):
            a = {**alpha, **dict(zip(q.existentials, ebits))}
            if all(any(a[abs(l)] == (l > 0) for l in c) for c in q.matrix.clauses):
                break
        else:
            return alpha
    return None


def parts_of(q):
    return _components(q.universals, q.existentials, q.matrix.clauses)


def count_solves(monkeypatch):
    calls = []
    solve = solver_module.Solver.solve

    def counting_solve(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(solver_module.Solver, "solve", counting_solve)
    return calls


def test_budget_on_too_many_universals():
    # one part with 25 universals, chained by clauses over universals alone,
    # so elimination leaves it whole; the walk refutes its all-false
    # assignment with one matrix solve, however many universals it has
    q = Qbf2Formula(tuple(range(1, 26)), (),
                    cnf([[i, i + 1] for i in range(1, 25)], n_vars=25))
    verdict, bits, steps = walk_steps(*raw_part(q))
    assert (verdict, bits, len(steps)) == (QbfValue.NO, (False,) * 25, 1)
    assert qbf_truth(q) == QbfResult(QbfValue.NO, dict.fromkeys(range(1, 26), False))
    # BUDGET comes from the budget alone: each step draws one unit, so the
    # 130-step yes-part runs out below 130 even where its solves cost no
    # conflict, and one pool pays for all solves, so it runs out below its
    # steps plus its matrix solves' conflicts; a budget of 0 stops the
    # two-step 17-universal yes-part at its first witness
    part, k = raw_part(monotonized_p3())
    verdict, _, steps = walk_steps(part, k)
    assert (verdict, len(steps)) == (QbfValue.YES, 130)
    assert _component_first_failure(part, k, 129) == (QbfValue.BUDGET, None)
    spent = len(steps) + sum(res.conflicts for _, res in steps)
    assert _component_first_failure(part, k, spent - 1) == (QbfValue.BUDGET, None)
    part, k = raw_part(seventeen_universals(None))
    assert walk_steps(part, k)[0] is QbfValue.YES
    verdict, bits, steps = walk_steps(part, k, 0)
    assert (verdict, bits, len(steps)) == (QbfValue.BUDGET, None, 1)
    assert steps[0][1].status is solver_module.Status.SAT


def pigeon_clauses(first):
    """11 pigeons in 10 holes on the variables first..first + 109: every
    resolvent has 10 literals, so elimination keeps each variable and the
    solver meets a budget of 5 conflicts."""
    def var(pigeon, hole):
        return first + 10 * pigeon + hole

    clauses = [[var(i, j) for j in range(10)] for i in range(11)]
    return clauses + [[-var(i, j), -var(h, j)] for j in range(10) for i in range(11) for h in range(i)]


REFUTED_PARTS = {
    "eliminated": lambda u, e: [[e], [-e]],  # an empty resolvent
    "walked": lambda u, e: [[u]],  # no existential to eliminate
}


@pytest.mark.parametrize("refuted", sorted(REFUTED_PARTS))
@pytest.mark.parametrize("chain_first", [True, False], ids=["chain-first", "chain-last"])
def test_budget_wins_over_a_refuted_part(refuted, chain_first):
    # the pigeons, over a budget of 5 conflicts, beside a part on universal
    # u and existential e that is false at u = false; the parts come in
    # order of their smallest variable, the pigeons first with chain_first
    first = 1 if chain_first else 3
    u, e = (111, 112) if chain_first else (1, 2)
    other = REFUTED_PARTS[refuted](u, e)
    alone = Qbf2Formula((u,), (e,), cnf(other, n_vars=112))
    assert qbf_truth(alone, conflict_budget=5) == QbfResult(QbfValue.NO, {u: False})
    q = Qbf2Formula((u,), (e, *range(first, first + 110)),
                    cnf(pigeon_clauses(first) + other, n_vars=112))
    assert qbf_truth(q, conflict_budget=5) == QbfResult(QbfValue.BUDGET)


@pytest.mark.parametrize("s", [1, 2])
def test_universal_budget_applies_after_elimination(s):
    # the monotonized and padded p = 9 stages are one part with 27
    # universals; elimination splits it into parts the walk decides, with
    # the tripled stage's verdict and counterexample
    q = random_balanced_qbf(9, s, s, 1)
    tripled = triple_copy(q)
    want = qbf_truth(tripled)
    assert want.value is QbfValue.NO
    mono = monotonize(tripled)
    assert len(mono.universals) == 27 and len(parts_of(mono)) == 1
    for stage in (mono, (transform_1122 if s == 1 else transform_2222)(q)):
        res = qbf_truth(stage)
        assert res.value is QbfValue.NO
        assert {u: res.counterexample[u] for u in tripled.universals} == want.counterexample
        assert not any(res.counterexample[u] for u in stage.universals[27:])


def test_budget_on_conflict_budget(monkeypatch):
    q = Qbf2Formula((), tuple(range(1, 111)), cnf(pigeon_clauses(1), n_vars=110))
    calls = count_solves(monkeypatch)
    assert qbf_truth(q, conflict_budget=5).value is QbfValue.BUDGET
    assert calls == [1]
    # elimination alone refutes U, so no budget applies there
    res = qbf_truth(Qbf2Formula((), tuple(range(1, 199)), build_U()), conflict_budget=5)
    assert (res.value, res.counterexample, calls) == (QbfValue.NO, {}, [1])


@st.composite
def small_qbfs(draw):
    """Two-level formulas of up to three variable-disjoint parts (the first
    possibly copied), in a shuffled declared order, with repeated clauses and
    optionally a variable repeated inside a clause."""
    dup = draw(st.booleans())
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        nu = draw(st.integers(0, 3))
        ne = draw(st.integers(0 if nu else 1, 3))
        lit = st.integers(1, nu + ne).flatmap(lambda v: st.sampled_from((v, -v)))
        clause = st.lists(lit, min_size=1, max_size=3, unique_by=None if dup else abs)
        clauses = draw(st.lists(clause, max_size=6))
        if clauses:
            clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
        parts.append((nu, ne, clauses))
    if draw(st.booleans()):
        parts.append(parts[0])
    n = sum(nu + ne for nu, ne, _ in parts)
    ids = draw(st.permutations(range(1, n + 1)))
    universals, existentials, matrix = [], [], []
    base = 0
    for nu, ne, clauses in parts:
        universals += [ids[base + i] for i in range(nu)]
        existentials += [ids[base + nu + i] for i in range(ne)]
        matrix += [canonical_clause(ids[base + abs(l) - 1] * (1 if l > 0 else -1) for l in c)
                   for c in clauses]
        base += nu + ne
    universals = draw(st.permutations(universals))
    return Qbf2Formula(tuple(universals), tuple(existentials),
                       CnfFormula(n, tuple(matrix), allows_duplicate_literals=dup))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_qbfs())
def test_truth_matches_brute_force(q):
    alpha = brute_force_truth(q)
    res = qbf_truth(q)
    assert res.value is (QbfValue.YES if alpha is None else QbfValue.NO)
    assert res.counterexample == alpha


def renumbered(us, es, clauses):
    """A part's clauses, in their order, with ``us`` numbered 1..k and then
    ``es``, both in their order.  A stable sort by variable keeps a negative
    literal before its positive twin, so a canonical clause stays canonical."""
    lit = {}
    for i, v in enumerate(itertools.chain(us, es), 1):
        lit[v], lit[-v] = i, -i
    return tuple(tuple(sorted(map(lit.__getitem__, c), key=abs)) for c in clauses)


def bfs_components(q):
    """The parts of ``q`` by breadth-first search over shared clauses, in the
    documented order: parts by smallest variable, universals and
    existentials in declared order, clauses in matrix order, renumbered by
    ``renumbered``."""
    adjacent = {v: set() for v in itertools.chain(q.universals, q.existentials)}
    for c in q.matrix.clauses:
        vs = {abs(l) for l in c}
        for v in vs:
            adjacent[v] |= vs
    seen = set()
    parts = []
    for start in sorted(adjacent):
        if start in seen:
            continue
        seen.add(start)
        part, queue = {start}, deque([start])
        while queue:
            for w in adjacent[queue.popleft()] - seen:
                seen.add(w)
                part.add(w)
                queue.append(w)
        us = [u for u in q.universals if u in part]
        es = [e for e in q.existentials if e in part]
        parts.append((us, es, list(renumbered(
            us, es, [c for c in q.matrix.clauses if abs(c[0]) in part]))))
    return parts


@st.composite
def matrices_for_components(draw):
    """Variables in increasing or shuffled order, so that a part's
    universals and then existentials may or may not ascend, some in no
    clause and some unquantified and unused, with random clauses, long
    chains of binary clauses in shuffled order, one-clause parts and
    repeated clauses."""
    n = draw(st.integers(1, 40))
    ids = draw(st.one_of(st.just(list(range(1, n + 1))), st.permutations(range(1, n + 1))))
    var = st.sampled_from(ids)
    lit = st.tuples(var, st.booleans()).map(lambda t: t[0] if t[1] else -t[0])
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3), max_size=12))
    for _ in range(draw(st.integers(0, 2 if n > 1 else 0))):
        chain = draw(st.lists(var, min_size=2, max_size=n, unique=True))
        links = [[a, -b] for a, b in zip(chain, chain[1:])]
        clauses += draw(st.permutations(links))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=3))
    clauses = draw(st.permutations(clauses))
    k = draw(st.integers(0, n))
    extra = draw(st.integers(0, 2))  # unquantified variables past n, in no clause
    matrix = CnfFormula(n + extra, tuple(canonical_clause(c) for c in clauses),
                        allows_duplicate_literals=True)
    return Qbf2Formula(tuple(ids[:k]), tuple(ids[k:]), matrix)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(matrices_for_components())
def test_components_match_breadth_first_search(q):
    assert parts_of(q) == bfs_components(q)


def raw_part(q):
    """``q``'s matrix as one part for the walk, without elimination:
    (formula, k) with the universals numbered 1..k and then the
    existentials, both in declared order."""
    local = {v: i for i, v in enumerate(q.universals + q.existentials, 1)}
    part = cnf([[local[abs(l)] if l > 0 else -local[abs(l)] for l in c] for c in q.matrix.clauses],
               n_vars=len(local))
    return part, len(q.universals)


def monotonized_p3():
    """A (1,1) yes-instance with p = 3, monotonized: one part with 9
    universals, which the walk alone decides in 130 steps."""
    assert corpus.QBF_1122_SPECS[3] == (3, 103)
    return monotonize(triple_copy(random_balanced_qbf(3, 1, 1, 103)))


def walk_steps(part, k, conflict_budget=1_000_000):
    """``_component_first_failure`` on ``part``: the verdict, the failing
    bits and, for each solve of the matrix solver (the one whose formula is
    ``part``), its assumptions and result."""
    steps = []
    solve = solver_module.Solver.solve

    def recording_solve(self, assumptions=(), **kwargs):
        res = solve(self, assumptions, **kwargs)
        if self.formula is part:
            steps.append((tuple(assumptions), res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module.Solver, "solve", recording_solve)
        verdict, bits = _component_first_failure(part, k, conflict_budget)
    return verdict, bits, steps


def test_witness_reuse_skips_solves():
    # elimination decides the monotonized part without the solver, so the
    # walk gets the part itself, renumbered
    q = monotonized_p3()
    assert len(q.universals) == 9 and len(parts_of(q)) == 1
    verdict, bits, steps = walk_steps(*raw_part(q))
    assert (verdict, bits) == (QbfValue.YES, None)
    assert 0 < len(steps) < 2 ** 9
    assert qbf_truth(q).value is QbfValue.YES


def numpy_truth(q):
    """``brute_force_truth`` for many universals: every assignment at once
    as numpy arrays, index ``a`` setting the i-th declared universal to bit
    ``k - i``, so ascending indices are the lexicographic order."""
    k = len(q.universals)
    index = np.arange(1 << k)
    value = {u: (index >> (k - i) & 1).astype(bool) for i, u in enumerate(q.universals, 1)}
    extended = np.zeros(1 << k, dtype=bool)
    for ebits in itertools.product((False, True), repeat=len(q.existentials)):
        value.update(zip(q.existentials, ebits))
        ok = np.ones(1 << k, dtype=bool)
        for c in q.matrix.clauses:
            some_true = np.zeros(1 << k, dtype=bool)
            for l in c:
                some_true |= value[abs(l)] == (l > 0)
            ok &= some_true
        extended |= ok
    if extended.all():
        return None
    a = int(np.argmin(extended))
    return {u: bool(a >> (k - i) & 1) for i, u in enumerate(q.universals, 1)}


def seventeen_universals(failing):
    """One part with 17 universals.  The no-instance fails exactly when the
    universals in ``failing`` are true; in the yes-instance (``failing``
    None) e = -u1, so one witness covers every assignment with u1 false and
    a second the others.  f = true, in every model, ties all universals
    into one part.  Elimination would drop the pure f and split the part,
    so the walk is called on the formula directly."""
    k, e, f = 17, 18, 19
    clauses = [[u, f] for u in range(1, k + 1)]
    if failing:
        clauses += [[-u for u in failing] + [e], [-u for u in failing] + [-e]]
    else:
        clauses += [[1, e], [-1, -e], [1, e, -f]]
    return Qbf2Formula(tuple(range(1, k + 1)), (e, f), cnf(clauses, n_vars=f))


@pytest.mark.parametrize("failing", [(1, 9, 17), None], ids=["no", "yes"])
def test_walk_jumps_across_half_the_assignments(failing):
    # the second assignment asked is 2^16 + 2^8 + 1 (universals 1, 9 and 17
    # true) in the no-instance and 2^16 (universal 1 true) in the other
    k = 17
    q = seventeen_universals(failing)
    verdict, bits, steps = walk_steps(q.matrix, k)
    assumed = [sum(1 << (k - l) for l in assumptions if l > 0) for assumptions, _ in steps]
    alpha = numpy_truth(q)
    assert verdict is (QbfValue.YES if alpha is None else QbfValue.NO)
    assert (None if bits is None else dict(zip(q.universals, bits))) == alpha
    assert assumed == [0, (1 << 16) + (1 << 8) + 1 if failing else 1 << 16]
    assert qbf_truth(q).counterexample == alpha


def random_walk_parts(count, seed):
    """``count`` seeded random parts over universals 1..k, k <= 12, and
    existentials k+1..k+e, e <= 6: up to 6e clauses, each with 1-3
    universals and 1-2 existentials."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k, e = rng.randint(1, 12), rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 6 * e)):
            us = rng.sample(range(1, k + 1), rng.randint(1, min(3, k)))
            es = rng.sample(range(k + 1, k + e + 1), rng.randint(1, min(2, e)))
            clauses.append(canonical_clause(v if rng.random() < 0.5 else -v for v in us + es))
        out.append(Qbf2Formula(tuple(range(1, k + 1)), tuple(range(k + 1, k + e + 1)),
                               CnfFormula(k + e, tuple(clauses))))
    return out


# sha256 over each part's verdict, failing bits and matrix-solver assumption
# sequence, one repr line per part; computed with the earlier coverage-bitmap
# walk, which jumped to the least uncovered assignment through truth tables
WALK_DIGEST = "3727b1af96f3c6d2ea1324c7b153396b3d0cf4b75f059d87b1cb89d079a20613"


def test_walk_digest():
    qs = [*random_walk_parts(400, 16), seventeen_universals((1, 9, 17)),
          seventeen_universals(None), monotonized_p3()]
    h = hashlib.sha256()
    for q in qs:
        verdict, bits, steps = walk_steps(*raw_part(q))
        h.update(repr((verdict.value, bits, [a for a, _ in steps])).encode())
        h.update(b"\n")
    assert h.hexdigest() == WALK_DIGEST


@st.composite
def small_walk_parts(draw):
    """Raw parts over universals 1..k, k <= 8, and existentials k+1..k+e,
    e <= 4, with repeated variables, tautologies, repeated clauses and
    clauses over one quantifier block alone."""
    k, e = draw(st.integers(1, 8)), draw(st.integers(0, 4))
    lit = st.integers(1, k + e).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4).map(canonical_clause),
                            max_size=12))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
    return Qbf2Formula(tuple(range(1, k + 1)), tuple(range(k + 1, k + e + 1)),
                       CnfFormula(k + e, tuple(clauses), allows_duplicate_literals=True))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_walk_parts())
def test_walk_asks_the_least_uncovered_assignment(q):
    # a witness covers an assignment when every clause that its existential
    # values leave false has a true universal literal under it; each
    # assignment the walk asks is the least that no earlier witness covers
    k = len(q.universals)
    verdict, bits, steps = walk_steps(q.matrix, k)
    left = list(itertools.product((False, True), repeat=k))  # uncovered, in order
    for i, (assumptions, res) in enumerate(steps):
        assert assumptions == tuple(j if b else -j for j, b in enumerate(left[0], 1))
        last_no = verdict is QbfValue.NO and i == len(steps) - 1
        assert res.status is (solver_module.Status.UNSAT if last_no else solver_module.Status.SAT)
        if res.status is solver_module.Status.SAT:
            residue = [c for c in q.matrix.clauses
                       if not any(res.model[abs(l)] == (l > 0) for l in c if abs(l) > k)]
            left = [a for a in left if not all(
                any(a[abs(l) - 1] == (l > 0) for l in c if abs(l) <= k) for c in residue)]
    alpha = numpy_truth(q)
    assert verdict is (QbfValue.YES if alpha is None else QbfValue.NO)
    assert (None if bits is None else dict(zip(q.universals, bits))) == alpha
    assert (left == []) is (alpha is None)


@pytest.mark.parametrize("p, s", [(27, 1), (30, 1), (30, 2)])
def test_large_sources_and_their_transforms_are_decided(p, s):
    # after elimination each source leaves one part with all p universals to
    # walk; its counterexample refutes it, and the transform's is that
    # counterexample on the third copy with every other universal false
    q = random_balanced_qbf(p, s, s, 1)
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    alpha = res.counterexample
    assumptions = [u if b else -u for u, b in alpha.items()]
    assert solver_module.solve(q.matrix, assumptions=assumptions).status is solver_module.Status.UNSAT
    out = (transform_1122 if s == 1 else transform_2222)(q)
    want = dict.fromkeys(out.universals, False)
    want.update((u + 2 * q.matrix.n_vars, b) for u, b in alpha.items())
    assert qbf_truth(out) == QbfResult(QbfValue.NO, want)


def extendable(clauses, k, n):
    """The assignments of universals 1..k (as bit tuples) that some
    assignment of the existentials k+1..n extends to a model of ``clauses``."""
    out = set()
    for bits in itertools.product((False, True), repeat=n):
        value = (None, *bits)
        if all(any(value[abs(l)] == (l > 0) for l in c) for c in clauses):
            out.add(bits[:k])
    return out


@st.composite
def renumbered_parts(draw):
    """Clauses over universals 1..k and existentials k+1..n, in canonical
    order, possibly with repeated variables and tautologies, and elimination
    caps low enough that some variables stay."""
    k = draw(st.integers(0, 3))
    n = k + draw(st.integers(1, 4))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(canonical_clause),
                            max_size=14))
    width = draw(st.sampled_from((1, 2, 3, 9)))
    growth = draw(st.sampled_from((0, 1, 64)))
    return k, n, clauses, width, growth


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(renumbered_parts())
def test_elimination_keeps_satisfiability_under_every_universal_assignment(part):
    k, n, clauses, width, growth = part
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "MAX_RESOLVENT_WIDTH", width)
        mp.setattr(elimination, "MAX_ADDED_CLAUSES", growth)
        left = eliminate(clauses, k, n)
    assert (set() if left is None else extendable(left, k, n)) == extendable(clauses, k, n)
    if left is not None:
        assert all(c == canonical_clause(c) and len(c) == len({abs(l) for l in c})
                   and 0 < len(c) <= max(width, max(map(len, clauses))) for c in left)


def test_empty_resolvent_is_no_with_all_false(monkeypatch):
    # e4 gives -e3 and then e3 resolves with the unit e3 to the empty clause
    clauses = [[3], [-3, 4], [-4], [1, 2, 3]]
    assert eliminate([tuple(c) for c in clauses], 2, 4) is None
    q = Qbf2Formula((2, 1), (3, 4), cnf(clauses, n_vars=4))
    calls = count_solves(monkeypatch)
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    assert res.counterexample == brute_force_truth(q) == {2: False, 1: False}
    assert calls == []


def test_empty_clause_in_the_matrix_is_no_with_all_false(monkeypatch):
    # the "0" line is an empty clause: no universal assignment has an
    # extension, so the first one, all false, is the counterexample
    q = read_qdimacs("p cnf 3 3\na 2 1 0\ne 3 0\n1 3 0\n0\n-2 3 0\n")
    assert () in q.matrix.clauses
    calls = count_solves(monkeypatch)
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    assert res.counterexample == brute_force_truth(q) == {2: False, 1: False}
    assert calls == []


def test_pure_existential_takes_its_clauses(monkeypatch):
    # e3 occurs only positively: its clauses go, and the universals left
    # in no clause make the part true without a solver call
    assert eliminate([(1, 3), (-2, 3), (-1, 2, 3)], 2, 3) == []
    assert eliminate([(1, 3), (-1, 2)], 2, 3) == [(-1, 2)]
    q = Qbf2Formula((1, 2), (3,), cnf([[1, 3], [-2, 3], [-1, 2, 3]], n_vars=3))
    calls = count_solves(monkeypatch)
    assert qbf_truth(q).value is QbfValue.YES
    assert calls == []


def test_resolvents_are_checked_for_subsumption_both_ways():
    # e4 gives (u1 e3), which removes (u1 u2 e3); e3 then gives (u1 u2),
    # which the live (u2) subsumes
    assert eliminate([(2,), (1, 2, 3), (1, 4), (3, -4), (2, -3)], 2, 4) == [(2,)]
    # e5 gives (u1 u2), which removes (u1 u2 u3)
    assert eliminate([(1, 5), (2, -5), (1, 2, 3)], 3, 5) == [(1, 2)]


def test_block_results_join_with_subsumption_both_ways():
    # universals 1..3 and the block {e4}: its resolvent (u1 u2) removes
    # the clause (u1 u2 u3), and in the second part (u1 u2 u3) is skipped
    # because (u1 u2) subsumes it, as in the plain elimination
    for clauses in ([(1, 2, 3), (1, 4), (2, -4)], [(1, 2), (1, 4), (2, 3, -4)]):
        assert block_cuts(clauses, 3, 4) == [3, 4]
        assert eliminate_blocks(clauses, 3, 4) == eliminate(clauses, 3, 4) \
            == [(1, 2)]


def cuts_by_definition(clauses, k, n):
    """``block_cuts`` by its definition: every base bound L in k..n tried
    in turn, ``need`` computed per variable from the clauses."""
    def need(x):
        return max((max(abs(l) for l in c if abs(l) <= x) for c in clauses
                    if min(map(abs, c)) <= x < max(map(abs, c))), default=0)

    best = None
    for L in range(k, n + 1):
        cuts = [x for x in range(L, n + 1) if need(x) <= L]
        score = L - k + max((b - a for a, b in zip(cuts, cuts[1:])), default=0)
        if best is None or score < best[0]:
            best = score, cuts
    return best[1]


@st.composite
def planted_blocks(draw):
    """A renumbered part: random clauses over a base of universals 1..k and
    existentials up to ``base``, then 2-4 copies of one random block on
    fresh contiguous variables, each copy on its own ports in the base and
    some of them sign-flipped; with the low caps of ``renumbered_parts``."""
    k = draw(st.integers(0, 2))
    base = k + draw(st.integers(0 if k else 1, 1))
    size = draw(st.integers(1, 2))
    n_ports = draw(st.integers(1, base))
    slot = st.integers(1, n_ports + size).flatmap(lambda v: st.sampled_from((v, -v)))
    block = draw(st.lists(st.lists(slot, min_size=1, max_size=3), min_size=1, max_size=5))
    lit = st.integers(1, base).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3), max_size=4))
    copies = draw(st.integers(2, 4 if size == 1 else 3))
    for j in range(copies):
        ports = draw(st.permutations(range(1, base + 1)))[:n_ports]
        sign = draw(st.sampled_from((1, -1)))
        var = [0, *ports, *range(base + j * size + 1, base + (j + 1) * size + 1)]
        clauses += [[sign * var[l] if l > 0 else -sign * var[-l] for l in c] for c in block]
    width = draw(st.sampled_from((1, 2, 3, 9)))
    growth = draw(st.sampled_from((0, 1, 64)))
    return k, base + copies * size, [canonical_clause(c) for c in clauses], width, growth


def numbered_blocks(clauses, cuts):
    """The blocks between ``cuts``, top first, each as the arguments of its
    elimination: the clauses that touch it, in matrix order, with the ports
    (variables up to ``cuts[0]``) numbered 1..P by first occurrence and the
    block's variables by offset; P; and P plus the block's size."""
    out = []
    for lo, hi in reversed(list(zip(cuts, cuts[1:]))):
        touching = [c for c in clauses if lo < abs(c[-1]) <= hi]
        ports = []
        for c in touching:
            for l in c:
                if abs(l) <= cuts[0] and abs(l) not in ports:
                    ports.append(abs(l))

        def name(l, lo=lo, ports=ports):
            i = ports.index(abs(l)) + 1 if abs(l) <= cuts[0] else len(ports) + abs(l) - lo
            return i if l > 0 else -i

        out.append((tuple(tuple(map(name, c)) for c in touching), len(ports), len(ports) + hi - lo))
    return out


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(planted_blocks())
def test_blocks_are_eliminated_once_per_numbered_shape(part):
    k, n, clauses, width, growth = part
    plain = elimination.eliminate
    runs = []  # the arguments of each block elimination; the base pass names its top

    def recording(clauses, k, n, *, resolved=(), top=None):
        if top is None:
            runs.append((tuple(clauses), k, n))
        return plain(clauses, k, n, resolved=resolved, top=top)

    q = Qbf2Formula(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)),
                    CnfFormula(n, tuple(clauses), allows_duplicate_literals=True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "MAX_RESOLVENT_WIDTH", width)
        mp.setattr(elimination, "MAX_ADDED_CLAUSES", growth)
        mp.setattr(elimination, "eliminate", recording)
        elimination.eliminated_block.cache_clear()
        left = eliminate_blocks(clauses, k, n)
        cuts = block_cuts(clauses, k, n)
        blocks = numbered_blocks(clauses, cuts)
        part_runs = list(runs)
        # qbf_truth on a cold memo, then on the memo it warmed
        results, per_call = [], []
        elimination.eliminated_block.cache_clear()
        for _ in range(2):
            runs.clear()
            results.append(qbf_truth(q))
            per_call.append(list(runs))
    assert cuts == cuts_by_definition(clauses, k, n)
    assert all(len({bisect.bisect_left(cuts, abs(l)) for l in c if abs(l) > cuts[0]}) <= 1
               for c in clauses)
    assert (set() if left is None else extendable(left, k, n)) == extendable(clauses, k, n)
    # each distinct numbered block once; an empty resolvent stops the blocks
    assert len(part_runs) == len(set(part_runs))
    if left is None:
        assert set(part_runs) <= set(blocks)
    else:
        assert sorted(part_runs) == sorted(set(blocks))
    assert len(per_call[0]) == len(set(per_call[0]))
    assert per_call[1] == []
    assert results[0] == results[1]


def local_parts(q):
    """The parts of ``q`` that have clauses, renumbered as ``qbf_truth``
    does: (clauses, k, n), universals 1..k and existentials k+1..n."""
    for us, es, local in parts_of(q):
        if local:
            yield local, len(us), len(us) + len(es)


@pytest.mark.parametrize("s", [1, 2])
def test_blocks_on_pipeline_stages(s):
    # the joined part of the monotonized and padded stages has the tripled
    # source's variables as its base, one block per enforcer, and its
    # blocks number into at most two, frakM's and frakMbar's; every part
    # loses every existential, with the clauses of the plain descending
    # elimination
    specs = corpus.QBF_1122_SPECS if s == 1 else corpus.QBF_2222_SPECS
    transform = transform_1122 if s == 1 else transform_2222
    seen = set()
    for p, seed in specs:
        q = random_balanced_qbf(p, s, s, seed)
        joined = 0
        for stage in (monotonize(triple_copy(q)), transform(q)):
            for clauses, k, n in local_parts(stage):
                key = (k, n, tuple(sorted(clauses)))
                if key in seen:
                    continue
                seen.add(key)
                elimination.eliminated_block.cache_clear()
                left = eliminate_blocks(clauses, k, n)
                assert left is not None and all(abs(l) <= k for c in left for l in c)
                assert sorted(left) == sorted(eliminate(clauses, k, n))
                if k == 3 * p:
                    joined += 1
                    cuts = block_cuts(clauses, k, n)
                    assert cuts[0] == 3 * q.matrix.n_vars
                    assert len(cuts) - 1 == sum(1 for c in q.matrix.clauses
                                                 if 0 < sum(l > 0 for l in c) < len(c))
                    distinct = len(set(numbered_blocks(clauses, cuts)))
                    assert elimination.eliminated_block.cache_info().currsize == distinct <= 2
        assert joined == 1


@pytest.mark.parametrize("s", [1, 2])
def test_truth_eliminates_each_numbered_block_once(s):
    # qbf_truth on a monotonized or padded stage, with a cold memo, runs one
    # block elimination per distinct numbered block of its distinct parts,
    # each part's clauses in matrix order: the block keys number the ports
    # by first occurrence, and with the clauses sorted equal enforcers no
    # longer share a key.  A second call on the warm memo runs none.
    specs = corpus.QBF_1122_SPECS if s == 1 else corpus.QBF_2222_SPECS
    transform = transform_1122 if s == 1 else transform_2222
    plain = elimination.eliminate
    runs = []

    def recording(clauses, k, n, *, resolved=(), top=None):
        if top is None:
            runs.append((tuple(clauses), k, n))
        return plain(clauses, k, n, resolved=resolved, top=top)

    for p, seed in specs:
        q = random_balanced_qbf(p, s, s, seed)
        for stage in (monotonize(triple_copy(q)), transform(q)):
            blocks, keys = set(), set()
            for clauses, k, n in local_parts(stage):
                key = (k, n, tuple(sorted(clauses)))
                if key not in keys:
                    keys.add(key)
                    blocks.update(numbered_blocks(clauses, block_cuts(clauses, k, n)))
            results, per_call = [], []
            elimination.eliminated_block.cache_clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(elimination, "eliminate", recording)
                for _ in range(2):
                    runs.clear()
                    results.append(qbf_truth(stage))
                    per_call.append(list(runs))
            assert sorted(per_call[0]) == sorted(blocks)
            assert per_call[1] == []
            assert results[0] == results[1]


@pytest.mark.parametrize("s", [1, 2])
def test_block_keys_follow_clause_order(s):
    # a block's memo key lists its clauses as numbered, so shuffling the
    # matrix gives other keys and other cold eliminations, never another
    # verdict or first counterexample
    specs = corpus.QBF_1122_SPECS if s == 1 else corpus.QBF_2222_SPECS
    transform = transform_1122 if s == 1 else transform_2222
    rng = random.Random(5)
    for p, seed in specs[:3]:
        q = random_balanced_qbf(p, s, s, seed)
        for stage in (monotonize(triple_copy(q)), transform(q)):
            clauses = list(stage.matrix.clauses)
            rng.shuffle(clauses)
            shuffled = Qbf2Formula(stage.universals, stage.existentials,
                                   dataclasses.replace(stage.matrix, clauses=tuple(clauses)))
            expected = qbf_truth(stage)
            elimination.eliminated_block.cache_clear()
            assert qbf_truth(shuffled) == expected


def test_block_memo_is_keyed_by_the_caps(monkeypatch):
    # a monotonized part warms the memo with its enforcer under the default
    # caps, which eliminate every existential; under low caps the same
    # block keeps some, and its memoized result must not be reused
    p, seed = corpus.QBF_1122_SPECS[3]
    clauses, k, n = max(local_parts(monotonize(triple_copy(random_balanced_qbf(p, 1, 1, seed)))),
                        key=lambda part: len(part[0]))
    assert len(block_cuts(clauses, k, n)) > 2
    assert eliminate_blocks(clauses, k, n) == [] == eliminate(clauses, k, n)
    monkeypatch.setattr(elimination, "MAX_RESOLVENT_WIDTH", 5)
    monkeypatch.setattr(elimination, "MAX_ADDED_CLAUSES", 8)
    low = eliminate(clauses, k, n)
    assert low and any(abs(l) > k for c in low for l in c)
    assert sorted(eliminate_blocks(clauses, k, n)) == sorted(low)


def test_monotonized_p5_instance_needs_few_solver_calls(monkeypatch):
    # the monotonized (1,1) p = 5 instance is one part with 15 universals,
    # which the walk alone decides in 704 steps; elimination undoes the
    # enforcers that join the three copies
    q = monotonize(triple_copy(random_balanced_qbf(5, 1, 1, 3)))
    assert len(q.universals) == 15 and len(parts_of(q)) == 1
    calls = count_solves(monkeypatch)
    assert qbf_truth(q).value is QbfValue.YES
    assert len(calls) < 100


def test_triple_copy(qbf_1122_corpus):
    q = qbf_1122_corpus[0]
    t = triple_copy(q)
    assert len(t.universals) == 3 * len(q.universals)
    assert len(t.existentials) == 3 * len(q.existentials)
    assert t.matrix.m == 3 * q.matrix.m
    for shape in ("A", "B"):
        count = sum(
            1 for c in t.matrix.clauses
            if sum(1 for l in c if l > 0) == (1 if shape == "A" else 2)
        )
        assert count % 3 == 0
    assert qbf_truth(t).value == qbf_truth(q).value


def test_monotonize_monotone_matrix_unchanged():
    q = Qbf2Formula((1,), (2, 3), cnf([[1, 2, 3]], n_vars=3))
    out = monotonize(q)
    assert out.matrix.clauses == q.matrix.clauses
    assert out.existentials == q.existentials


def test_monotonize_divisibility_rejected():
    q = Qbf2Formula((1,), (2, 3), cnf([[1, -2, -3]], n_vars=3))
    with pytest.raises(MonotonizeError, match="divisible"):
        monotonize(q)


def test_monotonize_structure_and_truth(qbf_1122_corpus):
    q = qbf_1122_corpus[3]
    t = triple_copy(q)
    m = monotonize(t)
    assert all(
        all(l > 0 for l in c) or all(l < 0 for l in c) for c in m.matrix.clauses
    )
    mixed = sum(1 for c in t.matrix.clauses if 1 <= sum(1 for l in c if l > 0) <= 2)
    assert len(m.existentials) == len(t.existentials) + 32 * mixed
    assert m.universals == t.universals
    assert qbf_truth(m).value == qbf_truth(t).value


def test_pad_examples():
    # surplus 3 with the five-universal enforcer: exactly one block
    q = Qbf2Formula((1,), (2, 3, 4, 5), cnf([], n_vars=5))
    out = pad_to_balance(q, PadVariant.USE_Q3)
    assert len(out.universals) == len(out.existentials) == 6
    assert out.matrix.m == 6

    # surplus 1 with the monotone enforcer
    q = Qbf2Formula((1,), (2, 3), cnf([], n_vars=3))
    out = pad_to_balance(q, PadVariant.USE_Q1MON)
    assert len(out.universals) == len(out.existentials) == 6
    assert out.matrix.m == 12

    with pytest.raises(PadError, match="divisible"):
        pad_to_balance(Qbf2Formula((1,), (2, 3), cnf([], n_vars=3)), PadVariant.USE_Q3)
    with pytest.raises(PadError, match="cannot pad"):
        pad_to_balance(Qbf2Formula((1, 2), (3,), cnf([], n_vars=3)), PadVariant.USE_Q3)

    balanced = Qbf2Formula((1,), (2,), cnf([], n_vars=2))
    assert pad_to_balance(balanced, PadVariant.USE_Q3) is balanced


def test_transform_1122(qbf_1122_corpus):
    q = qbf_1122_corpus[0]
    out = transform_1122(q)
    rep = validate_balanced(
        out, BalanceSpec(1, 1, 2, 2, require_equal_counts=True, require_monotone=True)
    )
    assert rep.verdict
    assert qbf_truth(out).value == qbf_truth(q).value


def test_transform_2222(qbf_2222_corpus):
    q = qbf_2222_corpus[0]
    out = transform_2222(q)
    rep = validate_balanced(
        out, BalanceSpec(2, 2, 2, 2, require_equal_counts=True, require_monotone=True)
    )
    assert rep.verdict
    assert qbf_truth(out).value == qbf_truth(q).value


def test_transform_rejects_unbalanced_input():
    q = Qbf2Formula((1,), (2, 3), cnf([[1, 2, 3]], n_vars=3))
    with pytest.raises(InvalidInstanceError):
        transform_1122(q)
    with pytest.raises(InvalidInstanceError):
        transform_2222(q)


def test_qdimacs_roundtrip(qbf_1122_corpus):
    q = qbf_1122_corpus[0]
    text = write_qdimacs(q)
    back = read_qdimacs(text)
    assert back.universals == q.universals
    assert back.existentials == q.existentials
    assert back.matrix.clauses == q.matrix.clauses
    assert write_qdimacs(back) == text


def test_qdimacs_quantifier_line_is_found_by_its_first_token():
    q = read_qdimacs("p cnf 3 1\na\t1 0\ne\t2\t3 0\n1 2 3 0\n")
    assert (q.universals, q.existentials) == ((1,), (2, 3))
    with pytest.raises(ParseError, match="line 2: quantifier line missing 0 terminator"):
        read_qdimacs("p cnf 2 1\na\ne 2 0\n1 2 0\n")


def test_qdimacs_errors():
    with pytest.raises(ParseError, match="header"):
        read_qdimacs("a 1 0\ne 2 0\n1 2 0\n")
    with pytest.raises(ParseError, match="after clauses"):
        read_qdimacs("p cnf 2 1\n1 2 0\na 1 0\n")
    with pytest.raises(ParseError, match="after existential"):
        read_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n")
    with pytest.raises(ParseError, match="terminator"):
        read_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2\n")
    with pytest.raises(ParseError, match="line 1: malformed header"):
        read_qdimacs("p cnf x 1\n")
    with pytest.raises(ParseError, match="line 2: invalid variable"):
        read_qdimacs("p cnf 2 1\na 1 x 0\ne 2 0\n1 2 0\n")
    with pytest.raises(ParseError, match="line 1: malformed header"):
        read_qdimacs("p cnf -1 0\n")
    with pytest.raises(ParseError, match="line 1: malformed header"):
        read_qdimacs("p cnf 2 -1\n")
    with pytest.raises(ParseError, match="line 2: duplicate header"):
        read_qdimacs("p cnf 2 1\np cnf 3 1\na 1 0\ne 2 3 0\n1 2 3 0\n")
    with pytest.raises(ParseError, match="repeats a variable"):
        read_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 -1 2 0\n")
    with pytest.raises(ParseError, match="not quantified"):
        read_qdimacs("p cnf 2 1\n1 0")
    with pytest.raises(ParseError, match="repeated variable"):
        read_qdimacs("p cnf 1 0\na 1 1 0\n")
    with pytest.raises(ParseError, match="quantified twice"):
        read_qdimacs("p cnf 1 0\na 1 0\ne 1 0\n")

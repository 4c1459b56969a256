import bisect
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
from monoforge import qbf as qbf_module
from monoforge import solver as solver_module
from monoforge.formula import CnfFormula, InvalidInstanceError, canonical_clause, cnf
from monoforge.gadgets import FreshVarAllocator, build_U
from monoforge.generate import random_balanced_qbf
from monoforge.qbf import (
    MAX_UNIVERSAL_BITS,
    _block_cuts,
    _component_first_failure,
    _components,
    _eliminate_blocks,
    _eliminate_existentials,
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


def test_decompose_matches_naive_multicomponent():
    # two independent parts, one failing: the counterexample must be the
    # lexicographically first over the declared universal order
    q = Qbf2Formula(
        (1, 3), (2, 4),
        cnf([[1, 2], [-1, 2], [3, 4], [-3, -4], [3, -4]], n_vars=4),
    )
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    assert res.counterexample == brute_force_truth(q) == {1: False, 3: False}


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


def test_budget_on_too_many_universals(monkeypatch):
    # one part with 25 universals, chained by clauses over universals alone,
    # so elimination leaves it whole and the walk refuses it
    q = Qbf2Formula(tuple(range(1, 26)), (),
                    cnf([[i, i + 1] for i in range(1, 25)], n_vars=25))
    assert MAX_UNIVERSAL_BITS == 24
    calls = []
    monkeypatch.setattr(solver_module.Solver, "solve", lambda *a, **k: calls.append(1))
    assert qbf_truth(q).value is QbfValue.BUDGET
    assert calls == []


REFUTED_PARTS = {
    "eliminated": lambda u, e: [[e], [-e]],  # an empty resolvent
    "walked": lambda u, e: [[u]],  # no existential to eliminate
}


@pytest.mark.parametrize("refuted", sorted(REFUTED_PARTS))
@pytest.mark.parametrize("chain_first", [True, False], ids=["chain-first", "chain-last"])
def test_budget_wins_over_a_refuted_part(refuted, chain_first):
    # a chain of 25 universals, over the walk's budget, beside a part on
    # universal u and existential e that is false at u = false; the parts
    # come in order of their smallest variable
    chain = list(range(1, 26)) if chain_first else list(range(3, 28))
    u, e = (26, 27) if chain_first else (1, 2)
    other = REFUTED_PARTS[refuted](u, e)
    alone = Qbf2Formula((u,), (e,), cnf(other, n_vars=27))
    assert qbf_truth(alone) == QbfResult(QbfValue.NO, {u: False})
    clauses = [[a, b] for a, b in zip(chain, chain[1:])] + other
    q = Qbf2Formula((*chain, u), (e,), cnf(clauses, n_vars=27))
    assert qbf_truth(q) == QbfResult(QbfValue.BUDGET)


@pytest.mark.parametrize("s", [1, 2])
def test_universal_budget_applies_after_elimination(s):
    # the monotonized and padded p = 9 stages are one part with 27
    # universals, over the walk's budget; elimination splits it into parts
    # the walk decides, with the tripled stage's verdict and counterexample
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
    # 11 pigeons in 10 holes: every resolvent has 10 literals, so
    # elimination keeps each variable and the solver meets the budget
    def var(pigeon, hole):
        return 10 * pigeon + hole + 1

    clauses = [[var(i, j) for j in range(10)] for i in range(11)]
    clauses += [[-var(i, j), -var(h, j)] for j in range(10) for i in range(11) for h in range(i)]
    q = Qbf2Formula((), tuple(range(1, 111)), cnf(clauses, n_vars=110))
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


def bfs_components(q):
    """The parts of ``q`` by breadth-first search over shared clauses, in the
    documented order: parts by smallest variable, universals and
    existentials in declared order, clause indices ascending."""
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
        parts.append((
            [u for u in q.universals if u in part],
            [e for e in q.existentials if e in part],
            [j for j, c in enumerate(q.matrix.clauses) if abs(c[0]) in part],
        ))
    return parts


@st.composite
def matrices_for_components(draw):
    """Shuffled variables, some in no clause and some unquantified and
    unused, with random clauses, long chains of binary clauses in shuffled
    order, one-clause parts and repeated clauses."""
    n = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(1, n + 1)))
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


def test_witness_reuse_skips_solves(monkeypatch, qbf_1122_corpus):
    # a (1,1) yes-instance with p = 3: its monotonized matrix is one
    # component with 9 universals.  Elimination decides it without the
    # solver, so the walk gets the part itself, renumbered: universals
    # 1..9, then the existentials in declared order.
    assert corpus.QBF_1122_SPECS[3][0] == 3
    q = monotonize(triple_copy(qbf_1122_corpus[3]))
    assert len(q.universals) == 9 and len(parts_of(q)) == 1
    local = {v: i for i, v in enumerate(q.universals + q.existentials, 1)}
    part = cnf([[local[abs(l)] if l > 0 else -local[abs(l)] for l in c] for c in q.matrix.clauses],
               n_vars=len(local))
    calls = count_solves(monkeypatch)
    assert _component_first_failure(part, 9, 1_000_000) == (QbfValue.YES, None)
    assert 0 < len(calls) < 2 ** 9
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


@pytest.mark.parametrize("failing", [(1, 9, 17), None], ids=["no", "yes"])
def test_walk_crosses_kernel_block_boundary(monkeypatch, failing):
    # one part with 17 universals: its 2^17 assignments fill two kernel
    # blocks, and universal 1 picks the block.  The no-instance fails
    # exactly when universals 1, 9 and 17 are true (index 2^16 + 2^8 + 1);
    # in the yes-instance e = -u1, so the first witness covers the first
    # block and the second the other.  f = true, in every model, ties all
    # universals into one part.  Elimination would drop the pure f and
    # split the part, so the walk is called on the formula directly.
    k, e, f = 17, 18, 19
    clauses = [[u, f] for u in range(1, k + 1)]
    if failing:
        clauses += [[-u for u in failing] + [e], [-u for u in failing] + [-e]]
    else:
        clauses += [[1, e], [-1, -e], [1, e, -f]]
    q = Qbf2Formula(tuple(range(1, k + 1)), (e, f), cnf(clauses, n_vars=f))
    assumed = []
    solve = solver_module.Solver.solve

    def recording_solve(self, assumptions=(), **kwargs):
        assumed.append(sum(1 << (k - l) for l in assumptions if l > 0))
        return solve(self, assumptions, **kwargs)

    monkeypatch.setattr(solver_module.Solver, "solve", recording_solve)
    verdict, bits = _component_first_failure(q.matrix, k, 1_000_000)
    alpha = numpy_truth(q)
    assert verdict is (QbfValue.YES if alpha is None else QbfValue.NO)
    assert (None if bits is None else dict(zip(q.universals, bits))) == alpha
    assert assumed == [0, (1 << 16) + (1 << 8) + 1 if failing else 1 << 16]
    assert qbf_truth(q).counterexample == alpha


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
        mp.setattr(qbf_module, "MAX_RESOLVENT_WIDTH", width)
        mp.setattr(qbf_module, "MAX_ADDED_CLAUSES", growth)
        left = _eliminate_existentials(clauses, k, n)
    assert (set() if left is None else extendable(left, k, n)) == extendable(clauses, k, n)
    if left is not None:
        assert all(c == canonical_clause(c) and len(c) == len({abs(l) for l in c})
                   and 0 < len(c) <= max(width, max(map(len, clauses))) for c in left)


def test_empty_resolvent_is_no_with_all_false(monkeypatch):
    # e4 gives -e3 and then e3 resolves with the unit e3 to the empty clause
    clauses = [[3], [-3, 4], [-4], [1, 2, 3]]
    assert _eliminate_existentials([tuple(c) for c in clauses], 2, 4) is None
    q = Qbf2Formula((2, 1), (3, 4), cnf(clauses, n_vars=4))
    calls = count_solves(monkeypatch)
    res = qbf_truth(q)
    assert res.value is QbfValue.NO
    assert res.counterexample == brute_force_truth(q) == {2: False, 1: False}
    assert calls == []


def test_pure_existential_takes_its_clauses(monkeypatch):
    # e3 occurs only positively: its clauses go, and the universals left
    # in no clause make the part true without a solver call
    assert _eliminate_existentials([(1, 3), (-2, 3), (-1, 2, 3)], 2, 3) == []
    assert _eliminate_existentials([(1, 3), (-1, 2)], 2, 3) == [(-1, 2)]
    q = Qbf2Formula((1, 2), (3,), cnf([[1, 3], [-2, 3], [-1, 2, 3]], n_vars=3))
    calls = count_solves(monkeypatch)
    assert qbf_truth(q).value is QbfValue.YES
    assert calls == []


def test_resolvents_are_checked_for_subsumption_both_ways():
    # e4 gives (u1 e3), which removes (u1 u2 e3); e3 then gives (u1 u2),
    # which the live (u2) subsumes
    assert _eliminate_existentials([(2,), (1, 2, 3), (1, 4), (3, -4), (2, -3)], 2, 4) == [(2,)]
    # e5 gives (u1 u2), which removes (u1 u2 u3)
    assert _eliminate_existentials([(1, 5), (2, -5), (1, 2, 3)], 3, 5) == [(1, 2)]


def test_block_results_join_with_subsumption_both_ways():
    # universals 1..3 and the block {e4}: its resolvent (u1 u2) removes
    # the clause (u1 u2 u3), and in the second part (u1 u2 u3) is skipped
    # because (u1 u2) subsumes it, as in the plain elimination
    for clauses in ([(1, 2, 3), (1, 4), (2, -4)], [(1, 2), (1, 4), (2, 3, -4)]):
        assert _block_cuts(clauses, 3, 4) == [3, 4]
        assert _eliminate_blocks(clauses, 3, 4, {}) == _eliminate_existentials(clauses, 3, 4) \
            == [(1, 2)]


def cuts_by_definition(clauses, k, n):
    """``_block_cuts`` by its definition: every base bound L in k..n tried
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


def folded_blocks(clauses, cuts):
    """The blocks between ``cuts``, top first, each as the arguments of its
    elimination: the sorted clauses that touch it with the ports (variables
    up to ``cuts[0]``) numbered 1..P by first occurrence and the block's
    variables by offset, or their sign flip when that is smaller; P; and P
    plus the block's size."""
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

        plain = sorted(tuple(sorted(map(name, c), key=abs)) for c in touching)
        flipped = sorted(tuple(-l for l in c) for c in plain)
        out.append((tuple(min(plain, flipped)), len(ports), len(ports) + hi - lo))
    return out


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(planted_blocks())
def test_blocks_are_eliminated_once_per_folded_shape(part):
    k, n, clauses, width, growth = part
    plain = qbf_module._eliminate_existentials
    runs = []  # the arguments of each block elimination; the base pass names its top

    def recording(clauses, k, n, *, resolved=(), top=None):
        if top is None:
            runs.append((tuple(clauses), k, n))
        return plain(clauses, k, n, resolved=resolved, top=top)

    q = Qbf2Formula(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)),
                    CnfFormula(n, tuple(clauses), allows_duplicate_literals=True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qbf_module, "MAX_RESOLVENT_WIDTH", width)
        mp.setattr(qbf_module, "MAX_ADDED_CLAUSES", growth)
        mp.setattr(qbf_module, "_eliminate_existentials", recording)
        left = _eliminate_blocks(clauses, k, n, {})
        cuts = _block_cuts(clauses, k, n)
        blocks = folded_blocks(clauses, cuts)
        part_runs = list(runs)
        per_call = []
        for _ in range(2):
            runs.clear()
            qbf_truth(q)
            per_call.append(len(runs))
    assert cuts == cuts_by_definition(clauses, k, n)
    assert all(len({bisect.bisect_left(cuts, abs(l)) for l in c if abs(l) > cuts[0]}) <= 1
               for c in clauses)
    assert (set() if left is None else extendable(left, k, n)) == extendable(clauses, k, n)
    # each distinct folded block once; an empty resolvent stops the blocks
    assert len(part_runs) == len(set(part_runs))
    if left is None:
        assert set(part_runs) <= set(blocks)
    else:
        assert sorted(part_runs) == sorted(set(blocks))
    assert per_call[0] == per_call[1]


def local_parts(q):
    """The parts of ``q`` that have clauses, renumbered as ``qbf_truth``
    does: (clauses, k, n), universals 1..k and existentials k+1..n."""
    for us, es, idx in parts_of(q):
        if idx:
            lit = {}
            for i, v in enumerate(us + es, 1):
                lit[v], lit[-v] = i, -i
            yield ([canonical_clause(map(lit.__getitem__, q.matrix.clauses[j])) for j in idx],
                   len(us), len(us) + len(es))


@pytest.mark.parametrize("s", [1, 2])
def test_blocks_on_pipeline_stages(s):
    # the joined part of the monotonized and padded stages has the tripled
    # source's variables as its base, one block per enforcer, and all of
    # its blocks fold into one; every part loses every existential, with
    # the clauses of the plain descending elimination
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
                blocks = {}
                left = _eliminate_blocks(clauses, k, n, blocks)
                assert left is not None and all(abs(l) <= k for c in left for l in c)
                assert sorted(left) == sorted(_eliminate_existentials(clauses, k, n))
                if k == 3 * p:
                    joined += 1
                    cuts = _block_cuts(clauses, k, n)
                    assert cuts[0] == 3 * q.matrix.n_vars
                    assert len(cuts) - 1 == sum(1 for c in q.matrix.clauses
                                                 if 0 < sum(l > 0 for l in c) < len(c))
                    assert len(blocks) == 1
        assert joined == 1


@pytest.mark.parametrize("s", [1, 2])
def test_truth_eliminates_each_folded_block_once(s):
    # qbf_truth on a monotonized or padded stage runs one block elimination
    # per distinct folded block of its distinct parts, each part's clauses
    # in matrix order: the block keys number the ports by first occurrence,
    # and with the clauses sorted equal enforcers no longer fold into one
    specs = corpus.QBF_1122_SPECS if s == 1 else corpus.QBF_2222_SPECS
    transform = transform_1122 if s == 1 else transform_2222
    plain = qbf_module._eliminate_existentials
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
                    blocks.update(folded_blocks(clauses, _block_cuts(clauses, k, n)))
            runs.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qbf_module, "_eliminate_existentials", recording)
                qbf_truth(stage)
            assert sorted(runs) == sorted(blocks)


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

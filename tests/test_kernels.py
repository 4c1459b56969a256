from hypothesis import given, settings, strategies as st

from monoforge import kernels
from monoforge.formula import cnf
from monoforge.gadgets import build_U_NAE, build_y_core
from monoforge.generate import random_3sat22, random_mono_nae_e2


def oracle(clauses, n_vars):
    """Satisfying and not-all-equal assignment indices, ascending, found by
    evaluating every clause under every assignment in turn."""
    sat, nae = [], []
    for a in range(1 << n_vars):
        truths = [[bool((a >> (abs(l) - 1)) & 1) == (l > 0) for l in c] for c in clauses]
        if all(any(t) for t in truths):
            sat.append(a)
        if all(any(t) and not all(t) for t in truths):
            nae.append(a)
    return sat, nae


def assert_kernels(clauses, n_vars, sat, first, bounds=()):
    """Every kernel against the ascending models ``sat`` and the first
    not-all-equal index ``first``, with limits and caps of 0, 1, below, at
    and above the true count, plus ``bounds``."""
    lits, widths = kernels.clause_arrays(clauses)
    for b in {0, 1, len(sat) // 2, len(sat) - 1, len(sat), len(sat) + 1, *bounds}:
        assert kernels.count_sat(lits, widths, n_vars, b) == min(len(sat), b)
        assert kernels.collect_sat(lits, widths, n_vars, b) == sat[: max(b, 0)]
    assert kernels.first_nae(lits, widths, n_vars) == first


def assert_matches_oracle(clauses, n_vars, bounds=()):
    sat, nae = oracle(clauses, n_vars)
    assert_kernels(clauses, n_vars, sat, nae[0] if nae else -1, bounds)


@st.composite
def clause_lists(draw):
    """Up to 8 clauses of width 0-4 over up to 10 variables, with empty
    clauses, repeated literals, tautologies and repeated clauses."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return 0, draw(st.lists(st.just([]), max_size=2)), 0
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, max_size=4), max_size=8))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
    return n, clauses, draw(st.integers(-1, (1 << n) + 1))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(clause_lists())
def test_kernels_match_oracle(case):
    n, clauses, bound = case
    sat, nae = oracle(clauses, n)
    assert_kernels(clauses, n, sat, nae[0] if nae else -1, (bound,))
    # Again with every variable renumbered v -> v + 8: variables 1-8 are then
    # free, so each model s becomes the indices (s << 8) + j, and variables
    # 9 and 10 become 17 and 18, which are constant within a chunk.
    shifted = [[l + 8 if l > 0 else l - 8 for l in c] for c in clauses]
    models = [i for s in sat for i in range(s << 8, (s + 1) << 8)]
    assert_kernels(shifted, n + 8, models, nae[0] << 8 if nae else -1, (bound,))


def test_backend_parity_on_corpus():
    formulas = [random_3sat22(n, seed) for n, seed in ((6, 1), (9, 2), (12, 3))]
    formulas += [build_y_core(), build_U_NAE(), cnf([], n_vars=4), cnf([[1, 2, 3]])]
    for f in formulas:
        assert_matches_oracle(f.clauses, f.n_vars, (50,))


def test_block_boundaries():
    # blocks hold 2**16 assignments; each answer is known in closed form
    odd = kernels.clause_arrays([[1]])  # models: the odd indices
    assert kernels.count_sat(*odd, 17, 1 << 20) == 1 << 16
    half = (1 << 15) + 3  # every model of the first block, then 3 more
    assert kernels.collect_sat(*odd, 17, half) == list(range(1, 2 * half, 2))
    high = kernels.clause_arrays(cnf([[17]], n_vars=17).clauses)  # models: 2**16 .. 2**17 - 1
    assert kernels.count_sat(*high, 17, 1 << 20) == 1 << 16
    assert kernels.count_sat(*high, 17, 1000) == 1000
    assert kernels.collect_sat(*high, 17, 3) == [1 << 16, (1 << 16) + 1, (1 << 16) + 2]
    # not-all-equal: x17 != x18 and x1 != x2, so the first is x17 = x1 = 1
    nae = kernels.clause_arrays([[17, 18], [1, 2]])
    assert kernels.first_nae(*nae, 18) == (1 << 16) + 1
    assert kernels.first_nae(*kernels.clause_arrays([[18]]), 18) == -1
    assert kernels.count_sat(*kernels.clause_arrays([[-21], [-1]]), 21, 1 << 22) == 1 << 19


def test_count_limit_semantics():
    f = cnf([], n_vars=4)  # 16 models
    lits, widths = kernels.clause_arrays(f.clauses)
    assert kernels.count_sat(lits, widths, 4, 100) == 16
    assert kernels.count_sat(lits, widths, 4, 5) == 5


def test_collect_cap_semantics():
    f = cnf([[1]], n_vars=3)  # 4 models: indices 1, 3, 5, 7
    lits, widths = kernels.clause_arrays(f.clauses)
    assert [int(x) for x in kernels.collect_sat(lits, widths, 3, 10)] == [1, 3, 5, 7]
    assert [int(x) for x in kernels.collect_sat(lits, widths, 3, 2)] == [1, 3]


def test_first_nae():
    f = random_mono_nae_e2(6, 5)
    lits, widths = kernels.clause_arrays(f.clauses)
    idx = kernels.first_nae(lits, widths, f.n_vars)
    assert idx >= 0
    values = {v: bool((idx >> (v - 1)) & 1) for v in range(1, 7)}
    for c in f.clauses:
        truths = [values[abs(l)] for l in c]
        assert any(truths) and not all(truths)


def test_active_backend_is_known():
    assert kernels.active_backend() == "python-int"

import time

import pytest
from hypothesis import given, settings, strategies as st

from monoforge.formula import (
    CnfFormula,
    FormulaError,
    InstanceClass,
    canonical_clause,
    canonicalize,
    clause_has_distinct_vars,
    clause_is_monotone,
    cnf,
    formula_of_copies,
    map_variables,
    negate_formula,
    occurrence_profile,
    satisfies,
    simplify_under,
    validate_class,
    validate_instance,
)
from monoforge.gadgets import build_F2, build_F3, build_G, build_M, build_U, build_y_core
from monoforge.generate import random_balanced_qbf
from monoforge.kernels import clause_arrays, count_sat
from monoforge.qbf import qbf_truth, transform_2222


def brute_count(f):
    lits, widths = clause_arrays(f.clauses)
    return count_sat(lits, widths, f.n_vars, (1 << f.n_vars) + 1)


def test_canonical_clause_order():
    assert canonical_clause([3, -2, 1]) == (1, -2, 3)
    assert canonical_clause([2, -2]) == (-2, 2)  # negative before positive on ties
    assert canonical_clause([-5, -5, 7]) == (-5, -5, 7)


def test_canonical_clause_rejects_zero():
    with pytest.raises(FormulaError):
        canonical_clause([1, 0, 2])


@pytest.mark.parametrize("lits, bad", [
    (["x", 1], "x"), ([None], None), ([2, None, -1], None), ([3, "1", 1.0], "1"), ([1.0], 1.0),
    ([2, True], True),
])
def test_canonical_clause_rejects_literals_that_are_not_ints(lits, bad):
    # a clause the sort cannot order still fails with the formula's own error
    for build in (canonical_clause, lambda c: cnf([c])):
        with pytest.raises(FormulaError) as e:
            build(lits)
        assert str(e.value) == f"invalid literal {bad!r}"


def test_cnf_rejects_duplicate_vars_in_strict_dialect():
    with pytest.raises(FormulaError):
        cnf([[1, 1, 2]])
    f = cnf([[1, 1, 2]], allows_duplicate_literals=True)
    assert f.clauses == ((1, 1, 2),)


def test_cnf_rejects_out_of_range():
    with pytest.raises(FormulaError):
        cnf([[1, 4]], n_vars=3)


def test_formula_requires_canonical_clauses():
    with pytest.raises(FormulaError):
        CnfFormula(2, ((2, 1),))


def test_canonicalize_idempotent():
    for f in (build_M(), build_U(), build_y_core(), cnf([[3, 1, 2], [-1, 2]])):
        once = canonicalize(f)
        assert canonicalize(once) == once


def test_canonicalize_keeps_duplicate_multiplicity():
    f = cnf([[1, 2, 3], [1, 2, 3]])
    assert canonicalize(f).m == 2


def test_negate_formula_involution_and_single_clause():
    f = cnf([[1, 2, 3]])
    assert negate_formula(f).clauses == ((-1, -2, -3),)
    assert negate_formula(negate_formula(build_M())) == build_M()


def test_negate_preserves_class_verdict():
    u = build_U()
    assert validate_class(u, InstanceClass.MONO_3SAT_22).verdict
    assert validate_class(negate_formula(u), InstanceClass.MONO_3SAT_22).verdict
    bad = cnf([[1, -2, 3]], n_vars=3)
    assert not validate_class(bad, InstanceClass.MONO_3SAT_22).verdict
    assert not validate_class(negate_formula(bad), InstanceClass.MONO_3SAT_22).verdict


def test_occurrence_profile_examples():
    prof = occurrence_profile(build_M())
    low = {v for v, p in prof.items() if p == (1, 2)}
    assert low == {1, 5, 6, 14, 32}
    assert all(p == (2, 2) for v, p in prof.items() if v not in low)

    empty = occurrence_profile(cnf([], n_vars=0))
    assert list(empty.items()) == []

    u = occurrence_profile(build_U())
    assert all(p == (2, 2) for _, p in u.items())
    assert u.total() == 264 * 3


def test_validate_class_examples():
    assert validate_class(build_U(), InstanceClass.MONO_3SAT_22).verdict

    rep = validate_class(build_M(), InstanceClass.MONO_3SAT_22)
    assert not rep.verdict
    rules = {v.rule for v in rep.violations}
    assert "width" in rules  # the 2-clauses
    assert "occurrence" in rules  # the five (1,2) variables

    mixed = cnf([[1, -2, 3]], n_vars=3)
    rep = validate_class(mixed, InstanceClass.MONO_3SAT_22)
    assert not rep.verdict
    assert any(v.rule == "monotone" for v in rep.violations)


def test_validate_class_verdict_decomposes():
    u = build_U()
    rep = validate_class(u, InstanceClass.MONO_3SAT_22)
    assert rep.verdict
    assert all(len(c) == 3 for c in u.clauses)
    assert all(all(l > 0 for l in c) or all(l < 0 for l in c) for c in u.clauses)
    assert len(set(u.clauses)) == u.m
    assert all(p == (2, 2) for _, p in occurrence_profile(u).items())


def test_validate_unique_flags_duplicates():
    f = cnf([[1, 2, 3], [1, 2, 3]], n_vars=3)
    rep = validate_class(f, InstanceClass.MONO_3SAT_22)
    assert any(v.rule == "unique" for v in rep.violations)
    # duplicates are fine for the two-appearance all-positive class
    g = cnf([[1, 2, 3], [1, 2, 3]], n_vars=3)
    assert validate_class(g, InstanceClass.MONO_NAE_E2).verdict


def test_clause_helpers_on_edge_widths():
    assert clause_is_monotone(())
    assert clause_is_monotone((4,)) and clause_is_monotone((-4,))
    assert clause_is_monotone((-3, -1)) and not clause_is_monotone((-3, 1))
    assert clause_has_distinct_vars(())
    assert clause_has_distinct_vars((5,)) and clause_has_distinct_vars((-5,))
    assert not clause_has_distinct_vars((-2, 2))
    assert not clause_has_distinct_vars((1, 1, 2))
    assert not clause_has_distinct_vars((-3, -3))
    assert clause_has_distinct_vars((-1, 2, -3))


# the per-clause generator tests and per-literal count the validator had
# before each test became one C-level call
_REFERENCE_MESSAGES = {
    "occurrence": "variable {var} appears ({got[0]},{got[1]}), expected ({want[0]},{want[1]})",
    "universal-occurrence": "universal {var} appears {got}, expected {want}",
    "existential-occurrence": "existential {var} appears {got}, expected {want}",
}


def validate_by_generators(f, groups, *, distinct, monotone, all_positive, unique):
    v, repeats, seen = [], [], {}
    for j, c in enumerate(f.clauses):
        if len(c) != 3:
            v.append(("width", j, f"clause {j} has width {len(c)}, expected 3"))
        vs = tuple(abs(l) for l in c)
        if distinct and len(set(vs)) != len(vs):
            v.append(("distinct-vars", j, f"clause {j} repeats a variable: {c}"))
        if monotone and not (all(l > 0 for l in c) or all(l < 0 for l in c)):
            v.append(("monotone", j, f"clause {j} is mixed: {c}"))
        if all_positive and any(l < 0 for l in c):
            v.append(("all-positive", j, f"clause {j} has a negated literal: {c}"))
        if unique:
            first = seen.setdefault(c, j)
            if first != j:
                repeats.append(("unique", j, f"clause {j} duplicates clause {first}: {c}"))
    v += repeats
    pos, neg = [0] * (f.n_vars + 1), [0] * (f.n_vars + 1)
    for c in f.clauses:
        for l in c:
            if l > 0:
                pos[l] += 1
            else:
                neg[-l] += 1
    for rule, variables, want in groups:
        for var in variables:
            got = (pos[var], neg[var])
            if got != want:
                v.append((rule, var, _REFERENCE_MESSAGES[rule].format(var=var, got=got, want=want)))
    return v


_CLASS_FLAGS = {
    InstanceClass.MONO_3SAT_22: ((2, 2), dict(distinct=True, monotone=True, all_positive=False, unique=True)),
    InstanceClass.MONO_3SAT_STAR_22: ((2, 2), dict(distinct=False, monotone=True, all_positive=False, unique=True)),
    InstanceClass.THREE_SAT_22: ((2, 2), dict(distinct=True, monotone=False, all_positive=False, unique=True)),
    InstanceClass.MONO_NAE_E2: ((2, 0), dict(distinct=True, monotone=True, all_positive=True, unique=False)),
}


@st.composite
def validation_inputs(draw):
    """A formula in either dialect with clauses of width 0-4, mixed and
    negated literals, repeated variables (duplicate dialect) and repeated
    clauses, plus occurrence groups over its variables under every rule."""
    n = draw(st.integers(0, 5))
    dup = draw(st.booleans())
    clauses = []
    if n:
        lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
        if not dup:  # one literal per variable
            lit_lists = st.lists(lit, max_size=4).map(lambda c: list({abs(l): l for l in c}.values()))
        else:
            lit_lists = st.lists(lit, max_size=4)
        clauses = [canonical_clause(c) for c in draw(st.lists(lit_lists, max_size=8))]
        # repeat some clauses, somewhere later in the list
        for _ in range(draw(st.integers(0, 3)) if clauses else 0):
            c = draw(st.sampled_from(clauses))
            clauses.insert(draw(st.integers(0, len(clauses))), c)
    f = CnfFormula(n, tuple(clauses), dup)
    want = st.tuples(st.integers(0, 3), st.integers(0, 3))
    groups = draw(st.lists(st.tuples(
        st.sampled_from(sorted(_REFERENCE_MESSAGES)),
        st.lists(st.integers(1, n), max_size=n + 2) if n else st.just([]),
        want), max_size=3))
    flags = draw(st.fixed_dictionaries(
        {k: st.booleans() for k in ("distinct", "monotone", "all_positive", "unique")}))
    return f, groups, flags


def _triples(violations):
    return [(x.rule, x.index, x.message) for x in violations]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(validation_inputs())
def test_validator_matches_per_literal_reference(case):
    f, groups, flags = case
    assert _triples(validate_instance(f, groups, **flags)) == validate_by_generators(f, groups, **flags)
    # the groups of every class: one per variable, each compared with its target
    for cls, (want, class_flags) in _CLASS_FLAGS.items():
        report = validate_class(f, cls)
        expected = validate_by_generators(
            f, [("occurrence", range(1, f.n_vars + 1), want)], **class_flags)
        assert _triples(report.violations) == expected
        assert report.verdict == (not expected)


def test_simplify_under_propagation_example():
    f = cnf(build_F2().clauses + build_F3().clauses, n_vars=32)
    out = simplify_under(f, {1: False})
    # the forced values stay visible as unit clauses
    assert (2,) in out.clauses
    assert (-3,) in out.clauses
    assert (-4,) in out.clauses
    # the bridge clauses blocked by x3/x4 disappear, the x5..x8 part remains
    assert (5, 7, 8) in out.clauses and (6, 7, 8) in out.clauses


def test_simplify_under_empty_assignment_only_propagates_units():
    f = cnf([[1], [1, 2], [2, 3]])
    out = simplify_under(f, {})
    assert out.clauses == ((1,), (2, 3))
    g = build_M()
    assert simplify_under(g, {}) == g


def test_simplify_under_g_yields_y_core():
    g = simplify_under(build_G(), {3: False, 4: False})
    shifted = map_variables(build_y_core(), {i: 8 + i for i in range(1, 10)}, n_vars=32)
    assert g.clauses == shifted.clauses


def test_simplify_under_conflict_keeps_empty_clause():
    f = cnf([[1], [-1]])
    out = simplify_under(f, {})
    assert () in out.clauses


def test_simplify_under_equisatisfiable(sat22_corpus):
    import random

    rng = random.Random(0)
    for f in sat22_corpus[:10]:
        for _ in range(6):
            k = rng.randrange(0, f.n_vars)
            chosen = rng.sample(range(1, f.n_vars + 1), k)
            assignment = {v: rng.random() < 0.5 for v in chosen}
            out = simplify_under(f, assignment)
            with_units = cnf(
                list(f.clauses) + [[v if b else -v] for v, b in assignment.items()],
                n_vars=f.n_vars,
            )
            if any(len(c) == 0 for c in out.clauses):
                assert brute_count(with_units) == 0
            else:
                assert (brute_count(out) > 0) == (brute_count(with_units) > 0)


def simplify_under_by_rescanning(f, a):
    """The reference for ``simplify_under``: after each unit it keeps or
    drops every clause again, then takes the first unit in clause order over
    an unassigned variable, until a clause is empty or no unit is left."""
    val = dict(a)

    def keep(c):
        if len(set(c)) == 1:
            b = val.get(abs(c[0]))
            if b is not None and b == (c[0] > 0):
                return c
        out = []
        for l in c:
            b = val.get(abs(l))
            if b is None:
                out.append(l)
            elif b == (l > 0):
                return None
        return canonical_clause(out)

    clauses = [kept for c in f.clauses if (kept := keep(c)) is not None]
    while not any(len(c) == 0 for c in clauses):
        unit = None
        for c in clauses:
            if len(set(c)) == 1 and val.get(abs(c[0])) is None:
                unit = c[0]
                break
        if unit is None:
            break
        val[abs(unit)] = unit > 0
        clauses = [kept for c in clauses if (kept := keep(c)) is not None]
    return CnfFormula(f.n_vars, tuple(clauses), f.allows_duplicate_literals, f.symbol_table)


@st.composite
def formulas_under_assignments(draw):
    """A formula in either dialect over a few variables, with many short
    clauses, so units chain and conflicts arise, and a partial assignment."""
    n = draw(st.integers(1, 8))
    dup = draw(st.booleans())
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, max_size=3), max_size=14))
    if not dup:  # one literal per variable
        clauses = [list({abs(l): l for l in c}.values()) for c in clauses]
    f = CnfFormula(n, tuple(canonical_clause(c) for c in clauses), dup)
    return f, draw(st.dictionaries(st.integers(1, n), st.booleans(), max_size=n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(formulas_under_assignments())
def test_simplify_under_matches_rescanning_reference(case):
    f, a = case
    assert simplify_under(f, a) == simplify_under_by_rescanning(f, a)


def test_simplify_under_padded_matrix_in_near_linear_time():
    # the padded (2,2) p = 3 matrix (7698 variables) under its first
    # counterexample; rescanning every clause after each unit took 13.4 s
    q = transform_2222(random_balanced_qbf(3, 2, 2, 1))
    alpha = qbf_truth(q).counterexample
    start = time.process_time()
    out = simplify_under(q.matrix, alpha)
    assert time.process_time() - start < 0.5
    assert out.n_vars == q.matrix.n_vars == 7698


def test_formula_of_copies_checks_in_full_when_a_source_does_not_fit():
    f = cnf([[1, -2], [2, 3]])
    strict = formula_of_copies(6, ((1, -2), (4, -5), (5, 6)), [(f, 3)])
    assert strict == CnfFormula(6, ((1, -2), (4, -5), (5, 6)))
    # a shift past n_vars, a dialect looser than the result's, a negative
    # n_vars: the constructor's checks, with its messages
    with pytest.raises(FormulaError, match=r"^clause 2: literal 7 out of range 1..6$"):
        formula_of_copies(6, ((1, -2), (4, -5), (6, 7)), [(f, 4)])
    dup = CnfFormula(2, ((1, 1, 2),), True)
    assert formula_of_copies(2, dup.clauses, [(dup, 0)], True) == dup
    with pytest.raises(FormulaError, match="repeats a variable but duplicates are not allowed"):
        formula_of_copies(2, dup.clauses, [(dup, 0)])
    with pytest.raises(FormulaError, match="^n_vars must be non-negative$"):
        formula_of_copies(-1, (), [])
    # a source that does not fit but whose clauses do passes the full check
    assert formula_of_copies(3, f.clauses, [(f, 1)]) == f


def test_map_variables():
    f = cnf([[1, -2]], n_vars=2)
    g = map_variables(f, {1: 5, 2: 9})
    assert g.clauses == ((5, -9),)
    assert g.n_vars == 9


def test_satisfies():
    f = cnf([[1, 2], [-1, 2]])
    assert satisfies(f, {1: True, 2: True})
    assert not satisfies(f, {1: True, 2: False})


# sort-based reference for the one-pass clause checks: the same rules and
# messages, each clause compared with its sorted copy


def _ref_key(lit):
    return (abs(lit), lit > 0)


def ref_canonical_clause(lits):
    c = tuple(lits)
    for l in c:
        if not isinstance(l, int) or isinstance(l, bool) or l == 0:
            raise FormulaError(f"invalid literal {l!r}")
    return tuple(sorted(c, key=_ref_key))


def ref_formula_checks(n_vars, clauses, allows_duplicate_literals):
    if n_vars < 0:
        raise FormulaError("n_vars must be non-negative")
    for j, c in enumerate(clauses):
        for l in c:
            if not isinstance(l, int) or isinstance(l, bool) or l == 0:
                raise FormulaError(f"clause {j}: invalid literal {l!r}")
            if abs(l) > n_vars:
                raise FormulaError(f"clause {j}: literal {l} out of range 1..{n_vars}")
        if list(c) != sorted(c, key=_ref_key):
            raise FormulaError(f"clause {j} is not in canonical order: {c}")
        if not allows_duplicate_literals and len({abs(l) for l in c}) != len(c):
            raise FormulaError(
                f"clause {j} repeats a variable but duplicates are not allowed: {c}"
            )


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as e:  # the type and message are compared
        return type(e), str(e)
    return None


def _sorted_if_possible(lits):
    try:
        return sorted(lits, key=_ref_key)
    except TypeError:
        return lits


# mostly few variables, so that a clause often holds x and -x or repeats x;
# then out-of-range values and literals of the wrong type or zero
_LITERAL = st.sampled_from(
    [1, -1, 2, -2, 3, -3] * 3 + [4, -4, 6, -7, 8, 0, True, False, 1.0, "1", None]
)
_CLAUSE = st.tuples(st.lists(_LITERAL, max_size=4), st.booleans(), st.booleans()).map(
    # half the clauses are sorted first, so the order and repeat checks run
    lambda t: (tuple if t[2] else list)(_sorted_if_possible(t[0]) if t[1] else t[0])
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(-1, 6), clauses=st.lists(_CLAUSE, max_size=4), dup=st.booleans())
def test_one_pass_checks_match_sorting_reference(n, clauses, dup):
    want = _outcome(ref_formula_checks, n, clauses, dup)
    assert _outcome(CnfFormula, n, tuple(clauses), dup) == want
    for c in clauses:
        assert _outcome(CnfFormula, n, (c,), dup) == _outcome(ref_formula_checks, n, [c], dup)
        want = _outcome(ref_canonical_clause, c)
        assert _outcome(canonical_clause, c) == want
        if want is None:
            assert canonical_clause(c) == ref_canonical_clause(c)

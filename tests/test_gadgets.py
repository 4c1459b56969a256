import itertools

import pytest
from hypothesis import given, settings, strategies as st

from monoforge import refdata
from monoforge.fileio import read_clause_list, write_clause_list
from monoforge.formula import (
    InstanceClass,
    canonical_clause,
    canonicalize,
    cnf,
    negate_formula,
    occurrence_profile,
    validate_class,
)
from monoforge.gadgets import (
    M_LISTING,
    TEMPLATE_SYMBOLS,
    FreshVarAllocator,
    _m_copies,
    build_core8,
    build_F2,
    build_F3,
    build_frakM,
    build_frakMbar,
    build_G,
    build_H,
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
from monoforge.solver import Solver, Status, solve


def sat_under(inst, values):
    assumptions = [v if b else -v for v, b in values.items()]
    return Solver(inst.formula).solve(assumptions).status is Status.SAT


def table_matches(inst, port_vars, expect):
    for bits in itertools.product((False, True), repeat=len(port_vars)):
        values = dict(zip(port_vars, bits))
        if sat_under(inst, values) != expect(values):
            return False
    return True


def test_groups_as_numbered():
    assert [list(c) for c in build_F2().clauses] == [[1, 2], [-2, -3], [-2, -4]]
    f3 = build_F3()
    assert f3.m == 8 and list(f3.clauses[0]) == [-3, -5, -6]
    g = build_G()
    assert g.m == 13 and list(g.clauses[0]) == [3, 9, 10]
    h = build_H()
    assert h.m == 18
    assert list(h.clauses[0]) == [-1, -22, -23]
    assert list(h.clauses[-1]) == [-29, -30, -32]


def test_m_equals_group_union_and_listing():
    m = build_M()
    assert m.m == 42 and m.n_vars == 32
    union = cnf(
        build_F2().clauses + build_F3().clauses + build_G().clauses + build_H().clauses,
        n_vars=32,
    )
    assert canonicalize(m) == canonicalize(union)
    assert write_clause_list(m) == refdata.M_LIST_TEXT
    assert canonicalize(m) == canonicalize(read_clause_list(refdata.M_LIST_TEXT))


def test_m_unsat_and_profile():
    m = build_M()
    assert solve(m).status is Status.UNSAT
    prof = occurrence_profile(m)
    assert {v for v, p in prof.items() if p == (1, 2)} == {1, 5, 6, 14, 32}


def test_y_and_z_cores_golden():
    y = build_y_core()
    assert write_clause_list(y) == refdata.Y_CORE_LIST_TEXT
    z = build_z_core()
    assert write_clause_list(z) == refdata.Z_CORE_LIST_TEXT
    assert solve(y).status is Status.UNSAT
    assert solve(z).status is Status.UNSAT


def test_u_golden():
    u = build_U()
    assert u.n_vars == 198 and u.m == 264
    assert validate_class(u, InstanceClass.MONO_3SAT_22).verdict
    assert write_clause_list(u) == refdata.U_LIST_TEXT
    assert solve(u).status is Status.UNSAT


def test_m_enforcer_truth_table():
    alloc = FreshVarAllocator(4)
    inst = build_M_enforcer(alloc, 1, 2, 3)
    assert inst.formula.m == 42
    assert table_matches(inst, (1, 2, 3), lambda v: v[1] or not v[2] or not v[3])
    # the named falsifying and satisfying cases
    assert not sat_under(inst, {1: False, 2: True, 3: True})
    assert sat_under(inst, {1: True, 2: True, 3: True})


def test_m_enforcer_fresh_profile():
    alloc = FreshVarAllocator(4)
    inst = build_M_enforcer(alloc, 1, 2, 3)
    prof = occurrence_profile(inst.formula)
    low = {v for v in inst.fresh_vars.values() if prof.of(v) == (1, 2)}
    names = {s for s, v in inst.fresh_vars.items() if v in low}
    assert names == {"x1^0", "x5^0", "x6^0", "y6^0", "z15^0"}
    others = [v for v in inst.fresh_vars.values() if v not in low]
    assert all(prof.of(v) == (2, 2) for v in others)


def test_m_enforcer_port_multiplicity_and_duplicates():
    alloc = FreshVarAllocator(3)
    inst = build_M_enforcer(alloc, 1, 2, 2)  # u2 = u3 is the duplicate absorber
    prof = occurrence_profile(inst.formula)
    assert prof.of(1) == (1, 0)
    assert prof.of(2) == (0, 2)


def test_m_enforcer_rejects_overlapping_u1():
    with pytest.raises(ValueError):
        build_M_enforcer(FreshVarAllocator(4), 1, 1, 3)
    with pytest.raises(ValueError):
        build_M_enforcer(FreshVarAllocator(4), 1, 2, 1)


def test_mbar_is_literal_negation_of_m():
    a = build_M_enforcer(FreshVarAllocator(4), 1, 2, 3)
    b = build_Mbar_enforcer(FreshVarAllocator(4), 1, 2, 3)
    assert negate_formula(a.formula).clauses == b.formula.clauses
    assert table_matches(b, (1, 2, 3), lambda v: not v[1] or v[2] or v[3])


@pytest.mark.parametrize("build, build_bar, ports, ports_bar", [
    (build_S, build_Sbar, (1, 2, 3), (1, 2, 3)),
    (build_S, build_Sbar, (1, 1, 2), (1, 1, 2)),
    (build_frakM, build_frakMbar, ([(1, -2, -3), (4, -5, -6), (7, -8, -9)],),
     ([(-1, 2, 3), (-4, 5, 6), (-7, 8, 9)],)),
], ids=["S", "S-repeated-port", "frakM"])
def test_bar_twin_is_literal_negation(build, build_bar, ports, ports_bar):
    a = build(FreshVarAllocator(10), *ports)
    b = build_bar(FreshVarAllocator(10), *ports_bar)
    assert negate_formula(a.formula).clauses == b.formula.clauses
    assert a.formula.symbol_table == b.formula.symbol_table


def test_n_blocker():
    alloc = FreshVarAllocator(2)
    inst = build_N(alloc, 1)
    assert inst.formula.m == 42
    two_clauses = [c for c in inst.formula.clauses if len(c) == 2]
    assert len(two_clauses) == 1
    x1 = inst.fresh_vars["x1^0"]
    x2 = inst.fresh_vars["x2^0"]
    assert two_clauses[0] == tuple(sorted((x1, x2)))
    assert not sat_under(inst, {1: True})
    assert sat_under(inst, {1: False})


def test_s_sizes_balance_and_table():
    alloc = FreshVarAllocator(4)
    inst = build_S(alloc, 1, 2, 3)
    assert len(inst.fresh_vars) == 99
    assert inst.formula.m == 133
    prof = occurrence_profile(inst.formula)
    assert all(prof.of(v) == (2, 2) for v in inst.fresh_vars.values())
    assert all(
        all(l > 0 for l in c) or all(l < 0 for l in c) for c in inst.formula.clauses
    )
    assert table_matches(inst, (1, 2, 3), lambda v: v[1] or v[2] or v[3])


def test_s_duplicate_ports_and_negation():
    inst = build_S(FreshVarAllocator(3), 1, 1, 2)
    assert table_matches(inst, (1, 2), lambda v: v[1] or v[2])
    bar = build_Sbar(FreshVarAllocator(3), 1, 1, 2)
    assert table_matches(bar, (1, 2), lambda v: (not v[1]) or (not v[2]))
    assert bar.port_literals == {"v1": -1, "v2": -1, "v3": -2}


def test_frakm_sizes_and_balance():
    alloc = FreshVarAllocator(10)
    inst = build_frakM(alloc, [(1, -2, -3), (4, -5, -6), (7, -8, -9)])
    assert inst.formula.m == 131
    fresh = set(inst.fresh_vars.values())
    assert len(fresh) == 96
    prof = occurrence_profile(inst.formula)
    assert all(prof.of(v) == (2, 2) for v in fresh)
    assert all(
        all(l > 0 for l in c) or all(l < 0 for l in c) for c in inst.formula.clauses
    )


def test_frakm_rejects_bad_shapes():
    alloc = FreshVarAllocator(10)
    with pytest.raises(ValueError):
        build_frakM(alloc, [(1, 2, 3), (4, -5, -6), (7, -8, -9)])
    with pytest.raises(ValueError):
        build_frakM(alloc, [(1, -2, -3), (4, -5, -6)])
    with pytest.raises(ValueError):
        build_frakMbar(alloc, [(1, -2, -3), (4, -5, -6), (7, -8, -9)])


_FRAK_FAULTS = [
    (build_frakM, [(1, 2, -3), (4, -5, -6), (7, -8, -9)],
     "expected one positive and two negative literals: (1, 2, -3)"),
    (build_frakM, [(1, -2, -3), (-4, 5, 6), (7, -8, -9)],
     "expected one positive and two negative literals: (-4, 5, 6)"),
    (build_frakMbar, [(-1, 2, 3), (4, -5, -6), (-7, 8, 9)],
     "expected one negative and two positive literals: (4, -5, -6)"),
    (build_frakMbar, [(-1, 2, 3), (-4, 5, 6), (7, 8, 9)],
     "expected one negative and two positive literals: (7, 8, 9)"),
    (build_frakM, [(1, -2, -3), (4, -5), (7, -8, -9)],
     "not a 3-clause over distinct variables: (4, -5)"),
    (build_frakMbar, [(-1, 2, 3), (-4, 5), (-7, 8, 9)],
     "not a 3-clause over distinct variables: (-4, 5)"),
    (build_frakM, [(1, -2, -3), (4, -5, -5), (7, -8, -9)],
     "not a 3-clause over distinct variables: (4, -5, -5)"),
    (build_frakMbar, [(-1, 2, 3), (-4, 4, 5), (-7, 8, 9)],
     "not a 3-clause over distinct variables: (-4, 4, 5)"),
    (build_frakM, [(1, -2, -3), (4, -5, -6)], "exactly three clauses are combined per instance"),
    (build_frakMbar, [(-1, 2, 3), (-4, 5, 6)], "exactly three clauses are combined per instance"),
    # a wrong count and a bad shape at once: the count is checked first
    (build_frakM, [(1, 2, 3), (4, -5, -6)], "exactly three clauses are combined per instance"),
    (build_frakMbar, [(1, 2, 3), (-4, 5, 6)], "exactly three clauses are combined per instance"),
    # a zero literal ends up among the ports
    (build_frakM, [(1, -2, 0), (4, -5, -6), (7, -8, -9)], "port variable 0 is not a variable id"),
    (build_frakMbar, [(-1, 2, 0), (-4, 5, 6), (-7, 8, 9)], "port variable 0 is not a variable id"),
]


@pytest.mark.parametrize("build, triple, message", _FRAK_FAULTS)
def test_frak_fault_message_leaves_allocator_untouched(build, triple, message):
    alloc = FreshVarAllocator(20)
    alloc.reserve(0, "earlier")
    with pytest.raises(ValueError) as err:
        build(alloc, triple)
    assert str(err.value) == message
    assert alloc.next_id == 20
    assert alloc.reservations == [("earlier", range(20, 20))]


def test_frakm_unsat_when_a_simulated_clause_fails():
    alloc = FreshVarAllocator(10)
    inst = build_frakM(alloc, [(1, -2, -3), (4, -5, -6), (7, -8, -9)])
    falsifying = {1: False, 2: True, 3: True,
                  4: True, 5: False, 6: False,
                  7: True, 8: False, 9: False}
    assert not sat_under(inst, falsifying)
    satisfying = dict(falsifying)
    satisfying[1] = True
    assert sat_under(inst, satisfying)


def test_allocator_freshness_audit():
    alloc = FreshVarAllocator(4)
    a = build_M_enforcer(alloc, 1, 2, 3, tag=1)
    b = build_Mbar_enforcer(alloc, 1, 2, 3, tag=2)
    c = build_S(alloc, 1, 2, 3, tag=3)
    ranges = [r for _, r in alloc.reservations]
    seen = set()
    for r in ranges:
        assert not (set(r) & seen)
        seen |= set(r)
    assert not ({1, 2, 3} & seen)
    assert set(a.fresh_vars.values()) & set(b.fresh_vars.values()) == set()
    assert set(b.fresh_vars.values()) & set(c.fresh_vars.values()) == set()


def test_allocator_rejects_negative_count():
    alloc = FreshVarAllocator(10)
    assert alloc.reserve(5, "a") == range(10, 15)
    with pytest.raises(ValueError, match="cannot reserve -3"):
        alloc.reserve(-3, "b")
    assert alloc.reserve(0, "c") == range(15, 15)
    assert alloc.reserve(4, "d") == range(15, 19)
    assert alloc.reservations == [("a", range(10, 15)), ("c", range(15, 15)),
                                  ("d", range(15, 19))]


@pytest.mark.parametrize("build, message", [
    (lambda a: build_M_enforcer(a, 25, 1, 2), "port variable 25 collides"),
    (lambda a: build_M_enforcer(a, 0, 1, 2), "port variable 0 is not a variable id"),
    (lambda a: build_M_enforcer(a, 60, True, 61), "port variable True is not a variable id"),
    (lambda a: build_Mbar_enforcer(a, 1, 51, 2), "port variable 51 collides"),
    (lambda a: build_N(a, 20), "port variable 20 collides"),
    (lambda a: build_N(a, 2.5), "port variable 2.5 is not a variable id"),
    (lambda a: build_S(a, 1, 2, 118), "port variable 118 collides"),
    (lambda a: build_Sbar(a, -1, 2, 3), "port variable -1 is not a variable id"),
    (lambda a: build_frakM(a, [(1, -2, -3), (4, -5, -6), (7, -8, -115)]),
     "port variable 115 collides"),
    (lambda a: build_frakMbar(a, [(-1, 2, 3), (-4, 5, 30), (-7, 8, 9)]),
     "port variable 30 collides"),
    (lambda a: build_M_enforcer(a, 1, 2, 100), "port variable 100 collides"),
], ids=["M", "M-zero", "M-bool", "Mbar", "N", "N-float", "S", "Sbar-negative", "frakM", "frakMbar",
        "M-above-next-id"])
def test_rejected_port_leaves_allocator_untouched(build, message):
    alloc = FreshVarAllocator(20)
    alloc.reserve(0, "earlier")
    with pytest.raises(ValueError, match=message):
        build(alloc)
    assert alloc.next_id == 20
    assert alloc.reservations == [("earlier", range(20, 20))]


def test_core8():
    c = build_core8()
    assert c.m == 8 and c.n_vars == 6
    assert c.allows_duplicate_literals
    assert (-2, -2, 5) in c.clauses  # the duplicated-negative clause
    assert (-1, 6, 6) in c.clauses


def test_u_nae_shape():
    f = build_U_NAE()
    prof = occurrence_profile(f)
    assert all(p == (3, 0) for _, p in prof.items())
    assert f.m == 7 and f.n_vars == 7


def test_u_port_balance_comes_from_mopups():
    u = build_U()
    prof = occurrence_profile(u)
    assert all(prof.of(v) == (2, 2) for v in range(193, 199))


def _shift_then_sort_m_copies(copies):
    """Reference for `_m_copies`: shift each listed literal one at a time,
    append the slot and sort every clause with `canonical_clause`."""
    bodies, symbols = [], {}
    for fresh, slots, negate, tag in copies:
        base = fresh.start - 1
        sign = -1 if negate else 1
        body = []
        for j, c in enumerate(M_LISTING):
            lits = [sign * (t + base if t > 0 else t - base) for t in c]
            if j < 3 and slots[j] is not None:
                lits.append(sign * slots[j])
            body.append(canonical_clause(lits))
        bodies.append(body)
        symbols |= {base + t: f"{s}^{tag}" for t, s in TEMPLATE_SYMBOLS.items()}
    return bodies, symbols


@st.composite
def _m_copy_specs(draw):
    """One to four `(fresh, slots, negate, tag)` specs on drawn 32-variable
    blocks; each slot is None or a signed literal below or above the block."""
    specs = []
    for i in range(draw(st.integers(1, 4))):
        start = draw(st.integers(1, 400))
        fresh = range(start, start + 32)
        outside = st.integers(start + 32, start + 300)
        if start > 1:
            outside = st.one_of(st.integers(1, start - 1), outside)
        slot = st.one_of(st.none(), outside.flatmap(lambda v: st.sampled_from((v, -v))))
        slots = tuple(draw(slot) for _ in range(3))
        specs.append((fresh, slots, draw(st.booleans()), draw(st.sampled_from((i, f"t.{i}")))))
    return specs


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_m_copy_specs())
def test_m_copies_match_shift_then_sort(specs):
    bodies, symbols = _m_copies(specs)
    ref_bodies, ref_symbols = _shift_then_sort_m_copies(specs)
    assert bodies == ref_bodies
    assert list(symbols.items()) == list(ref_symbols.items())

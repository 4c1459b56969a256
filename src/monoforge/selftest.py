"""Replay every golden claim about the named gadgets and print a table.

Each check is small enough to run at desk scale; together they cover the
construction sizes, the listing equalities, the unsatisfiability results,
the certificate replays and the clauses each enforcer simulates.
"""

from __future__ import annotations

from typing import Callable, TextIO

from . import refdata
from .elimination import eliminate
from .fileio import write_clause_list
from .formula import InstanceClass, occurrence_profile, validate_class
from .gadgets import (
    FreshVarAllocator,
    build_core8,
    build_F2,
    build_frakM,
    build_frakMbar,
    build_G,
    build_H,
    build_M,
    build_M_enforcer,
    build_Mbar_enforcer,
    build_N,
    build_S,
    build_U,
    build_U_NAE,
    build_y_core,
    build_z_core,
)
from .kernels import clause_arrays, first_nae
from .models import count_models
from .nae import complete_component_check, variable_graph
from .qbf import BalanceSpec, QbfValue, build_Q1mon, build_Q3, qbf_truth, validate_balanced
from .rup import parse_rup, verify_rup
from .solver import Status, solve


def _simulates(build, simulated, *ports) -> bool:
    """Eliminating the gadget's fresh variables, with its ports (the variables
    of the simulated clauses) universal, leaves exactly those clauses; DP
    elimination keeps the projection onto the ports, so truth tables agree."""
    k = max(abs(l) for c in simulated for l in c)
    f = build(FreshVarAllocator(start=k + 1), *ports).formula
    left = eliminate(f.clauses, k, f.n_vars)
    return left is not None and sorted(left) == sorted(simulated)


def _core(build, listing: str, proof_lines) -> bool:
    """A core equals its listing, is unsatisfiable, has no model, and its
    printed certificate replays."""
    f = build()
    return (
        write_clause_list(f) == listing
        and solve(f).status is Status.UNSAT
        and count_models(f).count == 0
        and bool(verify_rup(f, parse_rup(proof_lines)))
    )


def _checks() -> list[tuple[str, Callable[[], bool]]]:
    def m_golden():
        m = build_M()
        return (
            m.m == 42
            and m.n_vars == 32
            and write_clause_list(m) == refdata.M_LIST_TEXT
            and solve(m).status is Status.UNSAT
        )

    def m_profile():
        prof = occurrence_profile(build_M())
        low = {v for v, p in prof.items() if p == (1, 2)}
        rest = all(p in ((2, 2), (1, 2)) for _, p in prof.items())
        return low == {1, 5, 6, 14, 32} and rest

    def u_golden():
        u = build_U()
        return (
            u.m == 264
            and u.n_vars == 198
            and validate_class(u, InstanceClass.MONO_3SAT_22).verdict
            and write_clause_list(u) == refdata.U_LIST_TEXT
            and solve(u).status is Status.UNSAT
        )

    def groups():
        f2, g, h = build_F2(), build_G(), build_H()
        return (
            [list(c) for c in f2.clauses] == [[1, 2], [-2, -3], [-2, -4]]
            and g.m == 13
            and list(g.clauses[0]) == [3, 9, 10]
            and h.m == 18
            and list(h.clauses[-1]) == [-29, -30, -32]
        )

    def core8():
        c = build_core8()
        return c.m == 8 and c.n_vars == 6 and count_models(c).count == 0

    def m_enforcer():
        return _simulates(build_M_enforcer, [(1, -2, -3)], 1, 2, 3)

    def mbar_enforcer():
        return _simulates(build_Mbar_enforcer, [(-1, 2, 3)], 1, 2, 3)

    def n_enforcer():
        return _simulates(build_N, [(-1,)], 1)

    def s_enforcer():
        alloc = FreshVarAllocator(4)
        inst = build_S(alloc, 1, 2, 3)
        sizes = len(inst.fresh_vars) == 99 and inst.formula.m == 133
        return sizes and _simulates(build_S, [(1, 2, 3)], 1, 2, 3)

    def frak_enforcers():
        m, mbar = [(1, -2, -3), (4, -5, -6), (7, -8, -9)], [(-1, 2, 3), (-4, 5, 6), (-7, 8, 9)]
        return _simulates(build_frakM, m, m) and _simulates(build_frakMbar, mbar, mbar)

    def frak_sizes():
        alloc = FreshVarAllocator(10)
        inst = build_frakM(alloc, [(1, -2, -3), (4, -5, -6), (7, -8, -9)])
        prof = occurrence_profile(inst.formula)
        fresh = set(inst.fresh_vars.values())
        return (
            len(fresh) == 96
            and inst.formula.m == 131
            and all(prof.of(v) == (2, 2) for v in fresh)
        )

    def q3_yes():
        q = build_Q3(FreshVarAllocator(1))
        occ = validate_balanced(q, BalanceSpec(1, 1, 2, 2)).verdict
        return occ and qbf_truth(q).value is QbfValue.YES

    def q1mon_yes():
        q = build_Q1mon(FreshVarAllocator(1))
        occ = validate_balanced(q, BalanceSpec(2, 2, 2, 2)).verdict
        mono = all(all(l > 0 for l in c) or all(l < 0 for l in c) for c in q.matrix.clauses)
        counts = len(q.universals) == 5 and len(q.existentials) == 4
        return occ and mono and counts and qbf_truth(q).value is QbfValue.YES

    def u_nae():
        f = build_U_NAE()
        g = variable_graph(f)
        k7 = complete_component_check(g, 7)
        lits, widths = clause_arrays(f.clauses)
        return len(k7) == 1 and first_nae(lits, widths, f.n_vars) == -1

    return [
        ("gadget M: 42 clauses, 32 variables, equals listing, unsatisfiable", m_golden),
        ("gadget M: exactly x1, x5, x6, y6, z15 appear (1,2)", m_profile),
        ("instance U: 198 variables, 264 clauses, valid (2,2), equals listing, unsatisfiable", u_golden),
        ("clause groups: numbered clauses as constructed", groups),
        ("y-side core: listing, unsatisfiable, 0 models, certificate replays",
         lambda: _core(build_y_core, refdata.Y_CORE_LIST_TEXT, refdata.Y_CORE_PROOF_LINES)),
        ("z-side core: listing, unsatisfiable, 0 models, certificate replays",
         lambda: _core(build_z_core, refdata.Z_CORE_LIST_TEXT, refdata.Z_CORE_PROOF_LINES)),
        ("eight-clause core over a..f: 0 models", core8),
        ("M enforcer simulates {u1, -u2, -u3}: eliminating its fresh variables leaves it", m_enforcer),
        ("negated M enforcer simulates {-u1, u2, u3}", mbar_enforcer),
        ("N blocker simulates {-u1}: satisfiable exactly when its port is false", n_enforcer),
        ("S simulator: 99 fresh variables, 133 clauses, simulates {u1, u2, u3}", s_enforcer),
        ("combined enforcer: 96 fresh variables, 131 clauses, all (2,2)", frak_sizes),
        ("combined enforcer and its mirror image simulate their three clauses", frak_enforcers),
        ("quantified enforcer (5 universals, 2 existentials) is a yes-instance", q3_yes),
        ("monotone quantified enforcer (5 universals, 4 existentials) is a yes-instance", q1mon_yes),
        ("7-clause all-positive instance: complete graph on 7, no nae-model", u_nae),
    ]


def run_selftest(out: TextIO) -> int:
    checks = _checks()
    failures = 0
    for name, check in checks:
        try:
            ok = check()
        except Exception as e:  # a crash is a failure, not an abort
            ok = False
            name = f"{name} [{type(e).__name__}: {e}]"
        print(("PASS  " if ok else "FAIL  ") + name, file=out)
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed", file=out)
    return 0 if failures == 0 else 1

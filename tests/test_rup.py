import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoforge import refdata
from monoforge.formula import cnf
from monoforge.gadgets import build_y_core, build_z_core
from monoforge.kernels import clause_arrays, count_sat
from monoforge.rup import RupParseError, RupProof, RupStep, parse_rup, verify_rup
from monoforge.solver import Status, solve


def test_parse_roundtrip():
    lines = ["1 -2 0", "d 3 0", "0"]
    proof = parse_rup(lines)
    assert proof.steps == (
        RupStep((1, -2)), RupStep((3,), delete=True), RupStep(()))
    assert proof.lines() == lines
    assert parse_rup("\n".join(lines)) == proof


def test_parse_errors():
    with pytest.raises(RupParseError, match="terminator"):
        parse_rup(["1 2"])
    with pytest.raises(RupParseError, match="non-integer"):
        parse_rup(["1 x 0"])
    with pytest.raises(RupParseError, match="zero"):
        parse_rup(["1 0 2 0"])


def test_published_certificates_verify():
    assert verify_rup(build_y_core(), parse_rup(refdata.Y_CORE_PROOF_LINES))
    assert verify_rup(build_z_core(), parse_rup(refdata.Z_CORE_PROOF_LINES))


def test_empty_proof_on_satisfiable_formula_fails():
    check = verify_rup(cnf([[1]]), RupProof(()))
    assert not check.ok
    assert "empty clause" in check.message


def test_tampered_step_is_rejected():
    y = build_y_core()
    lines = list(refdata.Y_CORE_PROOF_LINES)
    lines[0] = "1 0"  # unit propagation from the negation finds no conflict
    check = verify_rup(y, parse_rup(lines))
    assert not check.ok
    assert check.failed_step == 0


def test_missing_empty_clause_rejected():
    y = build_y_core()
    lines = list(refdata.Y_CORE_PROOF_LINES)[:-1]
    check = verify_rup(y, parse_rup(lines))
    assert not check.ok
    assert check.failed_step is None


def test_deleting_absent_clause_is_ignored():
    y = build_y_core()
    lines = ["d 1 2 3 4 5 0"] + list(refdata.Y_CORE_PROOF_LINES)
    assert verify_rup(y, parse_rup(lines))


@pytest.mark.parametrize("lines, bad", [
    (["1 3 0", "1 0", "0"], 0),  # a RUP weakening by a variable the formula lacks
    (["1 0", "-7 0", "0"], 1),
    (["d 1 7 0", "1 0", "0"], 0),
])
def test_step_outside_formula_variables_rejected(lines, bad):
    f = cnf([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    check = verify_rup(f, parse_rup(lines))
    assert not check.ok and check.failed_step == bad
    assert "outside 1..2" in check.message


def test_proof_literals_do_not_size_the_checker():
    tracemalloc.start()
    try:
        check = verify_rup(cnf([[1]]), parse_rup(["1000000 0", "0"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not check.ok and check.failed_step == 0
    assert peak < 1_000_000


def test_deletions_matter_for_later_steps():
    f = cnf([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    assert verify_rup(f, parse_rup(["1 0", "0"]))
    # with {1,2} deleted first, the unit 1 is no longer implied
    damaged = verify_rup(f, parse_rup(["d 1 2 0", "1 0", "0"]))
    assert not damaged.ok and damaged.failed_step == 1


def test_root_implications_survive_deletion():
    # forward checking keeps implications already propagated at the root
    f = cnf([[1], [-1, 2], [-2, 3]])
    check = verify_rup(f, parse_rup(["d 1 0", "3 0"]))
    assert check.failed_step is None  # every step passed
    assert not check.ok  # but no empty clause was derived


def test_solver_traces_verify_on_random_unsat(sat22_corpus):
    checked = 0
    for f in sat22_corpus:
        res = solve(f, trace=True)
        if res.status is Status.UNSAT:
            assert verify_rup(f, res.proof)
            checked += 1
    # fall back to a crafted instance if the corpus happened to be all-SAT
    if checked == 0:
        f = cnf([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        res = solve(f, trace=True)
        assert res.status is Status.UNSAT and verify_rup(f, res.proof)


@st.composite
def small_cnfs(draw, min_width=1):
    # the variables of a clause are distinct, so a clause of width 2 is not
    # a unit in disguise, as (v, v) would be
    n = draw(st.integers(3, 8))

    def clause(min_size):
        vs = draw(st.lists(st.integers(1, n), min_size=min_size, max_size=3, unique=True))
        return [v if draw(st.booleans()) else -v for v in vs]

    clauses = [clause(min_width) for _ in range(draw(st.integers(0, 4 * n)))]
    # parity constraints on three variables make UNSAT answers common
    for _ in range(draw(st.integers(0, n))):
        a, b, c = clause(3)
        clauses += [[a, b, c], [a, -b, -c], [-a, b, -c], [-a, -b, c]]
    return cnf(clauses, n_vars=n)


def test_traced_proofs_replay():
    # width-2 clauses make fewer root conflicts, so more proofs have steps
    # before their empty clause: most UNSAT examples must learn one, since a
    # proof that is only the empty clause replays nothing
    learned = []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(small_cnfs(min_width=2))
    def replay(f):
        res = solve(f, trace=True)
        lits, widths = clause_arrays(f.clauses)
        assert (res.status is Status.SAT) == (count_sat(lits, widths, f.n_vars, 1) > 0)
        if res.status is Status.UNSAT:
            assert verify_rup(f, res.proof)
            assert res.proof.steps[-1] == RupStep(())
            assert not verify_rup(f, RupProof(res.proof.steps[:-1])).ok
            learned.append(any(s.lits and not s.delete for s in res.proof.steps))

    replay()
    assert len(learned) >= 20
    assert sum(learned) >= 0.75 * len(learned)


def naive_replay(f, steps):
    """(ok, failed_step) of a forward RUP replay by plain unit propagation
    over clause lists, no watches: root implications stay when the clauses
    that gave them are deleted, and after a root conflict every step holds."""
    def propagate(true, clauses):
        # the literals unit propagation sets from ``true``, or None on a conflict
        true = set(true)
        if any(-l in true for l in true):
            return None
        changed = True
        while changed:
            changed = False
            for c in clauses:
                if not any(l in true for l in c):
                    free = [l for l in c if -l not in true]
                    if not free:
                        return None
                    if len(free) == 1:
                        true.add(free[0])
                        changed = True
        return true

    live = [set(c) for c in f.clauses]
    root = propagate((), live)
    empty = False
    for i, step in enumerate(steps):
        c = set(step.lits)
        if step.delete:
            if c in live:
                live.remove(c)
            continue
        if root is not None and propagate(root | {-l for l in c}, live) is not None:
            return False, i
        live.append(c)
        if root is not None:
            root = propagate(root, live)
        empty = empty or not c
    return empty, None


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_cnfs(min_width=2), st.data())
def test_mutated_traced_proofs_match_a_naive_replay(f, data):
    # width-2 clauses make fewer root conflicts, so more proofs have steps
    # to mutate.  Each of eight mutants negates one literal of one step,
    # replaces its variable or drops it, and may have a deletion of a
    # formula clause or an earlier step inserted; verify_rup's verdict and
    # failed step must be those of the naive replay.
    res = solve(f, trace=True)
    assume(res.status is Status.UNSAT)
    assert naive_replay(f, res.proof.steps) == (True, None)
    targets = [i for i, s in enumerate(res.proof.steps) if s.lits]
    for _ in range(8 if targets else 0):
        steps = list(res.proof.steps)
        i = data.draw(st.sampled_from(targets))
        lits = list(steps[i].lits)
        j = data.draw(st.integers(0, len(lits) - 1))
        others = [v for v in range(1, f.n_vars + 1) if v != abs(lits[j])]
        op = data.draw(st.sampled_from(("negate", "drop") + (("swap",) if others else ())))
        if op == "negate":
            lits[j] = -lits[j]
        elif op == "swap":
            v = data.draw(st.sampled_from(others))
            lits[j] = v if lits[j] > 0 else -v
        else:
            del lits[j]
        steps[i] = RupStep(tuple(lits))
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(steps)))
            gone = data.draw(st.sampled_from(list(f.clauses) + [s.lits for s in steps[:at]]))
            steps.insert(at, RupStep(tuple(gone), delete=True))
        check = verify_rup(f, RupProof(tuple(steps)))
        assert (check.ok, check.failed_step) == naive_replay(f, steps)

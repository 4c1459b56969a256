import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monoforge import refdata
from monoforge.cli import main
from monoforge.fileio import read_dimacs, write_dimacs
from monoforge.gadgets import build_U, build_U_NAE, build_y_core
from monoforge.qbf import build_Q3, read_qdimacs, write_qdimacs
from monoforge.gadgets import FreshVarAllocator
from monoforge.generate import random_3sat22
from monoforge.kernels import clause_arrays, count_sat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gadget_u_list_matches_reference(capsys):
    code, out, _ = run(capsys, "gadget", "U", "--format", "list")
    assert code == 0
    assert out.strip() == refdata.U_LIST_TEXT.strip()


def test_gadget_to_file_and_solve(tmp_path, capsys):
    path = tmp_path / "u.cnf"
    code, *_ = run(capsys, "gadget", "U", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--in", str(path))
    assert code == 10
    assert "UNSATISFIABLE" in out


def test_gadget_with_ports(capsys):
    code, out, _ = run(capsys, "gadget", "S", "--ports", "1", "2", "3")
    assert code == 0
    f = read_dimacs(out)
    assert f.m == 133

    code, _, err = run(capsys, "gadget", "S", "--ports", "1", "2")
    assert code == 1
    assert "port" in err

    code, _, err = run(capsys, "gadget", "Menf", "--ports", "1", "1", "2")
    assert code == 1


def test_gadget_unknown_name(capsys):
    code, _, err = run(capsys, "gadget", "nosuch")
    assert code == 1 and "unknown gadget" in err


def test_validate_exit_codes(tmp_path, capsys):
    u = tmp_path / "u.cnf"
    u.write_text(write_dimacs(build_U()))
    code, out, _ = run(capsys, "validate", "--class", "mono3sat22", "--in", str(u))
    assert code == 0 and "valid" in out

    mixed = tmp_path / "mixed.cnf"
    mixed.write_text("p cnf 3 1\n1 -2 3 0\n")
    code, _, err = run(capsys, "validate", "--class", "mono3sat22", "--in", str(mixed))
    assert code == 20
    assert "monotone" in err


def test_solve_sat_exit_zero(tmp_path, capsys):
    f = tmp_path / "sat.cnf"
    f.write_text("p cnf 2 1\n1 2 0\n")
    code, out, _ = run(capsys, "solve", "--in", str(f))
    assert code == 0
    assert out.startswith("s SATISFIABLE")


def test_solve_trace_roundtrip(tmp_path, capsys):
    y = tmp_path / "y.cnf"
    y.write_text(write_dimacs(build_y_core()))
    proof = tmp_path / "y.rup"
    code, *_ = run(capsys, "solve", "--in", str(y), "--trace", str(proof))
    assert code == 10
    code, out, _ = run(capsys, "rup-check", "--in", str(y), "--proof", str(proof))
    assert code == 0 and "verified" in out


def test_rup_check_rejects(tmp_path, capsys):
    y = tmp_path / "y.cnf"
    y.write_text(write_dimacs(build_y_core()))
    bad = tmp_path / "bad.rup"
    bad.write_text("1 0\n0\n")
    code, _, err = run(capsys, "rup-check", "--in", str(y), "--proof", str(bad))
    assert code == 20 and "rejected" in err


def test_rup_check_rejects_variable_outside_formula(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    proof = tmp_path / "p.rup"
    proof.write_text("1 3 0\n1 0\n0\n")
    code, out, err = run(capsys, "rup-check", "--in", str(f), "--proof", str(proof))
    assert (code, out) == (20, "")
    assert err == "proof rejected: step 0 names a variable outside 1..2: 1 3 0\n"


def test_count(capsys, tmp_path):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "count", "--in", str(f))
    assert code == 0 and out.strip() == "7"
    code, out, _ = run(capsys, "count", "--in", str(f), "--cap", "3")
    assert out.strip() == "3 (capped)"


def test_count_usage_errors(capsys, tmp_path):
    u = tmp_path / "u.cnf"
    u.write_text(write_dimacs(build_U()))  # 198 variables: exact counting needs a cap
    code, out, err = run(capsys, "count", "--in", str(u))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "pass a cap" in err

    f = tmp_path / "f.cnf"
    f.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, err = run(capsys, "count", "--in", str(f), "--cap", "-3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "non-negative" in err


def test_count_cap_beyond_dense_limit(capsys, tmp_path):
    # more than 22 variables: counted by solve-and-block up to the cap
    f = tmp_path / "f.cnf"
    f.write_text(write_dimacs(random_3sat22(27, 5)))
    code, out, err = run(capsys, "count", "--in", str(f), "--cap", "100")
    assert (code, out, err) == (0, "100 (capped)\n", "")

    # 6 models over 24 variables: x4..x24 fixed, x1..x3 not all equal
    g = tmp_path / "g.cnf"
    units = "".join(f"{v} 0\n" for v in range(4, 25))
    g.write_text(f"p cnf 24 23\n1 2 3 0\n-1 -2 -3 0\n{units}")
    code, out, err = run(capsys, "count", "--in", str(g), "--cap", "100")
    assert (code, out, err) == (0, "6\n", "")


MALFORMED_JSON = [
    ('{"n_vars": 2, "clauses": [[1, 5]]}', "out of range"),
    ('{"n_vars": 2, "clauses": [[1]], "symbols": [1]}', "symbols"),
    ('{"n_vars": 2, "clauses": 5}', "clauses"),
    ('{"n_vars": 2, "clauses": [[1]], "symbols": {"x": "a"}}', "symbol key"),
]


@pytest.mark.parametrize("text, message", MALFORMED_JSON)
@pytest.mark.parametrize("command", [["solve"], ["count"], ["validate", "--class", "3sat22"]])
def test_malformed_json_is_a_parse_error(capsys, tmp_path, command, text, message):
    j = tmp_path / "j.json"
    j.write_text(text)
    code, out, err = run(capsys, *command, "--in", str(j))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_reduce_star22(tmp_path, capsys):
    src = tmp_path / "star.cnf"
    from monoforge.generate import random_mono_3sat_star22

    f = random_mono_3sat_star22(6, 1)
    src.write_text(write_dimacs(f))
    out_path = tmp_path / "mono.cnf"
    prov = tmp_path / "prov.json"
    code, *_ = run(
        capsys, "reduce", "--from", "star22", "--in", str(src),
        "--out", str(out_path), "--provenance", str(prov),
    )
    assert code == 0
    payload = json.loads(prov.read_text())
    assert "stats" in payload and "clauses" in payload
    reduced = read_dimacs(out_path.read_text())
    assert len(payload["clauses"]) == reduced.m


def test_reduce_rejects_wrong_class(tmp_path, capsys):
    src = tmp_path / "bad.cnf"
    src.write_text("p cnf 3 1\n1 -2 3 0\n")
    code, _, err = run(capsys, "reduce", "--from", "star22", "--in", str(src))
    assert code == 20


def test_qbf_check_and_transform(tmp_path, capsys):
    q3 = tmp_path / "q3.qdimacs"
    q3.write_text(write_qdimacs(build_Q3(FreshVarAllocator(1))))
    code, out, _ = run(capsys, "qbf", "check", "--in", str(q3))
    assert code == 0 and out.strip() == "yes"

    no = tmp_path / "no.qdimacs"
    no.write_text("p cnf 1 1\na 1 0\n1 0\n")
    code, out, _ = run(capsys, "qbf", "check", "--in", str(no))
    assert code == 10
    assert "counterexample" in out

    from monoforge.generate import random_balanced_qbf

    src = tmp_path / "b.qdimacs"
    src.write_text(write_qdimacs(random_balanced_qbf(2, 1, 1, 3)))
    dst = tmp_path / "mono.qdimacs"
    code, *_ = run(capsys, "qbf", "transform-1122", "--in", str(src), "--out", str(dst))
    assert code == 0
    out_q = read_qdimacs(dst.read_text())
    assert len(out_q.universals) == len(out_q.existentials)


def test_nae_subcommands(tmp_path, capsys):
    f = tmp_path / "nae.cnf"
    from monoforge.generate import random_mono_nae_e2

    inst = random_mono_nae_e2(9, 2)
    f.write_text(write_dimacs(inst))
    code, out, _ = run(capsys, "nae", "solve", "--in", str(f))
    assert code == 0 and out.startswith("v ")

    assignment = tmp_path / "a.txt"
    assignment.write_text(out[2:])
    code, out2, _ = run(capsys, "nae", "check", "--in", str(f), "--assignment", str(assignment))
    assert code == 0 and "nae-satisfied" in out2

    unae = tmp_path / "unae.cnf"
    unae.write_text(write_dimacs(build_U_NAE()))
    code, out3, _ = run(capsys, "nae", "graph", "--in", str(unae))
    assert code == 0
    assert len(out3.strip().splitlines()) == 21  # complete graph on 7


def test_nae_solve_rejects_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 1\n1 2 3 0\n")
    code, _, err = run(capsys, "nae", "solve", "--in", str(bad))
    assert code == 20


def run_to_file(capsys, path, *argv):
    """The action run twice: to stdout, then with ``--out path``, which must
    get the same text and leave stdout empty."""
    code, out, err = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert path.read_text() == out
    return code, out


def test_nae_solve_writes_to_out(tmp_path, capsys):
    from monoforge.generate import random_mono_nae_e2

    f = tmp_path / "nae.cnf"
    f.write_text(write_dimacs(random_mono_nae_e2(9, 2)))
    code, out = run_to_file(capsys, tmp_path / "out.v", "nae", "solve", "--in", str(f))
    assert code == 0 and out.startswith("v ")


def test_nae_check_writes_to_out(tmp_path, capsys):
    f = tmp_path / "nae.cnf"
    f.write_text("p cnf 3 1\n1 2 3 0\n")
    for literals, code, line in (("1 2 -3", 0, "nae-satisfied"), ("1 2 3", 10, "not nae-satisfied")):
        assignment = tmp_path / "a.txt"
        assignment.write_text(literals + "\n")
        assert run_to_file(capsys, tmp_path / "out.txt", "nae", "check", "--in", str(f),
                           "--assignment", str(assignment)) == (code, line + "\n")


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "-\uff13"])
def test_nae_check_rejects_literals_that_are_not_ascii_digits(tmp_path, capsys, token):
    # int() reads each of these as a literal; read as 1, '+1' would pass the check
    f = tmp_path / "nae.cnf"
    f.write_text("p cnf 10 1\n1 2 3 0\n")
    assignment = tmp_path / "a.txt"
    assignment.write_text(f"v {token} -2 3 4 5 6 7 8 9 -10 0\n")
    code, out, err = run(capsys, "nae", "check", "--in", str(f), "--assignment", str(assignment))
    assert (code, out, err) == (1, "", f"error: invalid literal {token!r} in assignment\n")


def test_qbf_check_writes_to_out(tmp_path, capsys):
    q3 = tmp_path / "q3.qdimacs"
    q3.write_text(write_qdimacs(build_Q3(FreshVarAllocator(1))))
    assert run_to_file(capsys, tmp_path / "yes.txt", "qbf", "check", "--in", str(q3)) == (0, "yes\n")
    no = tmp_path / "no.qdimacs"
    no.write_text("p cnf 1 1\na 1 0\n1 0\n")
    assert run_to_file(capsys, tmp_path / "no.txt", "qbf", "check", "--in", str(no)) == (
        10, "no\ncounterexample: -1\n")


def test_mine_command(tmp_path, capsys):
    best = tmp_path / "best.cnf"
    trace = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "mine", "--vars", "9", "--clauses", "12", "--seed", "1",
        "--iters", "40", "--out", str(best), "--trace", str(trace),
    )
    assert code == 0
    assert "best model count" in out
    payload = json.loads(trace.read_text())
    assert payload["entries"]
    read_dimacs(best.read_text())

    code, _, err = run(capsys, "mine", "--vars", "9", "--clauses", "13")
    assert code == 1 and "budget" in err

    # no all-(2,2) monotone candidate exists on 3 variables: refused up front
    start = time.perf_counter()
    code, _, err = run(capsys, "mine", "--vars", "3", "--clauses", "4")
    assert code == 1 and err.startswith("error: ") and "3 variables" in err
    assert time.perf_counter() - start < 1.0


def test_mine_refuses_more_variables_than_exact_counting_takes(capsys):
    for n in (24, 300):
        start = time.perf_counter()
        code, out, err = run(capsys, "mine", "--vars", str(n), "--clauses", str(4 * n // 3))
        assert (code, out) == (1, "")
        assert err == "error: the miner counts models exactly: n_vars must be at most 22\n"
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("flag, value, message", [
    ("--iters", "-1", "max_iters must be at least 0, not -1"),
    ("--population", "0", "population_size must be at least 1, not 0"),
    ("--sideways", "7", "sideways_prob must be between 0 and 1, not 7.0"),
    ("--stall", "0", "stall_window must be at least 1, not 0"),
])
def test_mine_refuses_out_of_range_search_settings(capsys, flag, value, message):
    code, out, err = run(capsys, "mine", "--vars", "9", "--clauses", "12", flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n_vars, n_clauses", [("0", "0"), ("-3", "-4")])
def test_mine_refuses_fewer_than_one_variable(capsys, n_vars, n_clauses):
    code, out, err = run(capsys, "mine", "--vars", n_vars, "--clauses", n_clauses, "--iters", "3")
    assert (code, out) == (1, "")
    assert err == f"error: n_vars must be at least 1, not {n_vars}\n"


def test_mine_reports_iterations_not_trace_entries(capsys):
    # restarts add trace entries but no iterations
    code, out, _ = run(capsys, "mine", "--vars", "9", "--clauses", "12", "--population", "1",
                       "--iters", "60", "--stall", "5", "--sideways", "0", "--seed", "10")
    assert code == 0
    assert out.endswith(" after 60 iterations\n")


@pytest.mark.parametrize("argv, text", [
    (["solve"], "p cnf 2 2\n1 2 0\n-1 0\n"),
    (["qbf", "check"], "p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n"),
], ids=["solve", "qbf-check"])
def test_budget_must_be_a_non_negative_integer(capsys, tmp_path, argv, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    for budget in ("-1", "-5", "abc", "\u0661"):
        code, out, err = run(capsys, *argv, "--budget", budget, "--in", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: argument --budget: must be a non-negative integer, "
                       f"not '{budget}'\n")
    code, out, err = run(capsys, *argv, "--budget", "0", "--in", str(path))
    assert code == 0 and out.splitlines()[0] in ("s SATISFIABLE", "yes") and err == ""


def test_gadget_refuses_ports_above_the_variable_limit(capsys):
    code, out, err = run(capsys, "gadget", "N", "--ports", "99999999999")
    assert (code, out) == (1, "")
    assert err == "error: port variable 99999999999 is out of range; the limit is 1048576\n"
    code, out, err = run(capsys, "gadget", "frakM", "--ports", *map(str, range(1, 9)), "1048577")
    assert (code, out, err) == (1, "", "error: port variable 1048577 is out of range; the limit is 1048576\n")
    code, out, _ = run(capsys, "gadget", "N", "--ports", "1048576")
    assert code == 0 and out


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "checks passed" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "gadget")
    assert code == 1
    code, _, err = run(capsys, "solve", "--in", "/nonexistent/file.cnf")
    assert code == 1 and "cannot read" in err


def test_undecodable_input_is_a_read_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_bytes(b"\xff\xfep cnf 1 1\n1 0\n")
    good = tmp_path / "good.cnf"
    good.write_text("p cnf 2 1\n1 2 0\n")
    for argv in (
        ["count", "--in", str(bad)],
        ["solve", "--in", str(bad)],
        ["validate", "--class", "mono3sat22", "--in", str(bad)],
        ["reduce", "--from", "star22", "--in", str(bad)],
        ["nae", "solve", "--in", str(bad)],
        ["qbf", "check", "--in", str(bad)],
        ["rup-check", "--in", str(good), "--proof", str(bad)],
        ["nae", "check", "--in", str(good), "--assignment", str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: cannot read {bad}: "), argv


def test_qbf_rejects_unquantified_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.qdimacs"
    bad.write_text("p cnf 3 1\n1 2 3 0\n")
    code, _, err = run(capsys, "qbf", "check", "--in", str(bad))
    assert code == 1 and "not quantified" in err

    for header in ("p cnf -1 0", "p cnf 2 -1"):
        bad.write_text(header + "\n")
        code, _, err = run(capsys, "qbf", "check", "--in", str(bad))
        assert (code, err) == (1, f"error: line 1: malformed header {header!r}\n")


def test_nae_check_accepts_v_line_and_rejects_junk(tmp_path, capsys):
    from monoforge.generate import random_mono_nae_e2

    f = tmp_path / "nae.cnf"
    f.write_text(write_dimacs(random_mono_nae_e2(6, 3)))
    code, out, _ = run(capsys, "nae", "solve", "--in", str(f))
    assignment = tmp_path / "a.txt"
    assignment.write_text(out)  # keep the leading "v"
    code, out2, _ = run(capsys, "nae", "check", "--in", str(f), "--assignment", str(assignment))
    assert code == 0

    assignment.write_text("v x\n")
    code, _, err = run(capsys, "nae", "check", "--in", str(f), "--assignment", str(assignment))
    assert code == 1 and "invalid literal" in err


OVERSIZED = {
    "dimacs": "p cnf 30000000 0\n",
    "list": "[[30000000]]",
    "json": '{"n_vars": 30000000, "clauses": []}',
}


@pytest.mark.parametrize("argv", [
    ["validate", "--class", "3sat22"],
    ["solve"],
    ["count"],
    ["rup-check", "--proof", "p.rup"],
    ["reduce", "--from", "3sat22"],
    ["nae", "solve"],
    ["nae", "graph"],
    ["nae", "check", "--assignment", "p.rup"],
    ["qbf", "check"],
    ["qbf", "transform-1122"],
    ["qbf", "transform-2222"],
], ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("--")))
def test_oversized_input_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.rup").write_text("0\n")
    formats = ["dimacs"] if argv[0] == "qbf" else list(OVERSIZED)
    for fmt in formats:
        (tmp_path / "big").write_text(OVERSIZED[fmt])
        code, out, err = run(capsys, *argv, "--in", "big")
        assert (code, out) == (1, ""), fmt
        assert err == "error: input declares 30000000 variables; the limit is 1048576\n", fmt


# Run in a fresh interpreter: prints whether numpy is loaded after the imports
# and after each command, the dense ``count`` last, then that count's output.
_NUMPY_PROBE = """
import contextlib, io, os, sys
import monoforge, monoforge.cli
from monoforge.cli import main
loaded = ["numpy" in sys.modules]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in (["gadget", "U"], ["qbf", "check", "--in", sys.argv[1]]):
        assert main(argv) == 0, argv
        loaded.append("numpy" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["count", "--in", sys.argv[2]]) == 0
loaded.append("numpy" in sys.modules)
print(loaded, out.getvalue().strip())
"""


def test_no_command_loads_numpy(tmp_path):
    # test modules may import numpy in this process, so the probe needs its own
    qdimacs = tmp_path / "q3.qdimacs"
    qdimacs.write_text(write_qdimacs(build_Q3(FreshVarAllocator(1))))
    f = random_3sat22(9, 5)
    dense = tmp_path / "f.cnf"
    dense.write_text(write_dimacs(f))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(qdimacs), str(dense)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lits, widths = clause_arrays(f.clauses)
    want = count_sat(lits, widths, f.n_vars, (1 << f.n_vars) + 1)
    assert proc.stdout == f"[False, False, False, False] {want}\n"


@pytest.mark.parametrize("name, fmt", [("Q3", "list"), ("Q1mon", "json")])
def test_quantified_gadgets_are_qdimacs_only(capsys, name, fmt):
    code, out, err = run(capsys, "gadget", name, "--format", fmt)
    assert (code, out) == (1, "")
    assert err == f"error: gadget {name} is QDIMACS only, not --format {fmt}\n"
    code, out, _ = run(capsys, "gadget", name, "--format", "dimacs")
    assert code == 0 and out == run(capsys, "gadget", name)[1]
    assert read_qdimacs(out).universals


@pytest.mark.parametrize("argv, text, unbudgeted", [
    (["solve"], write_dimacs(build_U()), (10, "s UNSATISFIABLE\n", "")),
    (["qbf", "check"], "p cnf 1 1\na 1 0\n-1 0\n", (10, "no\ncounterexample: 1\n", "")),
], ids=["solve-U", "qbf-check"])
def test_budget_zero_prints_only_budget_exhausted(capsys, tmp_path, argv, text, unbudgeted):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert run(capsys, *argv, "--in", str(path), "--budget", "0") == (1, "", "budget exhausted\n")
    assert run(capsys, *argv, "--in", str(path)) == unbudgeted


def test_qbf_check_empty_clause_is_no_with_all_false(capsys, tmp_path):
    path = tmp_path / "empty.qdimacs"
    path.write_text("p cnf 3 3\na 2 1 0\ne 3 0\n1 3 0\n0\n-2 3 0\n")
    assert run(capsys, "qbf", "check", "--in", str(path)) == (10, "no\ncounterexample: -2 -1\n", "")


def test_qbf_check_no_universals_prints_a_bare_counterexample_line(capsys, tmp_path):
    path = tmp_path / "false.qdimacs"
    path.write_text("p cnf 1 2\ne 1 0\n1 0\n-1 0\n")
    assert run(capsys, "qbf", "check", "--in", str(path)) == (10, "no\ncounterexample:\n", "")


def test_nae_check_refuses_a_partial_assignment(capsys, tmp_path):
    from monoforge.generate import random_mono_nae_e2

    f = tmp_path / "nae.cnf"
    f.write_text(write_dimacs(random_mono_nae_e2(6, 3)))
    assignment = tmp_path / "a.txt"
    assignment.write_text("1 -2\n")
    code, out, err = run(capsys, "nae", "check", "--in", str(f), "--assignment", str(assignment))
    assert (code, out, err) == (1, "", "error: assignment must be total\n")


def test_count_out_of_conflicts_prints_only_budget_exhausted(capsys, tmp_path, monkeypatch):
    import functools

    from monoforge import models
    from monoforge.solver import Solver

    f = tmp_path / "f.cnf"
    f.write_text(write_dimacs(random_3sat22(30, 1)))  # 30 variables: solve-and-block
    monkeypatch.setattr(models, "Solver", functools.partial(Solver, conflict_budget=0))
    assert run(capsys, "count", "--in", str(f), "--cap", "5") == (1, "", "budget exhausted\n")


def test_selftest_reports_failures_and_crashes(capsys, monkeypatch):
    from monoforge import selftest

    monkeypatch.setattr(selftest, "_checks", lambda: [
        ("holds", lambda: True), ("fails", lambda: False), ("crashes", lambda: 1 // 0)])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out == ("PASS  holds\nFAIL  fails\n"
                   "FAIL  crashes [ZeroDivisionError: integer division or modulo by zero]\n"
                   "1/3 checks passed\n")


def test_gadget_refuses_a_non_positive_port(capsys):
    code, out, err = run(capsys, "gadget", "S", "--ports", "1", "2", "0")
    assert (code, out, err) == (1, "", "error: port variables are positive integers\n")


def test_gadget_refuses_an_unwritable_out_path(capsys, tmp_path):
    path = tmp_path / "missing" / "u.cnf"
    code, out, err = run(capsys, "gadget", "U", "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.exists()


@pytest.mark.parametrize("argv", [["solve"], ["nae", "solve"]], ids=["solve", "nae-solve"])
def test_value_line_of_a_formula_with_no_variables(tmp_path, capsys, argv):
    f = tmp_path / "empty.cnf"
    f.write_text("p cnf 0 0\n")
    code, out, _ = run(capsys, *argv, "--in", str(f))
    assert code == 0
    assert out.splitlines()[-1] == "v 0"

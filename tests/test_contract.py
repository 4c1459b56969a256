"""The interface that must not move: the package's public names, the CLI
subcommands and the CLI exit codes; and the pairing of the committed
benchmark files."""

import argparse
import ast
import inspect
import json
from collections import defaultdict
from pathlib import Path

import monoforge
from monoforge import cli

PUBLIC_NAMES = {
    "Assignment", "BalanceSpec", "Clause", "CnfFormula", "ColoringError", "FormulaError",
    "FreshVarAllocator", "GadgetInstantiation", "GenerationError", "InstanceClass",
    "InvalidInstanceError", "MinerConfig", "ModelCount", "ModelEnumeration",
    "OccurrenceProfile", "PadVariant", "ParseError", "Qbf2Formula", "QbfResult", "QbfValue",
    "ReductionOutput", "RupCheck", "RupParseError", "RupProof", "RupStep", "SearchTrace",
    "SolveResult", "Solver", "Status", "ValidationReport", "VariableGraph", "Violation",
    "build_F2", "build_F3", "build_G", "build_H", "build_M", "build_M_enforcer",
    "build_Mbar_enforcer", "build_N", "build_Q1mon", "build_Q3", "build_S", "build_Sbar",
    "build_U", "build_U_NAE", "build_core8", "build_frakM", "build_frakMbar", "build_y_core",
    "build_z_core", "canonical_clause", "canonicalize", "cnf", "complete_component_check",
    "count_models", "enumerate_models", "formula_from_json", "formula_to_json",
    "four_coloring", "is_nae_satisfied", "map_variables", "mine", "monotonize",
    "nae_solve_e2", "negate_formula", "occurrence_profile", "pad_to_balance", "parse_rup",
    "qbf_truth", "random_3sat22", "random_balanced_qbf", "random_candidate",
    "random_mono_22", "random_mono_3sat_star22", "random_mono_nae_e2", "read_clause_list",
    "read_dimacs", "read_qdimacs", "reduce_3sat22_to_mono22", "reduce_star22_to_mono22",
    "satisfies", "simplify_under", "solve", "solve_complement_closed_22",
    "strip_trivial_pairs", "swap_move", "transform_1122", "transform_2222", "triple_copy",
    "validate_balanced", "validate_class", "variable_graph", "verify_rup",
    "write_clause_list", "write_dimacs", "write_qdimacs",
}

SUBCOMMANDS = {
    "count", "gadget", "mine", "nae", "qbf", "reduce", "rup-check", "selftest", "solve",
    "validate",
}


def test_public_names():
    exported = {
        name for name, value in vars(monoforge).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES


def test_cli_subcommands():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == SUBCOMMANDS


def test_exit_codes():
    assert (cli.EXIT_OK, cli.EXIT_UNSAT, cli.EXIT_INVALID, cli.EXIT_ERROR) == (0, 10, 20, 1)


def test_no_private_names_imported_across_modules():
    # an underscore name stays inside its module: no module of the package
    # imports one from a sibling
    found = []
    for path in sorted(Path(monoforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__" and (
                    node.level or (node.module or "").startswith("monoforge")):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def test_rup_checker_imports_only_formula_from_the_package():
    # the trusted checker stays independent of the solver that writes proofs
    path = Path(monoforge.__file__).parent / "rup.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("monoforge")):
            module = (node.module or "").removeprefix("monoforge").lstrip(".")
            found |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("monoforge.") for a in node.names
                      if a.name.split(".")[0] == "monoforge"}
    assert found == {"formula"}


def test_bench_files_pair_like_with_like():
    # a committed BENCH file compares each (workload, seed, trace) once: one
    # parent run against one change run on the same jobs for the same time
    paths = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        groups = defaultdict(list)
        for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
            r = run["result"]
            groups[r["workload"], r["seed"], r["trace"]].append(
                (run["side"], r["fingerprint"], r["seconds"]))
        for key, runs in groups.items():
            assert sorted(side for side, _, _ in runs) == ["change", "parent"], (path.name, key)
            assert len({(fp, sec) for _, fp, sec in runs}) == 1, (path.name, key)

"""Command-line entry point.

Exit codes are a machine interface: 0 for success / SAT / yes, 10 for
UNSAT / no, 20 for a validation failure, 1 for usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .formula import CnfFormula, InstanceClass, InvalidInstanceError, validate_class
from .gadgets import (
    FreshVarAllocator,
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
from .miner import MinerConfig, mine
from .models import count_models
from .nae import graph_edge_text, is_nae_satisfied, nae_solve_e2, variable_graph
from .qbf import (
    QbfValue,
    build_Q1mon,
    build_Q3,
    qbf_truth,
    read_qdimacs,
    transform_1122,
    transform_2222,
    write_qdimacs,
)
from .reductions import reduce_3sat22_to_mono22, reduce_star22_to_mono22
from .rup import RupParseError, parse_rup, verify_rup
from .selftest import run_selftest
from .solver import Status, solve

EXIT_OK = 0
EXIT_UNSAT = 10
EXIT_INVALID = 20
EXIT_ERROR = 1


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise CliError(message)


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}") from None


def _load_formula(path: str, fmt: str) -> CnfFormula:
    text = _read_text(path)
    if fmt == "auto":
        stripped = text.lstrip()
        if stripped.startswith("["):
            fmt = "list"
        elif stripped.startswith("{"):
            fmt = "json"
        else:
            fmt = "dimacs"
    if fmt == "dimacs":
        return fileio.read_dimacs(text)
    if fmt == "list":
        return fileio.read_clause_list(text)
    if fmt == "json":
        return fileio.formula_from_json(text)
    raise CliError(f"unknown format {fmt!r}")


def _dump_formula(f: CnfFormula, fmt: str) -> str:
    if fmt == "dimacs":
        return fileio.write_dimacs(f)
    if fmt == "list":
        return fileio.write_clause_list(f) + "\n"
    if fmt == "json":
        return fileio.formula_to_json(f) + "\n"
    raise CliError(f"unknown format {fmt!r}")


_CLASS_NAMES = {c.value: c for c in InstanceClass}

_PLAIN_GADGETS = {
    "F2": build_F2,
    "F3": build_F3,
    "G": build_G,
    "H": build_H,
    "M": build_M,
    "core8": build_core8,
    "U": build_U,
    "U_NAE": build_U_NAE,
    "ycore": build_y_core,
    "zcore": build_z_core,
}

_PORT_GADGETS = {
    "Menf": (build_M_enforcer, 3),
    "Mbarenf": (build_Mbar_enforcer, 3),
    "N": (build_N, 1),
    "S": (build_S, 3),
    "Sbar": (build_Sbar, 3),
    "frakM": (build_frakM, 9),
    "frakMbar": (build_frakMbar, 9),
}


def _cmd_gadget(args) -> int:
    name = args.name
    if name in ("Q3", "Q1mon"):
        if args.ports:
            raise CliError(f"gadget {name} takes no ports")
        q = (build_Q3 if name == "Q3" else build_Q1mon)(FreshVarAllocator(1))
        _write_text(args.out, write_qdimacs(q))
        return EXIT_OK
    if name in _PLAIN_GADGETS:
        if args.ports:
            raise CliError(f"gadget {name} takes no ports")
        f = _PLAIN_GADGETS[name]()
        _write_text(args.out, _dump_formula(f, args.format))
        return EXIT_OK
    if name in _PORT_GADGETS:
        build, arity = _PORT_GADGETS[name]
        ports = args.ports or []
        if len(ports) != arity:
            raise CliError(f"gadget {name} needs exactly {arity} port variables")
        if any(p < 1 for p in ports):
            raise CliError("port variables are positive integers")
        alloc = FreshVarAllocator(max(ports) + 1)
        try:
            if name in ("frakM", "frakMbar"):
                sign = 1 if name == "frakM" else -1
                triple = [
                    (sign * ports[i], -sign * ports[i + 1], -sign * ports[i + 2])
                    for i in (0, 3, 6)
                ]
                inst = build(alloc, triple)
            else:
                inst = build(alloc, *ports)
        except ValueError as e:
            raise CliError(str(e)) from None
        _write_text(args.out, _dump_formula(inst.formula, args.format))
        return EXIT_OK
    raise CliError(
        f"unknown gadget {name!r}; choices: "
        + ", ".join(sorted(_PLAIN_GADGETS) + sorted(_PORT_GADGETS) + ["Q3", "Q1mon"]))


def _cmd_validate(args) -> int:
    f = _load_formula(args.input, args.format)
    report = validate_class(f, _CLASS_NAMES[args.cls])
    if not report.verdict:
        raise InvalidInstanceError(report, f"{args.cls} input")
    print("valid")
    return EXIT_OK


def _cmd_solve(args) -> int:
    f = _load_formula(args.input, args.format)
    res = solve(f, trace=args.trace is not None, conflict_budget=args.budget)
    if res.status is Status.BUDGET:
        print("budget exhausted", file=sys.stderr)
        return EXIT_ERROR
    if res.status is Status.SAT:
        model = res.model or {}
        lits = [v if model.get(v) else -v for v in range(1, f.n_vars + 1)]
        print("s SATISFIABLE")
        print("v " + " ".join(str(l) for l in lits) + " 0")
        return EXIT_OK
    print("s UNSATISFIABLE")
    if args.trace is not None and res.proof is not None:
        _write_text(args.trace, "\n".join(res.proof.lines()) + "\n")
    return EXIT_UNSAT


def _cmd_count(args) -> int:
    f = _load_formula(args.input, args.format)
    try:
        mc = count_models(f, cap=args.cap)
    except ValueError as e:
        raise CliError(str(e)) from None
    suffix = " (capped)" if mc.capped else ""
    print(f"{mc.count}{suffix}")
    return EXIT_OK


def _cmd_rup_check(args) -> int:
    f = _load_formula(args.input, args.format)
    try:
        proof = parse_rup(_read_text(args.proof))
    except RupParseError as e:
        raise CliError(str(e)) from None
    check = verify_rup(f, proof)
    if check.ok:
        print("proof verified")
        return EXIT_OK
    print(f"proof rejected: {check.message}", file=sys.stderr)
    return EXIT_INVALID


def _cmd_reduce(args) -> int:
    f = _load_formula(args.input, args.format)
    if args.source == "star22":
        out = reduce_star22_to_mono22(f)
    else:
        out = reduce_3sat22_to_mono22(f)
    _write_text(args.out, _dump_formula(out.formula, args.out_format))
    if args.provenance:
        payload = {
            "stats": {
                "vars_added": out.stats.vars_added,
                "clauses_added": out.stats.clauses_added,
                "enforcers_used": out.stats.enforcers_used,
            },
            "clauses": out.provenance_json(),
        }
        _write_text(args.provenance, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_qbf(args) -> int:
    try:
        q = read_qdimacs(_read_text(args.input))
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.action == "check":
        res = qbf_truth(q, conflict_budget=args.budget)
        if res.value is QbfValue.BUDGET:
            print("budget exhausted", file=sys.stderr)
            return EXIT_ERROR
        if res.value is QbfValue.YES:
            print("yes")
            return EXIT_OK
        cex = res.counterexample or {}
        lits = [v if cex.get(v) else -v for v in q.universals]
        print("no")
        print("counterexample: " + " ".join(str(l) for l in lits))
        return EXIT_UNSAT
    out = transform_1122(q) if args.action == "transform-1122" else transform_2222(q)
    _write_text(args.out, write_qdimacs(out))
    return EXIT_OK


def _cmd_nae(args) -> int:
    f = _load_formula(args.input, args.format)
    if args.action == "graph":
        _write_text(args.out, graph_edge_text(variable_graph(f)))
        return EXIT_OK
    if args.action == "solve":
        a = nae_solve_e2(f)
        lits = [v if a[v] else -v for v in range(1, f.n_vars + 1)]
        print("v " + " ".join(str(l) for l in lits) + " 0")
        return EXIT_OK
    # check: read an assignment (one line of signed literals) and test it
    if not args.assignment:
        raise CliError("nae check needs --assignment")
    a = {}
    for t in _read_text(args.assignment).split():
        if t == "v":  # accept the solve/nae-solve output line as-is
            continue
        try:
            l = int(t)
        except ValueError:
            raise CliError(f"invalid literal {t!r} in assignment") from None
        if l == 0:
            continue
        a[abs(l)] = l > 0
    try:
        ok = is_nae_satisfied(f, a)
    except ValueError as e:
        raise CliError(str(e)) from None
    print("nae-satisfied" if ok else "not nae-satisfied")
    return EXIT_OK if ok else EXIT_UNSAT


def _cmd_mine(args) -> int:
    try:
        cfg = MinerConfig(
            n_vars=args.vars,
            n_clauses=args.clauses,
            max_iters=args.iters,
            seed=args.seed,
            population_size=args.population,
            sideways_prob=args.sideways,
            stall_window=args.stall,
        )
        trace = mine(cfg)
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.out and trace.best_formula is not None:
        _write_text(args.out, fileio.write_dimacs(trace.best_formula))
    if args.trace:
        _write_text(args.trace, json.dumps(trace.to_json(), indent=2) + "\n")
    print(f"best model count: {trace.best_count} after {len(trace.entries)} iterations")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="monoforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gadget", help="emit a named gadget or instance")
    g.add_argument("name")
    g.add_argument("--ports", type=int, nargs="*", default=None,
                   help="port variable ids for enforcer gadgets")
    g.add_argument("--format", choices=("dimacs", "list", "json"), default="dimacs")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=_cmd_gadget)

    v = sub.add_parser("validate", help="check membership in an instance class")
    v.add_argument("--class", dest="cls", required=True, choices=sorted(_CLASS_NAMES))
    v.add_argument("--in", dest="input", default="-")
    v.add_argument("--format", choices=("auto", "dimacs", "list", "json"), default="auto")
    v.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("solve", help="decide satisfiability")
    s.add_argument("--in", dest="input", default="-")
    s.add_argument("--format", choices=("auto", "dimacs", "list", "json"), default="auto")
    s.add_argument("--budget", type=int, default=1_000_000)
    s.add_argument("--trace", default=None, help="write a clause-addition proof here on UNSAT")
    s.set_defaults(fn=_cmd_solve)

    c = sub.add_parser("count", help="count satisfying assignments")
    c.add_argument("--in", dest="input", default="-")
    c.add_argument("--format", choices=("auto", "dimacs", "list", "json"), default="auto")
    c.add_argument("--cap", type=int, default=None)
    c.set_defaults(fn=_cmd_count)

    r = sub.add_parser("rup-check", help="replay a clause-addition proof")
    r.add_argument("--in", dest="input", default="-")
    r.add_argument("--format", choices=("auto", "dimacs", "list", "json"), default="auto")
    r.add_argument("--proof", required=True)
    r.set_defaults(fn=_cmd_rup_check)

    d = sub.add_parser("reduce", help="run a hardness reduction")
    d.add_argument("--from", dest="source", required=True, choices=("star22", "3sat22"))
    d.add_argument("--in", dest="input", default="-")
    d.add_argument("--format", choices=("auto", "dimacs", "list", "json"), default="auto")
    d.add_argument("--out", default=None)
    d.add_argument("--out-format", choices=("dimacs", "list", "json"), default="dimacs")
    d.add_argument("--provenance", default=None)
    d.set_defaults(fn=_cmd_reduce)

    q = sub.add_parser("qbf", help="decide or transform a two-level formula")
    q.add_argument("action", choices=("check", "transform-1122", "transform-2222"))
    q.add_argument("--in", dest="input", default="-")
    q.add_argument("--out", default=None)
    q.add_argument("--budget", type=int, default=1_000_000)
    q.set_defaults(fn=_cmd_qbf)

    n = sub.add_parser("nae", help="not-all-equal tools")
    n.add_argument("action", choices=("solve", "graph", "check"))
    n.add_argument("--in", dest="input", default="-")
    n.add_argument("--format", choices=("auto", "dimacs", "list", "json"), default="auto")
    n.add_argument("--out", default=None)
    n.add_argument("--assignment", default=None, help="file of signed literals for 'check'")
    n.set_defaults(fn=_cmd_nae)

    m = sub.add_parser("mine", help="search for low-model-count gadgets")
    m.add_argument("--vars", type=int, required=True)
    m.add_argument("--clauses", type=int, required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--iters", type=int, default=500)
    m.add_argument("--population", type=int, default=8)
    m.add_argument("--sideways", type=float, default=0.2)
    m.add_argument("--stall", type=int, default=100)
    m.add_argument("--out", default=None)
    m.add_argument("--trace", default=None)
    m.set_defaults(fn=_cmd_mine)

    t = sub.add_parser("selftest", help="replay every golden claim")
    t.set_defaults(fn=lambda args: run_selftest(sys.stdout))

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (CliError, fileio.ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except InvalidInstanceError as e:
        for v in e.report.violations:
            print(f"{v.rule}: {v.message}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

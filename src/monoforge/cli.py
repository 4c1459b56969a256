"""Command-line entry point.

Exit codes are a machine interface: 0 for success / SAT / yes, 10 for
UNSAT / no, 20 for a validation failure (``InvalidInstanceError``), 1 for
usage or I/O errors and for any argument or input the library refuses
with a ``ValueError``.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .models import EnumerationBudgetError, count_models
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
from .rup import parse_rup, verify_rup
from .selftest import run_selftest
from .solver import Status, solve

EXIT_OK = 0
EXIT_UNSAT = 10
EXIT_INVALID = 20
EXIT_ERROR = 1


class CliError(ValueError):
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


_READERS = {
    "dimacs": fileio.read_dimacs,
    "list": fileio.read_clause_list,
    "json": fileio.formula_from_json,
}
_WRITERS = {
    "dimacs": fileio.write_dimacs,
    "list": lambda f: fileio.write_clause_list(f) + "\n",
    "json": lambda f: fileio.formula_to_json(f) + "\n",
}

# Input that declares more variables is refused before any layer sizes an
# array by n_vars; the largest instance the tools use has about 12.5k.
_MAX_VARS = 1 << 20


def _check_size(n_vars: int) -> None:
    if n_vars > _MAX_VARS:
        raise CliError(f"input declares {n_vars} variables; the limit is {_MAX_VARS}")


def _budget(text: str) -> int:
    """The argparse type of ``--budget``: a conflict budget, 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


def _load_formula(args) -> CnfFormula:
    """The formula named by ``--in``, read as ``--format`` (``auto`` picks by
    the first non-blank character: '[' list, '{' json, else dimacs)."""
    text = _read_text(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = {"[": "list", "{": "json"}.get(text.lstrip()[:1], "dimacs")
    f = _READERS[fmt](text)
    _check_size(f.n_vars)
    return f


def _signed(a, variables) -> str:
    """``variables`` as signed literals under assignment ``a``, space-separated."""
    return " ".join(str(v if a.get(v) else -v) for v in variables)


def _value_line(a, n_vars: int) -> str:
    """The ``v`` line of a total assignment over 1..n_vars, ended by 0."""
    literals = _signed(a, range(1, n_vars + 1))
    return f"v {literals} 0" if literals else "v 0"


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
    # nine ports make three mixed triples: (x, -y, -z) for frakM, negated for frakMbar
    "frakM": (lambda alloc, *p: build_frakM(alloc, [(p[i], -p[i + 1], -p[i + 2])
                                                    for i in (0, 3, 6)]), 9),
    "frakMbar": (lambda alloc, *p: build_frakMbar(alloc, [(-p[i], p[i + 1], p[i + 2])
                                                          for i in (0, 3, 6)]), 9),
}

_QBF_GADGETS = {"Q3": build_Q3, "Q1mon": build_Q1mon}


def _cmd_gadget(args) -> int:
    name, ports = args.name, args.ports or []
    if name in _PORT_GADGETS:
        build, arity = _PORT_GADGETS[name]
        if len(ports) != arity:
            raise CliError(f"gadget {name} needs exactly {arity} port variables")
        if any(p < 1 for p in ports):
            raise CliError("port variables are positive integers")
        if max(ports) > _MAX_VARS:
            raise CliError(f"port variable {max(ports)} is out of range; the limit is {_MAX_VARS}")
        f = build(FreshVarAllocator(max(ports) + 1), *ports).formula
    elif name not in _PLAIN_GADGETS and name not in _QBF_GADGETS:
        raise CliError(f"unknown gadget {name!r}; choices: " + ", ".join(
            sorted(_PLAIN_GADGETS) + sorted(_PORT_GADGETS) + list(_QBF_GADGETS)))
    elif ports:
        raise CliError(f"gadget {name} takes no ports")
    elif name in _QBF_GADGETS:
        if args.format != "dimacs":
            raise CliError(f"gadget {name} is QDIMACS only, not --format {args.format}")
        _write_text(args.out, write_qdimacs(_QBF_GADGETS[name](FreshVarAllocator(1))))
        return EXIT_OK
    else:
        f = _PLAIN_GADGETS[name]()
    _write_text(args.out, _WRITERS[args.format](f))
    return EXIT_OK


def _cmd_validate(args) -> int:
    f = _load_formula(args)
    report = validate_class(f, _CLASS_NAMES[args.cls])
    if not report.verdict:
        raise InvalidInstanceError(report, f"{args.cls} input")
    print("valid")
    return EXIT_OK


def _cmd_solve(args) -> int:
    f = _load_formula(args)
    res = solve(f, trace=args.trace is not None, conflict_budget=args.budget)
    if res.status is Status.BUDGET:
        print("budget exhausted", file=sys.stderr)
        return EXIT_ERROR
    if res.status is Status.SAT:
        print("s SATISFIABLE")
        print(_value_line(res.model or {}, f.n_vars))
        return EXIT_OK
    print("s UNSATISFIABLE")
    if args.trace is not None and res.proof is not None:
        _write_text(args.trace, "\n".join(res.proof.lines()) + "\n")
    return EXIT_UNSAT


def _cmd_count(args) -> int:
    f = _load_formula(args)
    try:
        mc = count_models(f, cap=args.cap)
    except EnumerationBudgetError:
        print("budget exhausted", file=sys.stderr)
        return EXIT_ERROR
    suffix = " (capped)" if mc.capped else ""
    print(f"{mc.count}{suffix}")
    return EXIT_OK


def _cmd_rup_check(args) -> int:
    f = _load_formula(args)
    check = verify_rup(f, parse_rup(_read_text(args.proof)))
    if check.ok:
        print("proof verified")
        return EXIT_OK
    print(f"proof rejected: {check.message}", file=sys.stderr)
    return EXIT_INVALID


def _cmd_reduce(args) -> int:
    f = _load_formula(args)
    if args.source == "star22":
        out = reduce_star22_to_mono22(f)
    else:
        out = reduce_3sat22_to_mono22(f)
    _write_text(args.out, _WRITERS[args.out_format](out.formula))
    if args.provenance:
        payload = {"stats": dataclasses.asdict(out.stats), "clauses": out.provenance_json()}
        _write_text(args.provenance, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_qbf(args) -> int:
    q = read_qdimacs(_read_text(args.input))
    _check_size(q.matrix.n_vars)
    if args.action == "check":
        res = qbf_truth(q, conflict_budget=args.budget)
        if res.value is QbfValue.BUDGET:
            print("budget exhausted", file=sys.stderr)
            return EXIT_ERROR
        if res.value is QbfValue.YES:
            print("yes")
            return EXIT_OK
        print("no")
        print("counterexample: " + _signed(res.counterexample or {}, q.universals))
        return EXIT_UNSAT
    out = transform_1122(q) if args.action == "transform-1122" else transform_2222(q)
    _write_text(args.out, write_qdimacs(out))
    return EXIT_OK


def _cmd_nae(args) -> int:
    f = _load_formula(args)
    if args.action == "graph":
        _write_text(args.out, graph_edge_text(variable_graph(f)))
        return EXIT_OK
    if args.action == "solve":
        print(_value_line(nae_solve_e2(f), f.n_vars))
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
    ok = is_nae_satisfied(f, a)
    print("nae-satisfied" if ok else "not nae-satisfied")
    return EXIT_OK if ok else EXIT_UNSAT


def _cmd_mine(args) -> int:
    trace = mine(MinerConfig(
        n_vars=args.vars,
        n_clauses=args.clauses,
        max_iters=args.iters,
        seed=args.seed,
        population_size=args.population,
        sideways_prob=args.sideways,
        stall_window=args.stall,
    ))
    if args.out and trace.best_formula is not None:
        _write_text(args.out, fileio.write_dimacs(trace.best_formula))
    if args.trace:
        _write_text(args.trace, json.dumps(trace.to_json(), indent=2) + "\n")
    print(f"best model count: {trace.best_count} after {trace.entries[-1].iteration} iterations")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="monoforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    formula_in = argparse.ArgumentParser(add_help=False)
    formula_in.add_argument("--in", dest="input", default="-")
    formula_in.add_argument("--format", choices=("auto", *_READERS), default="auto")

    g = sub.add_parser("gadget", help="emit a named gadget or instance")
    g.add_argument("name")
    g.add_argument("--ports", type=int, nargs="*", default=None,
                   help="port variable ids for enforcer gadgets")
    g.add_argument("--format", choices=tuple(_WRITERS), default="dimacs")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=_cmd_gadget)

    v = sub.add_parser("validate", parents=[formula_in],
                       help="check membership in an instance class")
    v.add_argument("--class", dest="cls", required=True, choices=sorted(_CLASS_NAMES))
    v.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("solve", parents=[formula_in], help="decide satisfiability")
    s.add_argument("--budget", type=_budget, default=1_000_000)
    s.add_argument("--trace", default=None, help="write a clause-addition proof here on UNSAT")
    s.set_defaults(fn=_cmd_solve)

    c = sub.add_parser("count", parents=[formula_in], help="count satisfying assignments")
    c.add_argument("--cap", type=int, default=None)
    c.set_defaults(fn=_cmd_count)

    r = sub.add_parser("rup-check", parents=[formula_in], help="replay a clause-addition proof")
    r.add_argument("--proof", required=True)
    r.set_defaults(fn=_cmd_rup_check)

    d = sub.add_parser("reduce", parents=[formula_in], help="run a hardness reduction")
    d.add_argument("--from", dest="source", required=True, choices=("star22", "3sat22"))
    d.add_argument("--out", default=None)
    d.add_argument("--out-format", choices=tuple(_WRITERS), default="dimacs")
    d.add_argument("--provenance", default=None)
    d.set_defaults(fn=_cmd_reduce)

    q = sub.add_parser("qbf", help="decide or transform a two-level formula")
    q.add_argument("action", choices=("check", "transform-1122", "transform-2222"))
    q.add_argument("--in", dest="input", default="-")
    q.add_argument("--out", default=None)
    q.add_argument("--budget", type=_budget, default=1_000_000)
    q.set_defaults(fn=_cmd_qbf)

    n = sub.add_parser("nae", parents=[formula_in], help="not-all-equal tools")
    n.add_argument("action", choices=("solve", "graph", "check"))
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
    except InvalidInstanceError as e:
        for v in e.report.violations:
            print(f"{v.rule}: {v.message}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as e:  # CliError, parse errors and every refusal of the library
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

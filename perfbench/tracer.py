"""Spans around the calls into each monoforge layer, recorded from outside.

``install`` replaces every public function of the layer modules (and the two
``Solver`` methods) with a wrapper that records a span: name, layer, parent
span, job, pass, start, end and one optional count read from the arguments
or the result.  The wrapper is also bound wherever another monoforge module
imported the function by name, so calls between layers are seen.  No file
under ``src/`` changes.  Spans stay in memory until the run ends.

Per-literal and per-clause helpers are left unwrapped: they run millions of
times per job and a wrapper would dominate the time it is meant to measure.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = (
    "formula", "fileio", "kernels", "solver", "models", "rup", "gadgets",
    "generate", "reductions", "qbf", "nae", "miner", "cli", "selftest",
)

_UNWRAPPED = {
    "formula": {"canonical_clause", "clause_vars", "clause_is_monotone",
                "clause_has_distinct_vars", "lit_value", "clause_satisfied", "is_total"},
    "models": {"assignment_from_index"},
    "cli": {"build_parser"},
}

_METHODS = {"solver": ("Solver.__init__", "Solver.solve")}

TRANSFORMS = {"qbf.triple_copy", "qbf.monotonize", "qbf.pad_to_balance",
              "qbf.transform_1122", "qbf.transform_2222"}


def _kernel_table(args, kwargs, out):
    return 1 << int(args[2])


def _mine_counts(args, kwargs, out):
    first = {}
    for e in out.entries:
        if e.iteration > 0:
            first.setdefault(e.iteration, e.accepted)
    return [len(first), sum(first.values())]


# count recorded with a span: f(args, kwargs, result) -> number or list
_COUNTS = {
    "solver.Solver.solve": lambda a, k, out: out.conflicts,
    "rup.verify_rup": lambda a, k, out: len(a[1].steps),
    "kernels.count_sat": _kernel_table,
    "kernels.collect_sat": _kernel_table,
    "kernels.first_nae": _kernel_table,
    "reductions.reduce_star22_to_mono22": lambda a, k, out: out.formula.m,
    "reductions.reduce_3sat22_to_mono22": lambda a, k, out: out.formula.m,
    "miner.mine": _mine_counts,
    "fileio.read_dimacs": lambda a, k, out: len(a[0]),
    "fileio.read_clause_list": lambda a, k, out: len(a[0]),
    "fileio.formula_from_json": lambda a, k, out: len(a[0]),
    "fileio.write_dimacs": lambda a, k, out: len(out),
    "fileio.write_clause_list": lambda a, k, out: len(out),
    "fileio.formula_to_json": lambda a, k, out: len(out),
}

# span record fields
NAME, LAYER, PARENT, JOB, PASS, START, END, CHILD, COUNT = range(9)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self.pass_no = 0

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, parent, self.job, self.pass_no, 0, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list, start: int, end: int) -> None:
        self._stack.pop()
        rec[START], rec[END] = start, end
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += end - start

    def _wrap(self, name: str, layer: str, fn):
        count = _COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name, layer)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec, start, clock())
            if count is not None:
                rec[COUNT] = count(args, kwargs, out)
            return out

        return traced

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span the benchmark itself opens (one per job)."""
        if not self.active:
            yield
            return
        rec = self._open(name, layer)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(rec, start, time.perf_counter_ns())

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"monoforge.{layer}")
            skip = _UNWRAPPED.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    replaced[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
            for qual in _METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{qual}", layer, getattr(cls, meth)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "monoforge" or mod_name.startswith("monoforge.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = replaced.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def adopt(self, records: list[list], parent: int) -> None:
        """Append spans recorded in another process under one of ours."""
        base = len(self.spans)
        for rec in records:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + base
            rec[JOB], rec[PASS] = self.job, self.pass_no
            self.spans.append(rec)
            if rec[PARENT] == parent and parent >= 0:
                self.spans[parent][CHILD] += rec[END] - rec[START]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- per-layer metrics -------------------------------------------------------------

def layer_metrics(spans: list[list], pass_no: int) -> dict[str, float]:
    """Aggregate one pass's spans into the per-layer metrics."""
    idx = [i for i, r in enumerate(spans) if r[PASS] == pass_no]
    ancestors: dict[int, tuple[frozenset, frozenset]] = {}
    empty = (frozenset(), frozenset())

    def anc(i: int) -> tuple[frozenset, frozenset]:
        """(names, layers) on the path above span i."""
        p = spans[i][PARENT]
        if p < 0:
            return empty
        got = ancestors.get(p)
        if got is None:
            names, layers = anc(p)
            got = ancestors[p] = (names | {spans[p][NAME]}, layers | {spans[p][LAYER]})
        return got

    def dur(i):
        return (spans[i][END] - spans[i][START]) / 1e9

    def self_time(i):
        return (spans[i][END] - spans[i][START] - spans[i][CHILD]) / 1e9

    by_layer: dict[str, list[int]] = {}
    outer: dict[str, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    above = {i: anc(i) for i in idx}
    for i in idx:
        r = spans[i]
        by_layer.setdefault(r[LAYER], []).append(i)
        by_name.setdefault(r[NAME], []).append(i)
        if r[LAYER] not in above[i][1]:
            outer.setdefault(r[LAYER], []).append(i)

    def names_of(i):
        return above[i][0]

    def layers_of(i):
        return above[i][1]

    def total(ids):
        return sum(dur(i) for i in ids)

    def counted(ids):
        return sum(spans[i][COUNT] or 0 for i in ids)

    truth = by_name.get("qbf.qbf_truth", [])
    solves = by_name.get("solver.Solver.solve", [])
    verify = by_name.get("rup.verify_rup", [])
    tables = [i for n in ("kernels.count_sat", "kernels.collect_sat", "kernels.first_nae")
              for i in by_name.get(n, []) if "kernels" not in layers_of(i)]
    mines = by_name.get("miner.mine", [])
    transforms = [i for n in TRANSFORMS for i in by_name.get(n, [])
                  if not (names_of(i) & TRANSFORMS)]
    steps = counted(verify)
    assignments = counted(tables)
    iters = sum(spans[i][COUNT][0] for i in mines)
    accepted = sum(spans[i][COUNT][1] for i in mines)
    solve_us = [dur(i) * 1e6 for i in solves]

    return {
        "qbf.truth_calls": len(truth),
        "qbf.truth_s": total(truth),
        "qbf.truth_self_s": sum(self_time(i) for i in truth),
        "qbf.solver_calls_per_truth": (
            sum(1 for i in solves if "qbf.qbf_truth" in names_of(i)) / len(truth)
            if truth else 0.0),
        "qbf.transform_s": total(transforms),
        "qbf.validate_s": total(by_name.get("qbf.validate_balanced", [])),
        "formula.cnf_calls": len(by_name.get("formula.cnf", [])),
        "formula.cnf_s": total(by_name.get("formula.cnf", [])),
        "formula.satisfies_calls": len(by_name.get("formula.satisfies", [])),
        "formula.satisfies_s": total(by_name.get("formula.satisfies", [])),
        "solver.calls": len(solves),
        "solver.self_s": sum(self_time(i) for i in by_layer.get("solver", [])),
        "solver.conflicts": counted(solves),
        "solver.call_p50_us": statistics.median(solve_us) if solve_us else 0.0,
        "gadgets.calls": len(outer.get("gadgets", [])),
        "gadgets.s": total(outer.get("gadgets", [])),
        "reductions.calls": len(outer.get("reductions", [])),
        "reductions.self_s": sum(self_time(i) for i in by_layer.get("reductions", [])),
        "reductions.clauses_out": counted(outer.get("reductions", [])),
        "rup.calls": len(outer.get("rup", [])),
        "rup.steps": steps,
        "rup.steps_per_s": steps / total(verify) if verify else 0.0,
        "kernels.calls": len(outer.get("kernels", [])),
        "kernels.s": total(outer.get("kernels", [])),
        "kernels.assignments": assignments,
        "kernels.assignments_per_s": assignments / total(tables) if tables else 0.0,
        "models.calls": len(outer.get("models", [])),
        "models.self_s": sum(self_time(i) for i in by_layer.get("models", [])),
        "models.blocking_solves": sum(1 for i in solves if "models" in layers_of(i)),
        "miner.iters": iters,
        "miner.s": total(outer.get("miner", [])),
        "miner.accept_ratio": accepted / iters if iters else 0.0,
        "nae.calls": len(outer.get("nae", [])),
        "nae.s": total(outer.get("nae", [])),
        "fileio.s": total(outer.get("fileio", [])),
        "fileio.bytes": counted(outer.get("fileio", [])),
        "cli.calls": len(outer.get("cli", [])),
        "cli.s": total(outer.get("cli", [])),
        "trace.spans": len(idx),
    }


# counts that must repeat exactly between passes and between traced runs
COUNTS = (
    "qbf.truth_calls", "qbf.solver_calls_per_truth", "formula.cnf_calls",
    "formula.satisfies_calls", "solver.calls", "solver.conflicts", "gadgets.calls",
    "reductions.calls", "reductions.clauses_out", "rup.calls", "rup.steps",
    "kernels.calls", "kernels.assignments", "models.calls", "models.blocking_solves",
    "miner.iters", "miner.accept_ratio", "nae.calls", "fileio.bytes", "cli.calls",
    "trace.spans",
)


def generate_seconds(spans: list[list]) -> float:
    """Time in the generate layer during set-up (pass 0)."""
    total = 0.0
    for r in spans:
        if r[PASS] == 0 and r[LAYER] == "generate":
            p = r[PARENT]
            if p < 0 or spans[p][LAYER] != "generate":
                total += (r[END] - r[START]) / 1e9
    return total

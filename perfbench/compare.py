"""Compare two results of the benchmark, metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Both files come from ``.perfbench_work/results/``.  The comparison is
refused (exit 3) unless both ran the same workload with the same trace
setting on inputs with the same fingerprint: a change to the generators
changes the inputs, and then no metric is comparable.  For two traced
results every count that must repeat is compared exactly; any that differ
are listed and the exit code is 4.
"""

from __future__ import annotations

import json
import sys

from tracer import COUNTS


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(p)) for p in argv)
    for key in ("workload", "trace", "fingerprint"):
        if a[key] != b[key]:
            print(f"refused: {key} differs ({a[key]} vs {b[key]})", file=sys.stderr)
            return 3
    print(f"{a['workload']} seed {a['seed']} trace {a['trace']} fingerprint {a['fingerprint']}")
    for key in sorted(set(a["meta"]) | set(b["meta"])):
        if a["meta"].get(key) != b["meta"].get(key):
            print(f"  meta {key}: {a['meta'].get(key)} -> {b['meta'].get(key)}")
    print(f"{'metric':32s} {'before':>14s} {'after':>14s} {'change':>9s}  unit")
    for name, (va, unit) in a["metrics"].items():
        vb = b["metrics"].get(name, [None])[0]
        if vb is None:
            continue
        change = f"{(vb - va) / va:+9.1%}" if va else f"{'':9s}"
        print(f"{name:32s} {va:14.6g} {vb:14.6g} {change}  {unit}")
    for side, r in (("before", a), ("after", b)):
        if not r["correct"]:
            print(f"{side}: {r['failed']} of {r['attempted']} jobs failed")
    if not a["trace"]:
        return 0
    differ = [n for n in COUNTS if a["metrics"][n][0] != b["metrics"][n][0]]
    for name in differ:
        print(f"count {name} does not repeat: {a['metrics'][name][0]} vs {b['metrics'][name][0]}")
    return 4 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

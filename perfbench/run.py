"""The monoforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout: monoforge is imported from its ``src/``.
One workload runs per call, in its own single-threaded process; ``all``
runs every workload untraced and traced and prints one table.  The last
line of output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the exit code is 0 only when every output passed its check.
Each result is also written to ``.perfbench_work/results/``; compare two
of them with ``perfbench/compare.py``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_PROBE_S, pin_to_quietest, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5  # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # every run ends within 180 s
CPUS = sorted(os.sched_getaffinity(0))


def _spec() -> tuple[tuple[str, ...], dict, dict]:
    """Workload names and the units of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    return tuple(w["name"] for w in spec["workloads"]), units[0], units[1]


WORKLOADS, END_TO_END, PER_LAYER = _spec()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Pick the inputs, spawn the set-up samples and the measured run; return
    the merged result, every metric with its unit from ``BENCHMARK.json``."""
    began = time.monotonic()
    workdir = WORK / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    result_path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)

    def spawn(phase: str, timeout: float) -> tuple[subprocess.CompletedProcess, float]:
        """Run one worker phase; return it and the probe time on its CPU
        just before the spawn.  A set-up starts on the least loaded CPU, and
        the worker moves on its own."""
        probe_before = pin_to_quietest(CPUS)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--phase", phase, "--workdir", str(workdir), "--result", str(result_path),
               "--cpus", ",".join(map(str, CPUS))]
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} {phase} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return proc, probe_before

    def setup_samples(count: int) -> list[tuple[float, float]]:
        """(raw, scaled) set-up times of ``count`` set-up-only workers."""
        out = []
        for _ in range(count):
            proc, probe_before = spawn("setup", 30)
            setup = json.loads(proc.stdout.strip().splitlines()[-1])
            probe = (probe_before + setup["probe_s"]) / 2
            out.append((setup["setup_s"], scaled(setup["setup_s"], probe)))
        return out

    spawn("pick", 120)
    # the extra set-ups are split around the measured run, so that one slow
    # phase of the host is less likely to cover all of them
    before = 0 if trace else (SETUP_SAMPLES - 1) // 2
    setups = setup_samples(before)
    _, probe_before = spawn("run", RUN_LIMIT_S - (time.monotonic() - began))
    result = json.loads(result_path.read_text())
    probe = (probe_before + result["extra"]["setup_probe_s"]) / 2
    setups.append((result["setup_s"], scaled(result["setup_s"], probe)))
    if not trace:
        setups += setup_samples(SETUP_SAMPLES - 1 - before)
    result["setup_samples_s"] = setups
    result["extra"]["raw_setup_s"] = statistics.median(raw for raw, _ in setups)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(s for _, s in setups)
    units = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"{workload} reported {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
    result["metrics"] = {name: [metrics[name], unit] for name, unit in units.items()}
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def _print_result(result: dict) -> None:
    extra = result["extra"]
    print(f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{extra['jobs']} jobs x {extra['passes']} passes, fingerprint {result['fingerprint']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if not result["trace"]:
        print(f"{'failed_frac':32s} {extra['failed_frac']:14.6g} ratio")
        print(f"{'raw_setup_s':32s} {extra['raw_setup_s']:14.6g} s (unscaled)")
        print(f"{'raw_wall_s':32s} {extra['raw_wall_s']:14.6g} s (unscaled)")
        print(f"{'probe_p50_ms':32s} {extra['probe_p50_s'] * 1e3:14.6g} ms "
              f"(reference {REF_PROBE_S * 1e3:g} ms)")
        if "job_p90_ms" in extra:
            print(f"{'job_p90_ms':32s} {extra['job_p90_ms']:14.6g} ms")
    for name in result.get("unrepeatable", []):
        print(f"warning: count {name} differs between passes; do not rely on it")
    for line in result["failures"]:
        print(f"FAILED {line}")


def run_all(seed: int, seconds: int) -> int:
    rows = []
    ok = True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0)
        traced = run_workload(workload, seed, seconds, 1)
        _print_result(plain)
        _print_result(traced)
        ok = ok and plain["correct"] and traced["correct"]
        m = {k: v for k, (v, _) in plain["metrics"].items()}
        m["failed_frac"] = plain["extra"]["failed_frac"]
        m["job_p90_ms"] = plain["extra"].get("job_p90_ms")
        m["trace_overhead"] = traced["metrics"]["trace.wall_s"][0] / m["wall_s"]
        rows.append((workload, plain["extra"]["jobs"], m))
    cols = ("setup_s", "wall_s", "job_p50_ms", "job_p90_ms", "cli_p50_ms", "peak_rss_mb",
            "failed_frac", "trace_overhead")
    units = ("s", "s", "ms", "ms", "ms", "MB", "ratio", "x")
    print()
    print(f"{'workload':12s} {'jobs':>5s} " + " ".join(f"{c:>14s}" for c in cols))
    print(f"{'':12s} {'':5s} " + " ".join(f"{u:>14s}" for u in units))
    for workload, jobs, m in rows:
        cells = ["-" if m[c] is None else f"{m[c]:.4g}" for c in cols]
        print(f"{workload:12s} {jobs:5d} " + " ".join(f"{c:>14s}" for c in cells))
    print(json.dumps({"correct": ok, "workloads": {w: m for w, _, m in rows}}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "monoforge" / "__init__.py").is_file():
        print(f"error: no monoforge sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _print_result(result)
    print(_summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

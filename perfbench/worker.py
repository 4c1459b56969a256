"""One workload in one process: set up, run the timed section, check.

Started by ``run.py``, never by hand.  ``--phase pick`` chooses the
generator seeds of the workload's sources and writes them to the work
directory, untimed.  ``--phase setup`` generates those sources, stops after
set-up and prints the CPU time it took; ``--phase run`` continues with the timed section and the checks and writes
one JSON result.

Timed section: the job list runs in passes, each in its own shuffled
order, until another pass would end after ``--seconds``.  Every execution
is timed on its own, in CPU time (see ``cpu_clock``), with a probe (a
fixed piece of pure Python) timed right before and right after it; a job
shorter than ``MIN_EXECUTION_S``, and every CLI job, repeats within its
execution (see ``_execute``).  An execution's time is scaled to the reference host speed:
multiplied by ``REF_PROBE_S`` over the mean of its two probes (see
``scaled``).  A job's time is the median of its scaled executions;
``wall_s`` sums those times over the job list, which is the time to run
the whole list once at the reference speed.  At most every
``PIN_EVERY_S``, between two jobs, the process moves to the CPU on which
the probe runs fastest (see ``pin_to_quietest``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_TIMEOUT_S = 60
# An untraced execution repeats its job until this much CPU time has passed:
# in-process jobs of under 10 ms, and every CLI job once more.
MIN_EXECUTION_S = 0.01
MIN_CLI_EXECUTION_S = 0.4
PIN_EVERY_S = 0.3  # re-choose the CPU before a job when this long has passed
# The probe's time on a quiet host: times are reported as if the probe had
# taken this long.  Never change it; every earlier result depends on it.
REF_PROBE_S = 1.25e-3


def cpu_clock() -> float:
    """CPU seconds of this thread and of every child process it has waited for.

    On a shared host the hypervisor takes the CPU away for other guests
    (steal time), which stretched some runs' wall-clock times by 2x; CPU
    time leaves that out.  A job's CPU time still grows when the host is
    busy, which the probe corrects (see ``scaled``).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


# The probe's graph: 75 three-variable clauses over 150 variables.
_PROBE_RNG = random.Random(7)
_PROBE_CLAUSES = [tuple(sorted(_PROBE_RNG.sample(range(1, 151), 3))) for _ in range(75)]


def _probe_work() -> int:
    """Integer arithmetic, then a greedy coloring of the probe's graph built
    from dicts and sets: the first alone slowed less than monoforge when the
    host got busy, the second more; the two together track it closely."""
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    adj: dict[int, set] = {}
    for c in _PROBE_CLAUSES:
        for v in c:
            adj.setdefault(v, set()).update(w for w in c if w != v)
    colors: dict[int, int] = {}
    for v in sorted(adj, key=lambda v: -len(adj[v])):
        used = {colors[w] for w in adj[v] if w in colors}
        colors[v] = next(k for k in range(len(used) + 1) if k not in used)
    return acc + len(colors)


def _probe() -> float:
    """CPU time of one run of ``_probe_work`` (1-2 ms)."""
    start = time.thread_time()
    _probe_work()
    return time.thread_time() - start


def scaled(seconds: float, probe: float) -> float:
    """A time scaled to the reference speed by the mean ``probe`` time of
    the probes right before and right after it.

    A shared host's speed drifts by up to 1.6x, within a minute and also
    from one tenth of a second to the next, as other tenants load it; the
    probe slows down with the program, so the ratio of the two is steady
    where either alone is not.
    """
    return seconds * REF_PROBE_S / probe


def pin_to_quietest(cpus: list[int]) -> float:
    """Time the probe on every CPU, move this process to the CPU on which it
    ran fastest, and return that probe time.

    The CPUs of a shared host also slow down one at a time, for a few
    seconds; a job started on the quieter CPU is less often slowed.  The
    process stays single-threaded.
    """
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = _probe()
    cpu = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {cpu})
    return speeds[cpu]


def _execute(job, min_seconds: float) -> tuple:
    """Run a job once, or back to back until ``min_seconds`` of calls have
    passed, between two probes; return (output, error, median CPU seconds
    per call, mean of the two probe times).

    The host's speed changes from one tenth of a second to the next, so
    each execution is scaled by the probes right next to it; a job of under
    a millisecond is timed over several calls.
    """
    calls: list[float] = []
    before = _probe()
    out = err = None
    while err is None and (not calls or sum(calls) < min_seconds):
        start = cpu_clock()
        try:
            result = job.run()
        except Exception as e:  # a raising job is a failed job, not an abort
            err = f"{type(e).__name__}: {e}"
        calls.append(cpu_clock() - start)
        if err is None and len(calls) > 1 and result != out:
            err = "a repeated call gave another output"
        elif len(calls) == 1:
            out = None if err else result
    return out, err, statistics.median(calls), (before + _probe()) / 2


def _cli_runner(env: dict, workdir: Path, tracer):
    """Run one monoforge command in a fresh process: (exit code, stdout)."""
    spans_path = workdir / "cli-spans.json"

    def run(argv: list[str]) -> tuple[int, str]:
        if tracer is None:
            cmd = [sys.executable, "-m", "monoforge.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans_path), *argv]
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if tracer is not None and spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()), tracer.current())
            spans_path.unlink()
        return proc.returncode, proc.stdout

    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--phase", choices=("pick", "setup", "run"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--cpus", required=True, help="comma-separated CPUs the process may move between")
    ap.add_argument("--result", type=Path)
    args = ap.parse_args()

    import monoforge

    picks_path = args.workdir / "picks.json"
    if args.phase == "pick":
        import workloads

        args.workdir.mkdir(parents=True, exist_ok=True)
        picks_path.write_text(json.dumps(workloads.pick(args.workload, args.seed)))
        return 0

    if not Path(monoforge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"monoforge imported from {monoforge.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.workdir, _cli_runner(dict(os.environ), args.workdir, tracer))
    jobs = workloads.build(args.workload, args.seed, json.loads(picks_path.read_text()), ctx)
    workloads.warm_up(args.workload)
    setup_s = time.process_time()  # interpreter start included
    setup_probe_s = _probe()  # still on the CPU the parent probed before the spawn
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0

    fingerprint = hashlib.sha256("\n".join(j.spec for j in jobs).encode()).hexdigest()[:16]
    # per job: (CPU seconds, probe seconds) of each execution
    times: dict[str, list[tuple[float, float]]] = {j.name: [] for j in jobs}
    first: dict[str, tuple] = {}
    failed_later: dict[str, int] = {j.name: 0 for j in jobs}
    passes = 0
    clock = time.perf_counter
    cpus = [int(c) for c in args.cpus.split(",")]
    pinned = -PIN_EVERY_S
    section_start = clock()
    while True:
        passes += 1
        # each pass in its own fixed order, so that a job's executions, and
        # the jobs next to it in one pass, fall at different moments of the run
        order = list(jobs)
        random.Random(passes).shuffle(order)
        for job in order:
            if clock() - pinned >= PIN_EVERY_S:
                pin_to_quietest(cpus)
                pinned = clock()
            if tracer is not None:
                tracer.job, tracer.pass_no = job.name, passes
            with tracer.span("bench.job", "bench") if tracer else contextlib.nullcontext():
                min_seconds = MIN_CLI_EXECUTION_S if job.cli else MIN_EXECUTION_S
                out, err, cpu_s, probe_s = _execute(job, 0 if tracer else min_seconds)
            times[job.name].append((cpu_s, probe_s))
            if passes == 1:
                first[job.name] = (out, err)
            elif err is not None or out != first[job.name][0]:
                failed_later[job.name] += 1
        elapsed = clock() - section_start
        if elapsed * (passes + 1) / passes > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False

    # checks, outside the timed section
    failures: list[str] = []
    try:
        workloads.oracle_self_check()
        oracle_ok = True
    except AssertionError as e:
        oracle_ok = False
        failures.append(f"oracle: {e}")
    attempted = passes * len(jobs)
    failed = 0
    for job in jobs:
        out, err = first[job.name]
        if err is None:
            try:
                job.check(out)
            except Exception as e:  # a check that cannot run fails its job
                err = f"{type(e).__name__}: {e}"
        if err is not None:
            failed += passes
            failures.append(f"{job.name}: {err}")
        elif failed_later[job.name]:
            failed += failed_later[job.name]
            failures.append(f"{job.name}: a later pass raised or gave another output")

    per_job_s = {name: statistics.median(scaled(t, p) for t, p in ts) for name, ts in times.items()}
    raw_job_s = {name: statistics.median(t for t, _ in ts) for name, ts in times.items()}
    wall_s = sum(per_job_s.values())
    # CLI jobs have their own metric; job_p50_ms and job_p90_ms are in-process jobs
    per_job = [per_job_s[j.name] for j in jobs if not j.cli]
    cli = [per_job_s[j.name] for j in jobs if j.cli]
    extra = {
        "jobs": len(jobs),
        "passes": passes,
        "section_s": elapsed,
        "failed_frac": failed / attempted,
        "job_times_s": per_job_s,
        "raw_job_times_s": raw_job_s,
        "raw_wall_s": sum(raw_job_s.values()),
        "probe_p50_s": statistics.median(p for ts in times.values() for _, p in ts),
        "setup_probe_s": setup_probe_s,
    }
    if len(per_job) >= 100:
        extra["job_p90_ms"] = statistics.quantiles(per_job, n=10)[8] * 1e3
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "correct": oracle_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup_s": setup_s,
        "extra": extra,
        "meta": _metadata(),
    }
    if tracer is None:
        result["metrics"] = {
            "wall_s": wall_s,
            "job_p50_ms": statistics.median(per_job) * 1e3,
            "cli_p50_ms": statistics.median(cli) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        result["metrics"], result["unrepeatable"] = _layer_metrics(tracer, passes, wall_s)
        tracer.dump(args.result.with_suffix(".spans.jsonl"))
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


def _layer_metrics(tracer, passes: int, wall_s: float):
    """Per-layer metrics: times are medians over passes, counts must repeat."""
    import tracer as tr

    per_pass = [tr.layer_metrics(tracer.spans, p) for p in range(1, passes + 1)]
    out = {}
    unrepeatable = []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in tr.COUNTS and any(v != values[0] for v in values):
            unrepeatable.append(name)
        value = values[0] if name in tr.COUNTS and name not in unrepeatable else statistics.median(values)
        out[name] = value
    out["generate.s"] = tr.generate_seconds(tracer.spans)
    out["trace.wall_s"] = wall_s
    return out, unrepeatable


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _metadata() -> dict:
    import importlib.util

    import numpy

    from monoforge import kernels

    return {
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "MONOFORGE_BACKEND": os.environ.get("MONOFORGE_BACKEND"),
    }


if __name__ == "__main__":
    sys.exit(main())

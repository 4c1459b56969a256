"""The four workloads: seeded inputs, the jobs that run on them, and the
independent check of every job's output.

A job is one unit that reaches a verdict.  ``run`` is the timed call into
monoforge; ``check`` runs after the timed section and compares the output
with an answer monoforge did not produce (``oracle``), or with golden text
from ``refdata``.  Monoforge is reached through module attributes
(``mqbf.qbf_truth``) so that the tracer's wrappers are used when installed.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import monoforge.gadgets as mgad
import monoforge.generate as mgen
import monoforge.kernels as mker
import monoforge.miner as mmin
import monoforge.models as mmod
import monoforge.nae as mnae
import monoforge.qbf as mqbf
import monoforge.reductions as mred
import monoforge.rup as mrup
import monoforge.solver as msol
from monoforge import formula as mfor
from monoforge import refdata

import oracle

class CheckFailure(AssertionError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    spec: str  # canonical text of the input, for the fingerprint
    cli: bool = False


@dataclass
class Context:
    """What jobs need from the worker: a scratch directory and a CLI runner."""

    workdir: Path
    cli: Callable[[list[str]], tuple[int, str]]


def dimacs_text(n_vars: int, clauses) -> str:
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def qdimacs_text(q) -> str:
    lines = [f"p cnf {q.matrix.n_vars} {q.matrix.m}",
             "a " + " ".join(map(str, q.universals)) + " 0",
             "e " + " ".join(map(str, q.existentials)) + " 0"]
    lines += [" ".join(map(str, c)) + " 0" for c in q.matrix.clauses]
    return "\n".join(lines) + "\n"


def _spec(kind: str, *parts) -> str:
    return kind + ":" + repr(parts)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -- qbf-confirm and qbf-refute ---------------------------------------------------

# Sources per (mixed-clause count, first counterexample all-false): the count
# sets the size of the monotonized matrix and an all-false counterexample ends
# the search at once, so fixed quotas keep one seed's job list as costly as
# another's.  The lists are short so that every job runs several times.
QBF_CONFIRM_QUOTA = {(5, False): 2}  # the most common count at (1,1), p = 3
QBF_REFUTE_QUOTA = {  # near the natural shares at (2,2), p = 3
    (4, False): 1, (5, False): 1, (6, False): 2, (6, True): 1, (7, False): 2, (8, False): 1,
}
QBF_CLI_CHECKS = 2


def _mixed(f) -> int:
    """Clauses with both signs, in a CNF formula or a QBF matrix."""
    clauses = f.matrix.clauses if hasattr(f, "matrix") else f.clauses
    return sum(1 for c in clauses if 0 < sum(l > 0 for l in c) < len(c))


def _first_counterexample(q):
    return oracle.qbf_first_counterexample(q.universals, q.existentials, q.matrix.clauses)


def _shape(q, alpha) -> tuple[int, bool]:
    return _mixed(q), alpha is not None and not any(alpha.values())


def _qbf_source(s: int, gen_seed: int):
    return mgen.random_balanced_qbf(3, s, s, gen_seed)


def _qbf_pick(workload: str, seed: int) -> dict:
    """Generator seeds of balanced p = 3 sources with the wanted brute-force
    verdict, filling the quota; ``transform`` is one source of the most
    common shape."""
    confirm = workload == "qbf-confirm"
    s, quota = (1, QBF_CONFIRM_QUOTA) if confirm else (2, QBF_REFUTE_QUOTA)
    rng = _rng(workload, seed)
    left = dict(quota)
    common = max(quota, key=quota.get)
    picked: list[int] = []
    transform = None
    while any(left.values()):
        gen_seed = rng.randrange(1 << 30)
        try:
            q = _qbf_source(s, gen_seed)
        except mgen.GenerationError:
            continue
        if not any(left.get((_mixed(q), zero)) for zero in (False, True)):
            continue
        alpha = _first_counterexample(q)
        shape = _shape(q, alpha)
        if (alpha is None) == confirm and left.get(shape):
            left[shape] -= 1
            if transform is None and shape == common:
                transform = len(picked)
            picked.append(gen_seed)
    return {"sources": picked, "transform": transform}


def _qbf_job(i: int, q, s: int) -> Job:
    transform = mqbf.transform_1122 if s == 1 else mqbf.transform_2222

    def run():
        padded = transform(q)
        t3 = mqbf.triple_copy(q)
        mono = mqbf.monotonize(t3)
        return t3, mono, padded, tuple(mqbf.qbf_truth(x) for x in (q, t3, mono, padded))

    def check(out):
        t3, mono, padded, results = out
        alpha_src = _first_counterexample(q)
        want = mqbf.QbfValue.YES if alpha_src is None else mqbf.QbfValue.NO
        for stage, res in zip(("source", "tripled", "monotonized", "padded"), results):
            expect(res.value is want, f"{stage} stage decided {res.value.value}, source is {want.value}")
        bad = oracle.balanced_mono_qbf_problem(
            padded.universals, padded.existentials, padded.matrix.clauses, s)
        expect(bad is None, f"padded output misses the target class: {bad}")
        k = len(mono.universals)
        expect(padded.universals[:k] == mono.universals
               and padded.matrix.clauses[:mono.matrix.m] == mono.matrix.clauses,
               "padded stage does not extend the monotonized stage")
        if alpha_src is None:
            return
        src, tri, mon, pad = (r.counterexample for r in results)
        expect(src == alpha_src, f"source counterexample {src} is not the first one {alpha_src}")
        expect(oracle.is_counterexample(t3.universals, t3.existentials, t3.matrix.clauses, tri),
               "tripled counterexample has an existential extension")
        expect(mon == tri, "monotonized counterexample differs from the tripled one")
        # certify the monotonized 'no': the matrix under the counterexample has
        # a replayable refutation
        residue = mfor.simplify_under(mono.matrix, mon)
        res = msol.solve(residue, trace=True)
        expect(res.status is msol.Status.UNSAT, "matrix under the counterexample is satisfiable")
        expect(mrup.verify_rup(residue, res.proof).ok, "refutation under the counterexample fails replay")
        # simplify_under is not used on the padded matrix: it is
        # O(units x clauses) there (see README)
        expect(all(pad[u] == mon[u] for u in mono.universals)
               and not any(pad[u] for u in padded.universals[k:]),
               "padded counterexample disagrees with the monotonized one")

    return Job(f"qbf{i}", run, check, _spec("qbf", s, q.universals, q.existentials, q.matrix.clauses))


def _qbf_cli_jobs(ctx: Context, sources, s: int, transform_source) -> list[Job]:
    """`qbf check` on the first sources and one `qbf transform`, each in a fresh process."""
    action = "transform-1122" if s == 1 else "transform-2222"
    jobs = []
    for i, q in enumerate(sources[:QBF_CLI_CHECKS]):
        path = ctx.workdir / f"source{i}.qdimacs"
        path.write_text(qdimacs_text(q))

        def check_verdict(out, q=q):
            rc, stdout = out
            want = (0, "yes") if _first_counterexample(q) is None else (10, "no")
            expect((rc, stdout.split("\n")[0]) == want, f"qbf check gave {rc} {stdout[:40]!r}")

        jobs.append(Job(f"cli-qbf-check{i}", lambda path=path: ctx.cli(["qbf", "check", "--in", str(path)]),
                        check_verdict, _spec("cli-qbf-check", q.matrix.clauses), cli=True))

    path = ctx.workdir / "transform.qdimacs"
    path.write_text(qdimacs_text(transform_source))
    out_path = ctx.workdir / "padded.qdimacs"

    def run_transform():
        rc, stdout = ctx.cli(["qbf", action, "--in", str(path), "--out", str(out_path)])
        return rc, out_path.read_text() if rc == 0 else ""

    def check_transform(out):
        rc, text = out
        expect(rc == 0, f"qbf {action} exited {rc}")
        lines = text.splitlines()
        universals = tuple(map(int, lines[1].split()[1:-1]))
        existentials = tuple(map(int, lines[2].split()[1:-1]))
        n_vars, clauses = oracle.parse_dimacs("\n".join([lines[0]] + lines[3:]))
        bad = oracle.balanced_mono_qbf_problem(universals, existentials, clauses, s)
        expect(bad is None, f"CLI transform output misses the target class: {bad}")

    jobs.append(Job(f"cli-qbf-{action}", run_transform, check_transform,
                    _spec("cli-qbf-transform", transform_source.matrix.clauses), cli=True))
    return jobs


def qbf_jobs(workload: str, seed: int, picks: dict, ctx: Context) -> list[Job]:
    s = 1 if workload == "qbf-confirm" else 2
    sources = [_qbf_source(s, g) for g in picks["sources"]]
    jobs = [_qbf_job(i, q, s) for i, q in enumerate(sources)]
    return jobs + _qbf_cli_jobs(ctx, sources, s, sources[picks["transform"]])


# -- count ----------------------------------------------------------------------------

ENUM_CAP = 1000
BLOCKING_CAP = 100
NAE_SIZES = range(6, 61, 3)
NAE_PER_SIZE = 5
NAE_SLOW_PER_SIZE = 2  # near the natural share, 0.3-0.45 at every size


def _four_regular_component(clauses) -> bool:
    """Whether, once duplicated clause pairs are removed, some component of
    the variables' co-occurrence graph gives every variable four neighbours.

    ``nae_solve_e2`` then searches the component for a cut vertex, which
    takes about three times as long, so each size has a fixed number of
    such instances: without it one seed's median NAE job costs 20 % more
    than another's.
    """
    counts: dict = {}
    for c in clauses:
        counts[c] = counts.get(c, 0) + 1
    adj: dict[int, set] = {}
    for c in clauses:
        if counts[c] != 2:
            for v in c:
                adj.setdefault(v, set()).update(w for w in c if w != v)
    seen: set[int] = set()
    for root in adj:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for v in comp:
            for w in adj[v] - seen:
                seen.add(w)
                comp.append(w)
        if all(len(adj[v]) == 4 for v in comp):
            return True
    return False


def _count_pick(workload: str, seed: int) -> dict:
    """Generator seeds of the NAE instances: per size, ``NAE_SLOW_PER_SIZE``
    with a four-regular component, the rest without."""
    rng = _rng(workload + "-nae", seed)
    return {"nae": [
        [_shaped_seed(rng, lambda g, n=n: mgen.random_mono_nae_e2(n, g),
                      lambda f: _four_regular_component(f.clauses), k < NAE_SLOW_PER_SIZE)
         for k in range(NAE_PER_SIZE)]
        for n in NAE_SIZES]}


def _count_job(name: str, f, cap) -> Job:
    def check(out):
        if cap is None:
            want = oracle.count_models(f.clauses, f.n_vars)
            expect(out == mmod.ModelCount(want, False), f"count {out}, expected {want}")
            return
        found = len(oracle.first_models(f.clauses, f.n_vars, cap + 1))
        want = mmod.ModelCount(min(found, cap), found > cap)
        expect(out == want, f"capped count {out}, expected {want}")

    return Job(name, lambda: mmod.count_models(f, cap), check,
               _spec("count", f.n_vars, f.clauses, cap))


def _enum_job(name: str, f, cap: int) -> Job:
    def check(out):
        idx = oracle.first_models(f.clauses, f.n_vars, cap + 1)
        want = [oracle.assignment(i, f.n_vars) for i in idx[:cap]]
        expect(out.models == want, "enumerated models are not the first models in index order")
        expect(out.capped == (len(idx) > cap), "wrong capped flag")

    return Job(name, lambda: mmod.enumerate_models(f, cap), check,
               _spec("enum", f.n_vars, f.clauses, cap))


def _first_nae_job(name: str, f) -> Job:
    def run():
        lits, widths = mker.clause_arrays(f.clauses)
        return mker.first_nae(lits, widths, f.n_vars)

    def check(out):
        want = oracle.first_nae(f.clauses, f.n_vars)
        expect(out == want, f"first nae index {out}, expected {want}")

    return Job(name, run, check, _spec("first-nae", f.n_vars, f.clauses))


def _nae_job(name: str, f) -> Job:
    def check(out):
        expect(set(out) == set(range(1, f.n_vars + 1)), "assignment is not total")
        expect(oracle.nae_satisfies(f.clauses, out), "assignment is not nae-satisfying")

    return Job(name, lambda: mnae.nae_solve_e2(f), check, _spec("nae", f.n_vars, f.clauses))


def count_jobs(workload: str, seed: int, picks: dict, ctx: Context) -> list[Job]:
    rng = _rng(workload, seed)

    def sat22(n):
        return mgen.random_3sat22(n, rng.randrange(1 << 30))

    def nae(n):
        return mgen.random_mono_nae_e2(n, rng.randrange(1 << 30))

    jobs = []
    for k, n in enumerate((18, 18, 18, 21, 21)):
        jobs.append(_count_job(f"count{k}-n{n}", sat22(n), None))
    for k, n in enumerate((18, 18, 21, 21)):
        jobs.append(_enum_job(f"enum{k}-n{n}", sat22(n), ENUM_CAP))
    for k, n in enumerate((24, 27)):
        jobs.append(_count_job(f"capped{k}-n{n}", sat22(n), BLOCKING_CAP))
    for k in range(4):
        jobs.append(_first_nae_job(f"first-nae{k}", nae(21)))
    for n, gen_seeds in zip(NAE_SIZES, picks["nae"]):
        for k, gen_seed in enumerate(gen_seeds):
            jobs.append(_nae_job(f"nae-n{n}-{k}", mgen.random_mono_nae_e2(n, gen_seed)))

    f = sat22(18)
    count_path = ctx.workdir / "count.cnf"
    count_path.write_text(dimacs_text(f.n_vars, f.clauses))
    g = nae(30)
    nae_path = ctx.workdir / "nae.cnf"
    nae_path.write_text(dimacs_text(g.n_vars, g.clauses))

    def check_count(out):
        rc, stdout = out
        want = oracle.count_models(f.clauses, f.n_vars)
        expect((rc, stdout.strip()) == (0, str(want)), f"CLI count gave {rc} {stdout!r}, expected {want}")

    def check_nae(out):
        rc, stdout = out
        expect(rc == 0, f"CLI nae solve exited {rc}")
        lits = [int(t) for t in stdout.split()[1:-1]]
        a = {abs(l): l > 0 for l in lits}
        expect(set(a) == set(range(1, g.n_vars + 1)) and oracle.nae_satisfies(g.clauses, a),
               "CLI nae assignment is not nae-satisfying")

    jobs.append(Job("cli-count", lambda: ctx.cli(["count", "--in", str(count_path)]),
                    check_count, _spec("cli-count", f.clauses), cli=True))
    jobs.append(Job("cli-nae-solve", lambda: ctx.cli(["nae", "solve", "--in", str(nae_path)]),
                    check_nae, _spec("cli-nae", g.clauses), cli=True))
    jobs.append(Job("cli-validate", lambda: ctx.cli(["validate", "--class", "3sat22", "--in", str(count_path)]),
                    lambda out: expect(out == (0, "valid\n"), f"CLI validate gave {out!r}"),
                    _spec("cli-validate", f.clauses), cli=True))
    return jobs


# -- claims ---------------------------------------------------------------------------

REDUCTION_SIZES = (6, 9, 12, 15, 18)
REDUCTIONS_PER_SIZE = 2
# Every gadget a reduction inserts adds about a hundred variables, so the
# sources have a fixed number of clauses that need one: two duplicate-literal
# clauses (the most common count) and n mixed clauses (near the most common).
STAR22_DUPLICATES = 2
MINER_RUNS = 3
MINER_ITERS = 500
# the pinned rediscovery run of the acceptance suite
REDISCOVERY_PERTURB_SEED = 2
REDISCOVERY_MINE_SEED = 0


def _duplicates(f) -> int:
    return sum(1 for c in f.clauses if len({abs(l) for l in c}) < len(c))


def _shaped_seed(rng, draw, measure, want) -> int:
    """A generator seed whose formula has ``measure`` equal to ``want``."""
    while True:
        gen_seed = rng.randrange(1 << 30)
        if measure(draw(gen_seed)) == want:
            return gen_seed


def _claims_pick(workload: str, seed: int) -> dict:
    rng = _rng(workload, seed)
    star, mixed = [], []
    for n in REDUCTION_SIZES * REDUCTIONS_PER_SIZE:
        star.append(_shaped_seed(rng, lambda g: mgen.random_mono_3sat_star22(n, g),
                                 _duplicates, STAR22_DUPLICATES))
        mixed.append(_shaped_seed(rng, lambda g: mgen.random_3sat22(n, g), _mixed, n))
    return {"star22": star, "3sat22": mixed,
            "miner": [rng.randrange(1 << 30) for _ in range(MINER_RUNS)]}


def _golden_job(name: str, build, listing: str | None) -> Job:
    def check(out):
        if listing is None:  # the eight-clause core has no published listing
            expect((out.n_vars, out.m) == (6, 8), "core8 sizes")
            expect(oracle.count_models(out.clauses, out.n_vars) == 0, "core8 has a model")
            return
        expect(list(out.clauses) == oracle.parse_listing(listing), f"{name} differs from its listing")

    return Job(f"golden-{name}", build, check, _spec("golden", name))


def _refutation_job(name: str, f, small: bool) -> Job:
    def run():
        res = msol.solve(f, trace=True)
        return res.status, res.proof, mrup.verify_rup(f, res.proof).ok if res.proof else False

    def check(out):
        status, proof, replayed = out
        expect(status is msol.Status.UNSAT, f"{name} decided {status.value}; it is unsatisfiable")
        expect(replayed, f"the proof for {name} does not replay")
        if small:
            expect(oracle.count_models(f.clauses, f.n_vars) == 0, f"oracle finds a model of {name}")

    return Job(f"refute-{name}", run, check, _spec("refute", name))


def _replay_job(name: str, f, lines) -> Job:
    def check(out):
        expect(out, f"the published {name} proof does not replay")

    return Job(f"replay-{name}", lambda: mrup.verify_rup(f, mrup.parse_rup(lines)).ok,
               check, _spec("replay", name))


def _table_job(name: str, build, arity: int, want: Callable[[dict], bool]) -> Job:
    ports = tuple(range(1, arity + 1))

    def run():
        inst = build(mgad.FreshVarAllocator(arity + 1), *ports)
        solver = msol.Solver(inst.formula)
        return tuple(
            solver.solve([v if b else -v for v, b in zip(ports, bits)]).status is msol.Status.SAT
            for bits in itertools.product((False, True), repeat=arity))

    def check(out):
        table = tuple(want(dict(zip(ports, bits)))
                      for bits in itertools.product((False, True), repeat=arity))
        expect(out == table, f"{name} truth table deviates")

    return Job(f"table-{name}", run, check, _spec("table", name))


def _frak(build, sign):
    def built(alloc, *ports):
        triple = [(sign * ports[i], -sign * ports[i + 1], -sign * ports[i + 2]) for i in (0, 3, 6)]
        return build(alloc, triple)
    return built


def _reduction_job(name: str, reduce, f) -> Job:
    def run():
        out = reduce(f)
        return out, msol.solve(out.formula)

    def check(out):
        red, res = out
        bad = oracle.mono22_problem(red.formula.clauses, red.formula.n_vars)
        expect(bad is None, f"{name} output misses monotone (2,2): {bad}")
        sat = bool(oracle.first_models(f.clauses, f.n_vars, 1))
        expect(res.status is (msol.Status.SAT if sat else msol.Status.UNSAT),
               f"{name}: reduced formula decided {res.status.value}, source sat = {sat}")
        if sat:
            expect(oracle.satisfies(red.formula.clauses, res.model), f"{name}: model fails the output")
            expect(oracle.satisfies(f.clauses, res.model), f"{name}: model does not transport back")

    return Job(name, run, check, _spec("reduce", name, f.clauses))


def _miner_job(name: str, cfg, must_reach_zero: bool) -> Job:
    def check(trace):
        best = trace.best_formula
        expect(trace.best_count == min(e.model_count for e in trace.entries), "incumbent is not the best")
        expect(oracle.count_models(best.clauses, best.n_vars) == trace.best_count,
               "best model count disagrees with the oracle")
        if cfg.initial is None:
            bad = oracle.mono22_problem(best.clauses, best.n_vars)
        else:  # swaps keep every clause's width and sign and every variable's profile
            bad = None if (
                oracle.occurrences(best.clauses) == oracle.occurrences(cfg.initial.clauses)
                and sorted(map(len, best.clauses)) == sorted(map(len, cfg.initial.clauses))
                and len(set(best.clauses)) == best.m) else "profile or clause shapes changed"
        expect(bad is None, f"best candidate left its class: {bad}")
        if must_reach_zero:
            expect(trace.best_count == 0, "rediscovery run did not reach a zero-model gadget")

    initial = cfg.initial.clauses if cfg.initial is not None else None
    return Job(name, lambda: mmin.mine(cfg), check,
               _spec("mine", cfg.n_vars, cfg.n_clauses, cfg.max_iters, cfg.seed, initial))


def claims_jobs(workload: str, seed: int, picks: dict, ctx: Context) -> list[Job]:
    u, m = mgad.build_U(), mgad.build_M()
    y, z = mgad.build_y_core(), mgad.build_z_core()
    jobs = [
        _golden_job("U", mgad.build_U, refdata.U_LIST_TEXT),
        _golden_job("M", mgad.build_M, refdata.M_LIST_TEXT),
        _golden_job("y-core", mgad.build_y_core, refdata.Y_CORE_LIST_TEXT),
        _golden_job("z-core", mgad.build_z_core, refdata.Z_CORE_LIST_TEXT),
        _golden_job("core8", mgad.build_core8, None),
        _refutation_job("U", u, False),
        _refutation_job("M", m, False),
        _refutation_job("y-core", y, True),
        _refutation_job("z-core", z, True),
        _replay_job("y-core", y, refdata.Y_CORE_PROOF_LINES),
        _replay_job("z-core", z, refdata.Z_CORE_PROOF_LINES),
        _table_job("M", mgad.build_M_enforcer, 3, lambda v: v[1] or not v[2] or not v[3]),
        _table_job("Mbar", mgad.build_Mbar_enforcer, 3, lambda v: not v[1] or v[2] or v[3]),
        _table_job("N", mgad.build_N, 1, lambda v: not v[1]),
        _table_job("S", mgad.build_S, 3, lambda v: v[1] or v[2] or v[3]),
        _table_job("Sbar", mgad.build_Sbar, 3, lambda v: not (v[1] and v[2] and v[3])),
        _table_job("frakM", _frak(mgad.build_frakM, 1), 9,
                   lambda v: all(v[i] or not v[i + 1] or not v[i + 2] for i in (1, 4, 7))),
        _table_job("frakMbar", _frak(mgad.build_frakMbar, -1), 9,
                   lambda v: all(not v[i] or v[i + 1] or v[i + 2] for i in (1, 4, 7))),
    ]
    sizes = REDUCTION_SIZES * REDUCTIONS_PER_SIZE
    for k, (n, g_star, g_mixed) in enumerate(zip(sizes, picks["star22"], picks["3sat22"])):
        star = mgen.random_mono_3sat_star22(n, g_star)
        jobs.append(_reduction_job(f"reduce{k}-star22-n{n}", mred.reduce_star22_to_mono22, star))
        mixed = mgen.random_3sat22(n, g_mixed)
        jobs.append(_reduction_job(f"reduce{k}-3sat22-n{n}", mred.reduce_3sat22_to_mono22, mixed))
    for k, miner_seed in enumerate(picks["miner"]):
        cfg = mmin.MinerConfig(n_vars=9, n_clauses=12, max_iters=MINER_ITERS, seed=miner_seed)
        jobs.append(_miner_job(f"mine{k}", cfg, False))
    perturb = random.Random(REDISCOVERY_PERTURB_SEED)
    perturbed = None
    while perturbed is None:
        perturbed = mmin.swap_move(y, perturb)
    cfg = mmin.MinerConfig(n_vars=9, n_clauses=13, initial=perturbed,
                           max_iters=MINER_ITERS, seed=REDISCOVERY_MINE_SEED)
    jobs.append(_miner_job("mine-rediscovery", cfg, True))
    return jobs + _claims_cli_jobs(ctx, y)


def _claims_cli_jobs(ctx: Context, y) -> list[Job]:
    u_path = ctx.workdir / "u.cnf"
    u_path.write_text(dimacs_text(198, oracle.parse_listing(refdata.U_LIST_TEXT)))
    proof_path = ctx.workdir / "u.rup"
    y_path = ctx.workdir / "y.cnf"
    y_path.write_text(dimacs_text(y.n_vars, oracle.parse_listing(refdata.Y_CORE_LIST_TEXT)))
    y_proof = ctx.workdir / "y.rup"
    y_proof.write_text("\n".join(refdata.Y_CORE_PROOF_LINES) + "\n")

    def check_gadget(out):
        rc, stdout = out
        expect(rc == 0, f"gadget U exited {rc}")
        n_vars, clauses = oracle.parse_dimacs(stdout)
        expect(n_vars == 198 and clauses == oracle.parse_listing(refdata.U_LIST_TEXT),
               "CLI gadget U differs from its listing")

    def run_solve():
        rc, stdout = ctx.cli(["solve", "--in", str(u_path), "--trace", str(proof_path)])
        return rc, stdout, proof_path.read_text() if proof_path.exists() else ""

    def check_solve(out):
        rc, stdout, proof = out
        expect((rc, stdout.strip()) == (10, "s UNSATISFIABLE"), f"CLI solve U gave {rc} {stdout!r}")
        expect(proof.strip().splitlines()[-1:] == ["0"], "CLI proof does not end in the empty clause")

    def check_rup(out):
        expect(out == (0, "proof verified\n"), f"CLI rup-check gave {out!r}")

    def check_selftest(out):
        rc, stdout = out
        last = stdout.strip().splitlines()[-1:]
        passed = re.fullmatch(r"(\d+)/(\d+) checks passed", last[0]) if last else None
        expect(rc == 0 and passed is not None and passed[1] == passed[2],
               f"selftest gave {rc} {last}")

    return [
        Job("cli-gadget-U", lambda: ctx.cli(["gadget", "U"]), check_gadget, _spec("cli", "gadget U"), cli=True),
        Job("cli-solve-U", run_solve, check_solve, _spec("cli", "solve U"), cli=True),
        Job("cli-rup-check-y", lambda: ctx.cli(["rup-check", "--in", str(y_path), "--proof", str(y_proof)]),
            check_rup, _spec("cli", "rup-check y"), cli=True),
        Job("cli-selftest", lambda: ctx.cli(["selftest"]), check_selftest, _spec("cli", "selftest"), cli=True),
    ]


# -- entry points ---------------------------------------------------------------------

# workload: (pick, build).  ``pick`` runs before set-up, untimed, and
# chooses the generator seeds of the sources that must have a given shape or
# verdict; ``build`` generates only the kept sources and makes the jobs.
BUILDERS = {
    "qbf-confirm": (_qbf_pick, qbf_jobs),
    "qbf-refute": (_qbf_pick, qbf_jobs),
    "claims": (_claims_pick, claims_jobs),
    "count": (_count_pick, count_jobs),
}


def pick(workload: str, seed: int) -> dict:
    return BUILDERS[workload][0](workload, seed)


def build(workload: str, seed: int, picks: dict, ctx: Context) -> list[Job]:
    return BUILDERS[workload][1](workload, seed, picks, ctx)


def warm_up(workload: str) -> None:
    """Touch each layer the workload uses once, on a tiny input, untimed."""
    if workload.startswith("qbf"):
        q = mgen.random_balanced_qbf(2, 1, 1, 1)
        mqbf.qbf_truth(mqbf.transform_1122(q))
    elif workload == "count":
        f = mgen.random_3sat22(9, 1)
        mmod.count_models(f)
        mmod.enumerate_models(f, 4)
        mnae.nae_solve_e2(mgen.random_mono_nae_e2(9, 1))
    else:
        msol.solve(mgad.build_M(), trace=True)
        mmod.count_models(mgad.build_y_core())


def oracle_self_check() -> None:
    oracle.self_check(mgad.build_core8(), mgad.build_y_core(), mgad.build_z_core(),
                      mgad.build_U_NAE())

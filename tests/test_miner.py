import hashlib
import json
import random

import pytest

from monoforge import miner
from monoforge.formula import InstanceClass, cnf, occurrence_profile, validate_class
from monoforge.gadgets import build_y_core
from monoforge.generate import GenerationError
from monoforge.miner import (
    MinerConfig,
    MinerConfigError,
    TraceEntry,
    candidate_ok,
    formula_hash,
    mine,
    random_candidate,
    swap_move,
)
from monoforge.models import count_models

import corpus


def test_config_budget_validation():
    MinerConfig(n_vars=9, n_clauses=12)  # 9 * 4 == 12 * 3
    with pytest.raises(MinerConfigError, match="budget"):
        MinerConfig(n_vars=9, n_clauses=13)
    with pytest.raises(MinerConfigError):
        MinerConfig(n_vars=9, n_clauses=12, initial=build_y_core())


def test_config_refuses_more_variables_than_exact_counting_takes():
    MinerConfig(n_vars=21, n_clauses=28)
    with pytest.raises(MinerConfigError, match="at most 22"):
        MinerConfig(n_vars=24, n_clauses=32)
    with pytest.raises(MinerConfigError, match="at most 22"):
        MinerConfig(n_vars=24, n_clauses=1, initial=cnf([[1, 2, 3]], n_vars=24))


@pytest.mark.parametrize("n_vars, n_clauses", [(0, 0), (-3, -4), (0, 1)])
def test_config_refuses_fewer_than_one_variable(n_vars, n_clauses):
    with pytest.raises(MinerConfigError) as e:
        MinerConfig(n_vars=n_vars, n_clauses=n_clauses)
    assert str(e.value) == f"n_vars must be at least 1, not {n_vars}"
    with pytest.raises(MinerConfigError, match="n_vars must be at least 1"):
        MinerConfig(n_vars=n_vars, n_clauses=0, initial=cnf([], n_vars=0))


@pytest.mark.parametrize("field, value, message", [
    ("max_iters", -1, "max_iters must be at least 0, not -1"),
    ("population_size", 0, "population_size must be at least 1, not 0"),
    ("sideways_prob", 7.0, "sideways_prob must be between 0 and 1, not 7.0"),
    ("sideways_prob", -0.5, "sideways_prob must be between 0 and 1, not -0.5"),
    ("sideways_prob", float("nan"), "sideways_prob must be between 0 and 1, not nan"),
    ("stall_window", 0, "stall_window must be at least 1, not 0"),
])
def test_config_refuses_out_of_range_search_settings(field, value, message):
    with pytest.raises(MinerConfigError) as e:
        MinerConfig(n_vars=9, n_clauses=12, **{field: value})
    assert str(e.value) == message
    with pytest.raises(MinerConfigError):
        MinerConfig(n_vars=6, n_clauses=1, initial=cnf([[1, 2, 3]], n_vars=6), **{field: value})
    MinerConfig(n_vars=9, n_clauses=12, max_iters=0, population_size=1,
                sideways_prob=1.0, stall_window=1)


def test_random_candidate_validity_and_determinism():
    cfg = MinerConfig(n_vars=9, n_clauses=12, seed=4)
    a = random_candidate(cfg, random.Random(4))
    b = random_candidate(cfg, random.Random(4))
    assert a == b
    assert validate_class(a, InstanceClass.MONO_3SAT_22).verdict
    assert occurrence_profile(a) == occurrence_profile(b)


def test_swap_move_conserves_profile_and_validity():
    rng = random.Random(0)
    f = build_y_core()
    profile = occurrence_profile(f)
    current = f
    moves = 0
    for _ in range(300):
        nxt = swap_move(current, rng)
        if nxt is None:
            continue
        moves += 1
        assert occurrence_profile(nxt) == profile
        assert candidate_ok(nxt, profile)
        widths_before = sorted(len(c) for c in current.clauses)
        widths_after = sorted(len(c) for c in nxt.clauses)
        assert widths_before == widths_after
        current = nxt
    assert moves > 100


def test_swap_move_needs_same_polarity_partner():
    from monoforge.formula import cnf

    f = cnf([[1, 2, 3], [-1, -2, -3]], n_vars=3)
    rng = random.Random(1)
    assert all(swap_move(f, rng) is None for _ in range(50))


def test_mine_determinism():
    cfg = MinerConfig(n_vars=9, n_clauses=12, max_iters=60, seed=11)
    a = mine(cfg)
    b = mine(cfg)
    assert a.entries == b.entries
    assert a.best_count == b.best_count
    assert a.best_formula == b.best_formula


def test_mine_incumbent_and_validity():
    cfg = MinerConfig(n_vars=9, n_clauses=12, max_iters=200, seed=3)
    trace = mine(cfg)
    assert trace.best_count == min(e.model_count for e in trace.entries)
    best_profile = occurrence_profile(trace.best_formula)
    assert candidate_ok(trace.best_formula, best_profile)
    assert count_models(trace.best_formula).count == trace.best_count
    running = None
    for e in trace.entries:
        if e.accepted:
            running = e.model_count if running is None else min(running, e.model_count)
    assert running == trace.best_count


def test_rediscovery_run_reaches_zero():
    y = build_y_core()
    rng = random.Random(corpus.REDISCOVERY_PERTURB_SEED)
    perturbed = None
    while perturbed is None:
        perturbed = swap_move(y, rng)
    assert count_models(perturbed).count > 0
    cfg = MinerConfig(
        n_vars=9,
        n_clauses=13,
        initial=perturbed,
        max_iters=500,
        seed=corpus.REDISCOVERY_MINE_SEED,
    )
    trace = mine(cfg)
    assert trace.best_count == 0
    assert count_models(trace.best_formula).count == 0


def test_trace_json_shape():
    cfg = MinerConfig(n_vars=9, n_clauses=12, max_iters=20, seed=7)
    trace = mine(cfg)
    payload = trace.to_json()
    assert set(payload) == {"entries", "best_count", "restarts", "best_clauses"}
    assert len(payload["entries"]) == len(trace.entries)


def test_formula_hash_is_order_insensitive():
    from monoforge.formula import cnf

    f = cnf([[1, 2, 3], [4, 5, 6]], n_vars=6)
    g = cnf([[4, 5, 6], [1, 2, 3]], n_vars=6)
    assert formula_hash(f) == formula_hash(g)


def _restart_entries(trace):
    """Restart entries share their iteration with the entry before them."""
    return [e for prev, e in zip(trace.entries, trace.entries[1:]) if e.iteration == prev.iteration]


def test_mine_records_a_no_move_when_every_swap_fails():
    # one positive and one negative clause: no two clauses share a polarity
    f = cnf([[1, 2, 3], [-1, -2, -3]], n_vars=3)
    cfg = MinerConfig(n_vars=3, n_clauses=2, initial=f, max_iters=12, stall_window=4, seed=0)
    trace = mine(cfg)
    h = formula_hash(f)
    want = [TraceEntry(0, h, 6, True)]
    for it in range(1, 13):
        want.append(TraceEntry(it, h, 6, False))
        if it % 4 == 0:
            want.append(TraceEntry(it, h, 6, True))
    assert trace.entries == want
    assert (len(trace.entries), trace.restarts, trace.best_count) == (16, 3, 6)
    assert trace.best_formula == f


def test_mine_restart_can_beat_the_incumbent():
    cfg = MinerConfig(n_vars=9, n_clauses=12, population_size=1, max_iters=60,
                      stall_window=5, sideways_prob=0.0, seed=10)
    trace = mine(cfg)
    payload = json.dumps(trace.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "797734a5d768dfad1848f0580c0768f6550abc54d179cd1d281915159390a984")
    restarts = _restart_entries(trace)
    assert [(e.iteration, e.model_count, e.accepted) for e in restarts] == [
        (12, 83, True), (23, 59, True), (32, 76, True), (44, 79, True)]
    k = trace.entries.index(restarts[1])
    best_before = min(e.model_count for e in trace.entries[:k] if e.accepted)
    assert best_before == 63
    assert (trace.restarts, trace.best_count, len(trace.entries)) == (4, 50, 65)
    assert count_models(trace.best_formula).count == 50


def test_mine_restart_perturbs_the_start_when_a_draw_fails(monkeypatch):
    cfg = MinerConfig(n_vars=9, n_clauses=12, max_iters=100, stall_window=5, seed=0)
    draws = []

    def draw(cfg, rng):
        draws.append(cfg)
        if len(draws) > cfg.population_size:
            raise GenerationError("no fresh candidate")
        return random_candidate(cfg, rng)

    perturbed = []
    real_perturb = miner._perturb

    def perturb(f, rng):
        perturbed.append((f, real_perturb(f, rng)))
        return perturbed[-1][1]

    monkeypatch.setattr(miner, "random_candidate", draw)
    monkeypatch.setattr(miner, "_perturb", perturb)
    trace = mine(cfg)
    restarts = _restart_entries(trace)
    assert trace.restarts == len(restarts) == len(perturbed) > 0
    assert len(draws) == cfg.population_size + trace.restarts
    start = trace.entries[0].candidate_hash
    assert all(formula_hash(f) == start for f, _ in perturbed)
    assert [e.candidate_hash for e in restarts] == [formula_hash(out) for _, out in perturbed]
    profile = occurrence_profile(perturbed[0][0])
    assert all(candidate_ok(out, profile) for _, out in perturbed)


@pytest.mark.parametrize("initial", [False, True])
def test_mine_checks_every_candidate_before_counting(monkeypatch, initial):
    start = swap_move(build_y_core(), random.Random(2)) if initial else None
    cfg = MinerConfig(n_vars=9, n_clauses=13 if initial else 12, initial=start,
                      population_size=3, max_iters=60, stall_window=5, seed=10)
    checked, counted = [], []

    def check(f, profile):
        checked.append(f)
        return candidate_ok(f, profile)

    def count(f, cap=None):
        assert checked and checked[-1] is f
        counted.append(f)
        return count_models(f, cap)

    monkeypatch.setattr(miner, "candidate_ok", check)
    monkeypatch.setattr(miner, "count_models", count)
    trace = mine(cfg)
    seeds = 1 if initial else cfg.population_size
    assert trace.restarts > 0
    assert len(counted) == seeds + len(trace.entries) - 1

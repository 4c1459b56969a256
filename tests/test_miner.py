import random

import pytest

from monoforge.formula import InstanceClass, cnf, occurrence_profile, validate_class
from monoforge.gadgets import build_y_core
from monoforge.miner import (
    MinerConfig,
    MinerConfigError,
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

"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities when it succeeds (run pytest with -s to see them).
"""

import itertools
import time

import numpy as np

from qnas.model import (
    capacity_floor,
    counts_above,
    make_snapshot,
    predict_response,
    rescale_snapshot,
)
from qnas.planner import SlaThresholds, acquire, plan_step, release
from qnas.simkit import ScenarioSpec, des_validate, run_scenario
from qnas.telemetry import observe

from conftest import DEMO_DEMANDS, DEMO_RATES, grid_record, random_baseline


def report(name, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (name, detail))


def test_01_bottleneck_shift():
    t0 = time.perf_counter()
    base = make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)
    u1 = base.utilizations_ref.utilizations
    np.testing.assert_allclose(u1, [1.5, 2.0 / 3.0, 1.5], atol=1e-12, rtol=0)
    # Doubling station 1 halves its per-instance utilization but leaves
    # station 3 saturated: the bottleneck moves, it does not disappear.
    shifted = rescale_snapshot(base, [2, 1, 1])
    u2 = shifted.utilizations_ref.utilizations
    np.testing.assert_allclose(u2, [0.75, 2.0 / 3.0, 1.5], atol=1e-12, rtol=0)
    assert u2[2] > 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    report("1 bottleneck-shift", "util %s -> %s in %.2f ms" % (u1, u2, elapsed * 1e3))


def test_02_planner_end_to_end():
    t0 = time.perf_counter()
    base = make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)
    sla = SlaThresholds([6.0, 5.0])
    out = plan_step(base, sla)
    assert tuple(out.new_config.counts) == (2, 1, 2)
    np.testing.assert_allclose(out.predicted_response.per_class, [5.0, 4.0], rtol=1e-12)
    # Exhaustive search: (2,1,2) is the unique feasible point of total 5.
    best_total = None
    best = None
    for combo in itertools.product(range(1, 7), repeat=3):
        n = np.array(combo)
        if best_total is not None and n.sum() > best_total:
            continue
        try:
            rt = predict_response(base, n).per_class
        except Exception:
            continue
        if np.all(rt <= sla.max_response):
            if best_total is None or n.sum() < best_total:
                best_total, best = int(n.sum()), tuple(combo)
    assert best == (2, 1, 2) and best_total == 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    report("2 planner-end-to-end", "config %s optimum total %d in %.1f ms"
           % (best, best_total, elapsed * 1e3))


def test_03_release_pareto_certificate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(500):
        base = random_baseline(rng)
        floors = base.total_demands().sum(axis=1)
        sla = SlaThresholds(floors * rng.uniform(1.05, 3.0, size=base.num_classes))
        start, _ = acquire(base, sla)
        cfg, _ = release(rescale_snapshot(base, start), sla)
        floor = capacity_floor(base)
        loaded = base.total_demands().sum(axis=0) > 0
        for k in range(base.num_stations):
            if cfg.counts[k] < 2:
                continue
            n = cfg.counts.copy()
            n[k] -= 1
            if np.any(loaded & (n <= floor)):
                continue
            rt = predict_response(base, n).per_class
            assert np.any(rt > sla.max_response), (
                "scenario %d: feasible single-decrement neighbor at station %d" % (i, k))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report("3 release-pareto", "500 scenarios, 0 feasible neighbors, %.1f s" % elapsed)


def test_04_monotonicity_and_additivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        base = random_baseline(rng)
        K = base.num_stations
        lo = counts_above(capacity_floor(base)) + rng.integers(0, 5, size=K)
        hi = lo + rng.integers(0, 5, size=K)
        r_lo = predict_response(base, lo).per_class
        r_hi = predict_response(base, hi).per_class
        assert np.all(r_lo >= r_hi - 1e-12)
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 1000:
        base = random_baseline(rng)
        K = base.num_stations
        if K < 2:
            continue
        n = counts_above(capacity_floor(base)) + rng.integers(0, 5, size=K)
        i, j = rng.choice(K, size=2, replace=False)
        e_i = np.eye(K, dtype=int)[i]
        e_j = np.eye(K, dtype=int)[j]
        r0 = predict_response(base, n).per_class
        di = r0 - predict_response(base, n + e_i).per_class
        dj = r0 - predict_response(base, n + e_j).per_class
        dij = r0 - predict_response(base, n + e_i + e_j).per_class
        np.testing.assert_allclose(dij, di + dj, atol=1e-9, rtol=1e-9)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report("4 monotonicity+additivity", "1000 checks each, %.1f s" % elapsed)


def test_05_des_cross_validation():
    t0 = time.perf_counter()
    base = make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)
    # run_length 5e4 gives >= 1e5 total completions (aggregate rate 3/s).
    r = des_validate(base, [2, 1, 2], "ps", run_length=5e4, seed=11)
    assert r.completions.sum() >= 1e5
    np.testing.assert_allclose(r.response, [5.0, 4.0], rtol=0.05)
    np.testing.assert_allclose(r.utilization, [0.75, 2.0 / 3.0, 0.75], atol=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report("5 des-cross-validation", "response %s util %s, %d completions, %.1f s"
           % (np.round(r.response, 3), np.round(r.utilization, 3),
              r.completions.sum(), elapsed))


def test_06_allocation_ratio_band():
    t0 = time.perf_counter()
    ratios = {}
    for C in (10, 15, 20):
        row = []
        for K in (20, 40, 60):
            for seed in (1, 2, 3):
                row.append(grid_record(C, K, seed).summary.dynamic_static_ratio)
        ratios[C] = row
    flat = [x for row in ratios.values() for x in row]
    assert all(0.5 <= x <= 0.85 for x in flat), "ratios out of band: %s" % flat
    assert np.mean(ratios[10]) <= np.mean(ratios[20])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report("6 ratio-band", "ratios in [%.3f, %.3f], row means %.3f <= %.3f, %.0f s"
           % (min(flat), max(flat), np.mean(ratios[10]), np.mean(ratios[20]), elapsed))


def test_07_qualitative_timeseries():
    t0 = time.perf_counter()
    spec = ScenarioSpec(num_classes=5, num_stations=10, horizon=200, master_seed=7)
    rec = run_scenario(spec)
    assert not np.any(rec.predicted_response > rec.thresholds.max_response + 1e-9)
    corr = np.corrcoef(rec.rates.sum(axis=1), rec.counts.sum(axis=1))[0, 1]
    assert corr > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report("7 timeseries", "0 violations, corr %.3f, %.1f s" % (corr, elapsed))


def test_08_telemetry_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2027)
    checked = 0
    while checked < 100:
        base = random_baseline(rng)
        truth_unit = base.total_demands()
        config = base.ref_config
        util = base.rates.rates @ (truth_unit / config.counts)
        if np.any(util >= 1):
            continue
        snap = observe(base.rates, truth_unit, config)
        predicted = predict_response(snap, config).per_class
        true_resp = predict_response(base, config).per_class
        np.testing.assert_allclose(predicted, true_resp, rtol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    report("8 telemetry-round-trip", "100 scenarios exact to 1e-12, %.2f s" % elapsed)

from dataclasses import replace

import numpy as np
import pytest

from qnas.planner import acquire
from qnas.model import make_snapshot
from qnas.workload import (
    DemandLaw,
    WorkloadLaw,
    default_law,
    default_thresholds,
    gen_arrival_series,
    gen_demands,
)

from conftest import DEMO_DEMANDS


class TestGenDemands:
    def test_class_bounds(self):
        d = gen_demands(DemandLaw(5, 10, seed=3)).demands
        for c in range(5):
            assert d[c].max() <= (c + 1) / 5
        assert d[0].max() <= 0.2

    def test_single_class(self):
        d = gen_demands(DemandLaw(1, 8, seed=4)).demands
        assert np.all(d >= 0) and np.all(d <= 1)

    def test_deterministic(self):
        a = gen_demands(DemandLaw(4, 6, seed=9)).demands
        b = gen_demands(DemandLaw(4, 6, seed=9)).demands
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("C, K", [(0, 3), (3, 0)])
    def test_sizes_must_be_positive(self, C, K):
        with pytest.raises(ValueError, match="C and K must be >= 1"):
            DemandLaw(C, K)


class TestWorkloadLaw:
    # Each vector lists one value per class: numpy would broadcast a lone
    # amplitude over three classes, and fail mid-generation on three
    # amplitudes for two classes.
    @pytest.mark.parametrize("vectors", [
        ([1.0, 2.0, 3.0], [0.5], [10.0], [0.0]),
        ([1.0, 2.0], [0.5, 0.1, 0.2], [10.0, 10.0], [0.0, 0.0]),
        ([1.0, 2.0], [0.5, 0.1], [10.0], [0.0, 0.0]),
        ([1.0, 2.0], [0.5, 0.1], [10.0, 10.0], 0.0),
        (1.0, 0.5, 10.0, 0.0),
        ([[1.0, 2.0]], [[0.5, 0.1]], [[10.0, 10.0]], [[0.0, 0.0]]),
    ], ids=["one-amplitude", "three-amplitudes", "one-period", "scalar-phase",
            "scalar-law", "matrix-law"])
    def test_vector_lengths_must_agree(self, vectors):
        with pytest.raises(ValueError, match="must list|must be a vector"):
            WorkloadLaw(*vectors)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, np.nan])
    def test_persistence_in_unit_interval(self, rho):
        # rho = 1 would leave the AR(1) innovations no variance.
        with pytest.raises(ValueError, match="persistence"):
            WorkloadLaw([1.0], [0.5], [10.0], [0.0], perturbation_sd=0.1,
                        perturbation_persistence=rho)


class TestGenArrivalSeries:
    def test_degenerate_constant(self):
        law = WorkloadLaw([2.0, 1.0], [0.0, 0.0], [50.0, 25.0], [0.0, 0.0])
        series = gen_arrival_series(law, 100, seed=0)
        np.testing.assert_allclose(series, np.tile([2.0, 1.0], (100, 1)))

    def test_pure_sinusoid_range(self):
        law = WorkloadLaw([2.0], [0.4], [40.0], [0.0])
        series = gen_arrival_series(law, 400, seed=0)[:, 0]
        assert series.min() == pytest.approx(2.0 * 0.6, rel=1e-6)
        assert series.max() == pytest.approx(2.0 * 1.4, rel=1e-6)

    def test_nonnegative(self):
        law = replace(default_law(5, 200, seed=7), perturbation_sd=0.5)
        series = gen_arrival_series(law, 200, seed=8)
        assert np.all(series >= 0)

    def test_deterministic(self):
        law = default_law(3, 100, seed=1)
        a = gen_arrival_series(law, 100, seed=2)
        b = gen_arrival_series(law, 100, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_periodogram_peaks(self):
        horizon = 200
        law = default_law(5, horizon, seed=11)
        series = gen_arrival_series(law, horizon, seed=12)
        freqs = np.fft.rfftfreq(horizon)
        for c in range(5):
            x = series[:, c] - series[:, c].mean()
            power = np.abs(np.fft.rfft(x)) ** 2
            peak = freqs[np.argmax(power[1:]) + 1]
            assert peak == pytest.approx(1.0 / law.periods[c], abs=1.0 / horizon)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            gen_arrival_series(default_law(2, 10, seed=0), 0, seed=0)


class TestDefaultThresholds:
    def test_single_class(self):
        sla = default_thresholds(np.array([[0.5, 1.5]]), 3.0)
        assert sla.max_response[0] == pytest.approx(6.0)

    def test_demo(self):
        sla = default_thresholds(DEMO_DEMANDS, 3.0)
        np.testing.assert_allclose(sla.max_response, [4.0, 3.0], rtol=1e-12)

    def test_attainability(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            C, K = rng.integers(1, 5), rng.integers(1, 8)
            demands = gen_demands(DemandLaw(C, K, seed=int(rng.integers(1 << 30))))
            rates = rng.uniform(0.1, 2.0, size=C)
            base = make_snapshot(np.ones(K, dtype=int), rates, demands.demands)
            sla = default_thresholds(demands, 1.5)
            # Every threshold above its class's asymptotic response floor.
            assert np.all(sla.max_response > base.total_demands().sum(axis=1) + 1e-9)

    def test_near_boundary_multiplier(self):
        demands = gen_demands(DemandLaw(2, 4, seed=21))
        base = make_snapshot([1, 1, 1, 1], [0.5, 0.5], demands.demands)
        sla = default_thresholds(demands, 1.01)
        cfg, _ = acquire(base, sla)
        assert cfg.total >= 4

    def test_multiplier_must_exceed_one(self):
        with pytest.raises(ValueError):
            default_thresholds(DEMO_DEMANDS, 1.0)

    def test_raw_demands_checked(self):
        # Raw input gets the DemandMatrix checks: a negative demand and a
        # 1-D vector both raise its named ValueError.
        with pytest.raises(ValueError, match="finite and >= 0"):
            default_thresholds([[-1.0, 2.0]], 2.0)
        with pytest.raises(ValueError, match="C x K matrix"):
            default_thresholds([0.5, 1.5], 2.0)

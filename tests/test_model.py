import warnings

import numpy as np
import pytest

from qnas.errors import InfeasibleConfiguration
from qnas.model import (
    ArrivalRates,
    Configuration,
    DemandMatrix,
    capacity_floor,
    counts_above,
    make_snapshot,
    predict_response,
    rescale_snapshot,
)

from conftest import DEMO_DEMANDS, DEMO_RATES, random_baseline


class TestUtilization:
    """Per-instance utilizations at the reference, U_k = sum_c lambda_c * D_ck."""

    def test_demo_baseline(self, demo):
        u = demo.utilizations_ref.utilizations
        np.testing.assert_allclose(u, [1.5, 2.0 / 3.0, 1.5], rtol=1e-12)

    def test_zero_rates(self):
        u = make_snapshot([1, 1, 1], [0.0, 0.0], DEMO_DEMANDS).utilizations_ref.utilizations
        assert np.all(u == 0.0)

    def test_single_term(self):
        u = make_snapshot([1], [1.0], [[0.4]]).utilizations_ref.utilizations
        assert u[0] == pytest.approx(0.4, abs=1e-15)


class TestRescaleSnapshot:
    def test_demo_to_212(self, demo):
        s = rescale_snapshot(demo, [2, 1, 2])
        per_instance = s.total_demands() / s.ref_config.counts
        np.testing.assert_allclose(per_instance[0], [0.25, 1.0 / 3.0, 0.25], rtol=1e-12)
        np.testing.assert_allclose(s.utilizations_ref.utilizations, [0.75, 2.0 / 3.0, 0.75],
                                   rtol=1e-12)

    def test_identity(self, demo):
        s = rescale_snapshot(demo, demo.ref_config)
        np.testing.assert_array_equal(s.total_demands() / s.ref_config.counts,
                                      demo.total_demands() / demo.ref_config.counts)

    def test_composition(self, demo):
        twice = rescale_snapshot(rescale_snapshot(demo, [2, 1, 2]), [4, 3, 2])
        once = rescale_snapshot(demo, [4, 3, 2])
        np.testing.assert_allclose(twice.total_demands() / twice.ref_config.counts,
                                   once.total_demands() / once.ref_config.counts, rtol=1e-12)
        np.testing.assert_allclose(twice.utilizations_ref.utilizations,
                                   once.utilizations_ref.utilizations, rtol=1e-12)

    def test_product_invariance(self, demo):
        s = rescale_snapshot(demo, [3, 2, 5])
        np.testing.assert_allclose(s.total_demands(), demo.total_demands(), rtol=1e-12)


class TestPredictResponse:
    def test_infeasible_at_reference(self, demo):
        with pytest.raises(InfeasibleConfiguration) as exc:
            predict_response(demo, [1, 1, 1])
        assert set(exc.value.stations) == {0, 2}

    def test_demo_target(self, demo):
        rt = predict_response(demo, [2, 1, 2])
        np.testing.assert_allclose(rt.per_class, [5.0, 4.0], rtol=1e-12)
        # Breakdown of class 1: station terms N_k * R_ck = 2.0 + 1.0 + 2.0.
        counts = np.array([2, 1, 2])
        np.testing.assert_allclose(rt.per_class_station[0] * counts, [2.0, 1.0, 2.0], rtol=1e-12)

    def test_feasible_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            base = random_baseline(rng)
            rt = predict_response(base, base.ref_config)
            # Open-network response at the reference: sum_k N_k * D_ck / (1 - U_k).
            D = base.total_demands() / base.ref_config.counts
            U = base.utilizations_ref.utilizations
            direct = (D / (1.0 - U)) @ base.ref_config.counts
            np.testing.assert_allclose(rt.per_class, direct, rtol=1e-9)

    def test_rereferencing_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            base = random_baseline(rng)
            mid = counts_above(capacity_floor(base)) + rng.integers(0, 4, size=base.num_stations)
            target = counts_above(capacity_floor(base)) + rng.integers(0, 6, size=base.num_stations)
            direct = predict_response(base, target).per_class
            via = predict_response(rescale_snapshot(base, mid), target).per_class
            np.testing.assert_allclose(via, direct, rtol=1e-9)

    def test_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            base = random_baseline(rng)
            lo = counts_above(capacity_floor(base)) + rng.integers(0, 4, size=base.num_stations)
            hi = lo + rng.integers(0, 4, size=base.num_stations)
            r_lo = predict_response(base, lo).per_class
            r_hi = predict_response(base, hi).per_class
            assert np.all(r_lo >= r_hi - 1e-12)

    def test_additivity_of_increments(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            base = random_baseline(rng)
            K = base.num_stations
            if K < 2:
                continue
            n = counts_above(capacity_floor(base)) + rng.integers(0, 4, size=K)
            i, j = rng.choice(K, size=2, replace=False)
            e_i = np.eye(K, dtype=int)[i]
            e_j = np.eye(K, dtype=int)[j]
            r0 = predict_response(base, n).per_class
            di = r0 - predict_response(base, n + e_i).per_class
            dj = r0 - predict_response(base, n + e_j).per_class
            dij = r0 - predict_response(base, n + e_i + e_j).per_class
            np.testing.assert_allclose(dij, di + dj, atol=1e-9, rtol=1e-9)

    def test_asymptotic_floor(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            base = random_baseline(rng)
            big = counts_above(capacity_floor(base)) * 1000
            r = predict_response(base, big).per_class
            floor = base.total_demands().sum(axis=1)  # limit as all counts grow
            assert np.all(r >= floor - 1e-12)
            np.testing.assert_allclose(r, floor, rtol=2e-3)

    def test_derivative_matches_closed_form(self):
        # Continuous relaxation of the response surface: finite-difference
        # slope in N_k matches -M_k^2 U_k D_ck / (N_k - U_k M_k)^2.
        rng = np.random.default_rng(29)
        for _ in range(50):
            base = random_baseline(rng)
            M = base.ref_config.counts.astype(float)
            U = base.utilizations_ref.utilizations
            D = base.total_demands() / base.ref_config.counts
            floor = capacity_floor(base)
            n = floor + rng.uniform(0.5, 3.0, size=base.num_stations)

            def resp(cfg, c):
                used = D[c] * M > 0
                return np.sum(D[c][used] * M[used] * cfg[used] / (cfg[used] - floor[used]))

            h = 1e-4
            for c in range(base.num_classes):
                for k in range(base.num_stations):
                    if U[k] * D[c, k] <= 0:
                        continue
                    up = n.copy(); up[k] += h
                    dn = n.copy(); dn[k] -= h
                    fd = (resp(up, c) - resp(dn, c)) / (2 * h)
                    closed = -(M[k] ** 2) * U[k] * D[c, k] / (n[k] - U[k] * M[k]) ** 2
                    assert fd < 0
                    assert fd == pytest.approx(closed, rel=1e-4)


class TestCapacityFloor:
    def test_demo(self, demo):
        np.testing.assert_allclose(capacity_floor(demo), [1.5, 2.0 / 3.0, 1.5], rtol=1e-12)

    def test_zero_rates(self):
        base = make_snapshot([2, 3], [0.0], [[0.5, 0.5]])
        assert np.all(capacity_floor(base) == 0.0)

    def test_rescale_invariance(self, demo):
        rescaled = rescale_snapshot(demo, [4, 2, 7])
        np.testing.assert_allclose(capacity_floor(rescaled), capacity_floor(demo), rtol=1e-12)


class TestMinFeasibleConfig:
    def test_demo(self, demo):
        np.testing.assert_array_equal(counts_above(capacity_floor(demo)), [2, 1, 2])

    def test_strict_at_integer_floor(self):
        base = make_snapshot([1], [4.0], [[0.5]])  # floor exactly 2.0
        assert counts_above(capacity_floor(base))[0] == 3

    def test_saturates_past_int64(self):
        # 2**63 - 1024 is the largest float64 below 2**63: floors up to it
        # keep their exact count, and larger ones saturate without a cast
        # warning.
        top = 2 ** 63 - 1023
        floors = [5.5, 2.0 ** 62, 2.0 ** 63 - 1024, 2.0 ** 63, 1e308, np.inf]
        assert counts_above(np.array(floors)).tolist() == [6, 2 ** 62 + 1, top, top, top, top]

    def test_zero_load_station(self):
        base = make_snapshot([1, 1], [1.0], [[0.5, 0.0]])
        assert counts_above(capacity_floor(base))[1] == 1

    def test_prediction_defined_at_result(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            base = random_baseline(rng)
            predict_response(base, counts_above(capacity_floor(base)))  # must not raise


class TestSnapshotConsistency:
    def test_closure(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            base = random_baseline(rng)
            u = base.rates.rates @ (base.total_demands() / base.ref_config.counts)
            np.testing.assert_allclose(u, base.utilizations_ref.utilizations, atol=1e-9)

    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            Configuration([1, 0, 2])
        with pytest.raises(ValueError):
            Configuration([1.7, 2])
        np.testing.assert_array_equal(Configuration([2.0, 1.0]).counts, [2, 1])

    @pytest.mark.parametrize("counts", [[1e19, 1], [2 ** 63, 1], [-1e19, 1]])
    def test_counts_past_int64(self, counts):
        # Refused before the int64 cast, which would warn or wrap.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="int64 range"):
                Configuration(counts)

    @pytest.mark.parametrize("counts", [[2 ** 64, 1], [-2 ** 63 - 1, 1]])
    def test_python_ints_past_int64(self, counts):
        # An object array of Python ints fails the cast itself.
        with pytest.raises(ValueError, match="int64 range"):
            Configuration(counts)

    def test_total_past_int64(self):
        # Summed as Python ints, not wrapped in int64.
        assert Configuration([2 ** 62] * 4).total == 2 ** 64

    def test_vectors_only(self):
        from qnas.planner import SlaThresholds
        for cls, name in ((Configuration, "counts"), (ArrivalRates, "rates"),
                          (SlaThresholds, "max_response")):
            with pytest.raises(ValueError, match=name + " must be a 1-D vector"):
                cls([[1.0, 2.0]])


class TestBoundary:
    """Bad input raises at the public entry points; what a snapshot keeps or
    returns cannot be written through."""

    @pytest.mark.parametrize("ref, rates, demands", [
        ([1, 0, 1], DEMO_RATES, DEMO_DEMANDS),                      # count 0
        ([1, 1, 1], [-2.0, 1.0], DEMO_DEMANDS),                     # negative rate
        ([1, 1, 1], [np.nan, 1.0], DEMO_DEMANDS),                   # NaN rate
        ([1, 1, 1], DEMO_RATES, [[0.5, np.inf, 0.5], [0.5, 0.0, 0.5]]),  # inf demand
        ([1, 1], DEMO_RATES, DEMO_DEMANDS),                         # K mismatch
        ([1, 1, 1], [2.0], DEMO_DEMANDS),                           # C mismatch
        ([1], [1e200], [[1e200]]),                                  # utilization overflows
        ([1.7, 1, 1], DEMO_RATES, DEMO_DEMANDS),                    # fractional count
        ([np.inf, 1, 1], DEMO_RATES, DEMO_DEMANDS),                 # infinite count
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_make_snapshot_rejects(self, ref, rates, demands):
        with pytest.raises(ValueError):
            make_snapshot(ref, rates, demands)

    def test_constructors_reject(self):
        for bad in ([-1.0], [np.nan], [np.inf]):
            with pytest.raises(ValueError):
                ArrivalRates(bad)
        with pytest.raises(ValueError):
            DemandMatrix([[np.inf]])
        with pytest.raises(ValueError):
            DemandMatrix([0.5, 0.5])

    @pytest.mark.parametrize("target", [[2, 0, 2], [2, 1], [2.9, 1, 2]])
    def test_bad_targets(self, demo, target):
        with pytest.raises(ValueError):
            predict_response(demo, target)
        with pytest.raises(ValueError):
            rescale_snapshot(demo, target)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rescale_overflow(self):
        # M = 2**62 instances overflow the total demand, or only the
        # capacity floor when the rates are large; rescaling such a
        # snapshot to N = 1 would need them, so it cannot be built.
        for rate, demand in ((1.0, 1e300), (1e11, 1e289)):
            with pytest.raises(ValueError):
                make_snapshot([2**62], [rate], [[demand]])

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_typed_overflow(self):
        # Typed inputs skip coercion but not the overflow check: totals that
        # overflow, a floor that overflows, and a floor of 0 * inf.
        for rates, demands in (([1.0], [[1e300]]), ([1e11], [[1e289]]),
                               ([0.0, 1.0], [[1e300], [1e-300]])):
            with pytest.raises(ValueError):
                make_snapshot(Configuration([2**62]), ArrivalRates(rates),
                              DemandMatrix(demands))

    def test_arrays_read_only(self, demo):
        from qnas.planner import SlaThresholds, acquire, release
        from qnas.telemetry import observe
        sla = SlaThresholds([6.0, 5.0])
        for base in (demo, rescale_snapshot(demo, [3, 2, 3]),
                     observe(DEMO_RATES, DEMO_DEMANDS, [2, 1, 2])):
            arrays = [base.ref_config.counts, base.rates.rates,
                      base.utilizations_ref.utilizations, base.total_demands(),
                      capacity_floor(base), acquire(base, sla)[0].counts,
                      release(rescale_snapshot(base, [3, 2, 3]), sla)[0].counts]
            for a in arrays:
                with pytest.raises(ValueError):
                    a[0] = 7

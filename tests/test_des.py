import numpy as np
import pytest

from qnas.errors import InfeasibleConfiguration
from qnas.model import make_snapshot, predict_response, rescale_snapshot
from qnas.simkit import des, des_validate, subseed

from conftest import DEMO_DEMANDS, DEMO_RATES


@pytest.fixture(scope="module")
def demo_result():
    base = make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)
    return base, des_validate(base, [2, 1, 2], "ps", run_length=1e5, seed=101)


class TestSingleStation:
    def test_mm1_ps_closed_form(self):
        # lambda=0.5, D=1.0, one instance: mean response D/(1-U) = 2.0.
        # M/M/1 response means converge slowly: at run length 4e4, 1 of
        # seeds 0-29 missed the 5% gate; at 1.6e5 the worst was 2.7%.
        base = make_snapshot([1], [0.5], [[1.0]])
        r = des_validate(base, [1], "ps", run_length=1.6e5, seed=5)
        assert r.response[0] == pytest.approx(2.0, rel=0.05)
        assert r.utilization[0] == pytest.approx(0.5, abs=0.02)

    def test_mm1_fcfs_closed_form(self):
        # Single class exponential service: FCFS matches the same formula.
        base = make_snapshot([1], [0.5], [[1.0]])
        r = des_validate(base, [1], "fcfs", run_length=1.6e5, seed=6)
        assert r.response[0] == pytest.approx(2.0, rel=0.05)

    def test_zero_rate_class(self):
        base = make_snapshot([1], [0.5, 0.0], [[1.0], [0.5]])
        # Run length 5e3 missed the 10% gate on 1 of seeds 0-29; 4e4 had a
        # worst error of 6.6%.
        r = des_validate(base, [1], "ps", run_length=4e4, seed=7)
        assert r.completions[1] == 0
        assert np.isnan(r.response[1])
        assert r.response[0] == pytest.approx(2.0, rel=0.1)


class TestDemoNetwork:
    def test_response_matches_analytic(self, demo_result):
        base, r = demo_result
        np.testing.assert_allclose(r.response, [5.0, 4.0], rtol=0.05)

    def test_utilization_matches_analytic(self, demo_result):
        base, r = demo_result
        np.testing.assert_allclose(r.utilization, [0.75, 2.0 / 3.0, 0.75], atol=0.02)

    def test_residence_matches_analytic(self, demo_result):
        # Per-visit residence carries the whole station term N_k * R_ck.
        base, r = demo_result
        snap = rescale_snapshot(base, [2, 1, 2])
        rt = predict_response(snap, [2, 1, 2])
        counts = np.array([2, 1, 2])
        for c in range(2):
            for k in range(3):
                if DEMO_DEMANDS[c, k] == 0:
                    assert np.isnan(r.residence[c, k])
                    continue
                analytic = rt.per_class_station[c, k] * counts[k]
                assert r.residence[c, k] == pytest.approx(analytic, rel=0.05)

    def test_poisson_thinning(self, demo_result):
        # Each instance of station k sees class-c arrivals at rate lambda_c/N_k.
        base, r = demo_result
        counts = np.array([2, 1, 2])
        offsets = np.array([0, 2, 3])
        for c, lam in enumerate(DEMO_RATES):
            for k in range(3):
                if DEMO_DEMANDS[c, k] == 0:
                    continue
                for i in range(counts[k]):
                    measured = r.visit_rates[c, offsets[k] + i]
                    assert measured == pytest.approx(lam / counts[k], rel=0.02)

    def test_skips_zero_demand_station(self, demo_result):
        base, r = demo_result
        assert r.visit_rates[1, 2] == 0.0  # class 2 never visits station 2


class TestDesAnalyticAgreement:
    def test_moderate_load_network(self):
        # Random 2x3 network below 0.9 utilization per instance.
        rng = np.random.default_rng(77)
        demands = rng.uniform(0.2, 0.6, size=(2, 3))
        rates = np.array([0.8, 0.5])
        base = make_snapshot([1, 1, 1], rates, demands)
        from qnas.model import min_feasible_config
        config = min_feasible_config(base).counts
        snap = rescale_snapshot(base, config)
        assert np.all(snap.utilizations_ref.utilizations <= 0.9)
        r = des_validate(base, config, "ps", run_length=3e4, seed=9)
        rt = predict_response(base, config)
        np.testing.assert_allclose(r.response, rt.per_class, rtol=0.05)
        np.testing.assert_allclose(r.utilization, snap.utilizations_ref.utilizations, atol=0.02)

    def test_fcfs_equal_demands(self):
        # With equal per-class demands FCFS agrees with the analytic form too.
        # Run length 3e4 missed the 5% gate on 3 of seeds 0-99; 1.2e5 had a
        # worst error of 2.3%.
        base = make_snapshot([1, 1], [0.6, 0.6], [[0.5, 0.4], [0.5, 0.4]])
        r = des_validate(base, [1, 1], "fcfs", run_length=1.2e5, seed=10)
        rt = predict_response(base, [1, 1])
        np.testing.assert_allclose(r.response, rt.per_class, rtol=0.05)


class TestValidation:
    def test_infeasible_target(self):
        base = make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)
        with pytest.raises(InfeasibleConfiguration):
            des_validate(base, [1, 1, 1], "ps", run_length=100)

    def test_unknown_discipline(self):
        base = make_snapshot([1], [0.5], [[1.0]])
        with pytest.raises(ValueError):
            des_validate(base, [1], "lifo", run_length=100)

    def test_deterministic_per_seed(self):
        base = make_snapshot([1], [0.5], [[1.0]])
        a = des_validate(base, [1], "ps", run_length=1e3, seed=3)
        b = des_validate(base, [1], "ps", run_length=1e3, seed=3)
        np.testing.assert_array_equal(a.response, b.response)

    def test_wide_seeds(self):
        # Seeds of any width run and repeat; the high bits still matter.
        base = make_snapshot([1], [0.5], [[1.0]])
        wide = subseed(1, "des")
        assert wide >= 2 ** 32
        a = des_validate(base, [1], "ps", run_length=1e3, seed=wide)
        b = des_validate(base, [1], "ps", run_length=1e3, seed=wide)
        np.testing.assert_array_equal(a.response, b.response)
        high = des_validate(base, [1], "ps", run_length=1e3, seed=2 ** 32 + 3)
        low = des_validate(base, [1], "ps", run_length=1e3, seed=3)
        assert high.response[0] != low.response[0]
        with pytest.raises(ValueError):
            des_validate(base, [1], "ps", run_length=1e3, seed=-1)

    def test_confidence_halfwidths_positive(self):
        base = make_snapshot([1], [0.5], [[1.0]])
        r = des_validate(base, [1], "ps", run_length=1e4, seed=4)
        assert r.response_hw[0] > 0
        assert r.response_hw[0] < r.response[0]


class TestKernel:
    """Exact departures and busy time on hand-computed inputs."""

    def test_fcfs_departures(self):
        # Job 2 waits for job 1; job 3 finds the server idle.
        dep = des.fcfs_departures(np.array([0.0, 1.0, 5.0]), np.array([2.0, 2.0, 1.0]))
        np.testing.assert_array_equal(dep, [2.0, 4.0, 6.0])

    def test_ps_departures_shared_start(self):
        # Both served at rate 1/2 until t=2, when the short job is done.
        dep = des.ps_departures(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(dep, [2.0, 3.0], rtol=0, atol=1e-12)

    def test_ps_departures_arrival_during_service(self):
        # Job 1 runs alone on [0, 1] (2 units left), then both share the
        # server: job 2 leaves at 3, job 1 at 4; job 3 arrives to an idle
        # server.
        dep = des.ps_departures(np.array([0.0, 1.0, 6.0]), np.array([3.0, 1.0, 0.5]))
        np.testing.assert_allclose(dep, [4.0, 3.0, 6.5], rtol=0, atol=1e-12)

    def test_busy_time_clipped(self):
        # Busy periods [0, 4] and [5, 6] clipped to [1, 5.5]: 3 + 0.5.
        s = np.array([2.0, 2.0, 1.0])
        dep = des.fcfs_departures(np.array([0.0, 1.0, 5.0]), s)
        assert des.busy_time(dep, s, 1.0, 5.5) == pytest.approx(3.5, abs=1e-12)
        assert des.busy_time(dep, s, 0.0, 10.0) == pytest.approx(5.0, abs=1e-12)
        assert des.busy_time(dep, s, 4.0, 5.0) == 0.0

    @pytest.mark.parametrize("discipline", [des.PS, des.FCFS])
    def test_conservation(self, discipline):
        # Two used stations near saturation over a short run, so jobs are
        # still queued at run_length.  With no warmup, visits_ci counts every
        # arrival at an instance and the visit records every departure, so
        # the jobs in the network at run_length are the arrivals minus the
        # departures, summed over stations.
        rates = np.array([0.6, 0.3])
        means = np.array([[1.0, 0.0, 0.8], [1.0, 0.0, 0.5]])
        counts = np.array([2, 1, 1])
        stations = {0: slice(0, 2), 2: slice(3, 4)}
        queued = 0
        for seed in range(5):
            completions, visits, busy, visits_ci = des.des_loop(
                rates, means, counts, discipline, 200.0, 0.0, seed)
            assert np.all(busy <= 200.0) and np.all(visits_ci[:, 2] == 0)
            for c in range(2):
                assert visits[c][1] is None
                arrived = visits_ci[c, stations[0]].sum()
                passed_on = visits[c][0][0].size
                # Every departure from station 0 by run_length arrives at
                # station 2, and every departure from station 2 completes.
                assert visits_ci[c, stations[2]].sum() == passed_on
                assert completions[c][0].size == visits[c][2][0].size
                held = [visits_ci[c, sl].sum() - visits[c][k][0].size
                        for k, sl in stations.items()]
                assert min(held) >= 0
                in_network = sum(held)
                assert completions[c][0].size + in_network == arrived
                assert np.all(completions[c][0] >= 0)
                queued += in_network
        assert queued > 0

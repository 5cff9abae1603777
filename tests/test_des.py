import heapq
import json
from pathlib import Path

import numpy as np
import pytest

from qnas.errors import InfeasibleConfiguration
from qnas.model import (
    capacity_floor,
    counts_above,
    make_snapshot,
    predict_response,
    rescale_snapshot,
)
from qnas.simkit import des, des_validate, subseed

from conftest import DEMO_DEMANDS, DEMO_RATES


# -- Reference oracle: the single-server heap loop, kept verbatim. ----------
# ps_departures splits its input into busy periods and advances most of them
# in lockstep; it must agree with this loop to rounding.

def reference_ps_departures(arrivals, services):
    """Departure times of an egalitarian processor-sharing single server
    from its sorted arrival times and service times (contiguous float64
    arrays).

    With n jobs present each is served at rate 1/n, so virtual time V runs
    at dV/dt = 1/n and a job arriving at virtual time V leaves when V
    reaches V + s.  A heap of those finish tags gives the next departure in
    O(log n) per event.
    """
    dep = np.empty(arrivals.size)
    out = memoryview(dep)  # item access without a list of float objects
    heap = []
    t = v = 0.0
    for i, (a, s) in enumerate(zip(memoryview(arrivals), memoryview(services))):
        while heap:
            tag, j = heap[0]
            finish = t + (tag - v) * len(heap)
            if finish > a:
                break
            heapq.heappop(heap)
            out[j] = t = finish
            v = tag
        if heap:
            v += (a - t) / len(heap)
        t = a
        heapq.heappush(heap, (v + s, i))
    while heap:
        tag, j = heap[0]
        t += (tag - v) * len(heap)
        heapq.heappop(heap)
        out[j] = t
        v = tag
    return dep


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
        config = counts_above(capacity_floor(base))
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

    @pytest.mark.parametrize("setting, value", [
        ("run_length", np.inf), ("run_length", np.nan), ("run_length", 0.0),
        ("batches", 2.5), ("batches", 1)])
    def test_bad_setting_named(self, setting, value):
        base = make_snapshot([1], [0.5], [[1.0]])
        kwargs = {"run_length": 100.0, setting: value}
        with pytest.raises(ValueError, match=setting):
            des_validate(base, [1], "ps", **kwargs)

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


class TestStudentT:
    # t(0.975, df) from scipy 1.17.1's stats.t.ppf, written out so the test
    # needs no scipy.
    SCIPY_T975 = {
        1: 12.706204736174694, 2: 4.302652729749462, 3: 3.1824463052837078,
        4: 2.7764451051977934, 9: 2.262157162798205, 10: 2.228138851986274,
        30: 2.0422724563012378, 120: 1.9799304050824402,
        1000: 1.9623390808264083, 100000: 1.9599877075346095,
    }

    @pytest.mark.parametrize("df", sorted(SCIPY_T975))
    def test_matches_scipy(self, df):
        assert des._t975(df) == pytest.approx(self.SCIPY_T975[df], rel=1e-10, abs=0)


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


def _stream(rng, rho, size):
    """Poisson arrivals at rate rho with unit-mean exponential services."""
    arrivals = np.cumsum(rng.exponential(1.0 / rho, size))
    return arrivals, rng.exponential(1.0, size)


def _shared_periods(arrivals, services):
    """Number of busy periods of more than one job."""
    fresh = des.busy_period_starts(arrivals, des.fcfs_departures(arrivals, services))
    return int(np.count_nonzero(np.diff(np.flatnonzero(fresh), append=arrivals.size) > 1))


def _assert_matches_reference(arrivals, services):
    dep = des.ps_departures(arrivals, services)
    assert dep.shape == arrivals.shape and np.all(np.isfinite(dep))
    np.testing.assert_allclose(dep, reference_ps_departures(arrivals, services), rtol=1e-9)


class TestPsKernel:
    """The busy-period kernel against the heap loop it replaced."""

    @pytest.mark.parametrize("rho", [0.2, 0.6, 0.8, 0.95])
    def test_random_streams(self, rho):
        rng = np.random.default_rng(int(rho * 100))
        _assert_matches_reference(*_stream(rng, rho, 20000))

    def test_equal_arrival_times(self):
        # Groups of simultaneous arrivals, some wider than a table row.
        rng = np.random.default_rng(11)
        groups = rng.integers(1, 3 * des.TAG_WIDTH, size=des.HEAP_TAIL + 40)
        arrivals = np.repeat(np.arange(groups.size) * 1e3, groups)
        services = rng.exponential(1.0, arrivals.size)
        _assert_matches_reference(arrivals, services)

    def test_large_wide_periods(self):
        # More busy periods than the heap takes, each of more jobs than
        # HEAP_TAIL and, with services much longer than the arrival window,
        # more than twice TAG_WIDTH jobs at once: the lanes' tables widen.
        rng = np.random.default_rng(12)
        least = des.HEAP_TAIL + 2 * des.TAG_WIDTH + 1
        parts = [b * 1e4 + np.sort(rng.uniform(0.0, 1.0, least + b))
                 for b in range(des.HEAP_TAIL + 8)]
        arrivals = np.concatenate(parts)
        services = rng.uniform(5.0, 10.0, arrivals.size)
        assert _shared_periods(arrivals, services) == len(parts)
        _assert_matches_reference(arrivals, services)

    def test_more_lanes_than_one_chunk(self):
        rng = np.random.default_rng(13)
        arrivals, services = _stream(rng, 0.5, 20000)
        assert _shared_periods(arrivals, services) > des.HEAP_TAIL + des.CHUNK
        _assert_matches_reference(arrivals, services)

    def test_empty(self):
        dep = des.ps_departures(np.empty(0), np.empty(0))
        assert dep.shape == (0,)

    def test_instances_with_fresh(self):
        # Three servers' streams one after another, as des_loop passes them.
        rng = np.random.default_rng(14)
        streams = [_stream(rng, rho, 3000) for rho in (0.3, 0.7, 0.9)]
        arrivals = np.concatenate([a for a, _ in streams])
        services = np.concatenate([s for _, s in streams])
        fresh = np.concatenate([des.busy_period_starts(a, des.fcfs_departures(a, s))
                                for a, s in streams])
        dep = des.ps_departures(arrivals, services, fresh)
        assert np.all(np.isfinite(dep))
        want = np.concatenate([reference_ps_departures(a, s) for a, s in streams])
        np.testing.assert_allclose(dep, want, rtol=1e-9)
        with pytest.raises(ValueError):
            des.ps_departures(arrivals, services, ~fresh)

    @pytest.mark.parametrize("toward", [-np.inf, None, np.inf])
    def test_adversarial_boundaries(self, toward):
        # A short burst of jobs is followed by an arrival exactly at the
        # reference's last departure of it, or one ulp to either side, where
        # FCFS's and PS's rounding can disagree on whether the server is
        # empty.  Every third burst starts after a clear gap, so that no
        # busy period holds more than three bursts, and HEAP_TAIL larger
        # busy periods go first: the bursts run as lanes.
        rng = np.random.default_rng(15)
        a = (np.arange(des.HEAP_TAIL)[:, None] * 1e3
             + np.sort(rng.uniform(0.0, 1.0, (des.HEAP_TAIL, 60)), axis=1)).ravel()
        s = rng.uniform(2.0, 4.0, a.size)
        last = des.HEAP_TAIL * 1e3
        for i in range(300):
            nxt = last + 10.0 if i % 3 == 0 else (
                last if toward is None else np.nextafter(last, toward))
            burst = nxt + np.concatenate(([0.0], np.sort(rng.uniform(0.0, 0.5, rng.integers(1, 5)))))
            a = np.concatenate((a, burst))
            s = np.concatenate((s, rng.exponential(0.4, burst.size)))
            last = reference_ps_departures(a, s)[-burst.size:].max()
        assert _shared_periods(a, s) > des.HEAP_TAIL + 50
        _assert_matches_reference(a, s)


class TestPinned:
    def test_demo_matches_heap_kernel(self):
        # Per-class completions and responses of the demo at [2, 1, 2] under
        # PS, as computed with the single-server heap kernel.
        pinned = {
            0: ([95973, 48102], [5.003676364268602, 4.005133405139626]),
            1: ([96093, 48303], [5.070021770380556, 4.082112565996562]),
            2: ([95813, 47972], [4.951629010865084, 3.913607896717438]),
            3: ([95398, 48255], [4.962221819797595, 3.9772000300813146]),
        }
        path = Path(__file__).resolve().parent.parent / "configs" / "validate_demo.json"
        cfg = json.loads(path.read_text())
        base = make_snapshot(cfg["ref_config"], cfg["rates"], cfg["demands"])
        for seed, (completions, response) in pinned.items():
            r = des_validate(base, [2, 1, 2], "ps", run_length=6e4, seed=seed)
            np.testing.assert_array_equal(r.completions, completions)
            np.testing.assert_allclose(r.response, response, rtol=1e-9)

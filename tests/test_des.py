import numpy as np
import pytest

from qnas.errors import InfeasibleConfiguration
from qnas.model import make_snapshot, predict_response, rescale_snapshot
from qnas.simkit import des, des_validate, subseed
from qnas.simkit.des_kernel import PS, des_loop

from conftest import DEMO_DEMANDS, DEMO_RATES


@pytest.fixture(scope="module")
def demo_result():
    base = make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)
    return base, des_validate(base, [2, 1, 2], "ps", run_length=1e5, seed=101)


class TestSingleStation:
    def test_mm1_ps_closed_form(self):
        # lambda=0.5, D=1.0, one instance: mean response D/(1-U) = 2.0.
        base = make_snapshot([1], [0.5], [[1.0]])
        r = des_validate(base, [1], "ps", run_length=4e4, seed=5)
        assert r.response[0] == pytest.approx(2.0, rel=0.05)
        assert r.utilization[0] == pytest.approx(0.5, abs=0.02)

    def test_mm1_fcfs_closed_form(self):
        # Single class exponential service: FCFS matches the same formula.
        base = make_snapshot([1], [0.5], [[1.0]])
        r = des_validate(base, [1], "fcfs", run_length=4e4, seed=6)
        assert r.response[0] == pytest.approx(2.0, rel=0.05)

    def test_zero_rate_class(self):
        base = make_snapshot([1], [0.5, 0.0], [[1.0], [0.5]])
        r = des_validate(base, [1], "ps", run_length=5e3, seed=7)
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
        base = make_snapshot([1, 1], [0.6, 0.6], [[0.5, 0.4], [0.5, 0.4]])
        r = des_validate(base, [1, 1], "fcfs", run_length=3e4, seed=10)
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


class TestRecordCaps:
    """Records past the buffer caps are counted, never dropped silently."""

    @staticmethod
    def mm1_loop(comp_cap, visit_cap):
        # One class, one station, lambda=0.5, D=1.0; run_length 400 yields
        # about 200 completions and as many visits.
        return des_loop(np.array([0.5]), np.array([[1.0]]), np.array([1]),
                        np.array([0]), np.array([0]), np.array([[-1]]),
                        PS, 400.0, 80.0, 9, comp_cap, visit_cap)

    def test_counts_continue_past_cap(self):
        full = self.mm1_loop(10_000, 10_000)
        tiny = self.mm1_loop(5, 7)
        n_comp, n_vis = full[0], full[4]
        assert n_comp > 5 and n_vis > 7
        # Same counts, and the stored records are the first ones of the same
        # random stream.
        assert tiny[0] == n_comp and tiny[4] == n_vis
        assert tiny[1].shape == (5,) and tiny[5].shape == (7,)
        np.testing.assert_array_equal(tiny[2], full[2][:5])
        np.testing.assert_array_equal(tiny[8], full[8][:7])
        for a, b in zip(tiny[10:], full[10:]):
            np.testing.assert_array_equal(a, b)

    def test_validate_raises_on_overflow(self, monkeypatch):
        def capped(*args):
            return des_loop(*args[:-2], 5, 7)

        monkeypatch.setattr(des, "des_loop", capped)
        base = make_snapshot([1], [0.5], [[1.0]])
        with pytest.raises(RuntimeError, match="record buffers exceeded"):
            des_validate(base, [1], "ps", run_length=400, seed=9)

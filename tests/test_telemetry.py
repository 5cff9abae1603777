import numpy as np
import pytest

from qnas.errors import OverloadedStation
from qnas.model import ArrivalRates, Configuration, DemandMatrix, predict_response
from qnas.telemetry import NO_NOISE, UTIL_CLAMP, NoiseSpec, observe

from conftest import DEMO_DEMANDS, DEMO_RATES, random_baseline


class TestObserve:
    def test_demo_at_212(self):
        snap = observe(DEMO_RATES, DEMO_DEMANDS, [2, 1, 2])
        per_instance = snap.total_demands() / snap.ref_config.counts
        np.testing.assert_allclose(per_instance[0], [0.25, 1.0 / 3.0, 0.25],
                                   rtol=1e-12)
        np.testing.assert_allclose(snap.utilizations_ref.utilizations, [0.75, 2.0 / 3.0, 0.75],
                                   rtol=1e-12)

    def test_overloaded(self):
        with pytest.raises(OverloadedStation) as exc:
            observe(DEMO_RATES, DEMO_DEMANDS, [1, 1, 1])
        assert set(exc.value.stations) == {0, 2}

    def test_roundtrip_exact(self):
        # Noise off: predicted response from the observed snapshot equals
        # the true analytic response to floating-point accuracy.
        rng = np.random.default_rng(71)
        for _ in range(100):
            base = random_baseline(rng)
            truth_unit = base.total_demands()  # demands of a single-instance deployment
            config = base.ref_config
            util = base.rates.rates @ (truth_unit / config.counts)
            if np.any(util >= 1):
                continue
            snap = observe(base.rates, truth_unit, config)
            predicted = predict_response(snap, config).per_class
            true_resp = predict_response(base, config).per_class
            np.testing.assert_allclose(predicted, true_resp, rtol=1e-12)

    def test_noise_containment(self):
        rsd = 0.05
        hits = 0
        draws = 1000
        true_d = DEMO_DEMANDS
        for seed in range(draws):
            snap = observe(DEMO_RATES, true_d, [2, 1, 2],
                           NoiseSpec("sampled", rsd, seed))
            d = snap.total_demands() / snap.ref_config.counts
            expected = true_d / np.array([2, 1, 2])
            used = expected > 0
            # Combined factor on D = R*(1-U): dominated by the two lognormal
            # draws; allow 3x the combined relative sd.
            rel = np.abs(d[used] - expected[used]) / expected[used]
            if np.all(rel <= 3 * rsd * 3):
                hits += 1
        assert hits >= 0.99 * draws - 5

    def test_noise_off_is_exact(self):
        snap_a = observe(DEMO_RATES, DEMO_DEMANDS, [2, 1, 2])
        snap_b = observe(DEMO_RATES, DEMO_DEMANDS, [2, 1, 2], NoiseSpec("none", 0.5, 9))
        np.testing.assert_array_equal(snap_a.total_demands(), snap_b.total_demands())

    def test_noise_deterministic_per_seed(self):
        a = observe(DEMO_RATES, DEMO_DEMANDS, [2, 1, 2], NoiseSpec("sampled", 0.1, 5))
        b = observe(DEMO_RATES, DEMO_DEMANDS, [2, 1, 2], NoiseSpec("sampled", 0.1, 5))
        np.testing.assert_array_equal(a.total_demands(), b.total_demands())


def reference_totals(rates, demands, counts, noise):
    """observe's totals M_k * D_ck, written out of place: per-instance
    demands D/N, utilization, residence R = D/(1 - U), optional lognormal
    noise on R and U, recovered demands R * (1 - U), times the counts."""
    demands_cfg = demands / counts
    util = rates @ demands_cfg
    resid = demands_cfg / (1.0 - util)
    if noise.mode == "sampled" and noise.relative_sd > 0:
        rng = np.random.default_rng(noise.seed)
        sigma = np.sqrt(np.log1p(noise.relative_sd**2))
        resid = resid * rng.lognormal(0.0, sigma, size=resid.shape)
        util = np.minimum(util * rng.lognormal(0.0, sigma, size=util.shape), UTIL_CLAMP)
    return (resid * (1.0 - util)) * counts


class TestTypedInputs:
    """The harness hands observe model types, which it takes as they are;
    raw input is validated.  Both give the same snapshot, bit for bit."""

    @pytest.mark.parametrize("noise", [NO_NOISE, NoiseSpec("sampled", 0.1, 5),
                                       NoiseSpec("sampled", 0.05, 2**62 + 3)],
                             ids=["off", "sampled", "sampled-wide-seed"])
    def test_typed_matches_raw(self, noise):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(60):
            C, K = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            demands = rng.uniform(0.0, 1.0, size=(C, K))
            demands[rng.random(size=(C, K)) < 0.2] = 0.0
            rates = rng.uniform(0.0, 0.8, size=C)
            counts = rng.integers(1, 4, size=K)
            kept = (demands.copy(), rates.copy(), counts.copy())
            try:
                raw = observe(rates.tolist(), demands.tolist(), counts.tolist(), noise)
            except OverloadedStation:
                with pytest.raises(OverloadedStation):
                    observe(ArrivalRates(rates), DemandMatrix(demands), Configuration(counts),
                            noise)
                continue
            typed = observe(ArrivalRates(rates), DemandMatrix(demands), Configuration(counts),
                            noise)
            expected = reference_totals(rates, demands, counts, noise)
            for snap in (raw, typed):
                assert snap.total_demands().tobytes() == expected.tobytes()
                assert snap.floor.tobytes() == (rates @ expected).tobytes()
            # observe works in place only on arrays it made itself.
            for before, after in zip(kept, (demands, rates, counts)):
                np.testing.assert_array_equal(before, after)
            checked += 1
        assert checked >= 30

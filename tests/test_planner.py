import itertools
from unittest import mock

import numpy as np
import pytest

from qnas import planner
from qnas.errors import InfeasibleConfiguration, IterationCap, UnattainableSla
from qnas.model import (
    Configuration,
    capacity_floor,
    counts_above,
    make_snapshot,
    predict_response,
    rescale_snapshot,
    residence_table,
)
from qnas.planner import (
    DEFAULT_ITERATION_CAP,
    MARGIN,
    PlanOutcome,
    SlaThresholds,
    acquire,
    plan_step,
    release,
)

from conftest import DEMO_DEMANDS, DEMO_RATES, random_baseline


# -- Reference oracle: the original per-candidate planner, kept verbatim. ----
# The table-driven acquire/release must reproduce its decisions exactly,
# including ties, which break on exact float comparison.

def _class_response_terms(total_d_row, floor, counts):
    """Per-station contribution of one class: D_ck*M_k*N_k / (N_k - floor_k)."""
    out = np.zeros_like(total_d_row)
    used = total_d_row > 0.0
    out[used] = total_d_row[used] * counts[used] / (counts[used] - floor[used])
    return out


def reference_acquire(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    if sla.num_classes != base.num_classes:
        raise ValueError("threshold vector length does not match C")
    floor = capacity_floor(base)
    total_d = base.total_demands()
    bad = sla.max_response <= total_d.sum(axis=1) + 1e-9
    if np.any(bad):
        raise UnattainableSla(np.flatnonzero(bad).tolist())
    counts = np.maximum(base.ref_config.counts, counts_above(floor))
    limits = sla.max_response
    iters = 0
    rt = predict_response(base, Configuration(counts))
    while np.any(rt.per_class > limits):
        iters += 1
        if iters > iteration_cap:
            raise IterationCap("acquire exceeded %d iterations" % iteration_cap)
        b = int(np.argmax((rt.per_class - limits) / limits))
        terms_now = _class_response_terms(total_d[b], floor, counts)
        terms_inc = np.empty_like(terms_now)
        for k in range(counts.shape[0]):
            nk = counts[k]
            if total_d[b, k] > 0.0:
                terms_inc[k] = total_d[b, k] * (nk + 1) / (nk + 1 - floor[k])
            else:
                terms_inc[k] = 0.0
        j = int(np.argmax(terms_now - terms_inc))
        counts[j] += 1
        rt = predict_response(base, Configuration(counts))
    return Configuration(counts), iters


def reference_release(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    if sla.num_classes != base.num_classes:
        raise ValueError("threshold vector length does not match C")
    counts = base.ref_config.counts.copy()
    floor = capacity_floor(base)
    limits = sla.max_response
    total_d = base.total_demands()
    # Candidates must stay strictly above the capacity floor after removal.
    candidates = [k for k in range(counts.shape[0]) if counts[k] - 1 > floor[k]]
    iters = 0
    while candidates:
        iters += 1
        if iters > iteration_cap:
            raise IterationCap("release exceeded %d iterations" % iteration_cap)
        rt = predict_response(base, Configuration(counts))
        d = int(np.argmin((limits - rt.per_class) / limits))
        best_j = -1
        best_r = np.inf
        for j in candidates:
            trial = counts.copy()
            trial[j] -= 1
            r_d = _class_response_terms(total_d[d], floor, trial).sum()
            if r_d < best_r:
                best_r = r_d
                best_j = j
        trial = counts.copy()
        trial[best_j] -= 1
        rt_trial = predict_response(base, Configuration(trial))
        if np.any(rt_trial.per_class > limits):
            # Increments are additive, so this station can never be shrunk.
            candidates.remove(best_j)
        else:
            counts = trial
            if not counts[best_j] - 1 > floor[best_j]:
                candidates.remove(best_j)
    return Configuration(counts), iters


def duplicated_baseline(rng, ulps=0):
    """Random baseline whose last stations copy earlier columns, exactly
    (ulps=0: marginals tie bit for bit) or scaled by up to `ulps` units in
    the last place (marginals differ by rounding noise only)."""
    base = random_baseline(rng, max_stations=6)
    K = base.num_stations
    src = rng.integers(0, K, size=rng.integers(1, K + 1))
    cols = np.concatenate([np.arange(K), src])
    demands = (base.total_demands() / base.ref_config.counts)[:, cols]
    demands[:, K:] *= 1.0 + rng.integers(-ulps, ulps + 1, size=src.size) * np.finfo(float).eps
    return make_snapshot(base.ref_config.counts[cols], base.rates.rates, demands)


def assert_same_decisions(base, sla, extra=0):
    """acquire, then release at the acquired configuration plus `extra`
    instances per station, match the reference in counts and iterations."""
    got, got_iters = acquire(base, sla)
    want, want_iters = reference_acquire(base, sla)
    np.testing.assert_array_equal(got.counts, want.counts)
    assert got_iters == want_iters
    rebased = rescale_snapshot(base, want.counts + extra)
    got, got_iters = release(rebased, sla)
    want, want_iters = reference_release(rebased, sla)
    np.testing.assert_array_equal(got.counts, want.counts)
    assert got_iters == want_iters


def capped(cap):
    """The planner's iteration cap set to `cap` inside a with block."""
    return mock.patch.object(planner, "DEFAULT_ITERATION_CAP", cap)


def composed_plan_step(base, sla):
    """plan_step from its public parts: acquire, re-reference the snapshot
    at the acquired configuration, release, predict at the result."""
    acquired, acq_iters = acquire(base, sla)
    rebased = rescale_snapshot(base, acquired)
    released, rel_iters = release(rebased, sla)
    rt = predict_response(rebased, released)
    feasible = bool(np.all(rt.per_class <= sla.max_response))
    return PlanOutcome(released, acq_iters, rel_iters, rt, feasible)


def assert_same_plan(base, sla, caps=False):
    """plan_step equals its composition: counts, both iteration counts,
    the prediction's bytes and feasibility.  With caps, every cap below the
    larger iteration count raises IterationCap in both."""
    want = composed_plan_step(base, sla)
    got = plan_step(base, sla)
    np.testing.assert_array_equal(got.new_config.counts, want.new_config.counts)
    assert got.acquire_iterations == want.acquire_iterations
    assert got.release_iterations == want.release_iterations
    for field in ("per_class", "per_class_station"):
        g, w = getattr(got.predicted_response, field), getattr(want.predicted_response, field)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert got.feasible == want.feasible
    if caps:
        top = max(want.acquire_iterations, want.release_iterations)
        for cap in range(top):
            with capped(cap):
                with pytest.raises(IterationCap) as raised:
                    plan_step(base, sla)
                with pytest.raises(IterationCap) as expected:
                    composed_plan_step(base, sla)
            assert str(raised.value) == str(expected.value)
        with capped(top):
            got = plan_step(base, sla)
        np.testing.assert_array_equal(got.new_config.counts, want.new_config.counts)


def brute_force_optimum(base, sla, cap_total):
    """Exhaustive search for the minimum-total feasible configuration with
    per-station counts bounded by the remaining total budget."""
    K = base.num_stations
    minfeas = counts_above(capacity_floor(base))
    best = None
    highs = [cap_total - (minfeas.sum() - minfeas[k]) for k in range(K)]
    for combo in itertools.product(*[range(minfeas[k], highs[k] + 1) for k in range(K)]):
        n = np.array(combo)
        if best is not None and n.sum() >= best.sum():
            continue
        try:
            rt = predict_response(base, n).per_class
        except InfeasibleConfiguration:
            continue
        if np.all(rt <= sla.max_response):
            best = n
    return best


class TestAcquire:
    def test_demo_loose_sla(self, demo):
        cfg, iters = acquire(demo, SlaThresholds([6.0, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [2, 1, 2])
        assert iters == 0  # preconditioning alone reaches feasibility
        np.testing.assert_allclose(predict_response(demo, cfg).per_class, [5.0, 4.0], rtol=1e-12)

    def test_demo_tight_sla_tie_break(self, demo):
        # Stations 1 and 3 reduce class 1 by the same amount; lowest index wins.
        cfg, iters = acquire(demo, SlaThresholds([4.5, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [3, 1, 2])
        assert iters == 1
        np.testing.assert_allclose(predict_response(demo, cfg).per_class, [4.0, 3.0], rtol=1e-12)

    def test_already_feasible(self, demo):
        rebased = rescale_snapshot(demo, [3, 2, 3])
        cfg, iters = acquire(rebased, SlaThresholds([6.0, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [3, 2, 3])
        assert iters == 0

    def test_unattainable_sla(self, demo):
        # Asymptotic floors are (4/3, 1); a threshold at the floor cannot be met.
        with pytest.raises(UnattainableSla) as exc:
            acquire(demo, SlaThresholds([4.0 / 3.0, 5.0]))
        assert 0 in exc.value.classes

    def test_soundness_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            base = random_baseline(rng)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.05, 3.0, size=base.num_classes))
            cfg, _ = acquire(base, sla)
            rt = predict_response(base, cfg).per_class
            assert np.all(rt <= sla.max_response + 1e-9)
            assert np.all(cfg.counts >= base.ref_config.counts)

    def test_greedy_picks_best_station(self, demo):
        # Recreate the recorded first step independently: with sla (4.5, 5)
        # the most violating class is 1 and the best increments are checked
        # by brute recomputation.
        sla = SlaThresholds([4.5, 5.0])
        start = np.array([2, 1, 2])
        r0 = predict_response(demo, start).per_class
        b = int(np.argmax((r0 - sla.max_response) / sla.max_response))
        assert b == 0
        drops = []
        for k in range(3):
            n = start.copy()
            n[k] += 1
            drops.append(r0[b] - predict_response(demo, n).per_class[b])
        assert int(np.argmax(drops)) == 0
        np.testing.assert_allclose(drops, [1.0, 0.5, 1.0], rtol=1e-12)


class TestRelease:
    def test_demo_three_removals(self, demo):
        rebased = rescale_snapshot(demo, [3, 2, 3])
        cfg, iters = release(rebased, SlaThresholds([6.0, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [2, 1, 2])
        assert iters == 3

    def test_blocked_by_threshold(self, demo):
        rebased = rescale_snapshot(demo, [3, 1, 2])
        cfg, iters = release(rebased, SlaThresholds([4.5, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [3, 1, 2])

    def test_already_pareto(self, demo):
        rebased = rescale_snapshot(demo, [2, 1, 2])
        cfg, iters = release(rebased, SlaThresholds([6.0, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [2, 1, 2])
        assert iters == 0

    def test_pareto_certificate_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            base = random_baseline(rng)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.1, 3.0, size=base.num_classes))
            start, _ = acquire(base, sla)
            rebased = rescale_snapshot(base, start)
            cfg, _ = release(rebased, sla)
            assert np.all(cfg.counts <= start.counts)
            floor = capacity_floor(base)
            for k in range(base.num_stations):
                if cfg.counts[k] < 2:
                    continue
                n = cfg.counts.copy()
                n[k] -= 1
                if np.any((base.total_demands().sum(axis=0) > 0) & (n <= floor)):
                    continue  # neighbor breaks the capacity floor: certificate holds
                rt = predict_response(base, n).per_class
                assert np.any(rt > sla.max_response), (
                    "feasible single-decrement neighbor found at station %d" % k)


@pytest.mark.parametrize("step", [acquire, release, plan_step])
def test_threshold_length(demo, step):
    with pytest.raises(ValueError, match="does not match C"):
        step(demo, SlaThresholds([6.0, 5.0, 5.0]))


class TestPlanStep:
    def test_demo_loose(self, demo):
        out = plan_step(demo, SlaThresholds([6.0, 5.0]))
        np.testing.assert_array_equal(out.new_config.counts, [2, 1, 2])
        np.testing.assert_allclose(out.predicted_response.per_class, [5.0, 4.0], rtol=1e-12)
        assert out.feasible

    def test_fixed_point(self, demo):
        out = plan_step(demo, SlaThresholds([6.0, 5.0]))
        rebased = rescale_snapshot(demo, out.new_config)
        again = plan_step(rebased, SlaThresholds([6.0, 5.0]))
        np.testing.assert_array_equal(again.new_config.counts, out.new_config.counts)
        assert again.acquire_iterations == 0
        assert again.release_iterations == 0

    def test_demo_tight(self, demo):
        out = plan_step(demo, SlaThresholds([4.5, 5.0]))
        np.testing.assert_array_equal(out.new_config.counts, [3, 1, 2])
        assert_same_plan(demo, SlaThresholds([4.5, 5.0]), caps=True)

    def test_release_without_candidates(self, demo):
        # Acquire stops at [2, 1, 2], one instance or less above the floor
        # [1.5, 2/3, 1.5] everywhere, so release has no candidate to try.
        sla = SlaThresholds([6.0, 5.0])
        assert release(rescale_snapshot(demo, [2, 1, 2]), sla)[1] == 0
        assert_same_plan(demo, sla, caps=True)

    # A reference that meets the thresholds sits above its floor; one at or
    # below it is refused by the table build.
    @pytest.mark.parametrize("ref, rates, demands, limits, stations", [
        ([1, 1, 1], DEMO_RATES, DEMO_DEMANDS, [6.0, 5.0], (0, 2)),  # floor [1.5, 2/3, 1.5]
        ([2, 1, 1], DEMO_RATES, DEMO_DEMANDS, [6.0, 5.0], (2,)),
        ([1], [1.0], [[1.0]], [5.0], (0,)),                          # floor exactly 1
    ])
    def test_release_at_or_below_floor(self, ref, rates, demands, limits, stations):
        base = make_snapshot([1] * len(ref), rates, demands)
        with pytest.raises(InfeasibleConfiguration) as exc:
            release(rescale_snapshot(base, ref), SlaThresholds(limits))
        assert exc.value.stations == stations

    def test_never_violates(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            base = random_baseline(rng)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.05, 3.0, size=base.num_classes))
            out = plan_step(base, sla)
            assert out.feasible
            assert np.all(out.predicted_response.per_class <= sla.max_response + 1e-9)

    def test_greedy_quality_gate(self):
        # Regression bound: greedy total within 1.3x of the brute-force optimum.
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 100:
            base = random_baseline(rng, max_classes=3, max_stations=4, max_ref=2)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.1, 2.5, size=base.num_classes))
            out = plan_step(base, sla)
            if out.new_config.total > 14:  # keep the search space below 1e5
                continue
            best = brute_force_optimum(base, sla, out.new_config.total)
            assert best is not None
            assert out.new_config.total <= 1.3 * best.sum() + 1e-9
            checked += 1


class TestEquivalence:
    """Decisions equal the reference planner's, iteration counts included."""

    @staticmethod
    def check(make_base, seed, draws):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            base = make_base(rng)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.02, 3.0, size=base.num_classes))
            assert_same_decisions(base, sla)
            assert_same_plan(base, sla)
            # Release again from above the acquired point, so long runs of
            # removals and rejections both occur.
            extra = rng.integers(0, 5, size=base.num_stations)
            assert_same_decisions(base, sla, extra)
            assert_same_plan(rescale_snapshot(base, acquire(base, sla)[0].counts + extra), sla)

    def test_random_baselines(self):
        self.check(random_baseline, 59, 320)

    def test_duplicated_station_columns(self):
        self.check(duplicated_baseline, 67, 150)

    def test_near_duplicated_station_columns(self):
        self.check(lambda rng: duplicated_baseline(rng, ulps=3), 71, 150)

    @staticmethod
    def check_caps(plan, reference, base, sla):
        """Below the reference's iteration count both raise IterationCap; at
        the count both return the same configuration."""
        want, want_iters = reference(base, sla)
        for cap in range(want_iters):
            with capped(cap), pytest.raises(IterationCap):
                plan(base, sla)
            with pytest.raises(IterationCap):
                reference(base, sla, cap)
        with capped(want_iters):
            got, got_iters = plan(base, sla)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got_iters == want_iters

    @pytest.mark.parametrize("make_base", [random_baseline, duplicated_baseline])
    def test_iteration_caps(self, make_base):
        rng = np.random.default_rng(73)
        for _ in range(20):
            base = make_base(rng)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.02, 3.0, size=base.num_classes))
            self.check_caps(acquire, reference_acquire, base, sla)
            assert_same_plan(base, sla, caps=True)
            # From above the acquired point, so most runs end in a bulk rejection.
            start = acquire(base, sla)[0].counts + rng.integers(0, 5, size=base.num_stations)
            self.check_caps(release, reference_release, rescale_snapshot(base, start), sla)
            assert_same_plan(rescale_snapshot(base, start), sla, caps=True)

    def test_thresholds_on_boundary(self):
        # Thresholds equal to the response after one removal, or one ulp
        # below it: the tables cannot tell these apart from a feasible
        # removal, so release must decide them by the exact trial.
        rng = np.random.default_rng(79)
        for _ in range(60):
            base = random_baseline(rng)
            counts = counts_above(capacity_floor(base)) + rng.integers(0, 4, size=base.num_stations)
            rebased = rescale_snapshot(base, counts)
            floor = capacity_floor(rebased)
            for j in np.flatnonzero(counts - 1 > floor):
                fewer = counts.copy()
                fewer[j] -= 1
                at = predict_response(rebased, fewer).per_class
                below = np.where(rebased.total_demands()[:, j] > 0, np.nextafter(at, 0), at)
                for limits in (at, below):
                    if np.any(limits <= rebased.total_demands().sum(axis=1)):
                        continue
                    sla = SlaThresholds(limits)
                    got, got_iters = release(rebased, sla)
                    want, want_iters = reference_release(rebased, sla)
                    np.testing.assert_array_equal(got.counts, want.counts)
                    assert got_iters == want_iters
                    assert_same_plan(rebased, sla)

    def test_release_demo_tie_break(self, demo):
        # From (3, 2, 3) the first removal takes station 1.  At (3, 1, 3)
        # stations 0 and 2 then cost class 0 exactly the same; station 0,
        # the lower index, must win.  The threshold 4.5 then blocks station
        # 2, so the tie's winner shows in the result.
        rebased = rescale_snapshot(demo, [3, 2, 3])
        total_d, floor = rebased.total_demands(), capacity_floor(rebased)
        assert (_class_response_terms(total_d[0], floor, np.array([2, 1, 3])).sum()
                == _class_response_terms(total_d[0], floor, np.array([3, 1, 2])).sum())
        cfg, iters = release(rebased, SlaThresholds([4.5, 5.0]))
        np.testing.assert_array_equal(cfg.counts, [2, 1, 3])
        assert iters == 3


def blocked_fixture(duplicate=False):
    """Two classes; class 0 has the least slack.  Stations 0 and 2 are its
    cheapest removals, but class 1 loads both heavily, so removing either
    breaks class 1's threshold; station 1 only class 0 uses, and one
    removal there fits.  With duplicate, station 3 copies station 2's
    column and count, so it ties station 2 bit for bit."""
    cols = [0, 1, 2, 2] if duplicate else [0, 1, 2]
    demands = np.array([[0.01, 0.1, 0.0075], [0.5, 0.0, 0.5]])[:, cols]
    base = make_snapshot(np.array([2, 5, 2, 2])[cols], [1.0, 0.5], demands)
    return base, SlaThresholds([0.64, 4.4] if duplicate else [0.62, 3.0])


class TestReleaseDrops:
    """A rejected trial drops every candidate the tables call doomed, one
    iteration each; counts, iterations and every cap match the reference."""

    @staticmethod
    def removal_responses(base):
        counts = base.ref_config.counts
        out = []
        for j in range(base.num_stations):
            fewer = counts.copy()
            fewer[j] -= 1
            out.append(predict_response(base, fewer).per_class)
        return np.array(out)

    def test_drop_mid_release(self):
        # The first trial, station 2, is rejected; station 0 is doomed and
        # dropped with it, station 1 stays live and is then accepted once.
        base, sla = blocked_fixture()
        limits = sla.max_response
        rt = predict_response(base, base.ref_config).per_class
        slack = (limits - rt) / limits
        assert int(np.argmin(slack)) == 0
        grown = self.removal_responses(base)
        assert np.all(grown[[0, 2], 1] > limits[1] * 1.01)
        assert np.all(grown[1] <= limits)
        cfg, iters = release(base, sla)
        np.testing.assert_array_equal(cfg.counts, [2, 4, 2])
        assert iters == 4  # reject 2, drop 0, accept 1, reject 1
        TestEquivalence.check_caps(release, reference_release, base, sla)

    def test_doomed_twin_in_tie_window(self):
        # Stations 2 and 3 tie on class 0's marginal; the trial at 2 is
        # rejected, and its twin 3, doomed, is dropped without a trial.
        base, sla = blocked_fixture(duplicate=True)
        total_d = base.total_demands()
        np.testing.assert_array_equal(total_d[:, 2], total_d[:, 3])
        grown = self.removal_responses(base)
        assert np.all(grown[[0, 2, 3], 1] > sla.max_response[1] * 1.01)
        cfg, iters = release(base, sla)
        np.testing.assert_array_equal(cfg.counts, [2, 4, 2, 2])
        assert iters == 5
        TestEquivalence.check_caps(release, reference_release, base, sla)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_violating_reference_unchanged(self, duplicate):
        # A reference that already breaks a threshold: every removal only
        # makes it worse, so each candidate costs one iteration and the
        # counts come back as they were.
        base, sla = blocked_fixture(duplicate)
        sla = SlaThresholds(sla.max_response * [0.95, 1.0])
        assert np.any(predict_response(base, base.ref_config).per_class > sla.max_response)
        cfg, iters = release(base, sla)
        np.testing.assert_array_equal(cfg.counts, base.ref_config.counts)
        assert iters == base.num_stations
        TestEquivalence.check_caps(release, reference_release, base, sla)


class TestTieBound:
    """release sizes its tie window by per_class[d] * (1 + MARGIN) instead
    of class d's exact response sum.  The window then holds every marginal
    the exact one would only if the bound holds at every state release
    visits: every configuration the reference planner evaluates on its way
    (accepted states and rejected trials), for every class."""

    @pytest.mark.parametrize("make_base, seed", [(random_baseline, 83),
                                                 (duplicated_baseline, 89)])
    def test_bound_holds_on_release_path(self, make_base, seed, monkeypatch):
        seen, predict = [], predict_response

        def recording(base, target):
            seen.append(target.counts)
            return predict(base, target)

        monkeypatch.setitem(globals(), "predict_response", recording)
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(60):
            base = make_base(rng)
            floors = base.total_demands().sum(axis=1)
            sla = SlaThresholds(floors * rng.uniform(1.02, 3.0, size=base.num_classes))
            start = counts_above(capacity_floor(base)) + rng.integers(0, 6, size=base.num_stations)
            rebased = rescale_snapshot(base, start)
            seen.clear()
            reference_release(rebased, sla)
            total_d, floor = rebased.total_demands(), capacity_floor(rebased)
            for counts in seen:
                per_class = residence_table(total_d, floor, counts).dot(counts.astype(float))
                for d in range(rebased.num_classes):
                    exact = np.add.reduce(_class_response_terms(total_d[d], floor, counts))
                    assert exact <= per_class[d] * (1.0 + MARGIN)
                    checked += 1
        assert checked > 1000


class TestAcceptanceFixtureOptimality:
    def test_demo_global_optimum(self, demo):
        sla = SlaThresholds([6.0, 5.0])
        best = brute_force_optimum(demo, sla, cap_total=8)
        np.testing.assert_array_equal(best, [2, 1, 2])
        assert best.sum() == 5


class TestStartTable:
    """plan_step lifts the counts above the floor before building its
    residence table."""

    def test_floor_beyond_exact_counts(self):
        # At a floor of 1e16 the lifted count floor + 1 rounds back onto the
        # floor in float64: infeasible, as residence_table reports it.
        base = make_snapshot([1], [1e8], [[1e8]])
        with pytest.raises(InfeasibleConfiguration):
            plan_step(base, SlaThresholds([1e9]))

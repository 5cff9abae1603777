import numpy as np
import pytest

from qnas import cli, model, planner, telemetry
from qnas.errors import OverloadedStation, UnattainableSla
from qnas.model import Configuration, DemandMatrix
from qnas.planner import SlaThresholds
from qnas.simkit import ScenarioSpec, des, harness, run_scenario, subseed, summarize
from qnas.telemetry import NoiseSpec
from qnas.workload import WorkloadLaw

from conftest import DEMO_DEMANDS


def demo_spec(horizon=3, sla=(6.0, 5.0)):
    law = WorkloadLaw([2.0, 1.0], [0.0, 0.0], [10.0, 10.0], [0.0, 0.0])
    return ScenarioSpec(
        num_classes=2, num_stations=3, horizon=horizon,
        workload=law, demands=DemandMatrix(DEMO_DEMANDS),
        sla=SlaThresholds(list(sla)),
    )


class TestRunScenario:
    def test_demo_constant(self):
        rec = run_scenario(demo_spec())
        np.testing.assert_array_equal(rec.counts, [[2, 1, 2]] * 3)
        s = rec.summary
        assert s.instances_min == s.instances_max == 5
        assert s.dynamic_static_ratio == pytest.approx(1.0)

    def test_constant_workload_fixed_point(self):
        rec = run_scenario(demo_spec(horizon=10))
        assert len({tuple(n) for n in rec.counts[1:].tolist()}) == 1

    def test_unattainable_sla_reports_step(self):
        spec = demo_spec(sla=(1.0, 5.0))
        with pytest.raises(UnattainableSla) as exc:
            run_scenario(spec)
        assert "step 0" in str(exc.value)

    def test_no_violations_with_noise_off(self):
        spec = ScenarioSpec(num_classes=3, num_stations=5, horizon=50, master_seed=5)
        rec = run_scenario(spec)
        assert np.all(rec.predicted_response <= rec.thresholds.max_response + 1e-9)

    def test_allocation_tracks_load(self):
        spec = ScenarioSpec(num_classes=5, num_stations=10, horizon=200, master_seed=7)
        rec = run_scenario(spec)
        assert np.corrcoef(rec.rates.sum(axis=1), rec.counts.sum(axis=1))[0, 1] > 0

    def test_deterministic(self):
        spec = ScenarioSpec(num_classes=3, num_stations=4, horizon=30, master_seed=11)
        a = run_scenario(spec)
        b = run_scenario(spec)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.summary == b.summary

    def test_overloaded_start_recovers(self):
        # All-ones start under the bottleneck fixture's load is overloaded;
        # the harness measures at the minimum feasible configuration instead.
        rec = run_scenario(demo_spec(horizon=1))
        np.testing.assert_array_equal(rec.counts, [[2, 1, 2]])

    def test_noise_mode_still_runs(self):
        spec = ScenarioSpec(num_classes=2, num_stations=3, horizon=20, master_seed=13,
                            noise=NoiseSpec(0.05, 3))
        rec = run_scenario(spec)
        assert len(rec.counts) == 20

    def test_poisson_arrivals_mode(self):
        spec = ScenarioSpec(num_classes=2, num_stations=3, horizon=20, master_seed=17,
                            poisson_window=1000.0)
        rec = run_scenario(spec)
        assert len(rec.counts) == 20


class TestSeams:
    """perfbench times the loop by patching harness.observe,
    harness.plan_step and telemetry.make_snapshot by name, so the loop must
    reach each through its module global."""

    def test_perfbench_names_exist(self):
        # Every function perfbench calls or patches by name; a missing one
        # fails its run, traced or not.
        seams = {cli: ["main", "run_scenario", "write_csv"],
                 harness: ["gen_demands", "default_law", "gen_arrival_series",
                           "default_thresholds", "observe", "plan_step"],
                 telemetry: ["make_snapshot"],
                 planner: ["acquire", "release", "rescale_snapshot", "predict_response"],
                 model: ["capacity_floor", "make_snapshot", "predict_response",
                         "rescale_snapshot"],
                 des: ["des_loop", "des_validate"]}
        missing = ["%s.%s" % (module.__name__, name) for module, names in seams.items()
                   for name in names if not callable(getattr(module, name, None))]
        assert missing == []

    def test_each_seam_once_per_step(self, monkeypatch):
        events = []

        def wrap(module, name):
            inner = getattr(module, name)

            def recorded(*args, **kwargs):
                try:
                    out = inner(*args, **kwargs)
                except OverloadedStation:
                    events.append((name + " overloaded", args))
                    raise
                events.append((name, args))
                return out
            monkeypatch.setattr(module, name, recorded)

        wrap(harness, "observe")
        wrap(harness, "plan_step")
        wrap(telemetry, "make_snapshot")
        spec = ScenarioSpec(num_classes=5, num_stations=10, horizon=100, master_seed=1,
                            noise=NoiseSpec(0.05, 1001))
        rec = run_scenario(spec)
        steps, step, measured_at = [], [], []
        for e, args in events:
            if e.startswith("observe") and len(measured_at) == len(steps):
                measured_at.append(args[2].counts)  # the step's first observe
            step.append(e)
            if e == "plan_step":
                steps.append(step)
                step = []
        assert step == [] and len(steps) == spec.horizon
        # make_snapshot reports inside observe, so it comes first.
        plain = ["make_snapshot", "observe", "plan_step"]
        overloaded = ["observe overloaded"] + plain
        assert all(s in (plain, overloaded) for s in steps)
        assert overloaded in steps and plain in steps
        # Step 0 is measured at the all-ones start, step t+1 at what step t
        # chose: the configuration row t serves the interval of rates row t+1.
        np.testing.assert_array_equal(measured_at, [np.ones(10), *rec.counts[:-1]])

    def test_series_checked_before_step_zero(self, monkeypatch):
        real = harness.gen_arrival_series

        def with_nan(law, horizon, seed):
            series = real(law, horizon, seed)
            series[-1, 0] = np.nan
            return series

        def never(*args):
            raise AssertionError("observe called")
        monkeypatch.setattr(harness, "gen_arrival_series", with_nan)
        monkeypatch.setattr(harness, "observe", never)
        spec = ScenarioSpec(num_classes=2, num_stations=3, horizon=5, master_seed=3)
        with pytest.raises(ValueError, match="arrival rates"):
            run_scenario(spec)

    def test_step_rates_read_only(self):
        # Every record array has one row per step, and none can be written.
        poisson = ScenarioSpec(num_classes=2, num_stations=3, horizon=4, master_seed=3,
                               poisson_window=50.0)
        for spec in (poisson, demo_spec()):
            rec = run_scenario(spec)
            T, C, K = spec.horizon, spec.num_classes, spec.num_stations
            arrays = {"rates": ((T, C), np.float64), "counts": ((T, K), np.int64),
                      "predicted_response": ((T, C), np.float64),
                      "acquire_iterations": ((T,), np.int64),
                      "release_iterations": ((T,), np.int64)}
            for name, (shape, dtype) in arrays.items():
                a = getattr(rec, name)
                assert (a.shape, a.dtype) == (shape, dtype), name
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1


class TestScenarioSpec:
    # A fractional or boolean size, or one beyond int64, would pass the
    # range checks and fail inside numpy once the run starts.
    @pytest.mark.parametrize("sizes", [(2.5, 3, 4), (2, 3.5, 4), (2, 3, 4.5), (True, 3, 4),
                                       (2, True, 4), (2, 3, True), (2 ** 63, 3, 4),
                                       (2, int("9" * 400), 4), (2, 3, 2 ** 63)])
    def test_sizes_must_be_integers(self, sizes):
        with pytest.raises(ValueError, match="must be an integer"):
            ScenarioSpec(*sizes)

    # Each input must fit C=2 classes and K=3 stations; a misfit is refused
    # at construction, not broadcast or left to fail mid-run.
    @pytest.mark.parametrize("kwargs", [
        {"demands": DemandMatrix([[0.5], [0.5]])},
        {"sla": SlaThresholds([6.0])},
        {"workload": WorkloadLaw([2.0], [0.0], [10.0], [0.0])},
        {"initial_config": Configuration([1, 1])},
    ], ids=["demands", "sla", "workload", "initial_config"])
    def test_shape_mismatch(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(num_classes=2, num_stations=3, horizon=3, **kwargs)


class TestSummarize:
    def test_arithmetic_recomputable(self):
        spec = ScenarioSpec(num_classes=3, num_stations=4, horizon=40, master_seed=19)
        rec = run_scenario(spec)
        totals = rec.counts.sum(axis=1).tolist()
        acq = rec.acquire_iterations.tolist()
        rel = rec.release_iterations.tolist()
        s = rec.summary
        assert s.instances_min == min(totals)
        assert s.instances_max == max(totals)
        assert s.instances_total == sum(totals)
        assert s.static_total == len(totals) * max(totals)
        assert s.dynamic_static_ratio == pytest.approx(sum(totals) / s.static_total)
        assert s.acquire_max == max(acq)
        assert s.acquire_avg == pytest.approx(np.mean(acq))
        assert s.release_max == max(rel)
        assert s.release_avg == pytest.approx(np.mean(rel))
        assert 0 < s.dynamic_static_ratio <= 1


class TestSubseed:
    def test_stable(self):
        assert subseed(42, "workload") == subseed(42, "workload")

    def test_distinct_components(self):
        assert subseed(42, "workload") != subseed(42, "demands")

    def test_distinct_masters(self):
        assert subseed(1, "workload") != subseed(2, "workload")

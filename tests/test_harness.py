import numpy as np
import pytest

from qnas import telemetry
from qnas.errors import OverloadedStation, UnattainableSla
from qnas.model import Configuration, DemandMatrix
from qnas.planner import SlaThresholds
from qnas.simkit import ScenarioSpec, harness, run_scenario, subseed, summarize
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
        for step in rec.steps:
            np.testing.assert_array_equal(step.config_after.counts, [2, 1, 2])
        s = rec.summary
        assert s.instances_min == s.instances_max == 5
        assert s.dynamic_static_ratio == pytest.approx(1.0)

    def test_constant_workload_fixed_point(self):
        rec = run_scenario(demo_spec(horizon=10))
        configs = {tuple(s.config_after.counts) for s in rec.steps[1:]}
        assert len(configs) == 1

    def test_unattainable_sla_reports_step(self):
        spec = demo_spec(sla=(1.0, 5.0))
        with pytest.raises(UnattainableSla) as exc:
            run_scenario(spec)
        assert "step 0" in str(exc.value)

    def test_no_violations_with_noise_off(self):
        spec = ScenarioSpec(num_classes=3, num_stations=5, horizon=50, master_seed=5)
        rec = run_scenario(spec)
        for s in rec.steps:
            assert np.all(s.predicted_response <= s.thresholds + 1e-9)

    def test_allocation_tracks_load(self):
        spec = ScenarioSpec(num_classes=5, num_stations=10, horizon=200, master_seed=7)
        rec = run_scenario(spec)
        lam = np.array([s.rates.sum() for s in rec.steps])
        total = np.array([s.total_instances for s in rec.steps], dtype=float)
        assert np.corrcoef(lam, total)[0, 1] > 0

    def test_deterministic(self):
        spec = ScenarioSpec(num_classes=3, num_stations=4, horizon=30, master_seed=11)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert [tuple(s.config_after.counts) for s in a.steps] == \
               [tuple(s.config_after.counts) for s in b.steps]
        assert a.summary == b.summary

    def test_overloaded_start_recovers(self):
        # All-ones start under the bottleneck fixture's load is overloaded;
        # the harness measures at the minimum feasible configuration instead.
        rec = run_scenario(demo_spec(horizon=1))
        np.testing.assert_array_equal(rec.steps[0].config_after.counts, [2, 1, 2])

    def test_noise_mode_still_runs(self):
        spec = ScenarioSpec(num_classes=2, num_stations=3, horizon=20, master_seed=13,
                            noise=NoiseSpec("sampled", 0.05, 3))
        rec = run_scenario(spec)
        assert len(rec.steps) == 20

    def test_poisson_arrivals_mode(self):
        spec = ScenarioSpec(num_classes=2, num_stations=3, horizon=20, master_seed=17,
                            window=1000.0, poisson_arrivals=True)
        rec = run_scenario(spec)
        assert len(rec.steps) == 20


class TestSeams:
    """perfbench times the loop by patching harness.observe,
    harness.plan_step and telemetry.make_snapshot by name, so the loop must
    reach each through its module global."""

    def test_each_seam_once_per_step(self, monkeypatch):
        events = []

        def wrap(module, name):
            inner = getattr(module, name)

            def recorded(*args, **kwargs):
                try:
                    out = inner(*args, **kwargs)
                except OverloadedStation:
                    events.append(name + " overloaded")
                    raise
                events.append(name)
                return out
            monkeypatch.setattr(module, name, recorded)

        wrap(harness, "observe")
        wrap(harness, "plan_step")
        wrap(telemetry, "make_snapshot")
        spec = ScenarioSpec(num_classes=5, num_stations=10, horizon=100, master_seed=1,
                            noise=NoiseSpec("sampled", 0.05, 1001))
        run_scenario(spec)
        steps, step = [], []
        for e in events:
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
        spec = ScenarioSpec(num_classes=2, num_stations=3, horizon=4, master_seed=3,
                            window=50.0, poisson_arrivals=True)
        for s in run_scenario(spec).steps + run_scenario(demo_spec()).steps:
            with pytest.raises(ValueError):
                s.rates[0] = 1.0


class TestScenarioSpec:
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
        totals = [s.total_instances for s in rec.steps]
        acq = [s.acquire_iterations for s in rec.steps]
        rel = [s.release_iterations for s in rec.steps]
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

"""The three benchmark workloads: input generation, one timed operation,
and the checks on its outputs.

plan-wide and plan-noisy drive `qnas.cli.main` (`run` and `sweep`); one
operation is one CLI call.  oracle calls `des_validate` directly; one
operation is one validation round, a PS run then an FCFS run.
"""

import contextlib
import hashlib
import json
import os
import statistics
import time

import numpy as np

import qnas.cli as cli
import qnas.planner as planner
import qnas.simkit.des as des
import qnas.simkit.harness as harness
import qnas.telemetry as telemetry
from qnas.errors import InfeasibleConfiguration, QnasError
from qnas.model import capacity_floor, make_snapshot, predict_response, rescale_snapshot

from spans import patched

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Input sizes.  "full" is what the benchmark measures; "tiny" only checks
# the plumbing in the self-tests.
SIZES = {
    "full": {
        # Heaviest cell of the 27-cell C x K acceptance grid (test_06).
        "plan-wide": {"C": 20, "K": 60, "horizon": 200},
        # 5% relative noise is the level test_noise_mode_still_runs uses.
        "plan-noisy": {"C": 5, "K": 10, "horizon": 100, "cells": 48, "relative_sd": 0.05},
        # At 6e4 time units the per-class response error has a standard
        # deviation of about 1.3% under PS, so the 5% gate holds for any seed
        # with overwhelming probability; 1.5e4 missed it on 2 of 12 seeds.
        "oracle": {"run_length": 6e4},
    },
    "tiny": {
        "plan-wide": {"C": 3, "K": 5, "horizon": 6},
        "plan-noisy": {"C": 3, "K": 4, "horizon": 6, "cells": 3, "relative_sd": 0.05},
        "oracle": {"run_length": 2e3},
    },
}

# Tier-1 accuracy gates of the DES against the analytic model.
RESPONSE_RTOL = 0.05
UTILIZATION_ATOL = 0.02
# Relative slack when comparing a ground-truth response with its threshold:
# with noise off the observed snapshot equals the truth up to rounding.
TRUTH_RTOL = 1e-9
PARETO_SPOT_STEPS = 8


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _percentile(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=float), q)) if samples else float("nan")


class PlanWorkload:
    """plan-wide (`qnas run`, noise off) or plan-noisy (`qnas sweep`, noisy)."""

    def __init__(self, name, seed, size, workdir):
        self.name = name
        p = SIZES[size][name]
        rng = np.random.default_rng(seed)
        if name == "plan-wide":
            command = "run"
            config = {"C": p["C"], "K": p["K"], "horizon": p["horizon"],
                      "master_seed": int(rng.integers(2**31))}
        else:
            command = "sweep"
            config = {"C_values": [p["C"]], "K_values": [p["K"]], "horizon": p["horizon"],
                      "seeds": [int(s) for s in rng.integers(2**31, size=p["cells"])],
                      "noise": {"mode": "sampled", "relative_sd": p["relative_sd"],
                                "seed": int(rng.integers(2**31))}}
        self.config = config
        self.out_dir = os.path.join(workdir, "out")
        path = os.path.join(workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        self.argv = [command, "--config", path, "--out", self.out_dir, "--quiet"]
        self.ops = []
        self.errors = []

    # -- one operation ------------------------------------------------------

    def run_op(self, tracer=None):
        scenarios = []
        latencies = []
        run_scenario, gen_demands, plan_step = cli.run_scenario, harness.gen_demands, harness.plan_step

        def capture_run_scenario(spec):
            scenario = {"spec": spec, "demands": spec.demands, "steps": [], "error": None}
            scenarios.append(scenario)
            scenario["start"] = time.perf_counter()
            try:
                return run_scenario(spec)
            except QnasError as exc:
                scenario["error"] = type(exc).__name__
                raise
            finally:
                scenario["wall"] = time.perf_counter() - scenario["start"]

        def capture_gen_demands(law):
            demands = gen_demands(law)
            scenarios[-1]["demands"] = demands
            return demands

        def timed_plan_step(base, sla, *args, **kwargs):
            t0 = time.perf_counter()
            outcome = plan_step(base, sla, *args, **kwargs)
            latencies.append((t0, time.perf_counter() - t0))
            scenarios[-1]["steps"].append((base, sla, outcome))
            return outcome

        capture = [(cli, "run_scenario", capture_run_scenario),
                   (harness, "gen_demands", capture_gen_demands),
                   (harness, "plan_step", timed_plan_step)]
        with patched(capture):
            with patched(self._trace_patches(tracer) if tracer else []):
                start = time.perf_counter()
                with _span(tracer, "cli.main"):
                    rc = cli.main(self.argv)
                wall = time.perf_counter() - start

        done = sum(len(s["steps"]) for s in scenarios)
        lost = sum(s["spec"].horizon - len(s["steps"]) for s in scenarios if s["error"])
        digest = hashlib.sha256()
        for s in scenarios:
            digest.update(repr(s["error"]).encode())
            for _, _, out in s["steps"]:
                digest.update(out.new_config.counts.tobytes())
                digest.update(b"%d,%d;" % (out.acquire_iterations, out.release_iterations))
        op = {"start": start, "wall": wall, "speed": 1.0, "latencies": latencies,
              "done": done, "lost": lost,
              "scenario_runs": [(s["start"], s["wall"], len(s["steps"]))
                                for s in scenarios if not s["error"]],
              "traced": tracer is not None, "digest": digest.hexdigest()}
        if not self.ops:
            self._check_first(rc, scenarios)
            op["instance_steps"] = sum(out.new_config.total
                                       for s in scenarios for _, _, out in s["steps"])
            op["true_violations"] = self._true_violations(scenarios)
        elif op["digest"] != self.ops[0]["digest"]:
            self.errors.append("operation %d decided differently from operation 0 (traced=%s)"
                               % (len(self.ops), op["traced"]))
        self.ops.append(op)
        return op

    @staticmethod
    def _trace_patches(t):
        def on_iters(name):
            def record(args, result):
                t.calls[name + ".iters"] += result[1]
                if name == "planner.release":
                    t.calls["planner.release.removed"] += args[0].ref_config.total - result[0].total
            return record

        gen = "workload.gen"
        return [
            (cli, "run_scenario", t.wrap(cli.run_scenario, "harness.run_scenario")),
            (cli, "write_csv", t.wrap(cli.write_csv, "cli.write_csv")),
            (harness, "gen_demands", t.wrap(harness.gen_demands, gen)),
            (harness, "default_law", t.wrap(harness.default_law, gen)),
            (harness, "gen_arrival_series", t.wrap(harness.gen_arrival_series, gen)),
            (harness, "default_thresholds", t.wrap(harness.default_thresholds, gen)),
            (harness, "observe", t.wrap(harness.observe, "telemetry.observe")),
            (telemetry, "make_snapshot", t.wrap(telemetry.make_snapshot, "model.make_snapshot")),
            (harness, "plan_step", t.wrap(harness.plan_step, "planner.plan_step")),
            (planner, "acquire", t.wrap(planner.acquire, "planner.acquire",
                                        on_iters("planner.acquire"))),
            (planner, "release", t.wrap(planner.release, "planner.release",
                                        on_iters("planner.release"))),
            (planner, "rescale_snapshot", t.wrap(planner.rescale_snapshot,
                                                 "model.rescale_snapshot")),
            (planner, "predict_response", t.wrap(planner.predict_response,
                                                 "model.predict_response")),
        ]

    # -- checks ---------------------------------------------------------------

    def _check_first(self, rc, scenarios):
        """Full checks on the first operation; later ones must match its digest."""
        err = self.errors
        aborted = [s for s in scenarios if s["error"]]
        expected_rc = cli.EXIT_UNATTAINABLE if self.argv[0] == "run" and aborted else cli.EXIT_OK
        if rc != expected_rc:
            err.append("qnas %s returned %r, expected %r" % (self.argv[0], rc, expected_rc))
        for s in aborted:
            if s["error"] != "UnattainableSla":
                err.append("scenario raised %s" % s["error"])
        for i, s in enumerate(scenarios):
            for t, (_, sla, out) in enumerate(s["steps"]):
                if not (out.feasible and np.all(out.predicted_response.per_class <= sla.max_response)):
                    err.append("scenario %d step %d: prediction above its threshold" % (i, t))
        if self.name == "plan-wide":
            if aborted:
                err.append("plan-wide scenario aborted: %s" % aborted[0]["error"])
            steps = scenarios[0]["steps"] if scenarios else []
            spots = np.linspace(0, len(steps) - 1, PARETO_SPOT_STEPS).astype(int) if steps else []
            for t in np.unique(spots):
                if not self._pareto(*steps[t]):
                    err.append("step %d: an instance can be removed and every threshold still holds" % t)
            self._check_timeseries(scenarios)
        else:
            self._check_sweep(scenarios)

    @staticmethod
    def _pareto(base, sla, outcome):
        """No single instance of the decision can be removed without making
        it infeasible or breaking a threshold (the planner's own model)."""
        acquired, _ = planner.acquire(base, sla)
        rebased = rescale_snapshot(base, acquired)
        floor = capacity_floor(rebased)
        loaded = rebased.total_demands().sum(axis=0) > 0
        counts = outcome.new_config.counts
        for k in range(counts.shape[0]):
            if counts[k] < 2:
                continue
            n = counts.copy()
            n[k] -= 1
            if np.any(loaded & (n <= floor)):
                continue
            if not np.any(predict_response(rebased, n).per_class > sla.max_response):
                return False
        return True

    @staticmethod
    def _true_violations(scenarios):
        """Completed steps whose decision misses a threshold under the true
        demands and rates; an infeasible decision counts as a miss."""
        missed = 0
        for s in scenarios:
            for base, sla, out in s["steps"]:
                truth = make_snapshot(np.ones(base.num_stations, dtype=np.int64),
                                      base.rates, s["demands"])
                try:
                    r = predict_response(truth, out.new_config).per_class
                except InfeasibleConfiguration:
                    missed += 1
                    continue
                missed += bool(np.any(r > sla.max_response * (1.0 + TRUTH_RTOL)))
        return missed

    def _read_csv(self, name):
        with open(os.path.join(self.out_dir, name)) as fh:
            lines = fh.read().splitlines()
        header = lines[1].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[2:]]

    def _check_timeseries(self, scenarios):
        if not scenarios or scenarios[0]["error"]:
            return
        rows = self._read_csv("timeseries.csv")
        totals = [out.new_config.total for _, _, out in scenarios[0]["steps"]]
        if [int(r["total_instances"]) for r in rows] != totals:
            self.errors.append("timeseries.csv total_instances differ from the decisions")

    def _check_sweep(self, scenarios):
        rows = self._read_csv("sweep.csv")
        if len(rows) != len(scenarios):
            self.errors.append("sweep.csv has %d rows for %d cells" % (len(rows), len(scenarios)))
            return
        for row, s in zip(rows, scenarios):
            if s["error"]:
                ok = row["inst_total"] == "ERROR"
            else:
                ok = int(row["inst_total"]) == sum(out.new_config.total for _, _, out in s["steps"])
            if not ok:
                self.errors.append("sweep.csv row for seed %s disagrees with the run" % row["seed"])

    # -- results ---------------------------------------------------------------

    # Source of each end-to-end metric in `named()`.
    END_TO_END = {"throughput_per_s": "steps_per_s", "latency_p50_ms": "decide_p50_ms",
                  "latency_p95_ms": "decide_p95_ms"}

    TIMED = ("steps_per_s", "sweep_steps_per_s", "decide_p50_ms", "decide_p95_ms")

    def named(self, reference_speed=True):
        """Workload-specific metrics as (value, unit, sample count); times
        at the reference CPU speed (refclock.py), or in wall time."""
        untraced = [op for op in self.ops if not op["traced"]]
        key = "reference" if reference_speed else "wall_clock"
        lat = [x * 1e3 for op in untraced for x in op[key]["latencies"]]
        rates = [r for op in untraced for r in op[key]["rates"]]
        speed = {id(op): op["speed"] if reference_speed else 1.0 for op in untraced}
        first = self.ops[0]
        return {
            # Median over completed scenario runs: a rare noisy cell that
            # allocates tens of thousands of instances can take half a
            # sweep's time, and it shows in instance_steps and
            # sweep_steps_per_s instead; an aborted run amortises its set-up
            # over fewer steps, and its lost steps show in failed_share.
            "steps_per_s": (statistics.median(rates) if rates else 0.0, "steps/s", len(rates)),
            "sweep_steps_per_s": (sum(op["done"] for op in untraced)
                                  / sum(op["wall"] * speed[id(op)] for op in untraced),
                                  "steps/s", len(untraced)),
            "decide_p50_ms": (_percentile(lat, 50), "ms", len(lat)),
            "decide_p95_ms": (_percentile(lat, 95), "ms", len(lat)),
            "instance_steps": (first["instance_steps"], "instances*steps", first["done"]),
            "true_violation_share": (first["true_violations"] / max(first["done"], 1),
                                     "fraction", first["done"]),
        }

    def counts(self):
        """(attempted, failed): scheduled control steps of the inputs, and
        those lost to aborts.  Each input counts once: later operations
        repeat it for timing and must decide identically (digest check), so
        the counts depend on the seed only, not on how many operations fit
        in the run."""
        first = self.ops[0]
        return first["done"] + first["lost"], first["lost"]

    def calibrate(self, probe):
        """Each operation's, decision's and scenario run's time, in wall
        time and at the reference speed of the probe's samples around it."""
        for op in self.ops:
            op["speed"] = probe.speed(op["start"], op["start"] + op["wall"])
            op["wall_clock"] = {"latencies": [d for _, d in op["latencies"]],
                                "rates": [n / w for _, w, n in op["scenario_runs"]]}
            op["reference"] = {
                "latencies": [d * probe.speed(s, s + d) for s, d in op["latencies"]],
                "rates": [n / (w * probe.speed(s, s + w)) for s, w, n in op["scenario_runs"]]}

    def check_final(self):
        if self.name == "plan-wide" and self.ops and self.ops[0]["true_violations"]:
            self.errors.append("%d decision(s) miss a threshold under the true demands"
                               % self.ops[0]["true_violations"])
        return self.errors


class OracleWorkload:
    """des_validate on the demo network, PS then FCFS, against the model."""

    DISCIPLINES = ("ps", "fcfs")

    def __init__(self, name, seed, size, workdir):
        self.name = name
        with open(os.path.join(ROOT, "configs", "validate_demo.json")) as fh:
            cfg = json.load(fh)
        self.base = make_snapshot(cfg["ref_config"], cfg["rates"], cfg["demands"])
        self.target = np.asarray(cfg["targets"][0], dtype=np.int64)
        at_target = rescale_snapshot(self.base, self.target)
        self.analytic_response = predict_response(at_target, self.target).per_class
        self.analytic_util = at_target.utilizations_ref.utilizations
        self.run_length = SIZES[size][name]["run_length"]
        # des_validate needs a seed below 2**32 without numba (ROADMAP O1).
        rng = np.random.default_rng(seed)
        self.seeds = {d: int(rng.integers(2**32)) for d in self.DISCIPLINES}
        self.ops = []
        self.errors = []

    def run_op(self, tracer=None):
        runs = {}
        for disc in self.DISCIPLINES:
            # The event-loop kernel is timed only while the DES has one; a
            # kernel-free DES reports des_kernel.* as 0.
            kernel = ([(des, "des_loop", tracer.wrap(des.des_loop, "des_kernel.%s.des_loop" % disc))]
                      if tracer and hasattr(des, "des_loop") else [])
            start = time.perf_counter()
            try:
                with patched(kernel), _span(tracer, "des.%s.validate" % disc):
                    result = des.des_validate(self.base, self.target, disc,
                                              run_length=self.run_length, seed=self.seeds[disc])
            except Exception as exc:  # a raising DES run is a failed operation
                runs[disc] = {"start": start, "wall": time.perf_counter() - start, "speed": 1.0,
                              "ok": False, "error": repr(exc)}
                continue
            wall = time.perf_counter() - start
            window = result.run_length - result.warmup
            completions = int(result.completions.sum())
            visits = int(round(float(result.visit_rates.sum()) * window))
            resp_ok = bool(np.all(np.abs(result.response - self.analytic_response)
                                  <= RESPONSE_RTOL * self.analytic_response))
            util_ok = bool(np.all(np.abs(result.utilization - self.analytic_util)
                                  <= UTILIZATION_ATOL))
            runs[disc] = {"start": start, "wall": wall, "speed": 1.0,
                          "completions": completions, "events": completions + visits,
                          "ok": resp_ok and util_ok, "response": result.response.tolist(),
                          "utilization": result.utilization.tolist()}
        op = {"start": runs[self.DISCIPLINES[0]]["start"],
              "wall": sum(r["wall"] for r in runs.values()), "speed": 1.0, "runs": runs,
              "traced": tracer is not None}
        for disc, r in runs.items():
            if not r["ok"]:
                self.errors.append("%s: %s" % (disc, r.get("error") or
                                   "response %s / utilization %s outside the gate around %s / %s"
                                   % (r["response"], r["utilization"],
                                      self.analytic_response.tolist(), self.analytic_util.tolist())))
            elif self.ops and r["completions"] != self.ops[0]["runs"][disc].get("completions"):
                self.errors.append("%s: completion count differs from operation 0" % disc)
        self.ops.append(op)
        return op

    END_TO_END = {"throughput_per_s": "des_jobs_per_s", "latency_p50_ms": "round_p50_ms",
                  "latency_p95_ms": "round_p95_ms"}

    TIMED = ("des_jobs_per_s", "round_p50_ms", "round_p95_ms",
             "des_ps_jobs_per_s", "des_fcfs_jobs_per_s")

    def named(self, reference_speed=True):
        """Workload-specific metrics as (value, unit, sample count); times
        at the reference CPU speed (refclock.py), or in wall time."""
        untraced = [op for op in self.ops if not op["traced"]]
        walls = [sum(self._time(r, reference_speed) for r in op["runs"].values()) * 1e3
                 for op in untraced]
        m = {"des_jobs_per_s": (self.jobs_per_s(self.DISCIPLINES, False, reference_speed),
                                "completions/s", len(untraced) * len(self.DISCIPLINES)),
             "round_p50_ms": (_percentile(walls, 50), "ms", len(walls)),
             "round_p95_ms": (_percentile(walls, 95), "ms", len(walls))}
        for disc in self.DISCIPLINES:
            m["des_%s_jobs_per_s" % disc] = (self.jobs_per_s((disc,), False, reference_speed),
                                             "completions/s", len(untraced))
        return m

    @staticmethod
    def _time(run, reference_speed):
        return run["wall"] * (run["speed"] if reference_speed else 1.0)

    def counts(self):
        """(attempted, failed): DES runs of the first round, and those that
        raised or missed the gate.  Later rounds repeat the same seeds for
        timing and must match the first round's completion counts."""
        runs = self.ops[0]["runs"].values()
        return len(runs), sum(not r["ok"] for r in runs)

    def jobs_per_s(self, disciplines, traced, reference_speed=True):
        """Post-warmup completions per second of `des_validate`."""
        runs = [op["runs"][d] for op in self.ops if op["traced"] == traced
                for d in disciplines if "completions" in op["runs"][d]]
        wall = sum(self._time(r, reference_speed) for r in runs)
        return sum(r["completions"] for r in runs) / wall if wall else 0.0

    def calibrate(self, probe):
        """Set each DES run's CPU speed from the probe's samples."""
        for op in self.ops:
            for r in op["runs"].values():
                r["speed"] = probe.speed(r["start"], r["start"] + r["wall"])
            op["speed"] = sum(self._time(r, True) for r in op["runs"].values()) / op["wall"]

    def check_final(self):
        return self.errors


WORKLOADS = {"plan-wide": PlanWorkload, "plan-noisy": PlanWorkload, "oracle": OracleWorkload}


def make_workload(name, seed, size, workdir):
    return WORKLOADS[name](name, seed, size, workdir)

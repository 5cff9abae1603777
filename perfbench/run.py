"""qnas benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload plan-wide --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  plan-wide   `qnas run` on the C=20, K=60, horizon=200 grid cell, noise off
  plan-noisy  `qnas sweep` over 48 small cells with 5% telemetry noise
  oracle      `des_validate` on the demo network, PS then FCFS

Operations repeat for about `--seconds` (at least one; see run_ops).
Every operation of a run uses the same inputs, so the outputs of all
operations must agree, and `attempted`/`failed` count the inputs once.

End-to-end metrics (`--trace 0`; the same names on every workload).  Every
time is wall time converted to the reference CPU speed of refclock.py,
which takes out the host's swings in CPU speed; the wall-clock values are
in the report line under `wall_clock_metrics`.
  setup_s           median over 5 fresh interpreters of: import qnas.cli and
                    qnas.simkit, then generate the workload's inputs
  throughput_per_s  plan-*: completed control steps per second of a
                    scenario run (`run_scenario` called by `cli.main`),
                    median over the scenario runs that complete; oracle:
                    post-warmup DES completions per second of
                    `des_validate`, PS and FCFS pooled
  latency_p50_ms    plan-*: latency of each `plan_step` call, timed at
  latency_p95_ms    `qnas.simkit.harness.plan_step` (a decision); oracle:
                    time of one validation round (PS + FCFS)
  peak_rss_mb       peak resident set size of the measuring process

`--trace 1` alternates untraced and traced operations, times every layer
from outside (see spans.py) and prints the per-layer metrics, each per
traced operation and at the reference CPU speed, plus the tracing overhead.

Both modes first print a `report` line: the environment, and every
metric under its workload-specific name with unit and sample count
(plan-*: steps_per_s, sweep_steps_per_s, decide_p50_ms, decide_p95_ms,
instance_steps, true_violation_share; oracle: des_ps_jobs_per_s,
des_fcfs_jobs_per_s; all: setup_s, peak_rss_mb, failed_share), the
wall-clock values of the timed ones, and the median CPU speed relative to
the reference.  The last line is the result.
A failed operation is a control step lost when its scenario raises
(plan-*), or a DES run that raises or misses the accuracy gate (oracle).
The exit code is 1 when a check fails.
"""

import os

# Keep BLAS single-threaded: the machine has 2 CPUs and the benchmark runs
# one workload at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from refclock import SpeedProbe
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("plan-wide", "plan-noisy", "oracle")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
DISCIPLINES = ("ps", "fcfs")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.write_csv.s": "s",
    "harness.run_scenario.s": "s",
    "harness.self_s": "s",
    "harness.instance_steps": "count",
    "harness.true_violation_share": "fraction",
    "workload.gen.s": "s",
    "workload.gen.calls": "count",
    "telemetry.observe.s": "s",
    "telemetry.observe.calls": "count",
    "planner.plan_step.s": "s",
    "planner.acquire.s": "s",
    "planner.acquire.self_s": "s",
    "planner.acquire.iters": "count",
    "planner.release.s": "s",
    "planner.release.self_s": "s",
    "planner.release.iters": "count",
    "planner.release.useful_ratio": "ratio",
    "model.predict_response.s": "s",
    "model.predict_response.calls": "count",
    "model.rescale_snapshot.s": "s",
    "model.rescale_snapshot.calls": "count",
    "model.make_snapshot.s": "s",
    "model.make_snapshot.calls": "count",
    "trace.overhead_s": "s",
}
for _d in DISCIPLINES:
    PER_LAYER_UNITS.update({
        "des.%s.validate.s" % _d: "s",
        "des.%s.post.s" % _d: "s",
        "des.%s.events" % _d: "count",
        "des.%s.jobs_per_s" % _d: "1/s",
        "des_kernel.%s.des_loop.s" % _d: "s",
        "des_kernel.%s.ns_per_event" % _d: "ns",
    })

# Spans whose total must not exceed their parent's total.
SPAN_PARENTS = {
    "harness.run_scenario": "cli.main",
    "cli.write_csv": "cli.main",
    "workload.gen": "harness.run_scenario",
    "telemetry.observe": "harness.run_scenario",
    "planner.plan_step": "harness.run_scenario",
    "model.make_snapshot": "telemetry.observe",
    "planner.acquire": "planner.plan_step",
    "planner.release": "planner.plan_step",
    "model.rescale_snapshot": "planner.plan_step",
    "model.predict_response": "planner.plan_step",
}
for _d in DISCIPLINES:
    SPAN_PARENTS["des_kernel.%s.des_loop" % _d] = "des.%s.validate" % _d


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and generate inputs, then exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(args):
    """Median time, at the reference speed and in wall time, of
    SETUP_REPEATS fresh interpreters that import the program and generate
    this workload's inputs.  Each converts at the CPU speed its own process
    measured, which is where the work ran."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit("setup probe failed with exit code %d" % proc.returncode)
        wall.append(t1 - t0)
        ref.append((t1 - t0) * json.loads(proc.stdout.splitlines()[-1])["speed"])
    return statistics.median(ref), statistics.median(wall), len(wall)


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed on exit."""
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it


def setup_probe(args):
    """Import the program and generate the inputs; print the CPU speed
    the probe process saw, for measure_setup."""
    with SpeedProbe() as probe, workdir() as path:
        from workloads import make_workload  # imports qnas.cli and qnas.simkit
        make_workload(args.workload, args.seed, args.size, path)
    print(json.dumps({"speed": probe.speed(0.0, float("inf"))}))


def run_ops(wl, args):
    """Operations for about --seconds: another one starts only if, taking
    the median operation time, the run would end nearer to --seconds with
    it than without it.  At least one operation runs, two with tracing,
    where untraced and traced operations alternate, starting untraced."""
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(wl.ops) % 2 == 1
        wl.run_op(tracer if traced else None)
        elapsed = time.perf_counter() - start
        typical = statistics.median(op["wall"] for op in wl.ops)
        if elapsed + typical / 2 >= args.seconds and (not args.trace or len(wl.ops) >= 2):
            return tracer


def per_layer(wl, tracer):
    traced = [op for op in wl.ops if op["traced"]]
    untraced = [op for op in wl.ops if not op["traced"]]
    n = len(traced)
    # Span times are per traced operation, at the reference CPU speed.
    speed = sum(op["wall"] * op["speed"] for op in traced) / sum(op["wall"] for op in traced)

    def total(name):
        return tracer.total[name] * speed / n

    def self_s(name):
        return tracer.self_time(name) * speed / n

    def calls(name):
        return tracer.calls[name] / n

    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.write_csv.s": total("cli.write_csv"),
        "harness.run_scenario.s": total("harness.run_scenario"),
        "harness.self_s": self_s("harness.run_scenario"),
        "workload.gen.s": total("workload.gen"),
        "workload.gen.calls": calls("workload.gen"),
        "telemetry.observe.s": total("telemetry.observe"),
        "telemetry.observe.calls": calls("telemetry.observe"),
        "planner.plan_step.s": total("planner.plan_step"),
        "planner.acquire.s": total("planner.acquire"),
        "planner.acquire.self_s": self_s("planner.acquire"),
        "planner.acquire.iters": calls("planner.acquire.iters"),
        "planner.release.s": total("planner.release"),
        "planner.release.self_s": self_s("planner.release"),
        "planner.release.iters": calls("planner.release.iters"),
        "planner.release.useful_ratio": (tracer.calls["planner.release.removed"]
                                         / max(tracer.calls["planner.release.iters"], 1)),
        "model.predict_response.s": total("model.predict_response"),
        "model.predict_response.calls": calls("model.predict_response"),
        "model.rescale_snapshot.s": total("model.rescale_snapshot"),
        "model.rescale_snapshot.calls": calls("model.rescale_snapshot"),
        "model.make_snapshot.s": total("model.make_snapshot"),
        "model.make_snapshot.calls": calls("model.make_snapshot"),
        "trace.overhead_s": (statistics.median(op["wall"] * op["speed"] for op in traced)
                             - statistics.median(op["wall"] * op["speed"] for op in untraced)),
    })
    if wl.name == "oracle":
        for d in DISCIPLINES:
            runs = [op["runs"][d] for op in traced if "events" in op["runs"][d]]
            events = sum(r["events"] for r in runs) / max(len(runs), 1)
            loop = total("des_kernel.%s.des_loop" % d)
            m.update({
                "des.%s.validate.s" % d: total("des.%s.validate" % d),
                "des.%s.post.s" % d: self_s("des.%s.validate" % d),
                "des.%s.events" % d: events,
                "des.%s.jobs_per_s" % d: wl.jobs_per_s((d,), traced=True),
                "des_kernel.%s.des_loop.s" % d: loop,
                "des_kernel.%s.ns_per_event" % d: loop / events * 1e9 if events else 0.0,
            })
    else:
        named = wl.named()
        m["harness.instance_steps"] = named["instance_steps"][0]
        m["harness.true_violation_share"] = named["true_violation_share"][0]
    return m


def span_errors(tracer):
    return ["span %s (%.6f s) exceeds its parent %s (%.6f s)"
            % (child, tracer.total[child], parent, tracer.total[parent])
            for child, parent in SPAN_PARENTS.items()
            if tracer.total[child] > tracer.total[parent] or tracer.self_time(child) < 0]


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    setup_s, setup_wall_s, setup_n = measure_setup(args)
    with SpeedProbe() as probe:
        from workloads import make_workload  # imports the program

        with workdir() as path:
            wl = make_workload(args.workload, args.seed, args.size, path)
            tracer = run_ops(wl, args)
    wl.calibrate(probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = list(wl.check_final())
    attempted, failed = wl.counts()
    named = {"setup_s": (setup_s, "s", setup_n), "peak_rss_mb": (peak_rss_mb, "MB", 1),
             "failed_share": (failed / attempted, "fraction", attempted)}
    named.update(wl.named())
    values = {k: named[wl.END_TO_END.get(k, k)][0] for k in END_TO_END_UNITS}
    wall_clock = {k: v for k, v in wl.named(reference_speed=False).items() if k in wl.TIMED}
    wall_clock["setup_s"] = (setup_wall_s, "s", setup_n)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "operations": len(wl.ops),
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "wall_clock_metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in wall_clock.items()},
        "cpu_speed": {"median": statistics.median(op["speed"] for op in wl.ops),
                      "samples": len(probe.samples)},
        "end_to_end_sources": wl.END_TO_END,
    }

    if args.trace:
        errors += span_errors(tracer)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in per_layer(wl, tracer).items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    report["errors"] = errors
    for e in errors:
        sys.stderr.write("check failed: %s\n" % e)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

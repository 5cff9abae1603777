"""Self-tests of the benchmark, on tiny inputs:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from refclock import BURST_NOMINAL_S, SpeedProbe  # noqa: E402
from workloads import make_workload  # noqa: E402

WORKLOADS = ("plan-wide", "plan-noisy", "oracle")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--trace", str(trace), "--size", "tiny")
    report, result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(type(v["value"]) in (int, float) for v in result["metrics"].values())
    assert report["environment"]["nproc"] >= 1
    assert report["cpu_speed"]["samples"] > 0 and report["cpu_speed"]["median"] > 0
    assert set(report["wall_clock_metrics"]) >= {"setup_s"}
    if workload == "oracle":
        # A tiny run length is too short for the 5% accuracy gate, so only
        # the plumbing is checked here: one PS and one FCFS run, counted once.
        assert result["attempted"] == 2
    else:
        assert proc.returncode == 0 and result["correct"], proc.stderr
        assert 0 <= result["failed"] < result["attempted"]
    if trace:
        assert report["operations"] >= 2


@pytest.mark.parametrize("workload", ["plan-wide", "plan-noisy"])
def test_same_seed_repeats_decisions(workload):
    first, second = (result_of(run("--workload", workload, "--seed", "11", "--size", "tiny"))[0]
                     for _ in range(2))
    for name in ("instance_steps", "true_violation_share"):
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["instance_steps"]["value"] > 0


def test_different_seed_changes_inputs(tmp_path):
    for workload in WORKLOADS:
        a = make_workload(workload, 1, "tiny", str(tmp_path))
        b = make_workload(workload, 2, "tiny", str(tmp_path))
        if workload == "oracle":
            assert a.seeds != b.seeds
        else:
            assert a.config != b.config
            assert make_workload(workload, 1, "tiny", str(tmp_path)).config == a.config


def test_speed_is_taken_from_the_interval():
    probe = SpeedProbe()
    probe.samples = [(float(t), BURST_NOMINAL_S * (2.0 if t < 10 else 1.0)) for t in range(20)]
    assert probe.speed(0, 9) == pytest.approx(0.5)
    assert probe.speed(10, 19) == pytest.approx(1.0)
    # Too few samples inside: every sample of the run.
    assert probe.speed(3.5, 4.5) == pytest.approx(1 / 1.5)
    assert SpeedProbe().speed(0, 1) == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = run("--workload", "plan-wide", "--seed", "1", cwd=tmp_path,
               script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

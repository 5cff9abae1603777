"""Decision identity: a sha256 over the planner's per-step outputs on fixed
scenarios.  A changed digest means the planner decides differently: a
different configuration, iteration count or run summary on some step."""

import hashlib

import pytest

from qnas.simkit import ScenarioSpec, run_scenario, subseed
from qnas.telemetry import NoiseSpec


def grid_cell(C, K, seed):
    """A cell of the test_06 acceptance grid."""
    return ScenarioSpec(num_classes=C, num_stations=K, horizon=200,
                        master_seed=subseed(seed, "cell-%d-%d" % (C, K)))


SCENARIOS = {
    "grid-10x20-seed1": (
        grid_cell(10, 20, 1),
        "cc47e765e113f8a4140d984fff0a7f9f63e39241f1c1d30cf314b15126f87503"),
    "grid-20x60-seed1": (
        grid_cell(20, 60, 1),
        "d3dcfb592d5c2525dcf2a28ad1c75279c7973a413226259a40dba41145327721"),
    "noisy-5x10": (
        ScenarioSpec(num_classes=5, num_stations=10, horizon=100, master_seed=1,
                     noise=NoiseSpec("sampled", 0.05, 1001)),
        "81197be9e567e75f2131fbc9bb1efa39fa7ff7b0233bdb298ce585a932081eb1"),
}


def decision_digest(record):
    h = hashlib.sha256()
    for s in record.steps:
        h.update(("%s|%d|%d;" % (",".join(map(str, s.config_after.counts.tolist())),
                                 s.acquire_iterations, s.release_iterations)).encode())
    h.update(repr(record.summary).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decisions_pinned(name):
    spec, expected = SCENARIOS[name]
    assert decision_digest(run_scenario(spec)) == expected

"""Decision identity: a sha256 over the planner's per-step outputs on fixed
scenarios.  A changed digest means the planner decides differently: a
different configuration, iteration count or run summary on some step, or
a predicted response that differs in any bit."""

import hashlib

import numpy as np
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
    "poisson-5x10": (
        ScenarioSpec(num_classes=5, num_stations=10, horizon=100, window=20.0, master_seed=1,
                     poisson_arrivals=True),
        "a40982e7944d758eb3ce7feadf1ab3df34723317ddf0bad556dc0b6331b07e04"),
}


def decision_digest(record):
    h = hashlib.sha256()
    for s in record.steps:
        h.update(("%s|%d|%d;" % (",".join(map(str, s.config_after.counts.tolist())),
                                 s.acquire_iterations, s.release_iterations)).encode())
    h.update(repr(record.summary).encode())
    return h.hexdigest()


# sha256 over every step's predicted per-class response bytes.
PREDICTION_DIGESTS = {
    "grid-10x20-seed1": "68a41b7a5c202451db855a69fb9b1d70550357f8b188e9b7a331eedc6360a9ed",
    "grid-20x60-seed1": "14cdcf4b5b95e123894cbae62b98ca33819aa2361d6c7d01a8cffff57f44ad59",
    "noisy-5x10": "36fb5c8e27b5bc13a2f59a1d0f63a0d56f81d23e031d332e39927d4c0fd060b9",
    "poisson-5x10": "6473b2f03d64a72e0f68fbb0e6d95a41f1b7fb4a95a5643b6df61961b512636b",
}


def prediction_digest(record):
    h = hashlib.sha256()
    for s in record.steps:
        h.update(np.ascontiguousarray(s.predicted_response, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decisions_pinned(name):
    spec, expected = SCENARIOS[name]
    record = run_scenario(spec)
    assert decision_digest(record) == expected
    assert prediction_digest(record) == PREDICTION_DIGESTS[name]


# The whole test_06 acceptance grid: C in {10, 15, 20}, K in {20, 40, 60},
# seeds 1-3, one sha256 over the cells' digests in that order.
GRID_DIGEST = "50276fa396fbf2888804c3af664012ca5be12d3701efc5ec0a923d8615ccd7d9"


def test_grid_decisions_pinned():
    h = hashlib.sha256()
    for C in (10, 15, 20):
        for K in (20, 40, 60):
            for seed in (1, 2, 3):
                h.update(decision_digest(run_scenario(grid_cell(C, K, seed))).encode())
    assert h.hexdigest() == GRID_DIGEST

import functools

import numpy as np
import pytest

from qnas.model import make_snapshot
from qnas.simkit import ScenarioSpec, run_scenario, subseed

# Canonical bottleneck-shift fixture: 2 classes, 3 stations, unit reference.
DEMO_RATES = np.array([2.0, 1.0])
DEMO_DEMANDS = np.array([
    [0.5, 1.0 / 3.0, 0.5],
    [0.5, 0.0, 0.5],
])


@pytest.fixture
def demo():
    return make_snapshot([1, 1, 1], DEMO_RATES, DEMO_DEMANDS)


def random_baseline(rng, max_classes=5, max_stations=10, max_ref=3, util_cap=0.95):
    """Random consistent baseline with every station strictly below
    saturation at the reference configuration."""
    C = rng.integers(1, max_classes + 1)
    K = rng.integers(1, max_stations + 1)
    demands = rng.uniform(0.05, 1.0, size=(C, K))
    # Sprinkle some zero-demand entries but keep each class using >= 1 station.
    mask = rng.random(size=(C, K)) < 0.25
    for c in range(C):
        if mask[c].all():
            mask[c, rng.integers(K)] = False
    demands[mask] = 0.0
    rates = rng.uniform(0.1, 2.0, size=C)
    ref = rng.integers(1, max_ref + 1, size=K)
    util = rates @ (demands)
    scale = rng.uniform(0.3, util_cap)
    over = util > 0
    demands[:, over] *= scale / util[over] * rng.uniform(0.5, 1.0, size=over.sum())
    return make_snapshot(ref, rates, demands)


@functools.cache
def grid_record(C, K, seed):
    """The run of a test_06 acceptance-grid cell, run once per session: its
    arrays are read-only, so the tests that read it share one record."""
    return run_scenario(ScenarioSpec(num_classes=C, num_stations=K, horizon=200,
                                     master_seed=subseed(seed, "cell-%d-%d" % (C, K))))

"""Synthetic monitoring: build baseline snapshots the way a passive monitor
would, from per-window arrival counts, measured residence times and
per-instance utilizations.  Ground truth is given as the demand matrix of a
single-instance deployment; optional multiplicative noise stress-tests the
control loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OverloadedStation
from .model import ArrivalRates, Configuration, DemandMatrix, _frozen, _trusted, make_snapshot

UTIL_CLAMP = 1.0 - 1e-6


@dataclass(frozen=True)
class ObservationWindow:
    """One monitoring period: its length and per-class arrival counts."""

    length: float
    arrival_counts: np.ndarray

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("window length must be > 0")
        counts = np.array(self.arrival_counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("arrival counts must be a vector of nonnegative integers")
        counts.setflags(write=False)
        object.__setattr__(self, "arrival_counts", counts)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise knob: multiplicative lognormal factors with median 1
    applied to each measured residence time and utilization."""

    mode: str = "none"
    relative_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "sampled"):
            raise ValueError("noise mode must be 'none' or 'sampled'")
        if self.relative_sd < 0:
            raise ValueError("relative_sd must be >= 0")


NO_NOISE = NoiseSpec()


def measure_rates(window):
    """Arrival-rate estimate: counts divided by window length."""
    return ArrivalRates(window.arrival_counts / window.length)


def observe(true_rates, true_demands_unit, config, noise=NO_NOISE):
    """Synthesize a monitored snapshot at `config`.

    `true_demands_unit` is the per-instance demand matrix of a
    single-instance deployment; at `config` each instance of station k
    carries demand D_ck / N_k.  Measured utilizations and residence times
    are produced from the model, optionally corrupted by noise, and demands
    are recovered via D = R * (1 - U).  make_snapshot turns the recovered
    demands into the snapshot's totals M_k * D_ck and derives its capacity
    floor from them, so the measured utilizations are not kept.  Raises
    OverloadedStation if the workload saturates a station at `config`.
    """
    rates = true_rates if isinstance(true_rates, ArrivalRates) else ArrivalRates(true_rates)
    truth = (
        true_demands_unit
        if isinstance(true_demands_unit, DemandMatrix)
        else DemandMatrix(true_demands_unit)
    )
    config = config if isinstance(config, Configuration) else Configuration(config)
    demands_cfg = truth.demands / config.counts[np.newaxis, :]
    util = rates.rates @ demands_cfg
    over = np.flatnonzero(util >= 1.0)
    if over.size:
        raise OverloadedStation(over.tolist())
    resid = demands_cfg / (1.0 - util)[np.newaxis, :]
    if noise.mode == "sampled" and noise.relative_sd > 0:
        rng = np.random.default_rng(noise.seed)
        sigma = np.sqrt(np.log1p(noise.relative_sd**2))
        resid = resid * rng.lognormal(0.0, sigma, size=resid.shape)
        util = np.minimum(util * rng.lognormal(0.0, sigma, size=util.shape), UTIL_CLAMP)
    # Finite and >= 0 by construction (1 - util > 0); make_snapshot still
    # rejects totals or a floor that overflow.
    measured = _trusted(DemandMatrix, demands=_frozen(resid * (1.0 - util)[np.newaxis, :]))
    return make_snapshot(config, rates, measured)

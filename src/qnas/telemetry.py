"""Synthetic monitoring: build baseline snapshots the way a passive monitor
would, from measured arrival rates, residence times and per-instance
utilizations.  Ground truth is given as the demand matrix of a
single-instance deployment; optional multiplicative noise stress-tests the
control loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OverloadedStation
from .model import ArrivalRates, Configuration, DemandMatrix, make_snapshot
from .model import _frozen, _trusted, _typed

UTIL_CLAMP = 1.0 - 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise knob: multiplicative lognormal factors with median 1
    applied to each measured residence time and utilization; noise is on
    exactly when relative_sd > 0."""

    relative_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # NaN fails both bounds.  Below 2**512, sd**2 and so observe's
        # lognormal sigma, sqrt(log(1 + sd**2)), are finite.
        if not 0 <= self.relative_sd < 2.0 ** 512:
            raise ValueError("relative_sd must lie in [0, 2**512), where its square is finite")


NO_NOISE = NoiseSpec()


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
    Raw inputs are validated here; model types are taken as they are.
    """
    rates = _typed(ArrivalRates, true_rates)
    truth = _typed(DemandMatrix, true_demands_unit)
    config = _typed(Configuration, config)
    demands_cfg = truth.demands / config.counts
    util = rates.rates @ demands_cfg
    if np.count_nonzero(util >= 1.0):
        raise OverloadedStation(np.flatnonzero(util >= 1.0).tolist())
    # demands_cfg and util are this call's own arrays, so the rest works in
    # place; the operations and their order are those of D = R * (1 - U).
    resid = np.divide(demands_cfg, 1.0 - util, out=demands_cfg)
    if noise.relative_sd > 0:
        rng = np.random.default_rng(noise.seed)
        sigma = np.sqrt(np.log1p(noise.relative_sd**2))
        resid *= rng.lognormal(0.0, sigma, size=resid.shape)
        util *= rng.lognormal(0.0, sigma, size=util.shape)
        np.minimum(util, UTIL_CLAMP, out=util)
    resid *= 1.0 - util
    # Finite and >= 0 by construction (1 - util > 0); make_snapshot still
    # rejects totals or a floor that overflow.
    return make_snapshot(config, rates, _trusted(DemandMatrix, demands=_frozen(resid)))

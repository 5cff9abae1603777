"""Stepped control-loop harness: generate a workload series, observe the
system through the synthetic monitor, run one planning pass per step, and
aggregate allocation statistics over the horizon.
"""

import hashlib
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import OverloadedStation, QnasError
from ..model import (
    ArrivalRates,
    Configuration,
    DemandMatrix,
    _finite_nonneg,
    _frozen,
    _trusted,
    counts_above,
)
from ..planner import SlaThresholds, plan_step
from ..telemetry import NO_NOISE, NoiseSpec, observe
from ..workload import (
    DemandLaw,
    WorkloadLaw,
    default_law,
    default_thresholds,
    gen_arrival_series,
    gen_demands,
)


def subseed(master_seed, name):
    """Deterministic seed derivation: a master seed plus a component name
    maps to a stable 63-bit sub-seed, so every random component is
    reproducible without manual seed bookkeeping."""
    digest = hashlib.sha256(("%d:%s" % (master_seed, name)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one experiment."""

    num_classes: int
    num_stations: int
    horizon: int
    master_seed: int = 0
    workload: Optional[WorkloadLaw] = None      # default_law if None
    demands: Optional[DemandMatrix] = None      # drawn from DemandLaw if None
    sla: Optional[SlaThresholds] = None         # default_thresholds if None
    sla_multiplier: float = 2.0
    noise: NoiseSpec = NO_NOISE
    initial_config: Optional[Configuration] = None  # all-ones if None
    poisson_window: Optional[float] = None      # rates used as generated if None

    def __post_init__(self):
        # A float, bool or beyond-int64 size would fail inside numpy mid-run.
        for name in ("num_classes", "num_stations", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                               and 1 <= value < 2 ** 63):
                raise ValueError("%s must be an integer in [1, 2**63), got %r" % (name, value))
        # Out-of-range knobs fail here, not once the run has started; NaN
        # fails both bounds.
        if self.poisson_window is not None and not 0 < self.poisson_window < np.inf:
            raise ValueError("poisson_window must be finite and > 0")
        if self.sla is None and not 1 < self.sla_multiplier < np.inf:
            raise ValueError("sla_multiplier must be finite and > 1")
        C, K = self.num_classes, self.num_stations
        if self.demands is not None and self.demands.demands.shape != (C, K):
            raise ValueError("demands must be a %d x %d matrix" % (C, K))
        if self.sla is not None and self.sla.num_classes != C:
            raise ValueError("sla must list %d thresholds" % C)
        if self.workload is not None and self.workload.num_classes != C:
            raise ValueError("workload law must have %d classes" % C)
        if self.initial_config is not None and self.initial_config.num_stations != K:
            raise ValueError("initial_config must list %d counts" % K)


@dataclass(frozen=True)
class RunSummary:
    acquire_max: int
    acquire_avg: float
    release_max: int
    release_avg: float
    instances_min: int
    instances_max: int
    instances_total: int
    static_total: int
    dynamic_static_ratio: float


@dataclass(frozen=True)
class RunRecord:
    """One run as read-only arrays whose row t is step t: rates (T, C), the
    configuration chosen (T, K), its predicted response (T, C), and the
    planner's acquire and release iteration counts (T,)."""

    spec: ScenarioSpec
    rates: np.ndarray
    counts: np.ndarray
    predicted_response: np.ndarray
    acquire_iterations: np.ndarray
    release_iterations: np.ndarray
    summary: RunSummary
    thresholds: SlaThresholds
    demands: DemandMatrix


def summarize(totals, acq, rel):
    """Aggregate allocation statistics over per-step instance totals and
    iteration counts."""
    static_total = len(totals) * int(totals.max())
    return RunSummary(
        acquire_max=int(acq.max()),
        acquire_avg=float(acq.mean()),
        release_max=int(rel.max()),
        release_avg=float(rel.mean()),
        instances_min=int(totals.min()),
        instances_max=int(totals.max()),
        instances_total=int(totals.sum()),
        static_total=static_total,
        dynamic_static_ratio=float(totals.sum() / static_total),
    )


def run_scenario(spec):
    """Execute the control loop over the whole horizon."""
    C, K, T = spec.num_classes, spec.num_stations, spec.horizon
    try:  # everything C, K and the horizon size, before step 0
        counts = np.empty((T, K), dtype=np.int64)
        predicted = np.empty((T, C))
        acq, rel = np.empty(T, dtype=np.int64), np.empty(T, dtype=np.int64)
        demands = spec.demands or gen_demands(
            DemandLaw(C, K, seed=subseed(spec.master_seed, "demands")))
        law = spec.workload or default_law(C, T, seed=subseed(spec.master_seed, "workload-law"))
        series = gen_arrival_series(law, T, seed=subseed(spec.master_seed, "workload"))
    except (MemoryError, ValueError):  # past numpy's largest array
        raise ValueError("C=%d, K=%d and horizon %d are too large to simulate"
                         % (C, K, T)) from None
    sla = spec.sla or default_thresholds(demands, spec.sla_multiplier)
    # Checked once here, so each step hands observe typed, read-only rates
    # that it takes as they are; Poisson draws are finite and >= 0 as drawn.
    if not _finite_nonneg(series):
        raise ValueError("arrival rates must be finite and >= 0")
    if spec.poisson_window is not None:
        # Row t is step t's draw: numpy draws the elements in row order.
        arr_rng = np.random.default_rng(subseed(spec.master_seed, "arrivals"))
        try:
            with np.errstate(over="ignore"):  # an inf mean fails the draw too
                series = arr_rng.poisson(series * spec.poisson_window) / spec.poisson_window
        except ValueError:  # numpy's "lam value too large"
            raise ValueError("window %r times the arrival rates is too large a Poisson mean"
                             % (spec.poisson_window,)) from None
    # An overloaded step lifts its counts above the capacity floor
    # rates @ demands, which each class's peak rate bounds.
    with np.errstate(over="ignore"):
        if not np.maximum.reduce(series.max(axis=0) @ demands.demands) < np.inf:
            raise ValueError("demands times the peak arrival rates overflow the capacity floor")
    _frozen(series)
    config = spec.initial_config or Configuration(np.ones(K, dtype=np.int64))
    noise = spec.noise
    for t in range(T):
        rates = series[t]
        arrivals = _trusted(ArrivalRates, rates=rates)
        if noise.relative_sd > 0:
            # spec.noise was checked when it was built; only the seed changes.
            noise = _trusted(NoiseSpec, **{**vars(spec.noise),
                                           "seed": subseed(spec.noise.seed, "step-%d" % t)})
        try:
            try:
                snap = observe(arrivals, demands, config, noise)
            except OverloadedStation:
                # The workload has overloaded the current configuration:
                # measure at the minimum feasible one.  rates @ demands is
                # the capacity floor at the unit reference.
                floor = rates @ demands.demands
                lifted = _trusted(Configuration, counts=_frozen(counts_above(floor)))
                snap = observe(arrivals, demands, lifted, noise)
            outcome = plan_step(snap, sla)
        except QnasError as exc:
            # Same type and attributes, so callers still tell the causes apart.
            exc.args = ("step %d: %s" % (t, exc),)
            raise
        config = outcome.new_config
        counts[t] = config.counts
        predicted[t] = outcome.predicted_response.per_class
        acq[t], rel[t] = outcome.acquire_iterations, outcome.release_iterations

    counts, predicted, acq, rel = map(_frozen, (counts, predicted, acq, rel))
    return RunRecord(spec, series, counts, predicted, acq, rel,
                     summarize(counts.sum(axis=1), acq, rel), sla, demands)

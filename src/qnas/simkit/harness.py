"""Stepped control-loop harness: generate a workload series, observe the
system through the synthetic monitor, run one planning pass per step, and
aggregate allocation statistics over the horizon.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import OverloadedStation, UnattainableSla
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
from .seeds import subseed


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one experiment."""

    num_classes: int
    num_stations: int
    horizon: int
    window: float = 1.0
    master_seed: int = 0
    workload: Optional[WorkloadLaw] = None      # default_law if None
    demands: Optional[DemandMatrix] = None      # drawn from DemandLaw if None
    sla: Optional[SlaThresholds] = None         # default_thresholds if None
    sla_multiplier: float = 2.0
    noise: NoiseSpec = NO_NOISE
    initial_config: Optional[Configuration] = None  # all-ones if None
    poisson_arrivals: bool = False
    base_rate: float = 1.5
    amplitude: float = 0.8
    perturbation_sd: float = 0.1
    perturbation_persistence: float = 0.8

    def __post_init__(self):
        if self.num_classes < 1 or self.num_stations < 1:
            raise ValueError("C and K must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        # Out-of-range knobs fail here, not once the run has started; NaN
        # fails both bounds.
        if not 0 < self.window < np.inf:
            raise ValueError("window must be finite and > 0")
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
        if self.workload is None:
            default_law(self.num_classes, self.horizon, 0, self.base_rate, self.amplitude,
                        self.perturbation_sd, self.perturbation_persistence)


@dataclass(frozen=True)
class StepRecord:
    step: int
    rates: np.ndarray
    config_before: Configuration
    config_after: Configuration
    predicted_response: np.ndarray
    thresholds: np.ndarray
    acquire_iterations: int
    release_iterations: int

    @property
    def total_instances(self):
        return self.config_after.total


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
    spec: ScenarioSpec
    steps: list
    summary: RunSummary
    thresholds: SlaThresholds
    demands: DemandMatrix


def summarize(steps):
    """Aggregate allocation statistics over the recorded steps."""
    totals = np.array([s.total_instances for s in steps])
    acq = np.array([s.acquire_iterations for s in steps])
    rel = np.array([s.release_iterations for s in steps])
    static_total = len(steps) * int(totals.max())
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
    demands = spec.demands
    if demands is None:
        demands = gen_demands(DemandLaw(spec.num_classes, spec.num_stations,
                                        seed=subseed(spec.master_seed, "demands")))
    sla = spec.sla
    if sla is None:
        sla = default_thresholds(demands, spec.sla_multiplier)
    law = spec.workload
    if law is None:
        law = default_law(spec.num_classes, spec.horizon,
                          seed=subseed(spec.master_seed, "workload-law"),
                          base_rate=spec.base_rate, amplitude=spec.amplitude,
                          perturbation_sd=spec.perturbation_sd,
                          perturbation_persistence=spec.perturbation_persistence)
    series = gen_arrival_series(law, spec.horizon, seed=subseed(spec.master_seed, "workload"))
    # Checked once here, so each step hands observe typed, read-only rates
    # that it takes as they are; Poisson draws are finite and >= 0 as drawn.
    if not _finite_nonneg(series):
        raise ValueError("arrival rates must be finite and >= 0")
    _frozen(series)
    config = spec.initial_config or Configuration(np.ones(spec.num_stations, dtype=np.int64))
    arr_rng = np.random.default_rng(subseed(spec.master_seed, "arrivals"))
    noise = spec.noise

    steps = []
    for t in range(spec.horizon):
        rates = series[t]
        if spec.poisson_arrivals:
            rates = _frozen(arr_rng.poisson(rates * spec.window) / spec.window)
        arrivals = _trusted(ArrivalRates, rates=rates)
        if noise.mode == "sampled":
            # spec.noise was checked when it was built; only the seed changes.
            noise = _trusted(NoiseSpec, **{**vars(spec.noise),
                                           "seed": subseed(spec.noise.seed, "step-%d" % t)})
        try:
            snap = observe(arrivals, demands, config, noise)
        except OverloadedStation:
            # The workload has overloaded the current configuration: measure
            # at the minimum feasible one.  rates @ demands is the capacity
            # floor at the unit reference.
            floor = rates @ demands.demands
            lifted = _trusted(Configuration, counts=_frozen(counts_above(floor)))
            snap = observe(arrivals, demands, lifted, noise)
        try:
            outcome = plan_step(snap, sla)
        except UnattainableSla as exc:
            raise UnattainableSla(exc.classes, "step %d: %s" % (t, exc)) from exc
        steps.append(StepRecord(
            step=t,
            rates=rates,
            config_before=config,
            config_after=outcome.new_config,
            predicted_response=outcome.predicted_response.per_class,
            thresholds=sla.max_response,
            acquire_iterations=outcome.acquire_iterations,
            release_iterations=outcome.release_iterations,
        ))
        config = outcome.new_config

    return RunRecord(spec, steps, summarize(steps), sla, demands)

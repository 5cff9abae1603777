"""Open multiclass queueing-network model.

All functions are pure and operate on a measured baseline: the reference
configuration, arrival rates and the total per-station demands M_k * D_ck.
Spreading a station's work over N instances divides per-instance demand and
utilization by N but leaves these totals, and the capacity floor derived
from them, unchanged, so predictions for any configuration read them as
they are.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleConfiguration


def _finite_nonneg(a):
    """Every entry finite and >= 0; NaN fails both bounds."""
    return a.size == 0 or (np.minimum.reduce(a, axis=None) >= 0
                           and np.maximum.reduce(a, axis=None) < np.inf)


def _frozen(a):
    a.setflags(write=False)
    return a


def _trusted(cls, **fields):
    """An instance of a frozen model type built from arrays that are
    already valid and read-only; skips __post_init__."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Configuration:
    """Integer vector of instance counts per station, every entry >= 1.
    Whole-valued floats are accepted; any other float is an error."""

    counts: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (np.trunc(raw) == raw)):
            raise ValueError("instance counts must be whole numbers")
        counts = np.array(raw, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-D vector")
        if np.count_nonzero(counts < 1):
            raise ValueError("instance counts must all be >= 1")
        object.__setattr__(self, "counts", _frozen(counts))

    @property
    def num_stations(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class ArrivalRates:
    """Per-class arrival rates (jobs per unit time), nonnegative."""

    rates: np.ndarray

    def __post_init__(self):
        rates = np.array(self.rates, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("rates must be a 1-D vector")
        if not _finite_nonneg(rates):
            raise ValueError("rates must be finite and >= 0")
        object.__setattr__(self, "rates", _frozen(rates))

    @property
    def num_classes(self):
        return self.rates.shape[0]


@dataclass(frozen=True)
class DemandMatrix:
    """C x K matrix of per-instance service demands (time units).

    A zero entry means the class never uses that station.
    """

    demands: np.ndarray

    def __post_init__(self):
        demands = np.array(self.demands, dtype=np.float64)
        if demands.ndim != 2:
            raise ValueError("demands must be a C x K matrix")
        if not _finite_nonneg(demands):
            raise ValueError("demands must be finite and >= 0")
        object.__setattr__(self, "demands", _frozen(demands))


@dataclass(frozen=True)
class UtilizationVector:
    """Per-instance busy fraction per station.  Values >= 1 are representable
    (overloaded measurements)."""

    utilizations: np.ndarray


@dataclass(frozen=True)
class ResponseTimes:
    """Predicted per-class response times plus the per-class-per-station
    residence breakdown (residence time at one instance)."""

    per_class: np.ndarray
    per_class_station: np.ndarray


@dataclass(frozen=True)
class BaselineSnapshot:
    """Measured state at a reference configuration, the input to every
    prediction.  It keeps what re-referencing leaves unchanged: the C x K
    total demands M_k * D_ck and the capacity floor rates @ totals, both
    read-only.  Build it with make_snapshot, which derives the floor, so the
    utilization law holds by construction."""

    ref_config: Configuration
    rates: ArrivalRates
    totals: np.ndarray
    floor: np.ndarray

    @property
    def num_classes(self):
        return self.rates.num_classes

    @property
    def num_stations(self):
        return self.ref_config.num_stations

    @property
    def utilizations_ref(self):
        """Per-instance utilizations at ref_config: floor / M_k."""
        return UtilizationVector(_frozen(self.floor / self.ref_config.counts))

    def total_demands(self):
        """Per-station total demand M_k * D_ck, invariant under rescaling."""
        return self.totals


def make_snapshot(ref_config, rates, demands):
    """Build a BaselineSnapshot from per-instance demands measured at
    ref_config: the one place they become the totals M_k * D_ck and the
    capacity floor rates @ totals.  Inputs that are not model types yet are
    validated here; typed ones are taken as they are.  Totals or a floor
    that overflow to infinity are rejected."""
    config = ref_config if isinstance(ref_config, Configuration) else Configuration(ref_config)
    rates = rates if isinstance(rates, ArrivalRates) else ArrivalRates(rates)
    demands = demands if isinstance(demands, DemandMatrix) else DemandMatrix(demands)
    if demands.demands.shape != (rates.num_classes, config.num_stations):
        raise ValueError("demand matrix shape does not match (C, K)")
    totals = demands.demands * config.counts
    floor = rates.rates @ totals
    # Both are built from finite non-negative inputs, so an overflow (or
    # 0 * inf in the floor) shows up as a non-finite sum; so does a sum
    # that itself overflows.
    if not math.isfinite(np.add.reduce(totals, axis=None) + np.add.reduce(floor)):
        raise ValueError("total demands and capacity floor must be finite")
    return BaselineSnapshot(config, rates, _frozen(totals), _frozen(floor))


def _target(base, target):
    """A target configuration for `base`, validated."""
    target = target if isinstance(target, Configuration) else Configuration(target)
    if target.num_stations != base.num_stations:
        raise ValueError("target configuration length does not match K")
    return target


def rescale_snapshot(base, target):
    """Re-reference a snapshot at a different configuration.  Its totals and
    floor do not depend on the configuration, so only ref_config changes."""
    return replace(base, ref_config=_target(base, target))


def capacity_floor(base):
    """Real-valued lower bound on instance counts: Nmin_k = M_k * U_k(M),
    the snapshot's rates @ totals.

    Invariant under re-referencing; a configuration is evaluable only
    strictly above this floor on every loaded station.
    """
    return base.floor


def residence_table(total_d, floor, counts):
    """C x K residence at one instance, D_ck*M_k / (N_k - floor_k), from a
    snapshot's total demands and capacity floor; zero wherever a class
    skips the station.  Raises InfeasibleConfiguration if a station sits at
    or below its floor.  A station no class uses has a zero floor, so at
    counts >= 1 only a used station can."""
    room = counts - floor
    if np.count_nonzero(room <= 0):
        raise InfeasibleConfiguration(np.flatnonzero(room <= 0).tolist())
    return total_d / room


def predict_response(base, target):
    """Predict per-class response times at an arbitrary configuration:

        R_c(N) = sum_k D_ck(M) * M_k * N_k / (N_k - U_k(M) * M_k)

    Raises InfeasibleConfiguration if any station used by some class sits at
    or below the capacity floor.
    """
    target = _target(base, target)
    per_cs = residence_table(base.total_demands(), capacity_floor(base), target.counts)
    return ResponseTimes(per_cs @ target.counts, per_cs)


def counts_above(floor):
    """Smallest integer counts strictly above a capacity floor, at least one
    instance everywhere."""
    return np.maximum(1, np.floor(floor).astype(np.int64) + 1)

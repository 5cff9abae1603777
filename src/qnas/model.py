"""Open multiclass queueing-network model.

All functions are pure and operate on a measured baseline (reference
configuration, arrival rates, per-instance service demands and
utilizations).  Predictions for hypothetical configurations follow from
the product-invariance of total per-station demand: spreading a station's
work over N instances divides both per-instance demand and per-instance
utilization by N.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConfiguration, OverloadedStation

# Equality-style checks use max(abs, rel) at this tolerance.
TOL = 1e-9


def _check_close(a, b, tol=TOL):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


@dataclass(frozen=True)
class Configuration:
    """Integer vector of instance counts per station, every entry >= 1."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-D vector")
        if np.any(counts < 1):
            raise ValueError("instance counts must all be >= 1")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

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
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ValueError("rates must be finite and >= 0")
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

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
        if not np.all(np.isfinite(demands)) or np.any(demands < 0):
            raise ValueError("demands must be finite and >= 0")
        demands.setflags(write=False)
        object.__setattr__(self, "demands", demands)

    @property
    def num_classes(self):
        return self.demands.shape[0]

    @property
    def num_stations(self):
        return self.demands.shape[1]


@dataclass(frozen=True)
class UtilizationVector:
    """Per-instance busy fraction per station.  Values >= 1 are representable
    (overloaded measurements) but cannot be fed to residence-time math."""

    utilizations: np.ndarray

    def __post_init__(self):
        u = np.array(self.utilizations, dtype=np.float64)
        if u.ndim != 1:
            raise ValueError("utilizations must be a 1-D vector")
        if not np.all(np.isfinite(u)) or np.any(u < 0):
            raise ValueError("utilizations must be finite and >= 0")
        u.setflags(write=False)
        object.__setattr__(self, "utilizations", u)


@dataclass(frozen=True)
class ResponseTimes:
    """Predicted per-class response times plus the per-class-per-station
    residence breakdown (residence time at one instance)."""

    per_class: np.ndarray
    per_class_station: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_class", np.asarray(self.per_class, dtype=np.float64))
        object.__setattr__(
            self, "per_class_station", np.asarray(self.per_class_station, dtype=np.float64)
        )


@dataclass(frozen=True)
class BaselineSnapshot:
    """Measured state at a reference configuration, the input to every
    prediction.  Construction enforces the utilization law: the stored
    utilizations must equal rates @ demands within tolerance."""

    ref_config: Configuration
    rates: ArrivalRates
    demands_ref: DemandMatrix
    utilizations_ref: UtilizationVector

    def __post_init__(self):
        C = self.rates.num_classes
        K = self.ref_config.num_stations
        if self.demands_ref.demands.shape != (C, K):
            raise ValueError("demand matrix shape does not match (C, K)")
        if self.utilizations_ref.utilizations.shape != (K,):
            raise ValueError("utilization vector length does not match K")
        expected = utilization(self.rates, self.demands_ref).utilizations
        if not _check_close(self.utilizations_ref.utilizations, expected):
            raise ValueError("utilizations inconsistent with rates and demands")

    @property
    def num_classes(self):
        return self.rates.num_classes

    @property
    def num_stations(self):
        return self.ref_config.num_stations

    def total_demands(self):
        """Per-station total demand M_k * D_ck, invariant under rescaling."""
        return self.demands_ref.demands * self.ref_config.counts[np.newaxis, :]


def make_snapshot(ref_config, rates, demands_ref):
    """Build a consistent BaselineSnapshot, deriving utilizations from the
    utilization law."""
    config = ref_config if isinstance(ref_config, Configuration) else Configuration(ref_config)
    rates = rates if isinstance(rates, ArrivalRates) else ArrivalRates(rates)
    demands = demands_ref if isinstance(demands_ref, DemandMatrix) else DemandMatrix(demands_ref)
    return BaselineSnapshot(config, rates, demands, utilization(rates, demands))


def utilization(rates, demands):
    """Per-instance utilization U_k = sum_c lambda_c * D_ck.

    Values >= 1 are returned as-is; overload is representable here.
    """
    lam = rates.rates if isinstance(rates, ArrivalRates) else np.asarray(rates, dtype=float)
    d = demands.demands if isinstance(demands, DemandMatrix) else np.asarray(demands, dtype=float)
    if d.shape[0] != lam.shape[0]:
        raise ValueError("class count mismatch between rates and demands")
    return UtilizationVector(lam @ d)


def residence_time(demand, util):
    """Residence time at one instance: demand / (1 - utilization)."""
    if demand < 0:
        raise ValueError("demand must be >= 0")
    if util >= 1.0:
        raise OverloadedStation([], "utilization %.6g >= 1, residence time undefined" % util)
    if util < 0:
        raise ValueError("utilization must be >= 0")
    return demand / (1.0 - util)


def response_time(config, residences):
    """Per-class response time: sum_k N_k * R_ck."""
    counts = config.counts if isinstance(config, Configuration) else np.asarray(config)
    r = np.asarray(residences, dtype=float)
    if r.shape[-1] != counts.shape[0]:
        raise ValueError("residence vector length does not match K")
    return float(np.dot(counts, r)) if r.ndim == 1 else r @ counts


def estimate_demand(residence_measured, utilization_measured):
    """Recover a per-instance demand from measured residence and utilization:
    D = R * (1 - U).  Inverse of residence_time at fixed U."""
    if residence_measured < 0:
        raise ValueError("residence must be >= 0")
    if utilization_measured >= 1.0:
        raise OverloadedStation(
            [], "utilization %.6g >= 1, demand estimation invalid" % utilization_measured
        )
    if utilization_measured < 0:
        raise ValueError("utilization must be >= 0")
    return residence_measured * (1.0 - utilization_measured)


def rescale_snapshot(base, target):
    """Re-reference a snapshot at a different configuration.

    Per-instance demands and utilizations scale by M_k / N_k, so the
    per-station products M_k*D_ck and M_k*U_k are preserved.
    """
    target = target if isinstance(target, Configuration) else Configuration(target)
    if target.num_stations != base.num_stations:
        raise ValueError("target configuration length does not match K")
    ratio = base.ref_config.counts / target.counts
    demands = DemandMatrix(base.demands_ref.demands * ratio[np.newaxis, :])
    utils = UtilizationVector(base.utilizations_ref.utilizations * ratio)
    return BaselineSnapshot(target, base.rates, demands, utils)


def capacity_floor(base):
    """Real-valued lower bound on instance counts: Nmin_k = M_k * U_k(M).

    Invariant under re-referencing; a configuration is evaluable only
    strictly above this floor on every loaded station.
    """
    return base.ref_config.counts * base.utilizations_ref.utilizations


def predict_response(base, target):
    """Predict per-class response times at an arbitrary configuration:

        R_c(N) = sum_k D_ck(M) * M_k * N_k / (N_k - U_k(M) * M_k)

    Raises InfeasibleConfiguration if any station used by some class sits at
    or below the capacity floor.
    """
    target = target if isinstance(target, Configuration) else Configuration(target)
    if target.num_stations != base.num_stations:
        raise ValueError("target configuration length does not match K")
    floor = capacity_floor(base)
    total_d = base.total_demands()  # (C, K), invariant
    used = total_d.sum(axis=0) > 0.0
    bad = used & (target.counts <= floor)
    if np.any(bad):
        raise InfeasibleConfiguration(np.flatnonzero(bad).tolist())
    # Residence at one instance; zero wherever the class skips the station.
    denom = target.counts - floor
    per_cs = np.zeros_like(total_d)
    np.divide(total_d, denom[np.newaxis, :], out=per_cs, where=used[np.newaxis, :])
    per_class = per_cs @ target.counts
    return ResponseTimes(per_class, per_cs)


def asymptotic_floor(base):
    """Limit of R_c as all counts grow: sum_k M_k * D_ck(M)."""
    return base.total_demands().sum(axis=1)


def counts_above(floor):
    """Smallest integer counts strictly above a capacity floor, at least one
    instance everywhere."""
    return np.maximum(1, np.floor(floor).astype(np.int64) + 1)


def min_feasible_config(base):
    """Smallest integer configuration strictly above the capacity floor
    (at least one instance everywhere)."""
    return Configuration(counts_above(capacity_floor(base)))

"""Greedy planning step: acquire instances until all response-time
thresholds hold, then release redundant instances down to a Pareto-optimal
configuration.  All decisions are driven by model predictions only.

Tie-breaking everywhere is lowest index (deterministic traces).
"""

from dataclasses import dataclass

import numpy as np

from .errors import IterationCap, UnattainableSla
from .model import (
    Configuration,
    ResponseTimes,
    asymptotic_floor,
    capacity_floor,
    min_feasible_config,
    predict_response,
    rescale_snapshot,
)

DEFAULT_ITERATION_CAP = 1_000_000

# Relative margin for rejecting a removal from the term tables alone.  The
# table response of removing one instance at station j, per_class - T[:, j]
# + T_fewer[:, j], and the float trial per_cs @ counts sum the same
# non-negative terms, so they differ by a few K*eps times the response.  A
# table response above limits * (1 + MARGIN) means the trial would reject
# too, for any K below about 10**6.
MARGIN = 1e-9


@dataclass(frozen=True)
class SlaThresholds:
    """Per-class upper bounds on mean response time."""

    max_response: np.ndarray

    def __post_init__(self):
        r = np.array(self.max_response, dtype=np.float64)
        if r.ndim != 1:
            raise ValueError("max_response must be a 1-D vector")
        if not np.all(np.isfinite(r)) or np.any(r <= 0):
            raise ValueError("thresholds must be finite and > 0")
        r.setflags(write=False)
        object.__setattr__(self, "max_response", r)

    @property
    def num_classes(self):
        return self.max_response.shape[0]


@dataclass(frozen=True)
class PlanOutcome:
    new_config: Configuration
    acquire_iterations: int
    release_iterations: int
    predicted_response: ResponseTimes
    feasible: bool


def _terms(total_d, counts, floor):
    """Response terms D_ck*M_k*N_k / (N_k - floor_k); zero where a class
    skips the station.  Callers keep N_k > floor_k on every station."""
    return total_d * counts / (counts - floor)


def check_attainable(base, sla):
    """Thresholds must sit strictly above the asymptotic response floor."""
    floor_c = asymptotic_floor(base)
    bad = sla.max_response <= floor_c + 1e-9
    if np.any(bad):
        raise UnattainableSla(np.flatnonzero(bad).tolist())


def acquire(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    """Grow the configuration until every class meets its threshold.

    Preconditioning first lifts the configuration to the minimum feasible
    point so predictions are defined; those additions are not counted as
    greedy iterations.  Each greedy iteration adds one instance to the
    station that most reduces the most-violating class's response time.
    Returns (configuration, greedy iteration count).
    """
    if sla.num_classes != base.num_classes:
        raise ValueError("threshold vector length does not match C")
    check_attainable(base, sla)
    counts = np.maximum(base.ref_config.counts, min_feasible_config(base).counts)
    floor = capacity_floor(base)
    total_d = base.total_demands()
    limits = sla.max_response
    rt = predict_response(base, Configuration(counts))
    # Residence table of predict_response and the gain table of one more
    # instance, both kept current one column per move.
    per_cs, per_class = rt.per_class_station.copy(), rt.per_class
    more = _terms(total_d, counts + 1, floor)
    gain = _terms(total_d, counts, floor) - more
    iters = 0
    while (per_class > limits).any():
        iters += 1
        if iters > iteration_cap:
            raise IterationCap("acquire exceeded %d iterations" % iteration_cap)
        b = int(((per_class - limits) / limits).argmax())
        j = int(gain[b].argmax())
        counts[j] += 1
        nxt = _terms(total_d[:, j], counts[j] + 1, floor[j])
        gain[:, j] = more[:, j] - nxt
        more[:, j] = nxt
        per_cs[:, j] = total_d[:, j] / (counts[j] - floor[j])
        per_class = per_cs @ counts
    return Configuration(counts), iters


def release(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    """Shrink the reference configuration greedily while keeping every
    threshold satisfied.  The caller guarantees the reference configuration
    already meets the thresholds.  Returns (configuration, iteration count);
    the result is Pareto-optimal: no single instance can be removed without
    breaking capacity or a threshold.
    """
    if sla.num_classes != base.num_classes:
        raise ValueError("threshold vector length does not match C")
    counts = base.ref_config.counts.copy()
    floor = capacity_floor(base)
    limits = sla.max_response
    total_d = base.total_demands()
    # Candidates must stay strictly above the capacity floor after removal.
    candidates = counts - 1 > floor
    iters = 0
    if not candidates.any():
        return Configuration(counts), iters
    rt = predict_response(base, Configuration(counts))
    per_cs, per_class = rt.per_class_station.copy(), rt.per_class
    # Terms at the current counts and at one fewer instance (+inf: no candidate).
    terms = _terms(total_d, counts, floor)
    fewer = np.full_like(terms, np.inf)
    fewer[:, candidates] = _terms(total_d[:, candidates], counts[candidates] - 1,
                                  floor[candidates])
    scale = 8 * counts.size * np.finfo(np.float64).eps
    reject_above = limits * (1.0 + MARGIN)
    moved = True
    while candidates.any():
        iters += 1
        if iters > iteration_cap:
            raise IterationCap("release exceeded %d iterations" % iteration_cap)
        if moved:
            # Class d, its marginals and its response sum change only when a
            # removal is accepted; a rejection just drops one marginal.
            d = int(((limits - per_class) / limits).argmin())
            cost = fewer[d] - terms[d]
            total = terms[d].sum()
            moved = False
        j = int(cost.argmin())
        # Marginals within rounding of the minimum are re-ranked on class d's
        # exact response sums; argmin keeps the first minimum in index order.
        close = cost <= cost[j] + scale * (total + abs(cost[j]))
        if np.count_nonzero(close) > 1:
            near = np.flatnonzero(close)
            rows = np.repeat(terms[d:d + 1], near.size, axis=0)
            rows[np.arange(near.size), near] = fewer[d, near]
            j = int(near[np.argmin(rows.sum(axis=1))])
        grown = per_class - terms[:, j] + fewer[:, j]
        if (grown > reject_above).any():
            # The trial would reject j, so skip it.  Until a removal is
            # accepted, per_class stays as it is, so once every candidate
            # left is doomed each is rejected in turn, one iteration each.
            # (fewer is +inf off the candidates, which count as doomed.)
            grown = per_class[:, np.newaxis] - terms + fewer
            if (grown > reject_above[:, np.newaxis]).any(axis=0).all():
                iters += np.count_nonzero(candidates) - 1
                if iters > iteration_cap:
                    raise IterationCap("release exceeded %d iterations" % iteration_cap)
                break
        else:
            n = counts[j] - 1
            per_cs[:, j] = total_d[:, j] / (n - floor[j])
            counts[j] = n
            trial = per_cs @ counts
            if (trial > limits).any():
                counts[j], per_cs[:, j] = n + 1, total_d[:, j] / (n + 1 - floor[j])
            else:
                per_class = trial
                terms[:, j] = fewer[:, j]
                moved = True
                if n - 1 > floor[j]:
                    fewer[:, j] = _terms(total_d[:, j], n - 1, floor[j])
                    continue
        # Rejected or at its floor.  Increments are additive, so a rejected
        # station can never be shrunk later either.
        candidates[j] = False
        fewer[:, j] = np.inf
        cost[j] = np.inf
    return Configuration(counts), iters


def plan_step(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    """One planning pass: acquire, re-reference the snapshot at the acquired
    configuration, release, and report the result."""
    acquired, acq_iters = acquire(base, sla, iteration_cap)
    rebased = rescale_snapshot(base, acquired)
    released, rel_iters = release(rebased, sla, iteration_cap)
    rt = predict_response(rebased, released)
    feasible = bool(np.all(rt.per_class <= sla.max_response))
    return PlanOutcome(released, acq_iters, rel_iters, rt, feasible)

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
    _frozen,
    _trusted,
    capacity_floor,
    counts_above,
    residence_table,
)
# Unused here; perfbench's --trace spans patch these planner attributes by
# name, and a missing one fails it.
from .model import predict_response, rescale_snapshot  # noqa: F401

DEFAULT_ITERATION_CAP = 1_000_000

# Relative margin for calling a removal doomed from the term tables alone.
# The table response of removing one instance at station j, per_class -
# T[:, j] + T_fewer[:, j], and the float trial per_cs @ counts sum the same
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


def _terms(td, counts, floor):
    """Station-major response terms D_ck*M_k*N_k / (N_k - floor_k), one row
    per station; zero where a class skips the station.  Callers keep
    N_k > floor_k on every station."""
    counts = counts[:, np.newaxis]
    return td * counts / (counts - floor[:, np.newaxis])


def check_attainable(base, sla):
    """Thresholds must sit strictly above the asymptotic response floor."""
    _check_attainable(base.total_demands(), sla)


def _check_attainable(total_d, sla):
    bad = sla.max_response <= total_d.sum(axis=1) + 1e-9
    if np.count_nonzero(bad):
        raise UnattainableSla(np.flatnonzero(bad).tolist())


def _tables(base, sla):
    """Total demands, capacity floor and thresholds of one greedy call."""
    if sla.num_classes != base.num_classes:
        raise ValueError("threshold vector length does not match C")
    return base.total_demands(), capacity_floor(base), sla.max_response


class _Greedy:
    """The tables one greedy call works on, at counts it keeps >= 1: the
    station-major total demands td, the floor (also as a list fl), the
    thresholds, the counts as Python ints (cnt) and as a float64 vector
    (fcounts), the C x K residence table per_cs and the response per_class =
    per_cs.dot(fcounts).  The acquire and release phases update them in
    place, so a release can start where an acquire left off."""

    __slots__ = ("td", "floor", "fl", "limits", "cnt", "fcounts", "per_cs", "per_class")

    def __init__(self, total_d, floor, limits, counts):
        self.per_cs = residence_table(total_d, floor, counts)
        self.fcounts = counts.astype(np.float64)
        self.per_class = self.per_cs.dot(self.fcounts)
        self.td = total_d.T.copy()
        self.floor, self.fl, self.limits = floor, floor.tolist(), limits
        self.cnt = counts.tolist()

    def configuration(self):
        return _trusted(Configuration, counts=_frozen(np.array(self.cnt, dtype=np.int64)))


def _acquire_start(base, sla):
    """Tables at the reference configuration lifted to the minimum feasible
    point, so predictions are defined."""
    total_d, floor, limits = _tables(base, sla)
    _check_attainable(total_d, sla)
    return _Greedy(total_d, floor, limits,
                   np.maximum(base.ref_config.counts, counts_above(floor)))


# Both phases keep their tables station-major (row k: station k), so a move
# rewrites one contiguous row; a class is a strided column.  Counts are
# Python ints for the scalar arithmetic and a float64 vector for the
# response per_cs.dot(counts): the same BLAS mat-vec as per_cs @ counts,
# without the integer cast or the matmul dispatch.  A class violates iff its
# relative excess (R - limit) / limit is > 0, so the argmax of that one
# vector (argmin of the slack) both answers "any violation?" and picks the
# class.

def _acquire_phase(g, iteration_cap):
    """Add instances until every class meets its threshold; returns the
    greedy iteration count."""
    td, floor, fl, limits = g.td, g.floor, g.fl, g.limits
    cnt, fcounts, per_cs, per_class = g.cnt, g.fcounts, g.per_cs, g.per_class
    # Terms at one more instance, and the gain of that instance.
    more = _terms(td, fcounts + 1, floor)
    gain = _terms(td, fcounts, floor) - more
    iters = 0
    while True:
        excess = per_class - limits
        excess /= limits
        b = int(excess.argmax())
        if not excess[b] > 0:
            break
        iters += 1
        if iters > iteration_cap:
            raise IterationCap("acquire exceeded %d iterations" % iteration_cap)
        j = int(gain[:, b].argmax())
        n = cnt[j] = cnt[j] + 1
        fcounts[j] = n
        nxt = td[j] * (n + 1)
        nxt /= n + 1 - fl[j]
        np.subtract(more[j], nxt, out=gain[j])
        more[j] = nxt
        np.divide(td[j], n - fl[j], out=per_cs[:, j])
        per_class = per_cs.dot(fcounts)
    g.per_class = per_class
    return iters


def _release_phase(g, iteration_cap):
    """Remove instances while every threshold holds; returns the iteration
    count.  The caller guarantees the tables' counts meet the thresholds."""
    td, floor, fl, limits = g.td, g.floor, g.fl, g.limits
    cnt, fcounts, per_cs, per_class = g.cnt, g.fcounts, g.per_cs, g.per_class
    # Candidates must stay strictly above the capacity floor after removal.
    candidates = fcounts - 1 > floor
    left = int(np.count_nonzero(candidates))
    if not left:
        return 0
    d = int(((limits - per_class) / limits).argmin())
    # Terms at the current counts and at one fewer instance (+inf: no candidate).
    terms = _terms(td, fcounts, floor)
    fewer = np.full_like(terms, np.inf)
    fewer[candidates] = _terms(td[candidates], fcounts[candidates] - 1, floor[candidates])
    scale = 8 * len(cnt) * np.finfo(np.float64).eps
    reject_above = limits * (1.0 + MARGIN)
    moved = True
    iters = 0
    while left:
        iters += 1
        if iters > iteration_cap:
            raise IterationCap("release exceeded %d iterations" % iteration_cap)
        if moved:
            # Class d, its marginals and its response sum change only when a
            # removal is accepted; a rejection just drops one marginal.
            cost = fewer[:, d] - terms[:, d]
            total = float(np.add.reduce(terms[:, d]))
            moved = False
        j = int(cost.argmin())
        cj = float(cost[j])
        # Marginals within rounding of the minimum are re-ranked on class d's
        # exact response sums; argmin keeps the first minimum in index order.
        close = cost <= cj + scale * (total + abs(cj))
        if np.count_nonzero(close) > 1:
            near = np.flatnonzero(close)
            rows = np.repeat(terms[np.newaxis, :, d], near.size, axis=0)
            rows[np.arange(near.size), near] = fewer[near, d]
            j = int(near[np.argmin(rows.sum(axis=1))])
        # The exact trial: remove one instance at j and recompute every class.
        n, f = cnt[j] - 1, fl[j]
        col = per_cs[:, j]
        np.divide(td[j], n - f, out=col)
        fcounts[j] = n
        trial = per_cs.dot(fcounts)
        slack = limits - trial
        slack /= limits
        m = int(slack.argmin())
        if slack[m] >= 0:
            per_class, cnt[j], d, moved = trial, n, m, True
            terms[j] = fewer[j]
            if n - 1 > f:
                row = fewer[j]
                np.multiply(td[j], n - 1, out=row)
                row /= n - 1 - f
                continue
        else:
            fcounts[j] = n + 1
            np.divide(td[j], n + 1 - f, out=col)
        # Rejected or at its floor.  Increments are additive, so a rejected
        # station can never be shrunk later either.
        left -= 1
        fewer[j] = np.inf
        cost[j] = np.inf
        if not moved and left:
            # After a rejection per_class stays as it is until a removal is
            # accepted, so once every candidate left is doomed, each is
            # rejected in turn, one iteration each.  (fewer is +inf off the
            # candidates, which count as doomed.)
            grown = per_class - terms + fewer
            if np.count_nonzero((grown > reject_above).any(axis=1)) == len(cnt):
                iters += left
                if iters > iteration_cap:
                    raise IterationCap("release exceeded %d iterations" % iteration_cap)
                break
    g.per_class = per_class
    return iters


def acquire(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    """Grow the configuration until every class meets its threshold.

    Preconditioning first lifts the configuration to the minimum feasible
    point so predictions are defined; those additions are not counted as
    greedy iterations.  Each greedy iteration adds one instance to the
    station that most reduces the most-violating class's response time.
    Returns (configuration, greedy iteration count).
    """
    g = _acquire_start(base, sla)
    iters = _acquire_phase(g, iteration_cap)
    return g.configuration(), iters


def release(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    """Shrink the reference configuration greedily while keeping every
    threshold satisfied.  The caller guarantees the reference configuration
    already meets the thresholds.  Returns (configuration, iteration count);
    the result is Pareto-optimal: no single instance can be removed without
    breaking capacity or a threshold.

    Each iteration tries the cheapest removal for the least-slack class by
    the exact trial.  Only after a rejection are the tables consulted: once
    every candidate left is doomed, the rest are rejected in one step.
    """
    total_d, floor, limits = _tables(base, sla)
    counts = base.ref_config.counts
    # No candidate: nothing to build tables for, so a reference at or below
    # the floor returns as it is.
    if not np.count_nonzero(counts - 1 > floor):
        return base.ref_config, 0
    g = _Greedy(total_d, floor, limits, counts)
    iters = _release_phase(g, iteration_cap)
    return g.configuration(), iters


def plan_step(base, sla, iteration_cap=DEFAULT_ITERATION_CAP):
    """One planning pass on one set of tables: acquire, then release from
    the acquired configuration.  The prediction is the release phase's
    final residence table and response, bit for bit what predict_response
    gives at the released configuration."""
    g = _acquire_start(base, sla)
    acq_iters = _acquire_phase(g, iteration_cap)
    rel_iters = _release_phase(g, iteration_cap)
    rt = _trusted(ResponseTimes, per_class=g.per_class, per_class_station=g.per_cs)
    feasible = np.count_nonzero(g.per_class <= sla.max_response) == sla.num_classes
    return PlanOutcome(g.configuration(), acq_iters, rel_iters, rt, feasible)

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

# Ties in the release ranking: marginals within 8 * K ulps of a response sum.
_EPS8 = 8 * np.finfo(np.float64).eps


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


def _terms(td, counts, floor, out=None):
    """Response terms D_ck*M_k*N_k / (N_k - floor_k), zero where a class
    skips the station, into `out` if given: station-major td with columns
    counts[:, None] and floor[:, None], or one station's row td[k] with its
    scalars.  Callers keep N_k > floor_k."""
    out = np.multiply(td, counts, out=out)
    out /= counts - floor
    return out


class _Greedy:
    """The tables one greedy call works on, built from a snapshot's totals
    and floor, the thresholds and counts >= 1: the station-major total
    demands td, the floor (also as a list fl), the thresholds, the counts as
    Python ints (cnt) and as a float64 vector (fcounts), the C x K residence
    table per_cs and the response per_class = per_cs.dot(fcounts).  The
    acquire and release phases update them in place, so a release can start
    where an acquire left off."""

    __slots__ = ("td", "floor", "fl", "limits", "cnt", "fcounts", "per_cs", "per_class")

    def __init__(self, total_d, floor, limits, counts):
        if limits.shape[0] != total_d.shape[0]:
            raise ValueError("threshold vector length does not match C")
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
    point, so predictions are defined.  Every threshold must sit strictly
    above its class's asymptotic response, the sum of its total demands."""
    total_d, floor = base.totals, base.floor
    # Lifted counts sit above the floor on every station, unless a floor is
    # so large (2**53 and up) that a count next to it rounds onto it; then
    # residence_table reports the station infeasible.
    lifted = np.maximum(base.ref_config.counts, counts_above(floor))
    g = _Greedy(total_d, floor, sla.max_response, lifted)
    bad = sla.max_response <= total_d.sum(axis=1) + 1e-9
    if np.count_nonzero(bad):
        raise UnattainableSla(np.flatnonzero(bad).tolist())
    return g


# Both phases keep their tables station-major (row k: station k), so a move
# rewrites one contiguous row; a class is a strided column.  Counts are kept
# twice: Python ints, handed to ufuncs as Python floats (an int scalar costs
# numpy a slower conversion), and a float64 vector for the response
# per_cs.dot(counts), the same BLAS mat-vec as per_cs @ counts without the
# cast or the matmul dispatch.  One copy, or one shared per-column update,
# measured 4-5% slower (ROADMAP N8).  A class violates iff its relative
# excess (R - limit) / limit is > 0, so the argmax of that vector (the
# negated slack) both answers "any violation?" and picks the class.

def _acquire_phase(g):
    """Add instances until every class meets its threshold; returns the
    greedy iteration count and the class of least slack at the end."""
    td, floor, fl, limits = g.td, g.floor, g.fl, g.limits
    cnt, fcounts, per_cs, per_class = g.cnt, g.fcounts, g.per_cs, g.per_class
    gain = None
    iters = 0
    while True:
        excess = per_class - limits
        excess /= limits
        b = int(excess.argmax())
        if not excess.item(b) > 0:
            break
        iters += 1
        if iters > DEFAULT_ITERATION_CAP:
            raise IterationCap("acquire exceeded %d iterations" % DEFAULT_ITERATION_CAP)
        if gain is None:
            # Terms at one more instance, and the gain of that instance;
            # built at the first move, since many steps need none.
            more = _terms(td, (fcounts + 1)[:, None], floor[:, None])
            gain = _terms(td, fcounts[:, None], floor[:, None]) - more
        j = int(gain[:, b].argmax())
        n = cnt[j] = cnt[j] + 1
        fcounts[j] = n
        row = td[j]
        nxt = _terms(row, float(n + 1), fl[j])
        np.subtract(more[j], nxt, out=gain[j])
        more[j] = nxt
        np.divide(row, n - fl[j], out=per_cs[:, j])
        per_class = per_cs.dot(fcounts)
    g.per_class = per_class
    return iters, b


def _release_phase(g, d):
    """Remove instances while every threshold holds, starting from the class
    d of least slack; returns the iteration count.  The caller guarantees
    the tables' counts meet the thresholds."""
    td, floor, fl, limits = g.td, g.floor, g.fl, g.limits
    cnt, fcounts, per_cs, per_class = g.cnt, g.fcounts, g.per_cs, g.per_class
    # Candidates must stay strictly above the capacity floor after removal.
    less = fcounts - 1
    room = less - floor
    candidates = room > 0
    left = int(np.count_nonzero(candidates))
    if not left:
        return 0
    # Terms at the current counts and at one fewer instance (+inf: not a
    # candidate, or no longer one), the latter as _terms writes them.
    terms = _terms(td, fcounts[:, None], floor[:, None])
    fewer = np.full_like(terms, np.inf)
    np.divide(td * less[:, np.newaxis], room[:, np.newaxis], out=fewer,
              where=candidates[:, np.newaxis])
    stations = len(cnt)
    scale = _EPS8 * stations
    reject_above = limits * (1.0 + MARGIN)
    moved = True
    iters = 0
    while left:
        iters += 1
        if iters > DEFAULT_ITERATION_CAP:
            raise IterationCap("release exceeded %d iterations" % DEFAULT_ITERATION_CAP)
        if moved:
            # Class d, its marginals and its response change only when a
            # removal is accepted.  per_class[d] * (1 + MARGIN) bounds class
            # d's exact response sum from above: both add the same
            # non-negative terms, as in the argument for MARGIN.
            cost = fewer[:, d] - terms[:, d]
            bound = per_class.item(d) * (1.0 + MARGIN)
            moved = False
        j = int(cost.argmin())
        cj = cost.item(j)
        # Marginals within rounding of the minimum (8 * K ulps of the bound)
        # are re-ranked on class d's exact response sums; argmin keeps the
        # first minimum in index order.  A marginal outside the window has a
        # larger sum, so re-ranking only when the runner-up is inside it
        # picks what a re-rank of every candidate would.
        cost[j] = np.inf
        runner_up = cost.item(cost.argmin())
        cost[j] = cj
        window = cj + scale * (bound + abs(cj))
        if runner_up <= window:
            near = np.flatnonzero(cost <= window)
            sums = np.repeat(terms[np.newaxis, :, d], near.size, axis=0)
            sums[np.arange(near.size), near] = fewer[near, d]
            j = int(near[np.argmin(sums.sum(axis=1))])
        # The exact trial: remove one instance at j and recompute every class.
        n, f, row, col = cnt[j] - 1, fl[j], td[j], per_cs[:, j]
        np.divide(row, n - f, out=col)
        fcounts[j] = n
        trial = per_cs.dot(fcounts)
        slack = limits - trial
        slack /= limits
        m = int(slack.argmin())
        if slack.item(m) >= 0:
            per_class, cnt[j], d, moved = trial, n, m, True
            nxt = fewer[j]
            terms[j] = nxt
            if n - 1 > f:
                _terms(row, float(n - 1), f, out=nxt)
            else:
                # At its floor: no longer a candidate.
                left -= 1
                nxt.fill(np.inf)
            continue
        fcounts[j] = n + 1
        np.divide(row, n + 1 - f, out=col)
        # Rejected, so the state stands.  Responses only grow as instances
        # go, so every candidate the tables call doomed (table response
        # above limits * (1 + MARGIN)) would be rejected too, one iteration
        # each, whatever is accepted first: drop them all now.  Increments
        # are additive, so j, rejected, can never be shrunk later either.
        # Rows off the candidates are +inf, so doomed as well.
        fewer[j] = np.inf
        grown = per_class - terms
        grown += fewer
        doomed = np.flatnonzero((grown > reject_above).any(axis=1))
        live = stations - doomed.size
        iters += left - 1 - live
        if iters > DEFAULT_ITERATION_CAP:
            raise IterationCap("release exceeded %d iterations" % DEFAULT_ITERATION_CAP)
        left = live
        fewer[doomed] = np.inf
        cost[doomed] = np.inf
    g.per_class = per_class
    return iters


def acquire(base, sla):
    """Grow the configuration until every class meets its threshold.

    Preconditioning first lifts the configuration to the minimum feasible
    point so predictions are defined; those additions are not counted as
    greedy iterations.  Each greedy iteration adds one instance to the
    station that most reduces the most-violating class's response time.
    Returns (configuration, greedy iteration count).
    """
    g = _acquire_start(base, sla)
    iters, _ = _acquire_phase(g)
    return g.configuration(), iters


def release(base, sla):
    """Shrink the reference configuration greedily while keeping every
    threshold satisfied, which the caller guarantees the reference does (one
    at or below the capacity floor raises InfeasibleConfiguration).  Returns
    (configuration, iteration count); the result is Pareto-optimal: no
    single instance can be removed without breaking capacity or a threshold.

    Each iteration tries the cheapest removal for the least-slack class by
    the exact trial.  Only after a rejection are the tables consulted: every
    candidate they call doomed is dropped at once, one iteration each.
    """
    g = _Greedy(base.totals, base.floor, sla.max_response, base.ref_config.counts)
    d = int(((sla.max_response - g.per_class) / sla.max_response).argmin())
    iters = _release_phase(g, d)
    return g.configuration(), iters


def plan_step(base, sla):
    """One planning pass on one set of tables: acquire, then release from
    the acquired configuration.  The prediction is the release phase's
    final residence table and response, bit for bit what predict_response
    gives at the released configuration."""
    g = _acquire_start(base, sla)
    acq_iters, d = _acquire_phase(g)
    rel_iters = _release_phase(g, d)
    rt = ResponseTimes(g.per_class, g.per_cs)
    feasible = np.count_nonzero(g.per_class <= sla.max_response) == sla.num_classes
    return PlanOutcome(g.configuration(), acq_iters, rel_iters, rt, feasible)

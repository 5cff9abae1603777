"""Discrete-event oracle for the analytic model.

Simulates the open multiclass network at a concrete configuration: Poisson
arrivals per class, stations visited in index order (zero-demand stations
skipped), one uniformly chosen instance per station, exponential service.
The per-visit service requirement is the configuration-invariant total
per-station demand of the class, so each instance sees the thinned arrival
stream lambda_c / N_k and the per-instance utilization of the analytic
model is reproduced.

Every class visits its stations in index order, so the network is
feed-forward: the arrivals at station k are the departures of the stations
before it.  The simulation therefore runs station by station, and each
instance is a single-server queue over its own sorted arrivals: FCFS by
Lindley's recursion, processor sharing exactly in virtual time, each busy
period on its own.

Point estimates and 95% confidence half-widths come from batch means over
the post-warmup portion of a single long run.
"""

import functools
import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..model import _target, capacity_floor, residence_table

PS = "ps"
FCFS = "fcfs"
DISCIPLINES = {"ps": PS, "processor-sharing": PS, "fcfs": FCFS}


@dataclass(frozen=True)
class DesResult:
    """Measured quantities with 95% batch-means half-widths."""

    response: np.ndarray            # (C,) mean response per class
    response_hw: np.ndarray
    residence: np.ndarray           # (C, K) mean residence per visit
    residence_hw: np.ndarray
    utilization: np.ndarray         # (K,) mean per-instance busy fraction
    utilization_per_instance: np.ndarray  # (I,)
    visit_rates: np.ndarray         # (C, I) measured per-instance arrival rates
    completions: np.ndarray         # (C,) post-warmup completion counts
    run_length: float
    warmup: float


def fcfs_departures(arrivals, services):
    """Departure times of a FCFS single server from its sorted arrival
    times and service times: Lindley's recursion
    d_i = max(a_i, d_{i-1}) + s_i, vectorised."""
    done = np.cumsum(services)
    return done + np.maximum.accumulate(arrivals - done + services)


# ps_departures advances busy periods in lockstep, CHUNK lanes at a time, in
# tag tables that start TAG_WIDTH slots wide per lane and double when a lane
# fills its row.  A chunk takes one numpy step per event of its largest busy
# period, and a step costs as much as some 30 to 70 events of the heap loop
# (17-25 us against 0.3-0.6 us on a 2-vCPU Xeon), so lockstep pays only
# while many lanes are active.  The HEAP_TAIL largest busy periods therefore
# run through the heap loop.  Without them a 200k-job stream at load 0.95
# takes two to three times as long, and 32 came within ~15% of the fastest
# tail tried (0 to 128) at loads 0.9 to 0.98.
HEAP_TAIL = 32
CHUNK = 2048
TAG_WIDTH = 8


def busy_period_starts(arrivals, fcfs_dep):
    """Mask of the jobs that find a single server empty, from its sorted
    arrival times and FCFS departures: the first job, and every job that
    arrives at or after the departure of the job before it."""
    fresh = np.empty(arrivals.size, dtype=bool)
    fresh[:1] = True
    np.greater_equal(arrivals[1:], fcfs_dep[:-1], out=fresh[1:])
    return fresh


def ps_departures(arrivals, services, fresh=None):
    """Departure times of egalitarian processor-sharing single servers from
    arrival times and service times (contiguous float64 arrays).

    Without `fresh` the input is one server's sorted stream.  Otherwise it
    may be several servers' sorted streams one after another, and `fresh`
    marks the first job of each busy period (busy_period_starts on each
    stream).

    With n jobs present each is served at rate 1/n, so virtual time V runs
    at dV/dt = 1/n and a job arriving at virtual time V leaves when V
    reaches V + s.  Busy periods are the same under every work-conserving
    discipline, and each starts from an empty server, so each is simulated
    on its own with V restarting at 0: a lone job leaves at a + s, the
    largest few busy periods run through a heap of finish tags, and the
    rest advance together as the lanes of _ps_lanes.
    """
    size = arrivals.size
    if fresh is None:
        fresh = busy_period_starts(arrivals, fcfs_departures(arrivals, services))
    elif size and not fresh[0]:
        raise ValueError("the first job must start a busy period")
    dep = np.empty(size)
    starts = np.flatnonzero(fresh)
    lengths = np.diff(starts, append=size)
    alone = starts[lengths == 1]
    dep[alone] = arrivals[alone] + services[alone]
    shared = np.flatnonzero(lengths > 1)
    shared = shared[np.argsort(-lengths[shared], kind="stable")]
    starts, lengths = starts[shared], lengths[shared]
    heap = slice(HEAP_TAIL)
    for lo, hi in zip(starts[heap].tolist(), (starts[heap] + lengths[heap]).tolist()):
        dep[lo:hi] = _ps_heap(arrivals[lo:hi], services[lo:hi])
    for lo in range(HEAP_TAIL, starts.size, CHUNK):
        _ps_lanes(arrivals, services, starts[lo:lo + CHUNK], lengths[lo:lo + CHUNK], dep)
    return dep


def _ps_heap(arrivals, services):
    """Processor-sharing departures of one sorted stream, O(log n) per event
    from a heap of finish tags."""
    dep = np.empty(arrivals.size)
    out = memoryview(dep)  # item access without a list of float objects
    heap = []
    t = v = 0.0
    for i, (a, s) in enumerate(zip(memoryview(arrivals), memoryview(services))):
        while heap:
            tag, j = heap[0]
            finish = t + (tag - v) * len(heap)
            if finish > a:
                break
            heapq.heappop(heap)
            out[j] = t = finish
            v = tag
        if heap:
            v += (a - t) / len(heap)
        t = a
        heapq.heappush(heap, (v + s, i))
    while heap:
        tag, j = heap[0]
        t += (tag - v) * len(heap)
        heapq.heappop(heap)
        out[j] = t
        v = tag
    return dep


def _ps_lanes(arrivals, services, starts, lengths, dep):
    """Write into dep the processor-sharing departures of the busy periods
    arrivals[b:b + m] for b, m in zip(starts, lengths), lengths descending
    and at least 2.

    Each busy period is a lane, and each numpy step advances every active
    lane by one event: its next arrival, or else the departure of its
    smallest finish tag if that comes first or at the same time.  A lane
    of m jobs takes its first arrival before the loop and its other 2m - 1
    events in 2m - 1 steps, so the active lanes are always a prefix.  Row
    l of the flat tables `tags` and `jobs` holds lane l's finish tags and
    job indices in any of its columns; a free column holds tag inf.

    The arithmetic is the heap loop's, event by event.  Where an FCFS
    busy-period end and this one disagree by an ulp, a lane can empty
    before its last arrival: its next event is then that arrival, and
    `share` keeps the empty lane from dividing by zero.  Its smallest tag
    is then column 0, which an arrival fills whenever it is free, so it
    holds the job index of that next arrival; that job's own departure
    overwrites the provisional inf written for it.
    """
    lanes = starts.size
    # Each lane's arrivals with an inf after them, so a lane past its last
    # arrival always takes a departure.
    first = np.cumsum(lengths + 1) - (lengths + 1)
    offset = starts - first  # job index = local index + offset
    local = np.arange(first[-1] + lengths[-1] + 1)
    nxt = arrivals.take(local + np.repeat(offset, lengths + 1), mode="clip")
    nxt[first + lengths] = np.inf
    pos = first + 1  # local index of each lane's next arrival
    t = arrivals[starts]
    v = np.zeros(lanes)
    n = np.ones(lanes)  # jobs present
    width = TAG_WIDTH
    tags = np.full(lanes * width, np.inf)
    tags[::width] = services[starts]
    jobs = np.zeros(lanes * width, dtype=np.int64)
    jobs[::width] = starts
    ends = 2 * lengths - 1  # lane l is active while step < ends[l]
    active = lanes
    step = check = 0
    with np.errstate(invalid="raise", divide="raise"):
        while active:
            if step == check:
                # A lane gains at most one job a step: look again before
                # any lane can fill its row.
                most = int(n[:active].max())
                if most == width:
                    tags = _widen(tags, active, width, np.inf)
                    jobs = _widen(jobs, active, width, 0)
                    width *= 2
                check = step + width - most
            stop = min(int(ends[active - 1]), check)
            table = tags[:active * width].reshape(active, width)
            row = np.arange(0, active * width, width)
            tv, vv, nv, pv, ov = t[:active], v[:active], n[:active], pos[:active], offset[:active]
            for _ in range(step, stop):
                low = table.argmin(axis=1)
                low += row
                free = table.argmax(axis=1)  # the first inf
                free += row
                tag = tags.take(low)
                share = np.maximum(nv, 1.0)
                finish = tag - vv
                finish *= share
                finish += tv
                arrival = nxt.take(pv)
                leave = finish <= arrival
                # A lane that takes an arrival writes a provisional time for
                # its smallest tag; that job's own departure overwrites it.
                dep[jobs.take(low)] = finish
                gap = arrival - tv
                gap /= share
                vv += gap
                np.putmask(vv, leave, tag)
                np.minimum(finish, arrival, out=tv)
                job = pv + ov
                tag = services.take(job, mode="clip")
                tag += vv
                np.putmask(tag, leave, np.inf)
                np.putmask(free, leave, low)  # a leaving lane frees low
                tags[free] = tag
                jobs[free] = job
                enter = ~leave
                nv += enter
                nv -= leave
                pv += enter
            step = stop
            active = int(np.count_nonzero(ends[:active] > step))


def _widen(table, rows, width, fill):
    """The first `rows` rows of a flat table `width` columns wide, in rows
    twice as wide with `fill` in the new columns."""
    wide = np.full((rows, 2 * width), fill, dtype=table.dtype)
    wide[:, :width] = table[:rows * width].reshape(rows, width)
    return wide.reshape(-1)


def busy_time(fcfs_dep, services, warmup, run_length):
    """Time inside [warmup, run_length] during which a single server with
    these FCFS departures and service times is busy.  The busy periods are
    the same under every work-conserving discipline, processor sharing
    included."""
    return float((np.clip(fcfs_dep, warmup, run_length)
                  - np.clip(fcfs_dep - services, warmup, run_length)).sum())


def des_loop(rates, service_means, counts, discipline, run_length, warmup, seed):
    """Simulate the feed-forward network over [0, run_length].

    rates         : (C,) Poisson arrival rate per class
    service_means : (C, K) mean exponential service requirement per visit;
                    class c visits the stations with a positive entry
    counts        : (K,) instances per station
    discipline    : PS or FCFS
    seed          : any non-negative integer, for np.random.default_rng

    Returns
      completions : per class, (response, time) of every job that leaves the
                    network by run_length
      visits      : visits[c][k] is (residence, departure time) of every
                    visit of class c to station k that ends by run_length,
                    None where class c skips station k
      busy        : (I,) busy time of each instance inside [warmup, run_length]
      visits_ci   : (C, I) arrivals of class c at instance i inside
                    [warmup, run_length]
    A job still in the network at run_length leaves no completion record.
    Every record array is sized by the jobs it holds, so none is capped.
    """
    rng = np.random.default_rng(seed)
    C, K = service_means.shape
    offsets = np.concatenate(([0], np.cumsum(counts)))
    busy = np.zeros(offsets[-1])
    visits_ci = np.zeros((C, offsets[-1]), dtype=np.int64)
    visits = [[None] * K for _ in range(C)]
    # start[c]: external arrival time of each class-c job still in the
    # network; at[c]: the time it reaches its next station, or leaves.
    start = [np.sort(rng.uniform(0.0, run_length, rng.poisson(lam * run_length)))
             for lam in rates]
    at = list(start)
    for k in range(K):
        users = np.flatnonzero(service_means[:, k] > 0)
        if users.size == 0:
            continue
        a = np.concatenate([at[c] for c in users])
        s = np.concatenate([rng.exponential(service_means[c, k], at[c].size) for c in users])
        inst = rng.integers(counts[k], size=a.size)
        order = np.lexsort((a, inst))
        bounds = np.concatenate(([0], np.cumsum(np.bincount(inst, minlength=counts[k]))))
        lo = 0
        for c in users:
            hi = lo + at[c].size
            visits_ci[c, offsets[k]:offsets[k + 1]] = np.bincount(
                inst[lo:hi][at[c] >= warmup], minlength=counts[k])
            lo = hi
        del inst
        # Instance-major: each instance's arrivals in time order, in turn.
        a = a[order]
        s = s[order]
        fresh = np.empty(a.size, dtype=bool) if discipline == PS else None
        for i in range(counts[k]):
            lo, hi = bounds[i], bounds[i + 1]
            fcfs = fcfs_departures(a[lo:hi], s[lo:hi])
            busy[offsets[k] + i] = busy_time(fcfs, s[lo:hi], warmup, run_length)
            if discipline == FCFS:
                s[lo:hi] = fcfs  # over the service times, now spent
            else:
                fresh[lo:hi] = busy_period_starts(a[lo:hi], fcfs)
        # The departures, back in class order, take the place of the sorted
        # arrivals.
        dep = a
        dep[order] = s if discipline == FCFS else ps_departures(a, s, fresh)
        del a, s, fresh
        lo = 0
        for c in users:
            hi = lo + at[c].size
            d_c = dep[lo:hi]
            done = d_c <= run_length
            left = d_c[done]
            visits[c][k] = (left - at[c][done], left)
            start[c] = start[c][done]
            at[c] = left
            lo = hi
    completions = [(at[c] - start[c], at[c]) for c in range(C)]
    return completions, visits, busy, visits_ci


@functools.cache
def _t975(df):
    """Student-t quantile t(0.975, df): the t with P(|T| <= t) = 0.95.

    Bisection to adjacent floats on the closed form of P(|T| <= t) for
    integer df (Abramowitz & Stegun 26.7.3-4), theta = atan(t / sqrt(df)).
    """
    odd = df % 2
    i = np.arange(1, df // 2)
    ratio = (2 * i - 1 + odd) / (2 * i + odd)  # term i / term i-1, over cos^2

    def prob(t):
        theta = math.atan(t / math.sqrt(df))
        sin, cos = math.sin(theta), math.cos(theta)
        # df // 2 terms, the first 1: none for df = 1, where P = 2 theta / pi.
        series = np.cumprod(ratio * cos * cos).sum() + (df > 1)
        return 2 / math.pi * (theta + sin * cos * series) if odd else sin * series

    lo, hi = 0.0, 1.0
    while prob(hi) < 0.95:
        lo, hi = hi, 2 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if prob(mid) < 0.95 else (lo, mid)
    return hi


def _batch_stats(values, times, t0, t1, batches):
    """Batch means by event time over [t0, t1]; returns (mean, halfwidth)."""
    if values.size == 0:
        return np.nan, np.nan
    edges = np.linspace(t0, t1, batches + 1)
    idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, batches - 1)
    sums = np.bincount(idx, weights=values, minlength=batches)
    cnts = np.bincount(idx, minlength=batches)
    ok = cnts > 0
    if ok.sum() < 2:
        return float(values.mean()), np.inf
    means = sums[ok] / cnts[ok]
    b = means.size
    hw = _t975(b - 1) * means.std(ddof=1) / np.sqrt(b)
    return float(means.mean()), float(hw)


def des_validate(base, config, discipline="ps", run_length=1e4,
                 warmup_fraction=0.2, batches=10, seed=0):
    """Measure per-class response, per-visit residence and per-instance
    utilization of the network at `config`, for cross-checking against the
    analytic predictions.

    `seed` may be any non-negative integer, such as the 63-bit values of
    `subseed`; it seeds np.random.default_rng as given.  A negative seed
    raises ValueError.
    """
    config = _target(base, config)
    if discipline not in DISCIPLINES:
        raise ValueError("unknown discipline %r" % (discipline,))
    # NaN fails the bound, and inf would reach numpy's Poisson draw.
    if not 0 < run_length < np.inf:
        raise ValueError("run_length must be finite and > 0, got %r" % (run_length,))
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if not (isinstance(batches, numbers.Integral) and batches >= 2):
        raise ValueError("batches must be an integer >= 2, got %r" % (batches,))
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)
    total_d = base.total_demands()
    # Raises InfeasibleConfiguration at or below the floor.
    residence_table(total_d, capacity_floor(base), config.counts)
    C, K = total_d.shape
    counts = config.counts
    warmup = warmup_fraction * run_length
    completions_rec, visits, busy, visits_ci = des_loop(
        base.rates.rates.astype(np.float64), total_d.astype(np.float64),
        counts.astype(np.int64), DISCIPLINES[discipline], float(run_length),
        float(warmup), seed)

    response = np.full(C, np.nan)
    response_hw = np.full(C, np.nan)
    completions = np.zeros(C, dtype=np.int64)
    for c, (resp, time) in enumerate(completions_rec):
        keep = time >= warmup
        completions[c] = int(keep.sum())
        response[c], response_hw[c] = _batch_stats(
            resp[keep], time[keep], warmup, run_length, batches)

    residence = np.full((C, K), np.nan)
    residence_hw = np.full((C, K), np.nan)
    for c in range(C):
        for k in range(K):
            if visits[c][k] is None:
                continue
            res, time = visits[c][k]
            keep = time >= warmup
            residence[c, k], residence_hw[c, k] = _batch_stats(
                res[keep], time[keep], warmup, run_length, batches)

    window = run_length - warmup
    util_inst = busy / window
    offsets = np.concatenate(([0], np.cumsum(counts)))
    utilization = np.array([util_inst[offsets[k]:offsets[k + 1]].mean() for k in range(K)])
    visit_rates = visits_ci / window

    return DesResult(response, response_hw, residence, residence_hw,
                     utilization, util_inst, visit_rates, completions,
                     float(run_length), float(warmup))

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
DISCIPLINES = (PS, FCFS)


@dataclass(frozen=True)
class DesResult:
    """Measured quantities with 95% batch-means half-widths, each over the
    window [warmup, run_length]; I is the total instance count."""

    response: np.ndarray            # (C,) mean response of the jobs that leave
                                    # in the window; NaN if none does
    response_hw: np.ndarray
    residence: np.ndarray           # (C, K) mean residence of the visits that end
                                    # in the window; NaN where class c skips k
    residence_hw: np.ndarray
    utilization: np.ndarray         # (K,) mean per-instance busy fraction
    utilization_per_instance: np.ndarray  # (I,)
    visit_rates: np.ndarray         # (C, I) class-c arrivals per unit time at i
    completions: np.ndarray         # (C,) the jobs that leave in the window
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


def ps_departures(arrivals, services, fresh):
    """Departure times of egalitarian processor-sharing single servers from
    arrival times and service times (contiguous float64 arrays): one or
    more servers' sorted streams one after another.  `fresh` marks the
    first job of each busy period (busy_period_starts on each stream).
    Returns `services`, each spent service time overwritten by its departure.

    With n jobs present each is served at rate 1/n, so virtual time V runs
    at dV/dt = 1/n and a job arriving at virtual time V leaves when V
    reaches V + s.  Busy periods are the same under every work-conserving
    discipline, and each starts from an empty server, so each is simulated
    on its own with V restarting at 0: a lone job leaves at a + s, the
    largest few busy periods run through a heap of finish tags, and the
    rest advance together as the lanes of _ps_lanes.
    """
    size = arrivals.size
    if size and not fresh[0]:
        raise ValueError("the first job must start a busy period")
    starts = np.flatnonzero(fresh)
    lengths = np.diff(starts, append=size)
    alone = starts[lengths == 1]
    services[alone] += arrivals[alone]
    shared = np.flatnonzero(lengths > 1)
    shared = shared[np.argsort(-lengths[shared], kind="stable")]
    starts, lengths = starts[shared], lengths[shared]
    heap = slice(HEAP_TAIL)
    for lo, hi in zip(starts[heap].tolist(), (starts[heap] + lengths[heap]).tolist()):
        _ps_heap(arrivals[lo:hi], services[lo:hi])
    for lo in range(HEAP_TAIL, starts.size, CHUNK):
        _ps_lanes(arrivals, services, starts[lo:lo + CHUNK], lengths[lo:lo + CHUNK])
    return services


def _ps_heap(arrivals, services):
    """Processor-sharing departures of one sorted stream, O(log n) per event
    from a heap of finish tags, each written over its job's service time,
    which the job's arrival has read."""
    out = memoryview(services)  # item access without a list of float objects
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


def _ps_lanes(arrivals, services, starts, lengths):
    """Write over services[b:b + m] the processor-sharing departures of the
    busy periods arrivals[b:b + m] for b, m in zip(starts, lengths),
    lengths descending and at least 2.

    Each busy period is a lane, and each numpy step advances every active
    lane by one event: its next arrival, or else the departure of its
    smallest finish tag if that comes first or at the same time.  A lane
    of m jobs takes its first arrival before the loop and its other 2m - 1
    events in 2m - 1 steps, so the active lanes are always a prefix.  Row
    l of the 2-D tables `tags` and `jobs` holds lane l's finish tags and
    job indices in any of its columns; a free column holds tag inf.

    The arithmetic is the heap loop's, event by event.  Where an FCFS
    busy-period end and this one disagree by an ulp, a lane can empty
    before its last arrival: its next event is then that arrival, and
    `share` keeps the empty lane from dividing by zero.  Its smallest tag
    is then column 0, which an arrival fills whenever it is free, so it
    holds the job index of that next arrival.  Each step therefore reads
    the arriving job's service time before it writes the provisional inf
    over it, and that job's own departure overwrites the inf.
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
    tags = np.full((lanes, width), np.inf)
    tags[:, 0] = services[starts]
    jobs = np.zeros((lanes, width), dtype=np.int64)
    jobs[:, 0] = starts
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
                    width *= 2  # rows twice as wide, the new columns free
                    wide_tags = np.full((active, width), np.inf)
                    wide_tags[:, :most] = tags[:active]
                    wide_jobs = np.zeros((active, width), dtype=np.int64)
                    wide_jobs[:, :most] = jobs[:active]
                    tags, jobs = wide_tags, wide_jobs
                check = step + width - most
            stop = min(int(ends[active - 1]), check)
            table = tags[:active]
            row = np.arange(0, active * width, width)  # flat index of column 0
            tv, vv, nv, pv, ov = t[:active], v[:active], n[:active], pos[:active], offset[:active]
            for _ in range(step, stop):
                low = table.argmin(axis=1)
                low += row
                free = table.argmax(axis=1)  # the first inf
                free += row
                tag = tags.take(low)
                job = pv + ov
                service = services.take(job, mode="clip")
                share = np.maximum(nv, 1.0)
                finish = tag - vv
                finish *= share
                finish += tv
                arrival = nxt.take(pv)
                leave = finish <= arrival
                # A lane that takes an arrival writes a provisional time for
                # its smallest tag; that job's own departure overwrites it.
                services[jobs.take(low)] = finish
                gap = arrival - tv
                gap /= share
                vv += gap
                np.putmask(vv, leave, tag)
                np.minimum(finish, arrival, out=tv)
                service += vv
                np.putmask(service, leave, np.inf)
                np.putmask(free, leave, low)  # a leaving lane frees low
                tags.put(free, service)
                jobs.put(free, job)
                enter = ~leave
                nv += enter
                nv -= leave
                pv += enter
            step = stop
            active = int(np.count_nonzero(ends[:active] > step))


def busy_time(fcfs_dep, services, warmup, run_length):
    """Time inside [warmup, run_length] during which a single server with
    these FCFS departures and service times is busy.  The busy periods are
    the same under every work-conserving discipline, processor sharing
    included."""
    return float((np.clip(fcfs_dep, warmup, run_length)
                  - np.clip(fcfs_dep - services, warmup, run_length)).sum())


def des_loop(rates, service_means, counts, discipline, run_length, warmup, seed, batches):
    """Simulate the feed-forward network over [0, run_length].

    rates         : (C,) Poisson arrival rate per class
    service_means : (C, K) mean exponential service requirement per visit;
                    class c visits the stations with a positive entry
    counts        : (K,) instances per station
    discipline    : PS or FCFS
    seed          : any non-negative integer, for np.random.default_rng
    batches       : number of batch means per statistic (at least 2)

    Returns the run's DesResult; its field comments say what each field
    measures.  Each station's visits, and each class's completions, are
    reduced to batch statistics as soon as their departures are known, so
    memory holds one station's working arrays and the jobs still in the
    network, not a record of every visit or completion.
    """
    rng = np.random.default_rng(seed)
    C, K = service_means.shape
    try:  # everything the arguments size, before the first station
        busy = np.zeros(sum(counts.tolist()))  # Python ints cannot wrap
        visits_ci = np.zeros((C, busy.size), dtype=np.int64)
        edges = np.linspace(warmup, run_length, batches + 1)[:-1]  # each batch's start
        start = [np.sort(rng.uniform(0.0, run_length, rng.poisson(lam * run_length)))
                 for lam in rates.tolist()]  # Python floats overflow to inf unwarned
    except (MemoryError, ValueError, IndexError):  # too large: array, Poisson mean, linspace count
        raise ValueError("target %s: too large to simulate at run_length %r with %d batches"
                         % (counts.tolist(), run_length, batches)) from None
    offsets = np.concatenate(([0], np.cumsum(counts)))
    residence = np.full((C, K), np.nan)
    residence_hw = np.full((C, K), np.nan)
    # start[c]: external arrival time of each class-c job still in the
    # network; at[c]: the time it reaches its next station, or leaves.
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
        if discipline == PS:
            ps_departures(a, s, fresh)  # over the service times, as FCFS
        # The departures, back in class order, take the place of the sorted
        # arrivals.
        dep = a
        dep[order] = s
        del a, s, fresh, order, bounds, fcfs
        lo = 0
        for c in users:
            hi = lo + at[c].size
            d_c = dep[lo:hi]
            done = d_c <= run_length
            left = d_c[done]
            residence[c, k], residence_hw[c, k] = _batch_stats(left - at[c][done], left, edges)
            start[c] = start[c][done]
            at[c] = left
            lo = hi
        del dep, d_c, done
    completions = np.array([np.count_nonzero(t >= warmup) for t in at], dtype=np.int64)
    response, response_hw = np.array([_batch_stats(t - s, t, edges)
                                      for t, s in zip(at, start)]).reshape(C, 2).T
    window = run_length - warmup
    util_inst = busy / window
    utilization = np.array([util_inst[offsets[k]:offsets[k + 1]].mean() for k in range(K)])
    return DesResult(response, response_hw, residence, residence_hw, utilization, util_inst,
                     visits_ci / window, completions, run_length, warmup)


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


def _batch_stats(values, times, edges):
    """Batch means by event time, `edges` holding each batch's start time;
    returns (mean, halfwidth).  Batch i is bin i + 1: bin 0, the values
    timed before edges[0], is dropped, and the last batch runs to the end."""
    idx = np.searchsorted(edges, times, side="right")
    sums = np.bincount(idx, weights=values, minlength=edges.size + 1)[1:]
    cnts = np.bincount(idx, minlength=edges.size + 1)[1:]
    ok = cnts > 0
    b = int(np.count_nonzero(ok))
    if b == 0:
        return np.nan, np.nan
    if b == 1:
        # np.mean sums pairwise, not in order as the bin's sum does.
        return float(values[idx > 0].mean()), np.inf
    means = sums[ok] / cnts[ok]
    hw = _t975(b - 1) * means.std(ddof=1) / np.sqrt(b)
    return float(means.mean()), float(hw)


def des_validate(base, config, discipline="ps", run_length=1e4,
                 warmup_fraction=0.2, batches=10, seed=0):
    """Measure per-class response, per-visit residence and per-instance
    utilization of the network at `config`, for cross-checking against the
    analytic predictions.

    `seed` may be any non-negative integer, such as the 63-bit values of
    `subseed`, or a whole float; it seeds np.random.default_rng as given.
    A negative, fractional or non-finite seed raises ValueError.
    """
    config = _target(base, config)
    if discipline not in DISCIPLINES:
        raise ValueError("unknown discipline %r" % (discipline,))
    # NaN fails the bound, and inf would reach numpy's Poisson draw.
    if not 0 < run_length < np.inf:
        raise ValueError("run_length must be finite and > 0, got %r" % (run_length,))
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if not (isinstance(batches, numbers.Integral) and 2 <= batches < 2 ** 63):
        raise ValueError("batches must be an integer in [2, 2**63), got %r" % (batches,))
    # A whole float is its integer; a fractional or non-finite one is not.
    if not (isinstance(seed, numbers.Integral)
            or isinstance(seed, numbers.Real) and float(seed).is_integer()) or seed < 0:
        raise ValueError("seed must be a non-negative integer, got %r" % (seed,))
    seed = int(seed)
    total_d = base.total_demands()
    # Raises InfeasibleConfiguration at or below the floor.
    residence_table(total_d, capacity_floor(base), config.counts)
    return des_loop(base.rates.rates, total_d, config.counts, discipline, float(run_length),
                    float(warmup_fraction * run_length), seed, batches)

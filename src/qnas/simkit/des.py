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
Lindley's recursion, processor sharing by an exact egalitarian loop in
virtual time.

Point estimates and 95% confidence half-widths come from batch means over
the post-warmup portion of a single long run.
"""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ..model import Configuration, predict_response

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


def ps_departures(arrivals, services):
    """Departure times of an egalitarian processor-sharing single server
    from its sorted arrival times and service times (contiguous float64
    arrays).

    With n jobs present each is served at rate 1/n, so virtual time V runs
    at dV/dt = 1/n and a job arriving at virtual time V leaves when V
    reaches V + s.  A heap of those finish tags gives the next departure in
    O(log n) per event.
    """
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
        dep = np.empty_like(a)
        for i in range(counts[k]):
            idx = order[bounds[i]:bounds[i + 1]]
            a_i, s_i = a[idx], s[idx]
            fcfs = fcfs_departures(a_i, s_i)
            busy[offsets[k] + i] = busy_time(fcfs, s_i, warmup, run_length)
            dep[idx] = fcfs if discipline == FCFS else ps_departures(a_i, s_i)
        lo = 0
        for c in users:
            hi = lo + at[c].size
            a_c, d_c, inst_c = a[lo:hi], dep[lo:hi], inst[lo:hi]
            visits_ci[c, offsets[k]:offsets[k + 1]] = np.bincount(
                inst_c[a_c >= warmup], minlength=counts[k])
            done = d_c <= run_length
            visits[c][k] = ((d_c - a_c)[done], d_c[done])
            start[c] = start[c][done]
            at[c] = d_c[done]
            lo = hi
    completions = [(at[c] - start[c], at[c]) for c in range(C)]
    return completions, visits, busy, visits_ci


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
    hw = stats.t.ppf(0.975, b - 1) * means.std(ddof=1) / np.sqrt(b)
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
    config = config if isinstance(config, Configuration) else Configuration(config)
    if discipline not in DISCIPLINES:
        raise ValueError("unknown discipline %r" % (discipline,))
    if not run_length > 0:
        raise ValueError("run length must be positive")
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if batches < 2:
        raise ValueError("need at least 2 batches")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)
    predict_response(base, config)  # raises InfeasibleConfiguration at or below the floor
    total_d = base.total_demands()
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

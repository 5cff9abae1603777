"""Discrete-event oracle for the analytic model.

Simulates the open multiclass network at a concrete configuration: Poisson
arrivals per class, stations visited in index order (zero-demand stations
skipped), one uniformly chosen instance per station, exponential service.
The per-visit service requirement is the configuration-invariant total
per-station demand of the class, so each instance sees the thinned arrival
stream lambda_c / N_k and the per-instance utilization of the analytic
model is reproduced.

Point estimates and 95% confidence half-widths come from batch means over
the post-warmup portion of a single long run.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from ..model import BaselineSnapshot, Configuration, predict_response
from .des_kernel import FCFS, PS, des_loop

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
    `subseed`.  It is reduced once, here, to the kernel's 32-bit seed by
    xor-folding its high bits into its low bits; the reduction is the
    identity below 2**32, and larger seeds keep their high bits' influence.
    A negative seed raises ValueError.
    """
    config = config if isinstance(config, Configuration) else Configuration(config)
    if discipline not in DISCIPLINES:
        raise ValueError("unknown discipline %r" % (discipline,))
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if batches < 2:
        raise ValueError("need at least 2 batches")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)
    predict_response(base, config)  # raises InfeasibleConfiguration at or below the floor
    total_d = base.total_demands()

    rates = base.rates.rates
    C, K = total_d.shape
    counts = config.counts
    inst_offset = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    n_inst = int(counts.sum())

    # Visit order: stations in index order, skipping zero-demand entries.
    first_st = np.full(C, -1, dtype=np.int64)
    next_st = np.full((C, K), -1, dtype=np.int64)
    for c in range(C):
        stations = np.flatnonzero(total_d[c] > 0)
        if stations.size:
            first_st[c] = stations[0]
            for a, b in zip(stations[:-1], stations[1:]):
                next_st[c, a] = b

    visits_per_class = (total_d > 0).sum(axis=1)
    exp_comp = float(rates.sum() * run_length)
    exp_vis = float((rates * visits_per_class).sum() * run_length)
    comp_cap = int(1.5 * exp_comp) + 1024
    visit_cap = int(1.5 * exp_vis) + 1024

    warmup = warmup_fraction * run_length
    (n_comp, comp_class, comp_resp, comp_time,
     n_vis, vis_class, vis_station, vis_inst, vis_res, vis_time,
     busy, visits_ci, n_dropped) = des_loop(
        rates.astype(np.float64), total_d.astype(np.float64),
        counts.astype(np.int64), inst_offset, first_st, next_st,
        DISCIPLINES[discipline], float(run_length), float(warmup),
        (seed ^ (seed >> 32)) & 0xFFFFFFFF, comp_cap, visit_cap,
    )
    if n_dropped:
        raise RuntimeError("active-job capacity exceeded (%d arrivals dropped); "
                           "the configuration is too close to saturation" % n_dropped)
    lost = (max(n_comp - comp_class.shape[0], 0), max(n_vis - vis_class.shape[0], 0))
    if any(lost):
        raise RuntimeError("record buffers exceeded (%d completion and %d visit "
                           "records dropped)" % lost)

    comp_class = comp_class[:n_comp]
    comp_resp = comp_resp[:n_comp]
    comp_time = comp_time[:n_comp]
    vis_class = vis_class[:n_vis]
    vis_station = vis_station[:n_vis]
    vis_res = vis_res[:n_vis]
    vis_time = vis_time[:n_vis]

    window = run_length - warmup
    keep_c = comp_time >= warmup
    keep_v = vis_time >= warmup

    response = np.full(C, np.nan)
    response_hw = np.full(C, np.nan)
    completions = np.zeros(C, dtype=np.int64)
    for c in range(C):
        sel = keep_c & (comp_class == c)
        completions[c] = int(sel.sum())
        response[c], response_hw[c] = _batch_stats(
            comp_resp[sel], comp_time[sel], warmup, run_length, batches)

    residence = np.full((C, K), np.nan)
    residence_hw = np.full((C, K), np.nan)
    for c in range(C):
        for k in range(K):
            if total_d[c, k] <= 0:
                continue
            sel = keep_v & (vis_class == c) & (vis_station == k)
            residence[c, k], residence_hw[c, k] = _batch_stats(
                vis_res[sel], vis_time[sel], warmup, run_length, batches)

    util_inst = busy / window
    utilization = np.array([
        util_inst[inst_offset[k]:inst_offset[k] + counts[k]].mean() for k in range(K)
    ])
    visit_rates = visits_ci / window

    return DesResult(response, response_hw, residence, residence_hw,
                     utilization, util_inst, visit_rates, completions,
                     float(run_length), float(warmup))

"""Event loop of the discrete-event oracle.

The kernel is written in nopython-compatible style and compiled with numba
when available; setting QNAS_NUMBA=0 (or missing numba) selects the plain
Python interpretation of the very same function.  benchmarks/bench_des.py
compares the two paths.
"""

import os

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover
    njit = None

USE_NUMBA = njit is not None and os.environ.get("QNAS_NUMBA", "1") != "0"

PS = 0
FCFS = 1

MAX_ACTIVE = 1 << 16


def _des_loop(rates, service_means, counts, inst_offset, first_st, next_st,
              discipline, run_length, warmup, seed, comp_cap, visit_cap):
    """Simulate the open network until `run_length` simulated time.

    rates         : (C,) Poisson arrival rate per class
    service_means : (C, K) mean exponential service requirement per visit
    counts        : (K,) instances per station
    inst_offset   : (K,) first instance index of each station
    first_st      : (C,) first station visited by each class, -1 if none
    next_st       : (C, K) next station after k for each class, -1 at end
    seed          : MT19937 seed in [0, 2**32); `des_validate` reduces wider
                    seeds to this range before calling

    Returns completion records, per-visit records (with the instance chosen),
    per-instance busy time inside [warmup, run_length], per-class-per-instance
    visit counts inside the same window, and the number of dropped arrivals
    (nonzero only if the active-job capacity overflowed).  The completion and
    visit counts run on past `comp_cap`/`visit_cap`, which cap only the
    records stored: a count above its cap means records were lost.
    """
    np.random.seed(seed)
    C = rates.shape[0]
    K = counts.shape[0]
    I = 0
    for k in range(K):
        I += counts[k]

    a_class = np.zeros(MAX_ACTIVE, dtype=np.int64)
    a_stage = np.zeros(MAX_ACTIVE, dtype=np.int64)
    a_inst = np.zeros(MAX_ACTIVE, dtype=np.int64)
    a_rem = np.zeros(MAX_ACTIVE, dtype=np.float64)
    a_start = np.zeros(MAX_ACTIVE, dtype=np.float64)
    a_enter = np.zeros(MAX_ACTIVE, dtype=np.float64)
    a_seq = np.zeros(MAX_ACTIVE, dtype=np.int64)
    n_active = 0
    seq = 0

    nj = np.zeros(I, dtype=np.int64)
    busy = np.zeros(I, dtype=np.float64)
    visits_ci = np.zeros((C, I), dtype=np.int64)
    head_idx = np.full(I, -1, dtype=np.int64)

    next_arr = np.empty(C, dtype=np.float64)
    for c in range(C):
        if rates[c] > 0.0:
            next_arr[c] = np.random.exponential(1.0 / rates[c])
        else:
            next_arr[c] = np.inf

    comp_class = np.zeros(comp_cap, dtype=np.int64)
    comp_resp = np.zeros(comp_cap, dtype=np.float64)
    comp_time = np.zeros(comp_cap, dtype=np.float64)
    n_comp = 0
    vis_class = np.zeros(visit_cap, dtype=np.int64)
    vis_station = np.zeros(visit_cap, dtype=np.int64)
    vis_inst = np.zeros(visit_cap, dtype=np.int64)
    vis_res = np.zeros(visit_cap, dtype=np.float64)
    vis_time = np.zeros(visit_cap, dtype=np.float64)
    n_vis = 0
    n_dropped = 0

    t = 0.0
    while True:
        # Next external arrival.
        ta = np.inf
        ac = -1
        for c in range(C):
            if next_arr[c] < ta:
                ta = next_arr[c]
                ac = c
        # Next service completion.
        tc = np.inf
        cj = -1
        if discipline == FCFS:
            for i in range(I):
                head_idx[i] = -1
            for j in range(n_active):
                i = a_inst[j]
                h = head_idx[i]
                if h < 0 or a_seq[j] < a_seq[h]:
                    head_idx[i] = j
            for i in range(I):
                j = head_idx[i]
                if j >= 0:
                    cand = t + a_rem[j]
                    if cand < tc:
                        tc = cand
                        cj = j
        else:
            for j in range(n_active):
                cand = t + a_rem[j] * nj[a_inst[j]]
                if cand < tc:
                    tc = cand
                    cj = j

        te = ta if ta < tc else tc
        ended = te > run_length
        bound = run_length if ended else te
        if bound > t:
            lo = t if t > warmup else warmup
            if bound > lo:
                span = bound - lo
                for i in range(I):
                    if nj[i] > 0:
                        busy[i] += span
        if ended:
            break
        dt = te - t
        if dt > 0.0:
            if discipline == FCFS:
                for i in range(I):
                    j = head_idx[i]
                    if j >= 0:
                        a_rem[j] -= dt
            else:
                for j in range(n_active):
                    a_rem[j] -= dt / nj[a_inst[j]]
        t = te

        if tc <= ta:
            # Completion of one visit.
            j = cj
            c = a_class[j]
            k = a_stage[j]
            i = a_inst[j]
            if n_vis < visit_cap:
                vis_class[n_vis] = c
                vis_station[n_vis] = k
                vis_inst[n_vis] = i
                vis_res[n_vis] = t - a_enter[j]
                vis_time[n_vis] = t
            n_vis += 1
            nj[i] -= 1
            nk = next_st[c, k]
            if nk < 0:
                if n_comp < comp_cap:
                    comp_class[n_comp] = c
                    comp_resp[n_comp] = t - a_start[j]
                    comp_time[n_comp] = t
                n_comp += 1
                n_active -= 1
                m = n_active
                a_class[j] = a_class[m]
                a_stage[j] = a_stage[m]
                a_inst[j] = a_inst[m]
                a_rem[j] = a_rem[m]
                a_start[j] = a_start[m]
                a_enter[j] = a_enter[m]
                a_seq[j] = a_seq[m]
            else:
                ii = inst_offset[nk] + np.random.randint(0, counts[nk])
                a_stage[j] = nk
                a_inst[j] = ii
                a_rem[j] = np.random.exponential(service_means[c, nk])
                a_enter[j] = t
                a_seq[j] = seq
                seq += 1
                nj[ii] += 1
                if t >= warmup:
                    visits_ci[c, ii] += 1
        else:
            # External arrival of class ac.
            next_arr[ac] = t + np.random.exponential(1.0 / rates[ac])
            k = first_st[ac]
            if k < 0:
                # Class touches no station: completes instantly.
                if n_comp < comp_cap:
                    comp_class[n_comp] = ac
                    comp_resp[n_comp] = 0.0
                    comp_time[n_comp] = t
                n_comp += 1
            elif n_active < MAX_ACTIVE:
                j = n_active
                n_active += 1
                ii = inst_offset[k] + np.random.randint(0, counts[k])
                a_class[j] = ac
                a_stage[j] = k
                a_inst[j] = ii
                a_rem[j] = np.random.exponential(service_means[ac, k])
                a_start[j] = t
                a_enter[j] = t
                a_seq[j] = seq
                seq += 1
                nj[ii] += 1
                if t >= warmup:
                    visits_ci[ac, ii] += 1
            else:
                n_dropped += 1

    return (
        n_comp, comp_class, comp_resp, comp_time,
        n_vis, vis_class, vis_station, vis_inst, vis_res, vis_time,
        busy, visits_ci, n_dropped,
    )


des_loop_python = _des_loop
if njit is not None:
    des_loop_numba = njit(cache=True)(_des_loop)
else:  # pragma: no cover
    des_loop_numba = None

des_loop = des_loop_numba if USE_NUMBA else des_loop_python

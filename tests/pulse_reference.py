"""Pulse-by-pulse reference sampler of the Monte Carlo model.

An independent implementation of the per-pulse model that
`relaysim.montecarlo.joint_law` enumerates: every gated pulse draws its pair
numbers, each photon's survival, routing at C2 and detection, and the dark
counts, from `relaysim.montecarlo.CounterRng`.  It shares no code with the
exact-law sampler, so comparing its click table with `joint_law` checks the
law against the model, not against itself.

Pulse i's draws sit at counters [i*SLOTS, (i+1)*SLOTS) in the slot layout
below; the per-photon loops take at most MAX_PAIR_CUTOFF slots per source.
"""

from __future__ import annotations

import numpy as np

from relaysim.montecarlo import MAX_PAIR_CUTOFF, SLOTS, CounterRng, SimParams

_S_NA = 1
_S_NB = 2
_S_A_SURV = 3                      # 20 slots
_S_B_SURV = 23                     # 20
_S_C_ARR = 43                      # 20
_S_C_DET = 63                      # 20
_S_COINC = 83
_S_SIDE = 84
_S_ROUTE_A = 85                    # 20
_S_ROUTE_B = 105                   # 20
_S_POST_A = 125                    # 40
_S_POST_B = 165                    # 40
_S_DET_A = 205                     # 40
_S_DET_B = 245                     # 40
_S_DARK_A = 285
_S_DARK_B = 286
_S_DARK_C = 287
assert _S_DET_B + 2 * MAX_PAIR_CUTOFF <= _S_DARK_A and _S_DARK_C < SLOTS

BATCH_PULSES = 1 << 18
LEDGER = ("generated", "lost", "undetected", "detected")


def _survivor_counts(rng, idx, n, base_slot, p):
    """Count per-pulse Bernoulli survivors among n generated photons."""
    k = np.zeros(idx.shape[0], dtype=np.int64)
    for j in range(int(n.max()) if idx.shape[0] else 0):
        m = n > j
        k[m] += rng.uniform(idx[m], base_slot + j) < p
    return k


def _arrive_detect_counts(rng, idx, n, arr_slot, det_slot, p_arrive, eta):
    """Per-photon arrival then detection draws; returns (arrived, detected)."""
    arrived = np.zeros(idx.shape[0], dtype=np.int64)
    detected = np.zeros(idx.shape[0], dtype=np.int64)
    for j in range(int(n.max()) if idx.shape[0] else 0):
        m = n > j
        sub = idx[m]
        arr = rng.uniform(sub, arr_slot + j) < p_arrive
        det = arr & (rng.uniform(sub, det_slot + j) < eta)
        arrived[m] += arr
        detected[m] += det
    return arrived, detected


def _batch(params: SimParams, rng: CounterRng, idx: np.ndarray, overlap: float):
    """Per-pulse click pattern (A, B, C) and photon flows of one batch."""
    n_g = idx.shape[0]
    n_a = np.searchsorted(np.cumsum(params.pmf_a), rng.uniform(idx, _S_NA), side="right")
    n_b = np.searchsorted(np.cumsum(params.pmf_b), rng.uniform(idx, _S_NB), side="right")
    np.minimum(n_a, params.cutoff, out=n_a)
    np.minimum(n_b, params.cutoff, out=n_b)

    k_a = _survivor_counts(rng, idx, n_a, _S_A_SURV, params.q_a)
    k_b = _survivor_counts(rng, idx, n_b, _S_B_SURV, params.q_b)
    arr_c, det_c = _arrive_detect_counts(
        rng, idx, n_b, _S_C_ARR, _S_C_DET, params.p_c_arrive, params.eta_c
    )

    # Coupler C2: quantum interference for the 1+1 pattern, independent
    # routing for every other pattern.
    cross = params.cross2
    bar = 1.0 - cross
    p_coinc = bar * bar + cross * cross - 2.0 * bar * cross * overlap
    m_a_out = np.zeros(n_g, dtype=np.int64)
    m_b_out = np.zeros(n_g, dtype=np.int64)

    pat11 = (k_a == 1) & (k_b == 1)
    sub = idx[pat11]
    coinc = rng.uniform(sub, _S_COINC) < p_coinc
    both_a = ~coinc & (rng.uniform(sub, _S_SIDE) < 0.5)
    both_b = ~coinc & ~both_a
    m_a_out[pat11] += coinc + 2 * both_a
    m_b_out[pat11] += coinc + 2 * both_b

    other = ~pat11
    for j in range(int(k_a.max())):
        m = other & (k_a > j)
        to_b = rng.uniform(idx[m], _S_ROUTE_A + j) < cross
        m_b_out[m] += to_b
        m_a_out[m] += ~to_b
    for j in range(int(k_b.max())):
        m = other & (k_b > j)
        to_a = rng.uniform(idx[m], _S_ROUTE_B + j) < cross
        m_a_out[m] += to_a
        m_b_out[m] += ~to_a

    arr_a, det_a = _arrive_detect_counts(
        rng, idx, m_a_out, _S_POST_A, _S_DET_A, params.s_post, params.eta_a
    )
    arr_b, det_b = _arrive_detect_counts(
        rng, idx, m_b_out, _S_POST_B, _S_DET_B, params.s_post, params.eta_b
    )

    def with_dark(detected, slot, dark):
        clicks = detected > 0
        quiet = ~clicks
        clicks[quiet] = rng.uniform(idx[quiet], slot) < dark
        return clicks

    clicks = [
        with_dark(det_a, _S_DARK_A, params.dark_a),
        with_dark(det_b, _S_DARK_B, params.dark_b),
        with_dark(det_c, _S_DARK_C, params.dark_c),
    ]
    generated = n_a + 2 * n_b
    lost = (n_a - k_a) + (n_b - k_b) + (n_b - arr_c) + (m_a_out - arr_a) + (m_b_out - arr_b)
    undetected = (arr_a - det_a) + (arr_b - det_b) + (arr_c - det_c)
    detected = det_a + det_b + det_c
    return clicks, (generated, lost, undetected, detected)


def click_table(params: SimParams, n_gated: int, key: int, overlap: float):
    """Sample n_gated gated pulses one by one.

    Returns the click-pattern counts, indexed like `joint_law` ([A, B, C]),
    and per ledger flow the sum and the sum of squares of its per-pulse
    photon counts.
    """
    rng = CounterRng(key)
    table = np.zeros(8, dtype=np.int64)
    moments = {name: [0, 0] for name in LEDGER}
    for lo in range(0, n_gated, BATCH_PULSES):
        idx = np.arange(lo, min(lo + BATCH_PULSES, n_gated), dtype=np.uint64)
        clicks, flows = _batch(params, rng, idx, overlap)
        cell = np.zeros(idx.shape[0], dtype=np.int64)
        for click in clicks:
            cell = 2 * cell + click
        table += np.bincount(cell, minlength=8)
        for name, flow in zip(LEDGER, flows):
            moments[name][0] += int(flow.sum())
            moments[name][1] += int((flow * flow).sum())
    return table.reshape(2, 2, 2), moments

"""Cell-by-cell reference of the exact truncated enumeration.

An independent implementation of `relaysim.montecarlo.expected_rates`: one
call recomputes every (k_a, k_b) photon pattern's click probabilities at the
given overlap, on numpy scalars, with no table shared between calls.  The
engine adds the same terms in the same order, so `expected_rates` and the
analytic `scan_dip` must match it exactly, not within a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from relaysim.montecarlo import ExpectedRates, SimParams
from relaysim.photostats import PhotonNumberDistribution, apply_loss


def _click_probs(m_max: int, p_det: float, dark: float) -> list[float]:
    """P[click] of a gated detector reached by m = 0..m_max photons.

    Each power is Python's `**`, as in the engine: numpy's vectorised
    `power` rounds some of them differently in the last bit.
    """
    return [1.0 - (1.0 - p_det) ** m * (1.0 - dark) for m in range(m_max + 1)]


def reference_rates(params: SimParams, overlap: float) -> ExpectedRates:
    """Exact per-gated-pulse event probabilities of a compiled scenario at one overlap."""
    # Photons from the external source at C2 input a: binomial thinning.
    pk_a = np.asarray(apply_loss(PhotonNumberDistribution(tuple(params.pmf_a)), params.q_a).pmf)

    # Joint law of (photons at C2 input b, herald click), correlated through
    # the chip pair number n.
    h_det = params.p_c_arrive * params.eta_c
    pk_b_herald = np.zeros(len(params.pmf_b))
    pk_b = np.zeros(len(params.pmf_b))
    for n, pn in enumerate(params.pmf_b):
        if pn == 0.0:
            continue
        p_click_c = 1.0 - (1.0 - h_det) ** n * (1.0 - params.dark_c)
        for k in range(n + 1):
            b = math.comb(n, k) * params.q_b**k * (1.0 - params.q_b) ** (n - k)
            pk_b[k] += pn * b
            pk_b_herald[k] += pn * b * p_click_c
    p_single_c = math.fsum(pk_b_herald)  # includes the dark contribution

    p_det_a = params.s_post * params.eta_a
    p_det_b = params.s_post * params.eta_b
    cross = params.cross2
    bar = 1.0 - cross
    p_coinc = bar * bar + cross * cross - 2.0 * bar * cross * overlap

    max_m = max(len(params.pmf_a) + len(params.pmf_b) - 1, 3)
    click_a = _click_probs(max_m - 1, p_det_a, params.dark_a)
    click_b = _click_probs(max_m - 1, p_det_b, params.dark_b)

    def output_stats(ka: int, kb: int) -> tuple[float, float, float]:
        """(P[click A], P[click B], P[click A and B]) for a coupler pattern."""
        if ka == 1 and kb == 1:
            p_bunch = (1.0 - p_coinc) / 2.0
            pa = p_coinc * click_a[1] + p_bunch * (click_a[2] + click_a[0])
            pb = p_coinc * click_b[1] + p_bunch * (click_b[2] + click_b[0])
            pab = (
                p_coinc * click_a[1] * click_b[1]
                + p_bunch * (click_a[2] * click_b[0] + click_a[0] * click_b[2])
            )
            return pa, pb, pab
        pa = pb = pab = 0.0
        for x in range(ka + 1):          # a-photons crossing to output B
            px = math.comb(ka, x) * cross**x * bar ** (ka - x)
            for y in range(kb + 1):      # b-photons crossing to output A
                py = math.comb(kb, y) * cross**y * bar ** (kb - y)
                m_a = ka - x + y
                m_b = x + kb - y
                w = px * py
                pa += w * click_a[m_a]
                pb += w * click_b[m_b]
                pab += w * click_a[m_a] * click_b[m_b]
        return pa, pb, pab

    p_single_a = p_single_b = p_two = p_three = 0.0
    for ka in range(pk_a.shape[0]):
        if pk_a[ka] == 0.0:
            continue
        for kb in range(pk_b.shape[0]):
            if pk_b[kb] == 0.0 and pk_b_herald[kb] == 0.0:
                continue
            pa, pb, pab = output_stats(ka, kb)
            p_single_a += pk_a[ka] * pk_b[kb] * pa
            p_single_b += pk_a[ka] * pk_b[kb] * pb
            p_two += pk_a[ka] * pk_b[kb] * pab
            p_three += pk_a[ka] * pk_b_herald[kb] * pab

    return ExpectedRates(
        float(p_single_a), float(p_single_b), float(p_single_c), float(p_two), float(p_three)
    )

"""Position-by-position reference of the link-budget relay rates and their search.

An independent implementation of `relaysim.linkbudget.link_rates`: every
call to `relay_probs` recomputes the whole rate model, detector and chip
terms included, from the parameters and the relay position, and
`best_position` runs the same 80-step golden-section search over it, and
`midpoint_reach` bisects the reach with the relay at the midpoint.  The
arithmetic is evaluated in the order the model's docstring states it, so
`link_rates` and `max_distance` must match it exactly, not within a tolerance.
"""

from __future__ import annotations

import math

from relaysim.linkbudget import LinkParams


def chip_transmissions(variant: str, params: LinkParams) -> tuple[float, float, float]:
    """(g_a, g_b, g_c) of the incoming, measured and teleported photons."""
    if variant in ("standard_relay", "folded_relay_lossless"):
        return 1.0, 1.0, 1.0
    layout = params.layout
    return (
        layout.path_transmission("insertion"),
        layout.path_transmission("chipsrc_to_c2") * layout.path_transmission("c2_to_out"),
        layout.path_transmission("chipsrc_to_c"),
    )


def relay_probs(
    variant: str, params: LinkParams, distance_km: float, position: float
) -> tuple[float, float]:
    """(signal, accidental) per pulse for a relay at the given position."""
    alpha = params.fiber_loss_db_per_km
    eta = params.detector.efficiency
    d = params.detector.dark_prob_per_gate
    eta_r = 1.0 if variant == "standard_relay" else eta
    d_r = d
    mu = params.mean_photon_per_pulse
    nu = params.relay_pair_mean
    g_a, g_b, g_c = chip_transmissions(variant, params)

    t1 = 10.0 ** (-alpha * position * distance_km / 10.0)
    t2 = 10.0 ** (-alpha * (1.0 - position) * distance_km / 10.0)

    p_a = mu * t1 * g_a * eta_r
    p_b = nu * g_b * eta_r
    herald_true = 0.5 * p_a * p_b
    p_bob = g_c * t2 * eta

    signal = herald_true * p_bob
    accidental = (
        herald_true * d
        + (p_a * d_r) * (nu * p_bob + d)
        + (p_b * d_r) * (p_bob + d)
        + d_r * d_r * (nu * p_bob + d)
    )
    return signal, accidental


def best_position(variant: str, params: LinkParams, distance_km: float) -> float:
    """Golden-section maximization of SNR over the relay position, 80 steps."""
    if distance_km <= 0:
        return 0.5

    def snr(f: float) -> float:
        s, a = relay_probs(variant, params, distance_km, f)
        return s / a if a > 0 else math.inf

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-4, 1.0 - 1e-4
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = snr(x1), snr(x2)
    for _ in range(80):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = snr(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = snr(x1)
    return (lo + hi) / 2.0


def reference_rates(
    variant: str, params: LinkParams, distance_km: float
) -> tuple[float, float, float]:
    """(signal, accidental, normalized rate) of one link variant at a distance."""
    eta = params.detector.efficiency
    d = params.detector.dark_prob_per_gate
    norm = params.mean_photon_per_pulse * eta + d
    if variant == "direct":
        signal = params.mean_photon_per_pulse * eta * 10.0 ** (
            -params.fiber_loss_db_per_km * distance_km / 10.0
        )
        accidental = d
    else:
        position = best_position(variant, params, distance_km)
        signal, accidental = relay_probs(variant, params, distance_km, position)
    return signal, accidental, (signal + accidental) / norm


def midpoint_reach(variant: str, params: LinkParams) -> float | None:
    """Distance where a relay at the midpoint falls below SNR unity, bisected to 0.1 km.

    None when its SNR stays above unity within 10^4 km.
    """

    def below(distance_km: float) -> bool:
        signal, accidental = relay_probs(variant, params, distance_km, 0.5)
        return signal < accidental

    if not below(1e4):
        return None
    if below(0.0):
        return 0.0
    lo, hi = 0.0, 1e4
    while hi - lo > 0.1:
        mid = (lo + hi) / 2.0
        if below(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0

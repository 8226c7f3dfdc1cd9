"""Analytic key-rate-versus-distance models for one-way quantum links.

Four link variants are compared: a direct link, a textbook teleportation
relay with ideal Bell-state detection, the folded relay implemented by the
chip, where the herald travels forward along the channel and gates the
receiver, and the same folded relay on a lossless chip.  Every entry point
takes a variant by its name in VARIANTS.  Rates are normalized to the direct
link's zero-distance value; absolute rates follow by multiplying with the
pulse rate.

The relay rate model (per gated pulse, probabilities small):

  herald_true  = 1/2 * (mu t1 g_a eta_r) * (nu g_b eta_r)
  herald_false = (mu t1 g_a eta_r) d_r + (nu g_b eta_r) d_r + d_r^2
  signal       = herald_true * g_c t2 eta
  accidental   = herald_true * d  +  false heralds * (surviving partner + dark)

with t1, t2 the fiber transmissions of the two legs, g_a/g_b/g_c the chip
transmissions seen by the incoming, measured, and teleported photons, eta/d
the gated detector efficiency and per-gate dark probability (eta_r/d_r at
the relay), mu the channel mean photon number and nu the local pair mean.
The intrinsic factor 1/2 reflects linear-optics Bell-state discrimination.
The model has no error term, so the reach where the SNR falls to unity is
an upper bound on the reach of a key distribution over the link.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .components import ChipLayout, DetectorModel
from .records import record
from .units import db_to_linear

MAX_SEARCH_KM = 1e4

VARIANTS = ("direct", "standard_relay", "folded_relay", "folded_relay_lossless")


@record
class LinkParams:
    """Shared link-budget parameters for all variants."""

    fiber_loss_db_per_km: float
    detector: DetectorModel
    mean_photon_per_pulse: float
    relay_pair_mean: float
    layout: ChipLayout

    def __post_init__(self) -> None:
        for name in ("fiber_loss_db_per_km", "mean_photon_per_pulse", "relay_pair_mean"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@record
class LinkRates:
    """Per-gated-pulse link probabilities at one distance."""

    signal_prob: float
    accidental_prob: float
    normalized_rate: float


def _chip_transmissions(variant: str, params: LinkParams) -> tuple[float, float, float]:
    """(g_a, g_b, g_c): chip transmissions of the incoming, measured and teleported photons."""
    if variant in ("standard_relay", "folded_relay_lossless"):
        return 1.0, 1.0, 1.0
    layout = params.layout
    return (
        layout.path_transmission("insertion"),
        layout.path_transmission("chipsrc_to_c2") * layout.path_transmission("c2_to_out"),
        layout.path_transmission("chipsrc_to_c"),
    )


def _relay_probs(
    variant: str, params: LinkParams, distance_km: float
) -> Callable[[float], tuple[float, float]]:
    """probs(position) -> (signal, accidental) per pulse for a relay at distance_km.

    Everything that does not depend on the relay position is computed once
    here, for the golden-section search to reuse.  Every sum and product
    keeps the evaluation order of the rate model above, so hoisting moves
    no bit of the result.
    """
    neg_alpha = -params.fiber_loss_db_per_km
    eta = params.detector.efficiency
    d = params.detector.dark_prob_per_gate
    eta_r = 1.0 if variant == "standard_relay" else eta
    d_r = d
    mu = params.mean_photon_per_pulse
    nu = params.relay_pair_mean
    g_a, g_b, g_c = _chip_transmissions(variant, params)
    p_b = nu * g_b * eta_r
    p_b_dark = p_b * d_r
    dark_pair = d_r * d_r

    def probs(position: float) -> tuple[float, float]:
        t1 = 10.0 ** (neg_alpha * position * distance_km / 10.0)  # t1, t2: `db_to_linear` inlined for speed
        t2 = 10.0 ** (neg_alpha * (1.0 - position) * distance_km / 10.0)
        p_a = mu * t1 * g_a * eta_r
        herald_true = 0.5 * p_a * p_b
        p_bob = g_c * t2 * eta
        partner_or_dark = nu * p_bob + d
        accidental = (
            herald_true * d
            + (p_a * d_r) * partner_or_dark
            + p_b_dark * (p_bob + d)
            + dark_pair * partner_or_dark
        )
        return herald_true * p_bob, accidental

    return probs


def _best_position(probs: Callable[[float], tuple[float, float]]) -> float:
    """Golden-section maximization of SNR over the relay position."""

    def snr(f: float) -> float:
        s, a = probs(f)
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


def link_rates(variant: str, params: LinkParams, distance_km: float) -> LinkRates:
    """Signal/accidental probabilities and normalized rate of one variant at a distance.

    A relay variant places its relay where the SNR is highest.  Rates are
    normalized to the direct link's zero-distance rate mu eta + d, which
    must hold signal: mu eta == 0 raises ValueError.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not distance_km >= 0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    eta = params.detector.efficiency
    d = params.detector.dark_prob_per_gate
    signal_norm = params.mean_photon_per_pulse * eta
    if signal_norm == 0:
        raise ValueError(
            "mean_photon_per_pulse * link_detector_efficiency is 0: the direct link detects "
            "no signal, so rates normalized to its zero-distance rate are undefined"
        )
    norm = signal_norm + d

    if variant == "direct":
        signal = signal_norm * db_to_linear(params.fiber_loss_db_per_km * distance_km)
        accidental = d
    else:
        probs = _relay_probs(variant, params, distance_km)
        signal, accidental = probs(_best_position(probs) if distance_km > 0 else 0.5)
    return LinkRates(signal, accidental, (signal + accidental) / norm)


@record
class MaxDistanceResult:
    """Maximum distance before SNR unity, with the symmetric-midpoint reach of a relay."""

    distance_km: float
    midpoint_distance_km: float | None


def max_distance(variant: str, params: LinkParams) -> MaxDistanceResult:
    """Smallest distance where the signal falls below the accidentals, bisected to 0.1 km.

    The relay position is optimized per distance; for relay variants the
    reach with the relay fixed at the midpoint is also computed.  If the SNR
    stays above unity within 10^4 km the reach is unbounded: distance_km is
    inf, with no midpoint reach.
    """

    def below_snr_unity(distance_km: float) -> bool:
        rates = link_rates(variant, params, distance_km)
        return rates.signal_prob < rates.accidental_prob

    def midpoint_below_snr_unity(distance_km: float) -> bool:
        signal, accidental = _relay_probs(variant, params, distance_km)(0.5)
        return signal < accidental

    def solve(below: Callable[[float], bool]) -> float | None:
        if not below(MAX_SEARCH_KM):
            return None
        if below(0.0):
            return 0.0
        lo, hi = 0.0, MAX_SEARCH_KM
        while hi - lo > 0.1:
            mid = (lo + hi) / 2.0
            if below(mid):
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2.0

    dist = solve(below_snr_unity)
    if dist is None:
        return MaxDistanceResult(math.inf, None)

    midpoint = None if variant == "direct" else solve(midpoint_below_snr_unity)
    return MaxDistanceResult(dist, midpoint)


def sweep(variants, params: LinkParams, distances_km) -> list[tuple[float, ...]]:
    """Rows (distance, normalized rate of each variant) over the distance grid."""
    variants = list(variants)
    distances = [float(x) for x in distances_km]
    if not variants or not distances:
        raise ValueError("variants and distances must be nonempty")
    rates = [[link_rates(v, params, x).normalized_rate for x in distances] for v in variants]
    return list(zip(distances, *rates))


def fig2_models() -> tuple[str, ...]:
    """The four standard comparison curves, one per variant."""
    return VARIANTS

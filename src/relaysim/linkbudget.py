"""Analytic key-rate-versus-distance models for one-way quantum links.

Four link variants are compared: a direct link, a textbook teleportation
relay with ideal Bell-state detection, the folded relay implemented by the
chip, where the herald travels forward along the channel and gates the
receiver, and the same folded relay on a lossless chip.  Rates are
normalized to the direct link's zero-distance value; absolute rates follow
by multiplying with the pulse rate.

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
from dataclasses import dataclass, field, replace

from .components import ChipLayout, DetectorModel

MAX_SEARCH_KM = 1e4

VARIANTS = ("direct", "standard_relay", "folded_relay", "folded_relay_lossless")


@dataclass(frozen=True)
class LinkParams:
    """Shared link-budget parameters for all variants."""

    fiber_loss_db_per_km: float = 0.2
    detector: DetectorModel = field(
        default_factory=lambda: DetectorModel(
            efficiency=0.10, dark_prob_per_ns=1e-6, gate_window_ns=1.0
        )
    )
    mean_photon_per_pulse: float = 1.0
    relay_pair_mean: float = 1.0
    layout: ChipLayout = field(default_factory=ChipLayout)

    def __post_init__(self) -> None:
        if not self.fiber_loss_db_per_km >= 0:
            raise ValueError(f"fiber loss must be >= 0, got {self.fiber_loss_db_per_km}")
        if not (self.mean_photon_per_pulse >= 0 and self.relay_pair_mean >= 0):
            raise ValueError("mean photon numbers must be >= 0")


@dataclass(frozen=True)
class LinkModel:
    """One link variant; relay_position None means optimize per distance."""

    variant: str = "direct"
    relay_position: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.relay_position is not None and not 0.0 < self.relay_position < 1.0:
            raise ValueError(f"relay position must be in (0, 1), got {self.relay_position}")


@dataclass(frozen=True)
class LinkRates:
    """Per-gated-pulse link probabilities at one distance."""

    signal_prob: float
    accidental_prob: float
    normalized_rate: float


def _chip_transmissions(model: LinkModel, params: LinkParams) -> tuple[float, float, float]:
    """(g_a, g_b, g_c): chip transmissions of the incoming, measured and teleported photons."""
    if model.variant in ("standard_relay", "folded_relay_lossless"):
        return 1.0, 1.0, 1.0
    layout = params.layout
    return (
        layout.path_transmission("insertion"),
        layout.path_transmission("chipsrc_to_c2") * layout.path_transmission("c2_to_out"),
        layout.path_transmission("chipsrc_to_c"),
    )


def _relay_probs(
    model: LinkModel, params: LinkParams, distance_km: float
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
    eta_r = 1.0 if model.variant == "standard_relay" else eta
    d_r = d
    mu = params.mean_photon_per_pulse
    nu = params.relay_pair_mean
    g_a, g_b, g_c = _chip_transmissions(model, params)
    p_b = nu * g_b * eta_r
    p_b_dark = p_b * d_r
    dark_pair = d_r * d_r

    def probs(position: float) -> tuple[float, float]:
        t1 = 10.0 ** (neg_alpha * position * distance_km / 10.0)
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


def link_rates(model: LinkModel, params: LinkParams, distance_km: float) -> LinkRates:
    """Signal/accidental probabilities and normalized rate at a distance.

    Rates are normalized to the direct link's zero-distance rate mu eta + d,
    which must hold signal: mu eta == 0 raises ValueError.
    """
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

    if model.variant == "direct":
        signal = signal_norm * 10.0 ** (-params.fiber_loss_db_per_km * distance_km / 10.0)
        accidental = d
    else:
        probs = _relay_probs(model, params, distance_km)
        position = model.relay_position
        if position is None:
            position = _best_position(probs) if distance_km > 0 else 0.5
        signal, accidental = probs(position)
    return LinkRates(signal, accidental, (signal + accidental) / norm)


@dataclass(frozen=True)
class MaxDistanceResult:
    """Maximum distance before SNR unity, with the symmetric-midpoint reach of a relay."""

    distance_km: float
    midpoint_distance_km: float | None


def _below_snr_unity(model: LinkModel, params: LinkParams, distance_km: float) -> bool:
    rates = link_rates(model, params, distance_km)
    return rates.signal_prob < rates.accidental_prob


def max_distance(model: LinkModel, params: LinkParams) -> MaxDistanceResult:
    """Smallest distance where the signal falls below the accidentals, bisected to 0.1 km.

    The relay position is optimized per distance unless the model fixes it;
    for relay variants the symmetric-midpoint result is also computed.  If
    the SNR stays above unity within 10^4 km the reach is unbounded: distance_km
    is inf, with no midpoint reach.
    """

    def solve(m: LinkModel) -> float | None:
        if not _below_snr_unity(m, params, MAX_SEARCH_KM):
            return None
        if _below_snr_unity(m, params, 0.0):
            return 0.0
        lo, hi = 0.0, MAX_SEARCH_KM
        while hi - lo > 0.1:
            mid = (lo + hi) / 2.0
            if _below_snr_unity(m, params, mid):
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2.0

    dist = solve(model)
    if dist is None:
        return MaxDistanceResult(math.inf, None)

    midpoint = None
    if model.variant != "direct":
        midpoint = solve(replace(model, relay_position=0.5))
    return MaxDistanceResult(dist, midpoint)


@dataclass(frozen=True)
class SweepResult:
    """Normalized rates per model over a distance grid."""

    distances_km: tuple[float, ...]
    labels: tuple[str, ...]
    rates: tuple[tuple[float, ...], ...]  # one row of rates per label


def sweep(models, params: LinkParams, distances_km) -> SweepResult:
    """Evaluate normalized rates for each model over the distance grid."""
    models = list(models)
    distances = [float(x) for x in distances_km]
    if not models or not distances:
        raise ValueError("models and distances must be nonempty")
    labels = tuple(m.variant for m in models)
    rates = tuple(
        tuple(link_rates(m, params, x).normalized_rate for x in distances) for m in models
    )
    return SweepResult(tuple(distances), labels, rates)


def fig2_models() -> list[LinkModel]:
    """The four standard comparison curves, one per variant."""
    return [LinkModel(variant) for variant in VARIANTS]

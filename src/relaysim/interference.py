"""Closed-form two-photon interference (HOM) visibility analytics.

The dip visibility factorizes into a timing bound set by the arrival-time
uncertainty relative to the photons' coherence time, and a statistics bound
set by multi-pair emission of the two sources.  The dip itself is modeled as
a gaussian in path-length difference with FWHM c * tau_fwhm.
"""

from __future__ import annotations

import math
import warnings

from .photostats import PhotonNumberDistribution, UndefinedConditioningError, herald_condition, thermal
from .records import record
from .units import delay_to_path

FOUR_LN2 = 4.0 * math.log(2.0)


class UndefinedVisibilityError(ValueError):
    """Raised when the out-of-dip coincidence probability is zero."""


class GridMeanError(ValueError):
    """Raised when arm a's or arm b's visibility-map grid is empty or holds a mean with no thermal law."""

    def __init__(self, arm: str, message: str) -> None:
        super().__init__(message)
        self.arm = arm


class FitFailureError(RuntimeError):
    """Raised when a gaussian dip fit does not converge or finds no dip baseline."""


def v_timing(tau_uncert_ps: float, tau_c_ps: float) -> float:
    """Timing bound on visibility: 1 / sqrt((tau_uncert/tau_c)^2 + 1)."""
    if not tau_c_ps > 0:
        raise ValueError(f"coherence time must be > 0, got {tau_c_ps}")
    if not tau_uncert_ps >= 0:
        raise ValueError(f"time uncertainty must be >= 0, got {tau_uncert_ps}")
    x = tau_uncert_ps / tau_c_ps
    if x > 1e150:  # x ** 2 overflows past about 1.3e154; sqrt(x ** 2 + 1) rounds to x here
        return 1.0 / x
    return 1.0 / math.sqrt(x**2 + 1.0)


def p_coincidence_bounds(
    dist_a: PhotonNumberDistribution, dist_b: PhotonNumberDistribution
) -> tuple[float, float]:
    """(p_min, p_max): coincidence probabilities inside and outside the dip.

    In the low-mean-number approximation only one- and two-photon terms
    matter: p_min = P0a*P2b + P2a*P0b (multi-pair background that cannot
    interfere) and p_max = P1a*P1b + p_min.
    """
    p_min = dist_a.p(0) * dist_b.p(2) + dist_a.p(2) * dist_b.p(0)
    p_max = dist_a.p(1) * dist_b.p(1) + p_min
    return p_min, p_max


def v_statistics(
    dist_a: PhotonNumberDistribution, dist_b: PhotonNumberDistribution
) -> float:
    """Statistics bound on visibility: (p_max - p_min) / p_max.

    Equal-mean thermal inputs give exactly 1/3 (the thermal identity
    P0*P2 = P1^2); ideal heralded inputs with no vacuum reach 1.
    """
    p_min, p_max = p_coincidence_bounds(dist_a, dist_b)
    if not p_max > 0.0:
        raise UndefinedVisibilityError(
            "out-of-dip coincidence probability is zero; visibility undefined"
        )
    return (p_max - p_min) / p_max


def visibility_map(
    grid_na, grid_nb, herald_efficiency: float | None, herald_dark_prob: float
) -> list[tuple[float, float, float]]:
    """v_statistics over a (N_a, N_b) grid of thermal sources.

    Arm a is an unheralded thermal source; arm b is thermal, conditioned on
    a herald click.  Rows are emitted in grid order as (N_a, N_b, visibility).
    An empty grid or a mean with no thermal law raises GridMeanError, naming
    its arm; an undefined conditioning or visibility names the grid point it
    fails at.
    """
    grid_na, grid_nb = list(grid_na), list(grid_nb)
    laws = {}
    for arm, grid in (("a", grid_na), ("b", grid_nb)):
        if not grid:
            raise GridMeanError(arm, "the grid must be nonempty")
        try:
            laws[arm] = [thermal(mean) for mean in grid]
        except ValueError as exc:
            raise GridMeanError(arm, str(exc)) from None
    dists_b = []
    for nb, law in zip(grid_nb, laws["b"]):
        try:
            dists_b.append(herald_condition(law, herald_efficiency, herald_dark_prob))
        except UndefinedConditioningError as exc:
            raise UndefinedConditioningError(f"{exc} at N_b = {nb!r}") from None
    rows = []
    for na, dist_a in zip(grid_na, laws["a"]):
        for nb, dist_b in zip(grid_nb, dists_b):
            try:
                rows.append((na, nb, v_statistics(dist_a, dist_b)))
            except UndefinedVisibilityError as exc:
                raise UndefinedVisibilityError(f"{exc} at N_a = {na!r}, N_b = {nb!r}") from None
    return rows


@record
class DipProfile:
    """Sampled coincidence-rate dip versus path-length difference."""

    positions_mm: tuple[float, ...]
    rates: tuple[float, ...]
    visibility: float
    fwhm_mm: float
    baseline: float


def dip_profile(
    visibility: float, tau_fwhm_ps: float, baseline: float, positions_mm
) -> DipProfile:
    """Analytic gaussian dip: rate = baseline * (1 - V exp(-4 ln2 (dx/(c tau))^2)).

    The dip FWHM in path units is c * tau_fwhm (20 ps -> 6.0 mm).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    if not tau_fwhm_ps > 0:
        raise ValueError(f"dip FWHM time must be > 0, got {tau_fwhm_ps}")
    fwhm_mm = delay_to_path(tau_fwhm_ps)
    pos = tuple(float(x) for x in positions_mm)
    rates = tuple(
        baseline * (1.0 - visibility * math.exp(-FOUR_LN2 * (x / fwhm_mm) ** 2)) for x in pos
    )
    return DipProfile(pos, rates, visibility, fwhm_mm, baseline)


@record
class DipFit:
    """Gaussian dip fit result with 1-sigma parameter errors; the fitted center is not kept."""

    visibility: float
    visibility_err: float
    fwhm_mm: float
    fwhm_err: float
    baseline: float


def _dip_model(x, baseline, visibility, fwhm, center):
    import numpy as np

    return baseline * (1.0 - visibility * np.exp(-FOUR_LN2 * ((x - center) / fwhm) ** 2))


def fit_dip(positions_mm, rates, fwhm_guess_mm: float, errors=None) -> DipFit:
    """Fit baseline, visibility, FWHM, and center of a gaussian dip to samples.

    The width's search starts at fwhm_guess_mm (> 0).  errors, when given,
    are absolute 1-sigma rate uncertainties.  Raises FitFailureError when
    the fit does not converge, when no rate is positive, when every rate is
    equal, or when the fitted baseline is not positive; callers that must
    preserve raw samples catch it and report the failure alongside the data.
    """
    import numpy as np
    from scipy.optimize import OptimizeWarning, curve_fit  # deferred: costs most of a cold hom-dip

    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(rates, dtype=float)
    if x.size < 4:
        raise FitFailureError("need at least 4 samples to fit a 4-parameter dip")
    if not np.any(y > 0):
        raise FitFailureError("no positive rate to fit: every sampled rate is <= 0")
    if np.all(y == y[0]):
        raise FitFailureError("every rate is equal: no dip to fit")
    baseline0 = float(np.max(y))  # > 0: some rate is
    depth0 = min(max(1.0 - float(np.min(y)) / baseline0, 1e-3), 1.0)
    center0 = float(x[np.argmin(y)])
    sigma = None
    if errors is not None:
        sigma = np.asarray(errors, dtype=float)
        sigma = np.where(sigma > 0, sigma, np.max(sigma[sigma > 0]) if np.any(sigma > 0) else 1.0)
    try:
        # A far argument of the gaussian overflows to inf, and exp(-inf) is
        # its limit, 0.  Exact-model samples fit perfectly; the covariance is
        # then singular.
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                _dip_model, x, y,
                p0=[baseline0, depth0, fwhm_guess_mm, center0],
                sigma=sigma, absolute_sigma=sigma is not None, maxfev=20000,
            )
    except (RuntimeError, ValueError) as exc:
        raise FitFailureError(f"gaussian dip fit did not converge: {exc}") from exc
    if not popt[0] > 0:
        raise FitFailureError(f"fitted dip baseline {float(popt[0])!r} is not positive")
    perr = np.sqrt(np.abs(np.diag(pcov)))
    return DipFit(
        visibility=float(popt[1]), visibility_err=float(perr[1]),
        fwhm_mm=abs(float(popt[2])), fwhm_err=float(perr[2]),
        baseline=float(popt[0]),
    )

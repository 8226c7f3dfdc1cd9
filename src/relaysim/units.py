"""Physical quantities and unit-safe spectral/temporal conversions.

All conversions between wavelength bandwidth, coherence time, path delay and
loss live here; only `linkbudget`'s relay search inlines `db_to_linear`, for
speed.  Lengths are carried in the units conventional for each quantity
(wavelengths in nm, filter bandwidths in pm, delay-line positions in mm) and
converted through the vacuum speed of light.
"""

from __future__ import annotations

import math

from .records import record

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

# Time-bandwidth product of a gaussian spectrum, linking its FWHM to the
# transform-limited coherence time.
TIME_BANDWIDTH_PRODUCT = 0.441


@record
class SpectralMode:
    """A light field's spectrum: center wavelength and FWHM bandwidth.

    center_wavelength_nm and fwhm_pm must both be positive.  The derived
    coherence time decreases monotonically with bandwidth at fixed center.
    """

    center_wavelength_nm: float
    fwhm_pm: float

    def __post_init__(self) -> None:
        if not self.center_wavelength_nm > 0:
            raise ValueError(f"center wavelength must be > 0, got {self.center_wavelength_nm}")
        if not self.fwhm_pm > 0:
            raise ValueError(f"FWHM bandwidth must be > 0, got {self.fwhm_pm}")


def coherence_time(mode: SpectralMode) -> float:
    """Transform-limited coherence time in ps: 0.441 * lambda^2 / (c * dlambda).

    0.441 is the time-bandwidth product of a gaussian spectrum, the one the
    photons have (the dip's overlap, its timing factor and the dip fit are
    gaussian too).  A 200 pm bandwidth at 1530 nm gives 17.2 ps.  A
    bandwidth that underflows to 0 m gives the limit, inf; a center
    wavelength whose square overflows or underflows raises ValueError.
    """
    lam_m = mode.center_wavelength_nm * 1e-9
    dlam_m = mode.fwhm_pm * 1e-12
    try:
        lam_sq = lam_m**2
    except OverflowError:
        raise ValueError(f"center wavelength {mode.center_wavelength_nm} nm overflows when squared") from None
    if not lam_sq > 0:
        raise ValueError(f"center wavelength {mode.center_wavelength_nm} nm underflows when squared")
    if dlam_m == 0.0:
        return math.inf
    return TIME_BANDWIDTH_PRODUCT * lam_sq / (SPEED_OF_LIGHT_M_PER_S * dlam_m) * 1e12


def delay_to_path(delay_ps: float) -> float:
    """Path difference in mm for a vacuum delay in ps (20 ps -> 6.0 mm)."""
    if not math.isfinite(delay_ps):
        raise ValueError(f"delay must be finite, got {delay_ps}")
    return delay_ps * 1e-12 * SPEED_OF_LIGHT_M_PER_S * 1e3


def db_to_linear(loss_db: float) -> float:
    """Power transmission for a loss in dB (3 dB -> 0.501)."""
    return 10.0 ** (-loss_db / 10.0)

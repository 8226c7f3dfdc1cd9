"""Physical quantities and unit-safe spectral/temporal conversions.

All conversions between wavelength bandwidth, coherence time, and path delay
live here; no other module does raw unit math.  Lengths are carried in the
units conventional for each quantity (wavelengths in nm, filter bandwidths in
pm, delay-line positions in mm) and converted through the vacuum speed of
light.
"""

from __future__ import annotations

import math

from .records import record

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

# Time-bandwidth products linking spectral FWHM to transform-limited
# coherence time for the two supported lineshapes.
TIME_BANDWIDTH_PRODUCT = {
    "gaussian": 0.441,
    "sinc_squared": 0.886,
}

LINESHAPES = tuple(TIME_BANDWIDTH_PRODUCT)


@record
class SpectralMode:
    """A light field's spectrum: center wavelength, FWHM bandwidth, lineshape.

    center_wavelength_nm and fwhm_pm must both be positive.  The derived
    coherence time decreases monotonically with bandwidth at fixed center.
    """

    center_wavelength_nm: float
    fwhm_pm: float
    lineshape: str

    def __post_init__(self) -> None:
        if not self.center_wavelength_nm > 0:
            raise ValueError(f"center wavelength must be > 0, got {self.center_wavelength_nm}")
        if not self.fwhm_pm > 0:
            raise ValueError(f"FWHM bandwidth must be > 0, got {self.fwhm_pm}")
        if self.lineshape not in TIME_BANDWIDTH_PRODUCT:
            raise ValueError(f"unknown lineshape {self.lineshape!r}; expected one of {LINESHAPES}")


def coherence_time(mode: SpectralMode) -> float:
    """Transform-limited coherence time in ps: K * lambda^2 / (c * dlambda).

    K is the lineshape's time-bandwidth product (0.441 gaussian, 0.886 sinc^2).
    A 200 pm gaussian filter at 1530 nm gives 17.2 ps.
    """
    k = TIME_BANDWIDTH_PRODUCT[mode.lineshape]
    lam_m = mode.center_wavelength_nm * 1e-9
    dlam_m = mode.fwhm_pm * 1e-12
    try:
        lam_sq = lam_m**2
    except OverflowError:
        raise ValueError(f"center wavelength {mode.center_wavelength_nm} nm overflows when squared") from None
    return k * lam_sq / (SPEED_OF_LIGHT_M_PER_S * dlam_m) * 1e12


def delay_to_path(delay_ps: float) -> float:
    """Path difference in mm for a vacuum delay in ps (20 ps -> 6.0 mm)."""
    if not math.isfinite(delay_ps):
        raise ValueError(f"delay must be finite, got {delay_ps}")
    return delay_ps * 1e-12 * SPEED_OF_LIGHT_M_PER_S * 1e3


def db_to_linear(loss_db: float) -> float:
    """Power transmission for a loss in dB (3 dB -> 0.501)."""
    return 10.0 ** (-loss_db / 10.0)

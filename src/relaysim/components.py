"""Parametric models of the physical elements of the relay circuit.

Covers the on-chip SPDC pair source, the two electro-optically tunable
directional couplers, rectangular bandpass filters, lumped loss segments with
the chip's port-to-port layout, and gated single-photon detectors.  Models
are immutable after construction/calibration; evaluation functions are pure.
"""

from __future__ import annotations

import math
import sys

from .records import record
from .units import SpectralMode, db_to_linear

# Half-max point of sinc^2(x): sinc(x) = sin(x)/x.
_SINC2_HALF_MAX_X = 1.391557377204354
_FLOAT_EPS = sys.float_info.epsilon  # np.sinc's stand-in for a zero argument


class CalibrationError(ValueError):
    """Raised when coupler calibration anchors cannot be represented."""


class ConfigurationError(ValueError):
    """Raised for inconsistent component or layout configuration."""


# ---------------------------------------------------------------------------
# SPDC source
# ---------------------------------------------------------------------------

@record
class SpdcSource:
    """Pulsed pair source with brightness linear in pump power.

    pairs_per_mw is the calibration constant tying mean created pairs per
    pulse (in the collected, filtered mode) to average pump power.
    """

    pairs_per_mw: float
    pump_power_mw: float
    spectrum: SpectralMode = SpectralMode(1532.0, 80_000.0)

    def __post_init__(self) -> None:
        if not self.pairs_per_mw >= 0:
            raise ValueError(f"pairs_per_mw must be >= 0, got {self.pairs_per_mw}")
        if not self.pump_power_mw >= 0:
            raise ValueError(f"pump power must be >= 0, got {self.pump_power_mw}")

    @property
    def mean_pairs(self) -> float:
        return self.pairs_per_mw * self.pump_power_mw


def spdc_spectral_density(spectrum: SpectralMode, wavelengths_nm) -> list[float]:
    """Relative spectral density of the emitted pairs, normalized to 1 at center.

    Evaluates the pair spectrum's sinc^2 phase-matching envelope, with the
    spectrum's FWHM, at each wavelength of a sequence and returns one float
    per wavelength; the envelope is symmetric about the center wavelength.
    It repeats `np.sinc(...) ** 2` operation for operation, machine epsilon
    in place of a zero argument included, so it gives numpy's values without
    loading numpy.  An argument that overflows, as far from a narrow
    envelope, gives the limit, 0.0.
    """
    center = spectrum.center_wavelength_nm
    fwhm_nm = spectrum.fwhm_pm * 1e-3
    density = []
    for lam in wavelengths_nm:
        x = (float(lam) - center) / fwhm_nm
        y = math.pi * (2.0 * _SINC2_HALF_MAX_X * x / math.pi) or _FLOAT_EPS
        s = 0.0 if math.isinf(y) else math.sin(y) / y
        density.append(s * s)
    return density


# ---------------------------------------------------------------------------
# Electro-optic directional coupler
# ---------------------------------------------------------------------------

@record
class CouplerModel:
    """Two-waveguide coupled-mode model with voltage-linear detuning.

    kappa_lc_rad is the coupling strength times interaction length; at the
    design value pi/2 the 9 mm section transfers all power at zero bias.
    gamma_rad_per_v aggregates the electro-optic detuning: delta*Lc = gamma*V.
    """

    kappa_lc_rad: float
    gamma_rad_per_v: float

    def __post_init__(self) -> None:
        if not self.kappa_lc_rad > 0:  # NaN too: the gamma fit cannot terminate on it
            raise ValueError(f"kappa*Lc must be > 0, got {self.kappa_lc_rad}")


def coupler_ratio(model: CouplerModel, voltage_v: float) -> float:
    """Cross-port power fraction T(V) = kappa^2/(kappa^2+delta^2) * sin^2(Lc*sqrt(...)).

    Total function of voltage, always in [0, 1]; bar fraction is 1 - T.  A
    detuning gamma * V that overflows gives the limit, 0.0.
    """
    a = model.kappa_lc_rad
    b = model.gamma_rad_per_v * voltage_v
    s = math.hypot(a, b)
    if math.isinf(s):
        return 0.0
    return (a / s) ** 2 * math.sin(s) ** 2


# Gauss-Newton steps allowed in the detuning-slope fit of calibrate_coupler.
_GAMMA_FIT_MAX_STEPS = 100


def _gamma_fit_state(anchors, kappa_lc_rad: float, gamma: float) -> tuple[float, float]:
    """Sum of squared anchor residuals at gamma, and the Gauss-Newton step from there.

    The slope of the cross ratio is dT/dgamma = dT/ds * gamma V^2 / s, with
    s = hypot(kappa*Lc, gamma V) and T = (kappa*Lc / s)^2 sin^2(s).
    """
    model = CouplerModel(kappa_lc_rad, gamma)
    cost = num = den = 0.0
    for v, r in anchors:
        res = coupler_ratio(model, v) - r
        s = math.hypot(kappa_lc_rad, gamma * v)
        sin_s = math.sin(s)
        dt_ds = 2.0 * (kappa_lc_rad / s) ** 2 * sin_s * (math.cos(s) - sin_s / s)
        slope = dt_ds * (gamma * v * v / s)
        cost += res * res
        num += res * slope
        den += slope * slope
    return cost, (-num / den if den else 0.0)


def _fit_gamma(anchors, kappa_lc_rad: float, gamma: float) -> float:
    """Least-squares detuning slope gamma > 0 by Gauss-Newton from a starting slope.

    Each step is clamped so gamma at most halves or doubles, which keeps it
    off the gamma = 0 bound (a stationary point of every residual) and in the
    fringe of T(V) it started in, then halved until the squared residual
    does not grow.  The fit stops when an iterate repeats, or after
    _GAMMA_FIT_MAX_STEPS steps.
    """
    cost, step = _gamma_fit_state(anchors, kappa_lc_rad, gamma)
    seen = set()
    for _ in range(_GAMMA_FIT_MAX_STEPS):
        seen.add(gamma)
        step = min(max(step, -0.5 * gamma), gamma)
        while True:
            trial = gamma + step
            if trial in seen:
                return gamma
            trial_cost, trial_step = _gamma_fit_state(anchors, kappa_lc_rad, trial)
            if trial_cost <= cost:
                break
            step *= 0.5
        gamma, cost, step = trial, trial_cost, trial_step
    return gamma


@record
class CouplerCalibration:
    """Result of fitting a CouplerModel to measured (voltage, ratio) anchors.

    gamma_constrained is False when no anchor sits off zero bias, so nothing
    fixed the detuning slope and gamma was left at 0.
    """

    model: CouplerModel
    residual_rms: float
    gamma_constrained: bool


def calibrate_coupler(anchor_points, kappa_lc_rad: float) -> CouplerCalibration:
    """Least-squares fit of the detuning slope gamma to anchors at fixed kappa*Lc.

    Anchors are (voltage_V, cross_ratio) pairs; the default config's pair
    {(0, 1.0), (30, 0.5)} pins full transfer at zero bias and the 50/50 point.
    Anchors requesting more transfer than the zero-bias maximum are rejected.
    Anchors only at zero voltage leave gamma unconstrained at 0, and the
    calibration says so in gamma_constrained.  The fit starts at
    0.8 kappa*Lc / |V| at the largest nonzero |V|; anchors where that
    overflows (below about 7e-309 V at kappa*Lc = pi/2) are rejected.
    """
    model = CouplerModel(kappa_lc_rad, 0.0)  # rejects a bad kappa*Lc before anchors are judged by it
    anchors = tuple((float(v), float(r)) for v, r in anchor_points)
    if not anchors:
        raise CalibrationError("at least one (voltage, ratio) anchor is required")
    for v, r in anchors:
        if not math.isfinite(v):
            raise CalibrationError(f"anchor voltage {v} is not finite")
        if not 0.0 <= r <= 1.0:
            raise CalibrationError(f"anchor ratio {r} at {v} V is outside [0, 1]")

    t0 = math.sin(kappa_lc_rad) ** 2
    for v, r in anchors:
        if r > t0 + 1e-9:
            raise CalibrationError(
                f"anchor ratio {r} at {v} V exceeds the zero-bias maximum {t0:.6f}"
            )

    nonzero = [(v, r) for v, r in anchors if v != 0.0]
    if nonzero:
        # Initial slope: detuning comparable to coupling at the largest anchor voltage.
        v_ref = max(abs(v) for v, _ in nonzero)
        gamma = 0.8 * kappa_lc_rad / v_ref
        if gamma == math.inf:
            raise CalibrationError(f"anchor voltage {v_ref!r} V is too small: the fit's starting slope overflows")
        model = CouplerModel(kappa_lc_rad, _fit_gamma(nonzero, kappa_lc_rad, gamma))
    res = [coupler_ratio(model, v) - r for v, r in anchors]
    return CouplerCalibration(model, math.sqrt(sum(x * x for x in res) / len(res)), bool(nonzero))


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

@record
class FilterModel:
    """Ideal rectangular bandpass plus a flat insertion loss.

    The passband is center +/- fwhm/2; photons in band survive with the
    insertion-loss transmission, photons out of band are absorbed.
    """

    center_nm: float
    fwhm_pm: float
    insertion_loss_db: float

    def __post_init__(self) -> None:
        if not self.fwhm_pm > 0:
            raise ValueError(f"filter FWHM must be > 0, got {self.fwhm_pm}")
        if not self.insertion_loss_db >= 0:
            raise ValueError(f"insertion loss must be >= 0 dB, got {self.insertion_loss_db}")

    def passes(self, wavelength_nm: float) -> bool:
        half = self.fwhm_pm * 1e-3 / 2.0
        return abs(wavelength_nm - self.center_nm) <= half


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

@record
class DetectorModel:
    """Gated avalanche photodiode: efficiency, dark counts, gate window."""

    efficiency: float
    dark_prob_per_ns: float
    gate_window_ns: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob_per_ns <= 1.0:
            raise ValueError(f"dark probability must be in [0, 1], got {self.dark_prob_per_ns}")
        if not self.gate_window_ns > 0:
            raise ValueError(f"gate window must be > 0 ns, got {self.gate_window_ns}")

    @property
    def dark_prob_per_gate(self) -> float:
        return 1.0 - (1.0 - self.dark_prob_per_ns) ** self.gate_window_ns


def detector_clicks(m_max: int, p_det: float, dark: float) -> list[tuple[float, float]]:
    """(P[no click], P[click]) of a gated detector reached by m = 0..m_max photons.

    The click law of every detector: P[no click] = (1 - p_det)^m (1 - dark).
    The powers are the C library's `pow`; numpy's vectorised `power` rounds
    some of them differently in the last bit.
    """
    quiet = [(1.0 - p_det) ** m * (1.0 - dark) for m in range(m_max + 1)]
    return [(q, 1.0 - q) for q in quiet]


def detector_click_prob(model: DetectorModel, incident_photons: int) -> float:
    """Per-gate click probability for n incident photons: 1-(1-eta)^n (1-dark)."""
    if not incident_photons >= 0:
        raise ValueError(f"photon count must be >= 0, got {incident_photons}")
    return detector_clicks(incident_photons, model.efficiency, model.dark_prob_per_gate)[-1][1]


# ---------------------------------------------------------------------------
# Chip layout and loss composition
# ---------------------------------------------------------------------------

# Port-to-port paths as ordered segment names; each ends at one output.
PATHS = {
    # External photon: input port 1 up to the interference coupler C2.
    "alice_to_c2": ("fiber_to_chip", "prop_front"),
    # Either C2 output down to its output fiber port (A or B).
    "c2_to_out": ("prop_back", "chip_to_fiber"),
    # On-chip pair, partner routed up at C1 toward C2.
    "chipsrc_to_c2": ("prop_front",),
    # On-chip pair, partner routed down at C1 to output port C.
    "chipsrc_to_c": ("prop_front", "prop_back", "chip_to_fiber"),
    # Full port 1 -> port A insertion path.
    "insertion": ("fiber_to_chip", "prop_front", "prop_back", "chip_to_fiber"),
}


@record
class ChipLayout:
    """Chip loss segments composed into the fixed port-to-port PATHS.

    Path losses are additive in dB and order-independent.
    measured_insertion_db, when set, rescales all segments so the insertion
    path matches the measured figure verbatim.  An infinite segment blocks
    every path through it (transmission 0) and cannot be rescaled.
    """

    segments: dict[str, float]
    measured_insertion_db: float | None = None

    def __post_init__(self) -> None:
        for name, loss in self.segments.items():
            if loss is None:
                raise ConfigurationError(f"segment {name!r} has no loss value")
            if not loss >= 0:
                raise ConfigurationError(f"segment {name!r} loss must be >= 0 dB, got {loss}")
        for path, names in PATHS.items():
            for name in names:
                if name not in self.segments:
                    raise ConfigurationError(
                        f"path {path!r} references missing segment {name!r}"
                    )
        measured = self.measured_insertion_db
        if measured is not None and not 0 <= measured < math.inf:
            raise ConfigurationError(f"measured insertion loss must be finite and >= 0 dB, got {measured}")
        nominal = sum(self.segments[s] for s in PATHS["insertion"])
        if measured and not 0 < nominal < math.inf:
            raise ConfigurationError(f"cannot rescale an insertion path of {nominal} dB to {measured} dB")

    def path_loss_db(self, path: str) -> float:
        if path not in PATHS:
            raise ConfigurationError(f"unknown path {path!r}")
        loss = sum(self.segments[s] for s in PATHS[path])
        if self.measured_insertion_db is None:
            return loss
        if self.measured_insertion_db == 0.0:
            return 0.0
        nominal = sum(self.segments[s] for s in PATHS["insertion"])
        # The path's share of the nominal insertion loss, times the measured
        # figure; the key-rate reference output was computed in this order.
        return self.measured_insertion_db * (loss / nominal)

    def path_transmission(self, path: str) -> float:
        return db_to_linear(self.path_loss_db(path))


def chip_insertion_loss(layout: ChipLayout) -> float:
    """Total port-to-port insertion loss in dB (the default config's layout: 8.5 dB)."""
    return layout.path_loss_db("insertion")

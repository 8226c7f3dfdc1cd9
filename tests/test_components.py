import math
import re

import numpy as np
import pytest

from relaysim.components import (
    CalibrationError,
    ChipLayout,
    ConfigurationError,
    CouplerModel,
    DetectorModel,
    FilterModel,
    PATHS,
    SpdcSource,
    calibrate_coupler,
    chip_insertion_loss,
    coupler_ratio,
    detector_click_prob,
    spdc_spectral_density,
)
from relaysim.config import ScenarioConfig
from relaysim.interference import dip_profile, v_timing
from relaysim.linkbudget import link_rates
from relaysim.montecarlo import compile_scenario, scan_dip
from relaysim.photostats import PhotonNumberDistribution, custom, poisson, thermal
from relaysim.records import replace
from relaysim.units import SpectralMode

# Detuning-to-coupling ratio at the 50/50 point, from the root of
# sin^2((pi/2) sqrt(1+x^2)) / (1+x^2) = 1/2 (scipy brentq, frozen).
X_HALF = 0.7986853552847011

# The default config's models.
CONFIG = ScenarioConfig()
SCENARIO = CONFIG.to_scenario()
LAYOUT = CONFIG.chip_layout()
DETECTOR = CONFIG.detector()
LINK = CONFIG.to_link_params()


# ---------------------------------------------------------------------------
# Couplers
# ---------------------------------------------------------------------------

def test_full_transfer_at_zero_bias():
    model = CouplerModel(kappa_lc_rad=math.pi / 2, gamma_rad_per_v=0.04)
    assert coupler_ratio(model, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_default_calibration_hits_anchor_points():
    cal = calibrate_coupler([(0.0, 1.0), (30.0, 0.5)], math.pi / 2)
    assert coupler_ratio(cal.model, 0.0) >= 0.999
    assert coupler_ratio(cal.model, 30.0) == pytest.approx(0.5, abs=1e-9)
    assert cal.residual_rms < 1e-6
    assert cal.gamma_constrained


def test_calibrated_detuning_ratio():
    # delta*Lc / kappa*Lc at 30 V lands at the frozen root, about 0.80.
    cal = calibrate_coupler([(0.0, 1.0), (30.0, 0.5)], math.pi / 2)
    ratio = cal.model.gamma_rad_per_v * 30.0 / cal.model.kappa_lc_rad
    assert ratio == pytest.approx(X_HALF, abs=1e-6)
    assert abs(ratio - 0.80) <= 0.01


def test_single_zero_anchor_flags_unconstrained_gamma():
    cal = calibrate_coupler([(0.0, 1.0)], math.pi / 2)
    assert cal.model.kappa_lc_rad == pytest.approx(math.pi / 2)
    assert not cal.gamma_constrained


def test_unreachable_anchor_rejected():
    with pytest.raises(CalibrationError):
        calibrate_coupler([(0.0, 1.2)], math.pi / 2)
    with pytest.raises(CalibrationError):
        calibrate_coupler([(0.0, 1.0), (30.0, -0.1)], math.pi / 2)
    with pytest.raises(CalibrationError):
        calibrate_coupler([], math.pi / 2)


def test_cross_ratio_bounded_and_continuous():
    cal = calibrate_coupler([(0.0, 1.0), (30.0, 0.5)], math.pi / 2)
    volts = np.linspace(0.0, 200.0, 4001)
    ratios = np.array([coupler_ratio(cal.model, float(v)) for v in volts])
    assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)
    assert np.max(np.abs(np.diff(ratios))) < 0.01  # no jumps on a fine grid


def test_energy_bookkeeping():
    cal = calibrate_coupler([(0.0, 1.0), (30.0, 0.5)], math.pi / 2)
    for v in (0.0, 10.0, 30.0, 55.0):
        t = coupler_ratio(cal.model, v)
        assert t + (1.0 - t) == 1.0


def test_fit_kappa_from_partial_transfer_anchor():
    # kappa*Lc read off the zero-bias anchor: sin^2(kappa*Lc) = 0.9.
    cal = calibrate_coupler([(0.0, 0.9), (30.0, 0.5)], kappa_lc_rad=math.asin(math.sqrt(0.9)))
    assert coupler_ratio(cal.model, 0.0) == pytest.approx(0.9, abs=1e-9)
    assert coupler_ratio(cal.model, 30.0) == pytest.approx(0.5, abs=1e-6)


def test_nonfinite_anchor_voltage_rejected():
    with pytest.raises(CalibrationError):
        calibrate_coupler([(0.0, 1.0), (math.inf, 0.5)], math.pi / 2)
    with pytest.raises(CalibrationError):
        calibrate_coupler([(math.nan, 0.5)], math.pi / 2)


# Oracle for the slope fit: scipy's bounded least squares from the same start,
# with the tolerances calibrate_coupler once passed to it.

def least_squares_gamma(anchors, kappa_lc_rad):
    from scipy.optimize import least_squares

    nonzero = [(v, r) for v, r in anchors if v != 0.0]

    def residuals(params):
        model = CouplerModel(kappa_lc_rad, params[0])
        return [coupler_ratio(model, v) - r for v, r in nonzero]

    v_ref = max(abs(v) for v, _ in nonzero)
    fit = least_squares(
        residuals, x0=[0.8 * kappa_lc_rad / v_ref], bounds=([0.0], [np.inf]),
        xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    return float(fit.x[0])


def half_squared_residual(anchors, model):
    return 0.5 * sum((coupler_ratio(model, v) - r) ** 2 for v, r in anchors)


def rms_residual(anchors, model):
    return math.sqrt(2.0 * half_squared_residual(anchors, model) / len(anchors))


@pytest.mark.parametrize(
    "anchors",
    [((0, 1), (15, 0.85), (30, 0.5), (45, 0.2)), ((0, 1), (10, 0.9), (50, 0.1))],
    ids=["four_anchors", "three_anchors"],
)
def test_overdetermined_fit_cost_at_most_least_squares(anchors):
    cal = calibrate_coupler(anchors, math.pi / 2)
    oracle = CouplerModel(cal.model.kappa_lc_rad, least_squares_gamma(anchors, cal.model.kappa_lc_rad))
    assert half_squared_residual(anchors, cal.model) <= half_squared_residual(anchors, oracle) + 1e-15


@pytest.mark.parametrize("anchor", [(30.0, 1.0), (30.0, 0.0)])
def test_double_root_fit_residual_at_most_least_squares(anchor):
    # Cross ratio 1 is reached only at gamma = 0 and 0 only at sin(s) = 0;
    # both are tangent zeros of the residual.
    cal = calibrate_coupler([anchor], math.pi / 2)
    oracle = CouplerModel(cal.model.kappa_lc_rad, least_squares_gamma([anchor], cal.model.kappa_lc_rad))
    assert cal.gamma_constrained
    assert cal.residual_rms <= rms_residual([anchor], oracle)


@pytest.mark.parametrize(
    "anchors",
    [((0, 1), (-30, 0.5)), ((0, 0.9), (30, 0.5)), ((0, 0.8), (-20, 0.3))],
    ids=["negative_voltage", "kappa_from_0.9", "kappa_from_0.8_negative_voltage"],
)
def test_exact_fit_matches_least_squares(anchors):
    # kappa*Lc read off the zero-bias anchor (pi/2 for full transfer).
    cal = calibrate_coupler(anchors, kappa_lc_rad=math.asin(math.sqrt(anchors[0][1])))
    oracle = least_squares_gamma(anchors, cal.model.kappa_lc_rad)
    assert cal.model.gamma_rad_per_v == pytest.approx(oracle, rel=1e-9)
    assert cal.residual_rms < 1e-12


def test_fit_whose_best_slope_is_zero_terminates():
    # Both anchors sit above the kappa*Lc = 1 zero-bias maximum, inside the
    # 1e-9 tolerance: every gamma > 0 fits worse than gamma = 0.
    t0 = math.sin(1.0) ** 2
    anchors = [(10.0, t0 + 5e-10), (30.0, t0 + 5e-10)]
    cal = calibrate_coupler(anchors, kappa_lc_rad=1.0)
    assert 0.0 <= cal.model.gamma_rad_per_v < 1e-12
    assert cal.residual_rms == pytest.approx(5e-10, rel=1e-6)
    oracle = CouplerModel(1.0, least_squares_gamma(anchors, 1.0))
    assert cal.residual_rms <= rms_residual(anchors, oracle)


# ---------------------------------------------------------------------------
# Chip layout / losses
# ---------------------------------------------------------------------------

def test_default_insertion_loss():
    assert chip_insertion_loss(LAYOUT) == pytest.approx(8.5, abs=1e-12)
    assert 8.0 <= chip_insertion_loss(LAYOUT) <= 9.5


def test_zeroed_segments_give_zero_loss():
    layout = ChipLayout(
        segments={"fiber_to_chip": 0.0, "chip_to_fiber": 0.0, "prop_front": 0.0, "prop_back": 0.0}
    )
    assert chip_insertion_loss(layout) == 0.0
    # A measured 0 dB figure (the lossless key-rate curve) needs no rescaling.
    assert replace(layout, measured_insertion_db=0.0).path_loss_db("chipsrc_to_c") == 0.0


def test_measured_override_used_verbatim():
    layout = replace(LAYOUT, measured_insertion_db=9.0)
    assert chip_insertion_loss(layout) == 9.0
    # Per-path losses rescale so segments still sum to the measured figure.
    assert layout.path_loss_db("insertion") == pytest.approx(9.0, rel=1e-12)


def test_path_losses_additive_and_order_independent():
    layout = LAYOUT
    total = sum(layout.segments[s] for s in PATHS["insertion"])
    assert layout.path_loss_db("insertion") == pytest.approx(total, rel=1e-12)
    assert layout.path_loss_db("alice_to_c2") + layout.path_loss_db("c2_to_out") == pytest.approx(
        layout.path_loss_db("insertion"), rel=1e-12
    )


def test_missing_segment_rejected():
    with pytest.raises(ConfigurationError, match="missing segment 'prop_back'"):
        ChipLayout(segments={"fiber_to_chip": 3.0, "chip_to_fiber": 3.0, "prop_front": 1.0})
    with pytest.raises(ConfigurationError, match="segment 'prop_back' has no loss value"):
        ChipLayout(segments={"fiber_to_chip": 3.0, "chip_to_fiber": 3.0, "prop_front": 1.0, "prop_back": None})
    with pytest.raises(ConfigurationError):
        ChipLayout(segments={"fiber_to_chip": -1.0, "chip_to_fiber": 3.0, "prop_front": 1.0, "prop_back": 1.0})
    with pytest.raises(ConfigurationError):
        replace(LAYOUT, measured_insertion_db=-1.0)
    with pytest.raises(ConfigurationError):
        ChipLayout(
            segments={"fiber_to_chip": 0.0, "chip_to_fiber": 0.0, "prop_front": 0.0, "prop_back": 0.0},
            measured_insertion_db=9.0,
        )


@pytest.mark.parametrize(
    "segments,measured,message",
    [
        ({"prop_front": 0.0}, math.inf, "measured insertion loss must be finite and >= 0 dB, got inf"),
        ({"prop_back": math.inf}, 9.0, "cannot rescale an insertion path of inf dB to 9.0 dB"),
    ],
    ids=["infinite-measured", "infinite-nominal"],
)
def test_non_finite_rescale_rejected(segments, measured, message):
    # Unchecked, the first gives NaN dB from the chip source to C2 (an
    # unbounded relay reach), the second 0 dB after C2 on a 9 dB chip.
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        ChipLayout({**LAYOUT.segments, **segments}, measured_insertion_db=measured)


def test_infinite_segment_blocks_its_paths():
    layout = ChipLayout({**LAYOUT.segments, "prop_back": math.inf})
    assert chip_insertion_loss(layout) == math.inf
    assert layout.path_transmission("c2_to_out") == layout.path_transmission("insertion") == 0.0
    assert layout.path_loss_db("alice_to_c2") == 4.25


def test_unknown_path_rejected():
    with pytest.raises(ConfigurationError):
        LAYOUT.path_loss_db("nonexistent")


# ---------------------------------------------------------------------------
# Pair source spectrum
# ---------------------------------------------------------------------------

def test_spectral_density_peaks_at_center():
    spectrum = CONFIG.spdc_mode()
    (peak,) = spdc_spectral_density(spectrum, [1532.0])
    assert peak == pytest.approx(1.0, rel=1e-12)
    (off,) = spdc_spectral_density(spectrum, [1500.0])
    assert 0.0 <= off < 1.0


@pytest.mark.parametrize("lineshape", ["gaussian", "sinc_squared"])
def test_spectral_fwhm_is_80_nm(lineshape):
    spectrum = SpectralMode(1532.0, 80_000.0, lineshape)
    lam = np.linspace(1470.0, 1594.0, 200001)
    dens = np.asarray(spdc_spectral_density(spectrum, lam))
    above = lam[dens >= 0.5]
    fwhm = above.max() - above.min()
    assert fwhm == pytest.approx(80.0, abs=0.1)


def test_spectral_density_symmetric():
    spectrum = CONFIG.spdc_mode()
    for dx in (1.0, 7.5, 40.0, 90.0):
        left = spdc_spectral_density(spectrum, [1532.0 - dx])
        right = spdc_spectral_density(spectrum, [1532.0 + dx])
        assert left == pytest.approx(right, rel=1e-9)


def test_source_brightness_linear_in_pump():
    src = SpdcSource(pairs_per_mw=0.05 / 1.5, pump_power_mw=1.5)
    assert src.mean_pairs == pytest.approx(0.05, rel=1e-12)
    chip = SpdcSource(pairs_per_mw=0.02 / 7.0, pump_power_mw=7.0)
    assert chip.mean_pairs == pytest.approx(0.02, rel=1e-12)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def test_filter_band_edges():
    f = FilterModel(1530.0, 200.0, 0.0)
    assert f.passes(1530.0)
    assert f.passes(1530.0 + 0.0999)
    assert not f.passes(1530.0 + 0.11)
    assert not f.passes(1534.0)


def test_filter_insertion_loss_applied_in_band():
    # In-band photons survive with the filters' insertion-loss transmission.
    base = SCENARIO
    lossy = replace(
        base,
        filter_ab=FilterModel(1530.0, 200.0, insertion_loss_db=3.0),
        filter_c=FilterModel(1534.0, 800.0, insertion_loss_db=3.0),
    )
    p0, p1 = compile_scenario(base), compile_scenario(lossy)
    assert p1.s_post == pytest.approx(p0.s_post * 10 ** -0.3, rel=1e-12)
    assert p1.p_c_arrive == pytest.approx(p0.p_c_arrive * 10 ** -0.3, rel=1e-12)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def test_dark_prob_for_one_ns_gate_matches_per_ns_figure():
    det = DetectorModel(efficiency=0.10, dark_prob_per_ns=1e-5, gate_window_ns=1.0)
    assert det.dark_prob_per_gate == pytest.approx(1e-5, rel=1e-9)
    assert detector_click_prob(det, 0) == pytest.approx(1e-5, rel=1e-9)


def test_click_prob_examples():
    det = DetectorModel(efficiency=0.10, dark_prob_per_ns=0.0, gate_window_ns=1.0)
    assert detector_click_prob(det, 1) == pytest.approx(0.1, rel=1e-12)
    assert detector_click_prob(det, 2) == pytest.approx(0.19, rel=1e-12)


def test_click_prob_monotone():
    det = DetectorModel(efficiency=0.10, dark_prob_per_ns=1e-5, gate_window_ns=1.0)
    probs = [detector_click_prob(det, n) for n in range(6)]
    assert all(a <= b for a, b in zip(probs, probs[1:]))
    assert detector_click_prob(replace(DETECTOR, efficiency=0.2), 3) >= detector_click_prob(
        replace(DETECTOR, efficiency=0.1), 3
    )


def test_detector_validation():
    with pytest.raises(ValueError):
        replace(DETECTOR, efficiency=1.5)
    with pytest.raises(ValueError):
        replace(DETECTOR, gate_window_ns=0.0)
    with pytest.raises(ValueError):
        detector_click_prob(DETECTOR, -1)


# ---------------------------------------------------------------------------
# Range guards: a NaN fails each one
# ---------------------------------------------------------------------------

NAN = math.nan


def _scenario_with(**changes):
    return lambda: compile_scenario(replace(SCENARIO, **changes))


# Each guard reads "if not <valid range>", so NaN, which compares false with
# everything, fails it; written "if x < 0" it let NaN through.
_NAN_GUARDS = {
    "SpdcSource.pairs_per_mw": (lambda: SpdcSource(pairs_per_mw=NAN, pump_power_mw=1.5), "pairs_per_mw"),
    "SpdcSource.pump_power_mw": (lambda: SpdcSource(pairs_per_mw=0.05 / 1.5, pump_power_mw=NAN), "pump power"),
    "FilterModel.fwhm_pm": (lambda: FilterModel(1530.0, NAN, 0.0), "filter FWHM"),
    "FilterModel.insertion_loss_db": (lambda: FilterModel(1530.0, 200.0, NAN), "insertion loss"),
    "DetectorModel.gate_window_ns": (lambda: replace(DETECTOR, gate_window_ns=NAN), "gate window"),
    "detector_click_prob": (lambda: detector_click_prob(DETECTOR, NAN), "photon count"),
    "ChipLayout.segments": (lambda: ChipLayout({**LAYOUT.segments, "prop_back": NAN}), "prop_back"),
    "ChipLayout.measured_insertion_db": (
        lambda: replace(LAYOUT, measured_insertion_db=NAN), "measured insertion loss"
    ),
    "SpectralMode.center_wavelength_nm": (lambda: SpectralMode(NAN, 200.0, "gaussian"), "center wavelength"),
    "SpectralMode.fwhm_pm": (lambda: SpectralMode(1530.0, NAN, "gaussian"), "FWHM bandwidth"),
    "PhotonNumberDistribution": (lambda: PhotonNumberDistribution((NAN, 1.0)), "nonnegative"),
    "thermal": (lambda: thermal(NAN), "mean pair number"),
    "poisson": (lambda: poisson(NAN), "mean pair number"),
    "custom": (lambda: custom([NAN, 1.0]), "positive total mass"),
    "v_timing.tau_uncert_ps": (lambda: v_timing(NAN, 17.0), "time uncertainty"),
    "v_timing.tau_c_ps": (lambda: v_timing(2.5, NAN), "coherence time"),
    "dip_profile": (lambda: dip_profile(0.5, NAN, 1.0, [0.0]), "dip FWHM time"),
    "LinkParams.fiber_loss_db_per_km": (
        lambda: replace(LINK, fiber_loss_db_per_km=NAN), "fiber_loss_db_per_km must be >= 0, got nan"
    ),
    "LinkParams.mean_photon_per_pulse": (
        lambda: replace(LINK, mean_photon_per_pulse=NAN), "mean_photon_per_pulse must be >= 0, got nan"
    ),
    "LinkParams.relay_pair_mean": (
        lambda: replace(LINK, relay_pair_mean=NAN), "relay_pair_mean must be >= 0, got nan"
    ),
    "link_rates.distance_km": (lambda: link_rates("direct", LINK, NAN), "distance"),
    "compile_scenario.gate_rate_hz": (
        _scenario_with(gate_rate_hz=NAN),
        "pump_repetition_rate_hz and gate_rate_hz must be > 0, got 76000000.0 and nan",
    ),
    "compile_scenario.pump_repetition_rate_hz": (
        _scenario_with(pump_repetition_rate_hz=NAN),
        "pump_repetition_rate_hz and gate_rate_hz must be > 0, got nan and 600000.0",
    ),
    "compile_scenario.pump_duration_ps": (
        _scenario_with(pump_duration_ps=NAN), "pump_duration_ps must be >= 0, got nan"
    ),
    "compile_scenario.delay_mm": (_scenario_with(delay_mm=NAN), "delay_mm must be finite, got nan"),
    "compile_scenario.alice_arm_loss_db": (
        _scenario_with(alice_arm_loss_db=NAN), "alice_arm_loss_db must be >= 0, got nan"
    ),
    "compile_scenario.dip_fwhm_time_ps": (_scenario_with(dip_fwhm_time_ps=NAN), "dip_fwhm_time_ps"),
    "scan_dip.positions_mm": (lambda: scan_dip(SCENARIO, [NAN, 0.0, 9.0], 0), "must be finite"),
}


@pytest.mark.parametrize("call,message", _NAN_GUARDS.values(), ids=_NAN_GUARDS)
def test_range_guard_rejects_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()

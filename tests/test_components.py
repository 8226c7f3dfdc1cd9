import math

import numpy as np
import pytest

from relaysim.components import (
    ChipLayout,
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
from relaysim.montecarlo import compile_scenario
from relaysim.records import replace
from relaysim.units import SpectralMode

# The default config's models.
CONFIG = ScenarioConfig()
SCENARIO = CONFIG.to_scenario()
LAYOUT = CONFIG.chip_layout()
DETECTOR = CONFIG.detector()


# ---------------------------------------------------------------------------
# Couplers
# ---------------------------------------------------------------------------

def test_full_transfer_at_zero_bias():
    model = CouplerModel(kappa_lc_rad=math.pi / 2, gamma_rad_per_v=0.04)
    assert coupler_ratio(model, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_single_zero_anchor_flags_unconstrained_gamma():
    cal = calibrate_coupler([(0.0, 1.0)], math.pi / 2)
    assert cal.model.kappa_lc_rad == pytest.approx(math.pi / 2)
    assert not cal.gamma_constrained


def test_cross_ratio_bounded_and_continuous():
    cal = calibrate_coupler([(0.0, 1.0), (30.0, 0.5)], math.pi / 2)
    volts = np.linspace(0.0, 200.0, 4001)
    ratios = np.array([coupler_ratio(cal.model, float(v)) for v in volts])
    assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)
    assert np.max(np.abs(np.diff(ratios))) < 0.01  # no jumps on a fine grid


def test_cross_ratio_limit_where_the_detuning_overflows():
    # gamma * V = inf took math.sin(inf): "math domain error".
    model = CouplerModel(kappa_lc_rad=math.pi / 2, gamma_rad_per_v=1.2566370614359173e308)
    assert [coupler_ratio(model, v) for v in (0.0, 2.0, -2.0)] == [1.0, 0.0, 0.0]


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


def test_smallest_anchor_voltage_with_a_finite_starting_slope_calibrates():
    # The fit starts at 0.8 kappa*Lc / V: finite at 1e-308 V, where the
    # calibration ends within 2e-3 of the anchor ratio; at 5e-324 V it
    # overflows and the anchor is rejected.
    cal = calibrate_coupler([(1e-308, 0.5)], kappa_lc_rad=math.pi / 2)
    assert math.isfinite(cal.model.gamma_rad_per_v)
    assert coupler_ratio(cal.model, 1e-308) == pytest.approx(0.5, abs=2e-3)


# ---------------------------------------------------------------------------
# Chip layout / losses
# ---------------------------------------------------------------------------

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


def test_infinite_segment_blocks_its_paths():
    layout = ChipLayout({**LAYOUT.segments, "prop_back": math.inf})
    assert chip_insertion_loss(layout) == math.inf
    assert layout.path_transmission("c2_to_out") == layout.path_transmission("insertion") == 0.0
    assert layout.path_loss_db("alice_to_c2") == 4.25


# ---------------------------------------------------------------------------
# Pair source spectrum
# ---------------------------------------------------------------------------

def test_spectral_density_peaks_at_center():
    spectrum = CONFIG.spdc_mode()
    (peak,) = spdc_spectral_density(spectrum, [1532.0])
    assert peak == pytest.approx(1.0, rel=1e-12)
    (off,) = spdc_spectral_density(spectrum, [1500.0])
    assert 0.0 <= off < 1.0


def test_spectral_fwhm_is_80_nm():
    spectrum = SpectralMode(1532.0, 80_000.0)
    lam = np.linspace(1470.0, 1594.0, 200001)
    dens = np.asarray(spdc_spectral_density(spectrum, lam))
    above = lam[dens >= 0.5]
    fwhm = above.max() - above.min()
    assert fwhm == pytest.approx(80.0, abs=0.1)


def test_spectral_density_limit_far_from_a_narrow_envelope():
    # An argument that overflows took math.sin(inf): "math domain error".
    density = spdc_spectral_density(SpectralMode(1532.0, 1e-305), [1532.0, 1430.0, 1634.0])
    assert density == [1.0, 0.0, 0.0]


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

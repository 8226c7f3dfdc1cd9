import math

import numpy as np
import pytest

from helpers import bench_scenario, law_cases, oracle_scenarios, photostats_closed_form, single_photon_scenario
from relaysim import montecarlo
from relaysim.cli import main
from relaysim.components import DetectorModel
from relaysim.config import load_preset
from relaysim.montecarlo import (
    CounterRng,
    analytic_visibility,
    compile_scenario,
    derive_key,
    expected_rates,
    joint_law,
    run,
    scan_dip,
    subtract_accidentals,
)
from relaysim.photostats import custom
from relaysim.records import fields, replace
from relaysim.units import coherence_time


# ---------------------------------------------------------------------------
# Counter RNG
# ---------------------------------------------------------------------------

def test_rng_deterministic_and_decomposition_independent():
    rng = CounterRng(derive_key(1, "dip"))
    full = rng.uniform(np.arange(0, 1000, dtype=np.uint64), 7)
    first = rng.uniform(np.arange(0, 400, dtype=np.uint64), 7)
    second = rng.uniform(np.arange(400, 1000, dtype=np.uint64), 7)
    assert np.array_equal(full, np.concatenate([first, second]))


def test_rng_uniformity_basic():
    rng = CounterRng(derive_key(123, "check"))
    u = rng.uniform(np.arange(0, 200_000, dtype=np.uint64), 0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005
    v = rng.uniform(np.arange(0, 200_000, dtype=np.uint64), 1)
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.01


def test_derive_key_separates_streams():
    keys = {derive_key(1, "dip"), derive_key(1, "ref"), derive_key(2, "dip"), derive_key(1, "scan", 0)}
    assert len(keys) == 4


# ---------------------------------------------------------------------------
# Physical limits
# ---------------------------------------------------------------------------

def test_perfect_bunching_at_zero_delay():
    # One photon in each port, perfect overlap: never a cross-output coincidence.
    report = run(single_photon_scenario(0.0), 20_000, seed=3)
    assert report.dip.twofold_ab == 0
    assert report.dip.threefold_abc == 0
    # Three photons per pulse (external + chip pair); the pair partner is
    # absorbed on the port-C arm, the two interfering photons are detected.
    # The ledger holds expected flows, exact here up to float rounding.
    assert report.ledger.generated == pytest.approx(3 * report.dip.gated, rel=1e-12)
    assert report.ledger.detected == pytest.approx(2 * report.dip.gated, rel=1e-12)
    assert report.ledger.lost == pytest.approx(report.dip.gated, rel=1e-12)


def test_distinguishable_photons_coincide_half_the_time():
    # Far outside the dip the balanced coupler splits pairs 50/50.
    report = run(single_photon_scenario(500.0), 50_000, seed=3)
    rate = report.dip.twofold_ab / report.dip.gated
    assert rate == pytest.approx(0.5, abs=3.0 * math.sqrt(0.25 / 50_000))


def test_overlap_peak_is_timing_bound():
    sc = bench_scenario(0.01, 0.01, pump_ps=2.5)
    params = compile_scenario(sc)
    tau_c = coherence_time(sc.photon_mode)
    assert params.overlap_peak == pytest.approx(1.0 / math.sqrt((2.5 / tau_c) ** 2 + 1.0), rel=1e-12)
    assert params.overlap_at(1e9) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo against the exact enumeration
# ---------------------------------------------------------------------------

# Each case: scenario, pulses, seed, whether C2 is near 50/50, and the
# tallies checked on each leg.
_MC_TALLY_CASES = {
    "balanced": (
        bench_scenario(0.05, 0.02),
        2_000_000,
        11,
        True,
        {
            "dip": ("threefold_abc", "twofold_ab", "singles_a", "singles_b", "singles_c"),
            "ref": ("threefold_abc",),
        },
    ),
    "unbalanced_c2": (
        replace(bench_scenario(0.05, 0.02), coupler_c2_voltage_v=20.0),
        1_000_000,
        47,
        False,
        {"dip": ("twofold_ab", "threefold_abc"), "ref": ("twofold_ab", "threefold_abc")},
    ),
    "darks": (
        bench_scenario(0.02, 0.01, dark_per_ns=1e-4, gate_window_ns=10.0),
        60_000_000,
        5,
        True,
        {"dip": ("singles_a", "singles_c", "threefold_abc")},
    ),
}


@pytest.mark.parametrize("scenario,n,seed,c2_balanced,checked", _MC_TALLY_CASES.values(), ids=_MC_TALLY_CASES)
def test_mc_matches_exact_enumeration(scenario, n, seed, c2_balanced, checked):
    """Each checked tally lies within 4 sigma of n times its exact probability.

    sigma is sqrt(max(expected count, 1)), so a check catches a relative
    bias of about 4 / sqrt(expected count).  Expected counts, and that bias:
    - balanced: singles_a and singles_b 46,885 (1.8 %), singles_c 15,873
      (3.2 %), twofold_ab 1,585 (10 %), and threefold_abc 58.9 (52 %) in
      the dip and 174 (30 %) in the reference.
    - unbalanced_c2: C2's cross ratio is 0.746, where the 1+1 coincidence
      probability follows bar^2 + cross^2 - 2 bar cross O.  twofold_ab 675
      (15 %) and 783 (14 %), threefold_abc 52.4 (55 %) and 96.0 (41 %), dip
      and reference.
    - darks: singles_a 653,466 (0.49 %), singles_c 298,778 (0.73 %), and
      threefold_abc 460.6 (19 %).
    A run costs the same at any pulse count.
    """
    assert (0.45 < compile_scenario(scenario).cross2 < 0.55) == c2_balanced
    report = run(scenario, n, seed=seed)
    for leg, tallies in checked.items():
        exact = expected_rates(scenario, overlap=None if leg == "dip" else 0.0)
        for tally in tallies:
            count = getattr(getattr(report, leg), tally)
            expected = getattr(exact, "p_" + tally.replace("singles", "single")) * n
            assert abs(count - expected) <= 4.0 * math.sqrt(max(expected, 1.0)), (leg, tally)


# ---------------------------------------------------------------------------
# Oracle equivalence: statistics-and-timing prediction
# ---------------------------------------------------------------------------

# Stated gap V_exact - V_closed: -0.006 to -0.014 over the oracle scenarios,
# about -0.044 at the paper operating point.  Each bound is the stated range
# widened by MARGIN on both sides.
MARGIN = 0.001


def gap_cases():
    oracle = [(name, sc, (-0.014, -0.006)) for name, sc in oracle_scenarios()]
    return oracle + [("paper-fig6", load_preset("paper-fig6").to_scenario(), (-0.044, -0.044))]


@pytest.mark.parametrize("name,scenario,stated", gap_cases())
def test_closed_form_gap_to_exact_visibility(name, scenario, stated):
    """Report and bound how far the closed form sits above the exact model.

    The closed form keeps at most two photons at the interference coupler;
    the exact enumeration sums every photon pattern up to the pair cutoff,
    so its three-fold visibility V_exact = 1 - P3(dip) / P3(far delay) is
    lower.  The gap must lie in the stated range widened by MARGIN = 0.001.
    Run with -s to see the printed gaps.
    """
    exact = 1.0 - (
        expected_rates(scenario).p_threefold_abc
        / expected_rates(scenario, overlap=0.0).p_threefold_abc
    )
    closed = analytic_visibility(scenario)
    gap = exact - closed
    print(f"{name}: V_exact {exact:.5f} V_closed {closed:.5f} gap {gap:+.5f}")
    assert stated[0] - MARGIN <= gap <= stated[1] + MARGIN


@pytest.mark.parametrize("name,scenario", [case for case in law_cases() if case[0] != "single_photon"])
def test_closed_form_matches_photostats_composition(name, scenario):
    # It reads the engines' normalised cumulative-sum pmfs, not the raw
    # thermal pmf: the worst relative difference over these cases is 2.1e-12.
    assert analytic_visibility(scenario) == pytest.approx(photostats_closed_form(scenario), rel=1e-11)


def test_closed_form_builds_the_pair_laws_once(monkeypatch):
    counts = dict.fromkeys(("compile_scenario", "thermal"), 0)
    for name in counts:
        def counted(*args, _name=name, _original=getattr(montecarlo, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(montecarlo, name, counted)
    analytic_visibility(load_preset("paper-fig6").to_scenario())
    assert counts == {"compile_scenario": 1, "thermal": 2}


def test_twofold_thermal_visibility_one_third():
    """Equal coupler-level means: the raw two-fold dip shows the thermal 1/3.

    A 3 dB external arm loss halves the external mean; C1 halves the chip
    one.  The exact two-fold V of this scenario, 0.32547, lies within 0.008
    of 1/3: the detector efficiency, 0.8, is outside the low-efficiency
    limit where it is exactly 1/3.  The Monte Carlo V is checked against the
    exact V.  Power: from the expected counts at 1e9 gated pulses per leg
    (63,730 dip and 94,482 reference two-folds), 3 sigma_V is 0.0104, so
    the check catches a bias of about 0.010 in V.  Seed 17 reads 0.32536,
    -0.03 sigma from the exact V.
    """
    sc = bench_scenario(0.02, 0.02, alice_db=10.0 * math.log10(2.0))
    exact = 1.0 - expected_rates(sc).p_twofold_ab / expected_rates(sc, overlap=0.0).p_twofold_ab
    assert abs(exact - 1.0 / 3.0) <= 0.008
    report = run(sc, 1_000_000_000, seed=17)
    v = report.raw_twofold_visibility
    c_dip, c_ref = report.dip.twofold_ab, report.ref.twofold_ab
    ratio = (c_dip / report.dip.gated) / (c_ref / report.ref.gated)
    assert v == pytest.approx(1.0 - ratio, rel=1e-12)
    err = ratio * math.sqrt(1.0 / c_dip + 1.0 / c_ref)  # Poisson error of the ratio
    assert abs(v - exact) <= 3.0 * err


# ---------------------------------------------------------------------------
# Tally invariants
# ---------------------------------------------------------------------------

def test_photon_conservation_and_count_ordering():
    sc = bench_scenario(0.05, 0.02, dark_per_ns=1e-5)
    report = run(sc, 300_000, seed=7)
    # The dip leg's ledger holds expected flows: conserved to float precision.
    ledger = report.ledger
    assert ledger.generated == pytest.approx(ledger.lost + ledger.undetected + ledger.detected, rel=1e-12)
    for leg in (report.dip, report.ref):
        assert leg.threefold_abc <= min(leg.twofold_ab, leg.singles_c)
        assert leg.twofold_ab <= min(leg.singles_a, leg.singles_b)


def test_gating_fraction():
    sc = bench_scenario(0.01, 0.01, gate_rate_hz=600e3)
    sc = replace(sc, pump_repetition_rate_hz=76e6)
    n = 2_000_000
    report = run(sc, n, seed=13)
    p = 600e3 / 76e6
    assert abs(report.dip.gated - n * p) <= 4.0 * math.sqrt(n * p * (1 - p))


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_bit_identical_reports_same_seed():
    sc = bench_scenario(0.05, 0.02, dark_per_ns=1e-5)
    assert run(sc, 150_000, seed=21) == run(sc, 150_000, seed=21)


def test_different_seeds_differ():
    sc = bench_scenario(0.05, 0.02)
    assert run(sc, 150_000, seed=1) != run(sc, 150_000, seed=2)


def test_worker_count_does_not_change_tallies():
    # `workers` is accepted for compatibility and has no effect.
    sc = bench_scenario(0.05, 0.02)
    n = 4_200_000
    serial = run(sc, n, seed=33, workers=1)
    parallel = run(sc, n, seed=33, workers=2)
    assert serial == parallel


def test_detector_monitor_does_not_change_the_law():
    # `Scenario.detector_monitor` is accepted for compatibility and has no effect.
    sc = bench_scenario(0.05, 0.02, dark_per_ns=1e-4)
    other = replace(sc, detector_monitor=DetectorModel(efficiency=0.3, dark_prob_per_ns=1e-3, gate_window_ns=1.0))
    params, params_other = compile_scenario(sc), compile_scenario(other)
    for f in fields(params):
        assert np.array_equal(getattr(params, f.name), getattr(params_other, f.name)), f.name
    for overlap in (0.0, params.overlap_at(params.delay_mm), 1.0):
        assert np.array_equal(joint_law(params, overlap), joint_law(params_other, overlap))
    assert run(sc, 200_000, seed=33) == run(other, 200_000, seed=33)


# ---------------------------------------------------------------------------
# Accidental subtraction
# ---------------------------------------------------------------------------

def test_zero_darks_net_equals_raw():
    report = run(bench_scenario(0.05, 0.02), 400_000, seed=19)
    net = subtract_accidentals(report)
    # Nothing is subtracted, so each net figure is its raw one.
    assert net.accidental_threefold_dip == 0.0
    assert net.accidental_threefold_ref == 0.0
    assert net.net_visibility == pytest.approx(report.raw_visibility, rel=1e-12)
    assert net.net_visibility_err == pytest.approx(report.raw_visibility_err, rel=1e-12)
    assert net.net_twofold_visibility == pytest.approx(report.raw_twofold_visibility, rel=1e-12)

    # The textbook dip: no two-fold at zero delay against a counted
    # reference is a perfect dip, raw as well as net.
    report = run(single_photon_scenario(0.0), 10**5, seed=1)
    assert report.dip.twofold_ab == 0 and report.ref.twofold_ab > 0
    assert report.raw_twofold_visibility == subtract_accidentals(report).net_twofold_visibility == 1.0


@pytest.mark.parametrize("seed", [2, 39])
def test_dip_leg_without_gated_pulse_has_no_visibility(seed):
    # One pulse gated with probability 1/2: the dip leg draws no gate, the
    # reference a two-fold (seed 2) or a three-fold (seed 39).  With no dip
    # data neither the raw nor the net figures may read as a perfect dip.
    report = run(bench_scenario(0.5, 0.5, eta=1.0, gate_rate_hz=38e6), 1, seed=seed)
    assert report.dip.gated == 0 and report.ref.twofold_ab == 1
    assert report.ref.threefold_abc == (seed == 39)
    net = subtract_accidentals(report)
    for v in (report.raw_visibility, report.raw_twofold_visibility, net.net_visibility, net.net_twofold_visibility):
        assert math.isnan(v)
    assert math.isnan(net.net_visibility_err)


def test_over_subtracted_dip_is_not_a_perfect_dip():
    # 90 dip three-folds in 1000 gates against 0.1 accidentals per gate: the
    # net dip rate is -0.01 against a net reference rate of 0.05, so
    # V = 1 - (-0.01 / 0.05) = 1.2, with the Poisson error of both counts.
    dip = montecarlo.Tally(1000, 0, 0, 0, 0, 90)
    ref = montecarlo.Tally(1000, 0, 0, 0, 0, 100)
    vis, err = montecarlo._dip_visibility(dip, ref, "threefold_abc", 0.1, 0.05)
    s0, s1 = math.sqrt(90) / 1000, math.sqrt(100) / 1000
    assert vis == pytest.approx(1.2, rel=1e-12)
    assert err == pytest.approx(math.sqrt((s0 / 0.05) ** 2 + (0.01 * s1 / 0.05**2) ** 2), rel=1e-12)
    # Only a dip with no count at all is perfect, whatever its accidentals.
    empty = montecarlo.Tally(1000, 0, 0, 0, 0, 0)
    vis, err = montecarlo._dip_visibility(empty, ref, "threefold_abc", 0.1, 0.05)
    assert vis == 1.0 and math.isnan(err)


def test_signal_free_scenario_consistent_with_zero():
    # Sources off: three-fold clicks are pure dark accidentals.
    sc = bench_scenario(0.0, 0.0, dark_per_ns=0.01, gate_window_ns=5.0)
    n = 1_000_000
    report = run(sc, n, seed=23)
    assert report.dip.threefold_abc > 0  # darks do fire
    net = subtract_accidentals(report)
    err = math.sqrt(report.dip.threefold_abc) / report.dip.gated
    net_rate = report.dip.threefold_abc / report.dip.gated - net.accidental_threefold_dip
    assert abs(net_rate) <= 4.0 * err


def test_raw_below_net_with_darks():
    sc = bench_scenario(0.01, 0.005, dark_per_ns=1e-5, gate_window_ns=20.0)
    report = run(sc, 4_000_000, seed=31)
    net = subtract_accidentals(report)
    assert net.accidental_threefold_dip > 0.0
    assert report.raw_visibility < net.net_visibility


# ---------------------------------------------------------------------------
# Dip scan
# ---------------------------------------------------------------------------

def test_analytic_scan_reproduces_dip_profile():
    sc = replace(bench_scenario(0.01, 0.005), dip_fwhm_time_ps=20.0)
    positions = np.linspace(-9.0, 9.0, 13)
    result = scan_dip(sc, positions, n_pulses_per_point=0)
    assert result.fit_failed is None
    assert result.errors == (0.0,) * len(positions)  # exact rates carry no sampling error
    # The expected-value scan is exactly gaussian: the fit reproduces the
    # model width and the enumeration's own dip depth to numerical precision.
    fwhm_expected = compile_scenario(sc).fwhm_mm
    assert result.fit.fwhm_mm == pytest.approx(fwhm_expected, rel=1e-6)
    v_exact = 1.0 - expected_rates(sc).p_threefold_abc / expected_rates(sc, overlap=0.0).p_threefold_abc
    assert result.fit.visibility == pytest.approx(v_exact, rel=1e-6)
    # The closed-form statistics-and-timing product is the truncated
    # approximation; at these means it agrees to a couple of percent.
    predicted = analytic_visibility(sc)
    assert result.fit.visibility == pytest.approx(predicted, abs=0.03)


def test_mc_scan_recovers_width():
    """A 9-point Monte Carlo scan fits the model FWHM, 5.996 mm, to within 10 %.

    Power: at 1e7 pulses per point the fitted FWHM spreads by 0.097 mm (sd
    over seeds 1-150), so the +-0.600 mm band is 6.2 sd wide, and a width
    bias of 0.79 mm (13 %, the band plus 2 sd) or more fails for at least
    97.7 % of seeds.  A scan costs the same at any pulse count.
    """
    # Bright sources: width recovery only needs counts, not low means.
    sc = replace(bench_scenario(0.2, 0.1, eta=0.9), dip_fwhm_time_ps=20.0)
    positions = np.linspace(-9.0, 9.0, 9)
    result = scan_dip(sc, positions, n_pulses_per_point=10_000_000, seed=41)
    assert result.fit_failed is None
    assert result.fit.fwhm_mm == pytest.approx(compile_scenario(sc).fwhm_mm, rel=0.10)


def test_mc_scan_samples_the_enumeration():
    """Each Monte Carlo scan point's three-fold rate is within 5 errors of the exact one.

    Power: 1e11 pulses, all gated, give at least 2.9e6 three-folds per
    point, so 5 errors are 0.29 % of the rate: a sampler bias of about 0.3 %
    at any one point fails.  A correct sampler fails one run in about 1e5
    (13 points at 5.7e-7 each).
    """
    sc = bench_scenario(0.05, 0.02)
    params = compile_scenario(sc)
    positions = np.linspace(-15.0, 15.0, 13)
    result = scan_dip(sc, positions, 10**11, seed=53)
    for pos, rate, error in zip(positions, result.rates, result.errors):
        exact = expected_rates(sc, params.overlap_at(pos)).p_threefold_abc
        assert error < 0.0006 * rate
        assert abs(rate - exact) <= 5.0 * error
    assert scan_dip(sc, positions, 10**11, seed=53) == result


@pytest.mark.parametrize("mean_a,mean_b", [(0.59, 0.3), (0.001, 0.05)])
@pytest.mark.parametrize("overlap", [None, 0.0])
def test_enumeration_never_exceeds_one(mean_a, mean_b, overlap):
    # Every detector always dark: each event is certain, and the enumeration's
    # sums of terms round to 1 + 7e-16 and 1 + 2e-16 before they are capped.
    rates = expected_rates(bench_scenario(mean_a, mean_b, dark_per_ns=1.0), overlap)
    for f in fields(rates):
        assert getattr(rates, f.name) <= 1.0, f.name


def test_mc_scan_of_a_rate_rounded_past_one():
    # Every detector always dark: every gated pulse is a three-fold, and the
    # enumeration's sum, which rounds to 1 + 7e-16, reads 1.
    sc = bench_scenario(0.59, 0.3, dark_per_ns=1.0)
    assert expected_rates(sc).p_threefold_abc == 1.0
    assert scan_dip(sc, np.linspace(-30.0, 30.0, 5), 1000).rates == (1.0,) * 5


def test_scan_with_no_counts_reports_fit_failure():
    # paper-fig6 expects about 2e-5 three-folds per point from 2e6 pulses:
    # every sampled rate is 0, so there is no dip to fit.
    cfg = load_preset("paper-fig6")
    positions = np.linspace(cfg.dip_scan_min_mm, cfg.dip_scan_max_mm, cfg.dip_scan_points)
    result = scan_dip(cfg.to_scenario(), positions, 2_000_000, seed=7)
    assert result.rates == (0.0,) * len(positions)
    assert result.fit is None
    assert "no positive rate" in result.fit_failed


@pytest.mark.parametrize("overlap", [0.0, 1.0])
def test_expected_rates_accepts_unit_interval_ends(overlap):
    rates = expected_rates(load_preset("paper-fig6").to_scenario(), overlap=overlap)
    assert 0.0 < rates.p_threefold_abc < rates.p_twofold_ab


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------

def test_seed_range_endpoints_run():
    sc = bench_scenario(0.01, 0.01)
    assert run(sc, 1000, seed=0).seed == 0
    assert run(sc, 1000, seed=2**64 - 1).seed == 2**64 - 1


def test_largest_pulse_count_runs():
    report = run(bench_scenario(0.01, 0.01), 2**63 - 1, seed=2)
    assert report.pulses_simulated == 2**63 - 1 == report.dip.gated


def test_pair_laws_at_the_cutoff_are_kept():
    sc = replace(bench_scenario(0.01, 0.01), external_distribution=custom([0.0] * 20 + [1.0]))
    params = compile_scenario(sc)
    assert len(params.pmf_a) == 21
    # Just inside the mass check on both sources: mean 0.59 loses 9.1e-10.
    compile_scenario(bench_scenario(0.59, 0.59))


# ---------------------------------------------------------------------------
# Resolution warning
# ---------------------------------------------------------------------------

def test_resolution_warning():
    bright = bench_scenario(0.05, 0.02)
    assert run(bright, 1_000_000).resolution_warning is None
    message = run(bright, 100).resolution_warning
    assert message.startswith("warning: 100 pulses give ") and "needs about" in message
    # A Monte Carlo scan checks the same two three-fold probabilities, read from the
    # enumeration; an analytic one has nothing to resolve.
    positions = [-30.0, 0.0, 30.0]
    assert scan_dip(bright, positions, 100).resolution_warning == message
    assert scan_dip(bright, positions, 0).resolution_warning is None
    # No herald photons and no darks: no pulse count gives a reference three-fold.
    warning = run(single_photon_scenario(500.0), 10**12).resolution_warning
    assert warning.endswith("probability is zero")
    # At paper-fig6 and 2 Hz a leg can still draw the count named; at 0.5 Hz
    # the warning named 1.7e+19 pulses, which `run` rejects, and at 1e-300 Hz
    # "inf pulses".
    paper = load_preset("paper-fig6").to_scenario()
    assert run(replace(paper, gate_rate_hz=2.0), 1000).resolution_warning.endswith("needs about 4.2e+18 pulses")
    for gate_rate_hz in (0.5, 1e-300):
        scenario = replace(paper, gate_rate_hz=gate_rate_hz)
        warning = run(scenario, 1000).resolution_warning
        assert warning.endswith(
            f"; no pulse count a leg can draw (at most {montecarlo.MAX_PULSES}) reaches sigma_V = 0.05"
        ), warning
        assert scan_dip(scenario, positions, 1000).resolution_warning == warning


_BUILDS = ("compile_scenario", "joint_law", "_ledger_per_gate", "_rate_table", "_model_inputs")


@pytest.mark.parametrize(
    "argv,calls",
    [
        (["mc-run", "--preset", "paper-fig6", "--pulses", "300000"], (1, 2, 1, 0, 2)),
        (["hom-dip", "--preset", "paper-fig6", "--pulses", "1000"], (1, 0, 0, 1, 1)),
        (["hom-dip", "--pulses", "0"], (1, 0, 0, 1, 1)),
    ],
    ids=["mc-run", "hom-dip-mc", "hom-dip-analytic"],
)
def test_cli_builds_the_model_once(monkeypatch, capsys, argv, calls):
    # The scenario is compiled once; the resolution check reads the laws the
    # legs drew from, only the dip leg has a ledger, and a scan, Monte Carlo
    # or analytic, builds one enumeration table for all its positions and
    # its resolution check.  Each law and each table reads one set of model
    # inputs.
    counts = dict.fromkeys(_BUILDS, 0)
    for name in _BUILDS:
        def counted(*args, _name=name, _original=getattr(montecarlo, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert tuple(counts[name] for name in _BUILDS) == calls

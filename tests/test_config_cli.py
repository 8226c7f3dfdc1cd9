import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaysim
from relaysim.cli import main
from relaysim.components import ChipLayout, ConfigurationError, SpdcSource, chip_insertion_loss
from relaysim.config import (
    PRESET_NAMES,
    SCHEMA_VERSION,
    ScenarioConfig,
    load_config,
    load_preset,
    parse_config,
)
from relaysim.montecarlo import compile_scenario
from relaysim.records import fields
from relaysim.units import delay_to_path


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------

def test_defaults_build_valid_models():
    cfg = ScenarioConfig()
    scenario = cfg.to_scenario()
    compile_scenario(scenario)  # validates
    params = cfg.to_link_params()
    assert params.fiber_loss_db_per_km == 0.2
    assert params.detector.dark_prob_per_gate == pytest.approx(1e-6, rel=1e-6)


def test_default_config_builds_the_default_records():
    # Scenario's defaults read the config.  components sits below config in
    # the imports, so these two record defaults repeat the config's values.
    cfg = ScenarioConfig()
    scenario = cfg.to_scenario()
    assert scenario.external_source.spectrum == vars(SpdcSource)["spectrum"] == cfg.spdc_mode()
    assert scenario.layout.measured_insertion_db == vars(ChipLayout)["measured_insertion_db"]


def test_round_trip_is_identity():
    cfg = ScenarioConfig()
    once = parse_config(json.loads(cfg.dumps()))
    twice = parse_config(json.loads(once.dumps()))
    assert once == cfg
    assert twice == once


def test_annotations_ignored():
    cfg = parse_config(
        {"schema_version": SCHEMA_VERSION, "_note": "annotation", "fiber_loss_db_per_km": 0.25}
    )
    assert cfg.fiber_loss_db_per_km == 0.25


def test_missing_keys_get_defaults():
    cfg = parse_config({"schema_version": SCHEMA_VERSION})
    assert cfg == ScenarioConfig()


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_every_preset_is_schema_valid():
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        assert cfg.schema_version == SCHEMA_VERSION
        compile_scenario(cfg.to_scenario())


def test_preset_fig6_pins_operating_point():
    cfg = load_preset("paper-fig6")
    sc = cfg.to_scenario()
    assert sc.external_source.mean_pairs == pytest.approx(0.05, rel=1e-9)
    assert sc.chip_source.mean_pairs == pytest.approx(0.02, rel=1e-9)
    assert compile_scenario(sc).fwhm_mm == delay_to_path(20.0)
    assert sc.detector_a.efficiency == 0.1
    assert sc.detector_a.dark_prob_per_ns == 1e-5


def test_preset_fig2_pins_link_parameters():
    params = load_preset("paper-fig2").to_link_params()
    assert params.fiber_loss_db_per_km == 0.2
    assert params.detector.efficiency == 0.1
    assert chip_insertion_loss(params.layout) == 9.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

ANALYTIC = ("spdc-spectrum", "coupler-curve", "visibility-map", "keyrate-sweep")


def run_cli(*argv) -> int:
    return main(list(argv))


def test_spdc_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    assert run_cli("spdc-spectrum", "--preset", "paper-fig3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "wavelength_nm,relative_density"
    rows = [line.split(",") for line in lines[1:]]
    lams = [float(r[0]) for r in rows]
    dens = [float(r[1]) for r in rows]
    assert max(dens) == pytest.approx(1.0, abs=1e-6)
    # FWHM of the emitted curve is 80 nm within the grid resolution.
    above = [x for x, d in zip(lams, dens) if d >= 0.5]
    assert max(above) - min(above) == pytest.approx(80.0, abs=1.0)


def test_coupler_curve_csv(tmp_path, capsys):
    out = tmp_path / "couplers.csv"
    assert run_cli("coupler-curve", "--preset", "paper-fig4", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "voltage_V,cross_ratio_c1,cross_ratio_c2"
    table = {float(r[0]): (float(r[1]), float(r[2])) for r in (l.split(",") for l in lines[1:])}
    assert table[0.0][0] == pytest.approx(1.0, abs=1e-9)
    assert table[30.0][0] == pytest.approx(0.5, abs=1e-6)
    summary = capsys.readouterr().out
    assert "residual_rms" in summary


def _run_with_config(tmp_path, document, *argv) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return run_cli(*argv, "--config", str(path))


def test_coupler_curve_config_anchors(tmp_path):
    anchors = [[0.0, 1.0], [25.0, 0.5]]
    document = {"coupler_c1_anchors": anchors, "coupler_c2_anchors": anchors}
    assert _run_with_config(tmp_path, document, "coupler-curve", "--out", str(tmp_path / "couplers.csv")) == 0
    lines = (tmp_path / "couplers.csv").read_text().splitlines()
    table = {float(r[0]): (float(r[1]), float(r[2])) for r in (l.split(",") for l in lines[1:])}
    assert table[25.0] == pytest.approx((0.5, 0.5), abs=1e-6)


def test_coupler_curve_zero_bias_anchor_unconstrained(tmp_path, capsys):
    # One anchor at 0 V leaves the detuning slope free: gamma stays 0, and
    # the summary says the fit did not constrain it.
    document = {"coupler_c1_anchors": [[0.0, 1.0]], "coupler_c2_anchors": [[0.0, 1.0]]}
    assert _run_with_config(tmp_path, document, "coupler-curve", "--out", str(tmp_path / "couplers.csv")) == 0
    summary = capsys.readouterr().out.splitlines()
    assert summary == [
        f"{name}: gamma_rad_per_V=0.0 residual_rms=0.0 gamma_constrained=False" for name in ("c1", "c2")
    ]


def test_visibility_map_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert run_cli("visibility-map", "--preset", "paper-fig5", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N_a,N_b,visibility"
    assert len(lines) == 1 + 20 * 20
    summary = capsys.readouterr().out
    # The summary states the operating-point values and the gap to the
    # reference target (which this model family does not reach).
    assert "0.5483870967741935" in summary
    assert "0.7083333333333334" in summary
    assert "reference_target=0.75" in summary
    assert "gap_low_efficiency" in summary


def test_hom_dip_analytic_mode(tmp_path, capsys):
    out = tmp_path / "dip.csv"
    assert run_cli("hom-dip", "--preset", "paper-fig6", "--pulses", "0", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "position_mm,threefold_rate,error"
    assert len(lines) == 1 + 13
    summary = capsys.readouterr().out
    fwhm = float(next(l for l in summary.splitlines() if l.startswith("fit_fwhm_mm=")).split("=")[1])
    assert fwhm == pytest.approx(6.0, rel=5e-3)


def test_keyrate_sweep_summary(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert run_cli("keyrate-sweep", "--preset", "paper-fig2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distance_km,direct,standard_relay,folded_relay,folded_relay_lossless"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, rel=1e-12)
    summary = {}
    for line in capsys.readouterr().out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            summary[key] = float(value.split()[0])
    assert 200.0 <= summary["max_distance_direct_km"] <= 300.0
    assert 1.6 <= summary["gain_lossless"] <= 2.0
    assert 1.25 <= summary["gain_realistic_chip"] <= 1.55


def test_config_segment_losses_reach_keyrate_sweep(tmp_path, capsys):
    # The link budget reads the configured chip layout: a lossier
    # chip-to-fiber segment must shorten the folded relay's reach.
    reach = {}
    for loss_db in (3.0, 6.0):
        path = tmp_path / f"chip_to_fiber_{loss_db}.json"
        path.write_text(ScenarioConfig(loss_chip_to_fiber_db=loss_db).dumps(), encoding="utf-8")
        assert run_cli("keyrate-sweep", "--config", str(path)) == 0
        summary = capsys.readouterr().out.splitlines()
        line = next(l for l in summary if l.startswith("max_distance_folded_relay_km="))
        reach[loss_db] = float(line.partition("=")[2])
    assert reach[6.0] < reach[3.0]


def test_keyrate_sweep_lossless_fiber_reach_unbounded(tmp_path, capsys):
    # Without fiber loss no link falls to SNR unity: every reach is inf, and
    # the distance gains inf/inf are undefined, so a warning replaces them.
    assert _run_with_config(tmp_path, {"fiber_loss_db_per_km": 0.0}, "keyrate-sweep") == 0
    captured = capsys.readouterr()
    summary = [l for l in captured.out.splitlines() if "=" in l]
    assert summary == [
        f"max_distance_{name}_km=inf (unbounded)"
        for name in ("direct", "standard_relay", "folded_relay", "folded_relay_lossless")
    ]
    assert captured.err == "warning: direct reach is inf km; distance gains are undefined\n"


def test_keyrate_sweep_direct_reach_zero(tmp_path, capsys):
    # Darks this bright put the direct link below SNR unity at 0 km; the gain
    # divided by that reach and died with a ZeroDivisionError.
    assert _run_with_config(tmp_path, {"link_dark_prob_per_ns": 0.5}, "keyrate-sweep") == 0
    captured = capsys.readouterr()
    assert "max_distance_direct_km=0.0\n" in captured.out
    assert "gain_" not in captured.out
    assert captured.err == "warning: direct reach is 0.0 km; distance gains are undefined\n"


def test_mc_run_warns_when_dip_unresolvable(capsys):
    # paper-fig6 expects about 6e-6 reference three-folds from 3e5 pulses.
    assert run_cli("mc-run", "--preset", "paper-fig6", "--pulses", "300000") == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: 300000 pulses give ")
    assert captured.err.count("\n") == 1 and "sigma_V = 0.05 needs about" in captured.err
    # The warning stays off stdout, which is one "field: value" per line.
    assert all(": " in line for line in captured.out.splitlines())


def test_mc_run_resolves_paper_dip(capsys):
    # 5e12 pulses, about 18 h of the experiment at 76 MHz: about 100
    # reference three-folds, so the net visibility is finite and no warning.
    assert run_cli("mc-run", "--preset", "paper-fig6", "--pulses", "5000000000000") == 0
    captured = capsys.readouterr()
    fields = dict(line.split(": ", 1) for line in captured.out.splitlines())
    assert 50 <= int(fields["ref_threefold_abc"]) <= 200
    assert math.isfinite(float(fields["net_visibility"]))
    assert captured.err == ""


def test_mc_run_reports_a_perfect_dip_as_raw_visibility_one(capsys):
    # No three-fold in the dip against one in the reference: raw_visibility
    # was nan next to net_visibility 1.0.
    argv = ("mc-run", "--preset", "paper-fig6", "--pulses", "100000000000", "--seed", "2")
    assert run_cli(*argv) == 0
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert (fields["threefold_abc"], fields["ref_threefold_abc"]) == ("0", "1")
    assert fields["raw_visibility"] == fields["net_visibility"] == "1.0"
    assert fields["raw_visibility_err"] == fields["net_visibility_err"] == "nan"


def test_hom_dip_warns_only_in_monte_carlo_mode(capsys):
    assert run_cli("hom-dip", "--preset", "paper-fig6", "--pulses", "0") == 0
    assert capsys.readouterr().err == ""
    assert run_cli("hom-dip", "--preset", "paper-fig6", "--pulses", "1000") == 0
    assert capsys.readouterr().err.startswith("warning: 1000 pulses give ")


@pytest.mark.parametrize("key", ["chip_pairs_per_mw", "external_pairs_per_mw"])
def test_flat_analytic_scan_reports_no_fit(tmp_path, capsys, key):
    # Without one of the two sources no pattern interferes: every rate is
    # bit-equal, and a fit would report an arbitrary width.
    assert _run_with_config(tmp_path, {key: 0}, "hom-dip", "--pulses", "0") == 0
    summary = capsys.readouterr().out
    assert "fit_failed=every rate is equal: no dip to fit\n" in summary
    assert "fit_fwhm_mm" not in summary


def test_config_flag_round_trip(tmp_path):
    config_path = tmp_path / "custom.json"
    config_path.write_text(ScenarioConfig(delay_mm=2.5).dumps(), encoding="utf-8")
    out = tmp_path / "rep.txt"
    assert run_cli("mc-run", "--config", str(config_path), "--pulses", "20000", "--out", str(out)) == 0
    assert "delay_mm: 2.5" in out.read_text()


def test_every_config_field_is_read_by_a_subcommand(monkeypatch, capsys):
    # A key that no subcommand reads is stored but never used; such a key
    # belongs in _REMOVED_KEYS with its reason.
    reads = set()

    class RecordingConfig(ScenarioConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr("relaysim.cli._load", lambda args: RecordingConfig())
    for argv in (
        *([name] for name in ANALYTIC),
        ["hom-dip"],
        ["hom-dip", "--pulses", "1000"],
        ["mc-run", "--pulses", "1000"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert {f.name for f in fields(ScenarioConfig)} - reads == {"schema_version"}


# Inputs the CLI rejects with exit 2, an empty stdout and one stderr line:
# (argv, config text or None, that line after "error: ").  The config text
# is written as it stands, so a row can hold NaN or a document that is not
# an object.  The comments say how an input failed before it was rejected.
_REJECTIONS = [
    # kappa*Lc = 0 blamed the default anchors ("anchor ratio 1.0 at 0.0 V
    # exceeds the zero-bias maximum 0.000000").  NaN hung the slope fit.
    *(
        (
            ("coupler-curve",),
            f'{{"coupler_kappa_lc_rad": {kappa}}}',
            f"ConfigurationError: coupler_kappa_lc_rad must be > 0, got {kappa}",
        )
        for kappa in (0.0, -1.0)
    ),
    # The first coupler's anchors are judged first.
    *(
        (
            ("coupler-curve",),
            text,
            f"CalibrationError: {key}: anchor ratio 1.5 at 25.0 V is outside [0, 1]",
        )
        for text, key in (
            (
                '{"coupler_c1_anchors": [[0.0, 1.0], [25.0, 1.5]], "coupler_c2_anchors": [[0.0, 1.0], [25.0, 1.5]]}',
                "coupler_c1_anchors",
            ),
            ('{"coupler_c2_anchors": [[0.0, 1.0], [25.0, 1.5]]}', "coupler_c2_anchors"),
        )
    ),
    # With mu * eta = 0 the direct link's zero-distance rate is all dark
    # counts, and the table printed direct = 1.0 at every distance.
    *(
        (
            ("keyrate-sweep",),
            f'{{"{key}": 0.0}}',
            "ValueError: mean_photon_per_pulse * link_detector_efficiency is 0: the direct link detects "
            "no signal, so rates normalized to its zero-distance rate are undefined",
        )
        for key in ("link_detector_efficiency", "mean_photon_per_pulse")
    ),
    # Mean 0.6 pairs puts 1.13e-9 of a thermal law above 20 pairs.
    *(
        (
            argv,
            '{"chip_pairs_per_mw": 0.6, "chip_pump_power_mw": 1.0}',
            "ConfigurationError: chip source: thermal law at mean 0.6 pairs per pulse "
            "puts 1.13e-09 of its mass above n_max = 20 pairs, more than 1e-09",
        )
        for argv in (("mc-run",), ("hom-dip", "--pulses", "0"))
    ),
    # A bare OverflowError (exit 1), and an unexplained "pmf must sum to ~1,
    # got 0.99999999...".
    *(
        (
            ("visibility-map",),
            f'{{"{key}": [{mean}]}}',
            f"ConfigurationError: {key}: thermal law at mean {mean} pairs per pulse "
            f"puts {lost} of its mass above n_max = 20 pairs, more than 1e-09",
        )
        for key, mean, lost in (("map_na_values", "1e+200", "1"), ("map_nb_values", "0.7", "8.08e-09"))
    ),
    # The first two ran with a sinc^2 coherence time under a gaussian dip,
    # overlap and fit; the third printed a gaussian pair spectrum.
    *(
        (
            argv,
            '{"photon_lineshape": "sinc_squared"}',
            "ConfigurationError: configuration key 'photon_lineshape' was removed: only the coherence time "
            "read it; the dip's overlap, timing factor and fit are gaussian",
        )
        for argv in (("mc-run",), ("hom-dip", "--pulses", "0"))
    ),
    (
        ("spdc-spectrum",),
        '{"spdc_lineshape": "gaussian"}',
        "ConfigurationError: configuration key 'spdc_lineshape' was removed: no preset chose a gaussian; "
        "the pair spectrum is the sinc^2 phase-matching envelope",
    ),
    # Printed the dark-free limit, V = 0.5483870967741935, whatever the dark probability.
    (
        ("visibility-map",),
        '{"map_herald_efficiency": null, "map_herald_dark_prob": 0.5, '
        '"map_na_values": [0.05], "map_nb_values": [0.02]}',
        "ValueError: the vanishing-efficiency herald takes no dark clicks, got dark probability 0.5: "
        "as the efficiency goes to 0 the conditioned pmf tends to the unconditioned one, not to n*p(n)/mean",
    ),
    # An UndefinedConditioningError or UndefinedVisibilityError that named
    # neither a key nor the grid point.  An efficiency of 1e-320 rounds
    # 1 - efficiency to 1.0: the click law's form cancels, and no pair clicks.
    *(
        (
            ("visibility-map",),
            text,
            "ConfigurationError: map_nb_values, map_herald_efficiency and map_herald_dark_prob: "
            f"herald click probability is zero; conditioning is undefined at N_b = {nb}",
        )
        for text, nb in (
            ('{"map_nb_values": [0.0]}', 0.0),
            ('{"map_herald_efficiency": 0.0}', 0.005),
            ('{"map_herald_efficiency": 1e-320, "map_nb_values": [0.01]}', 0.01),
        )
    ),
    (
        ("visibility-map",),
        '{"map_na_values": [0.0], "map_nb_values": [1e-200], "map_herald_efficiency": 1.0}',
        "ConfigurationError: map_na_values and map_nb_values: out-of-dip coincidence probability is zero; "
        "visibility undefined at N_a = 0.0, N_b = 1e-200",
    ),
    (("mc-run",), '{"no_such_key": 1}', "ConfigurationError: unknown configuration key 'no_such_key'"),
    *(
        (
            ("keyrate-sweep",),
            f'{{"sweep_step_km": {step}}}',
            f"ConfigurationError: sweep_step_km must be > 0, got {float(step)}",
        )
        for step in (0, -5.0)
    ),
    # 0 points printed a header-only table and exited 0.
    *(
        ((command,), f'{{"{key}": {points}}}', f"ConfigurationError: {key} must be >= 1, got {points}")
        for command, key in (("spdc-spectrum", "spectrum_points"), ("coupler-curve", "coupler_curve_points"))
        for points in (0, -3)
    ),
    *(
        ((command,), f'{{"{key}": 100001}}', f"ConfigurationError: {key} must be <= 100000, got 100001")
        for command, key in (
            ("spdc-spectrum", "spectrum_points"),
            ("coupler-curve", "coupler_curve_points"),
            ("hom-dip", "dip_scan_points"),
        )
    ),
    *(
        (
            (command, "--pulses", pulses),
            None,
            f"ValueError: {name} must be in [{low}, 9223372036854775807], got {pulses}",
        )
        for command, name, low, pulses in (
            ("mc-run", "n_pulses", 1, str(2**63)),
            ("hom-dip", "n_pulses_per_point", 0, str(2**63)),
            ("hom-dip", "n_pulses_per_point", 0, "-1"),
        )
    ),
    # The stream key read the seed modulo 2**64: these drew the tallies of
    # seed 2**64 - 1 and printed another seed line.
    *(
        (
            ("mc-run", "--pulses", "1000", "--seed", str(seed)),
            None,
            f"ValueError: seed must be in [0, {2**64 - 1}], got {seed}",
        )
        for seed in (-1, 2**64, 2**65 - 1)
    ),
    # 100 gave an empty grid; 50.4 gave one row beyond sweep_max_km.
    *(
        (
            ("keyrate-sweep",),
            f'{{"sweep_min_km": {low}, "sweep_max_km": 50}}',
            f"ConfigurationError: sweep_min_km must be <= sweep_max_km, got {low} > 50.0",
        )
        for low in (100.0, 50.4)
    ),
    # The first two exited 0 with nan rates, keyrate-sweep with every reach
    # at inf; for the third numpy's "pvals < 0, pvals > 1 or pvals contains
    # NaNs" named no input.
    *(
        ((command,), f'{{"{key}": NaN}}', f"ConfigurationError: {key} must be a finite number, got nan")
        for command, key in (
            ("keyrate-sweep", "fiber_loss_db_per_km"),
            ("hom-dip", "pump_duration_ps"),
            ("mc-run", "alice_arm_loss_db"),
        )
    ),
    # A zero width died with a ZeroDivisionError, a negative one was fitted
    # as |FWHM|, and one below about 2.5e-312 ps underflowed to 0 mm.
    *(
        (
            (command,),
            f'{{"dip_fwhm_time_ps": {literal}}}',
            f"ConfigurationError: dip_fwhm_time_ps must be > 0, got {shown}",
        )
        for command in ("mc-run", "hom-dip")
        for literal, shown in (("0", "0.0"), ("-20", "-20.0"), ("1e-320", "1e-320"))
    ),
    # "need at least 3 scan positions" named no key.
    (("hom-dip",), '{"dip_scan_points": 2}', "ConfigurationError: dip_scan_points must be >= 3, got 2"),
    # "scan span 1.000 mm must exceed twice the expected width" named no key,
    # and ":.3f" printed the width of a 1e-300 pm photon with about 300 digits.
    *(
        (
            ("hom-dip",),
            body,
            "ConfigurationError: dip_scan_min_mm and dip_scan_max_mm are too close: "
            f"scan span {span} mm must exceed twice the expected width ({width} mm)",
        )
        for body, span, width in (
            ('{"dip_scan_min_mm": 0, "dip_scan_max_mm": 1}', "1.000", "10.323"),
            ('{"photon_fwhm_pm": 1e-300}', "18.000", "2.065e+303"),
        )
    ),
    # Built a list of 2e11 distances until a MemoryError.
    (
        ("keyrate-sweep",),
        '{"sweep_max_km": 1e12}',
        "ConfigurationError: sweep_max_km must give at most 100000 distances from sweep_min_km in "
        "sweep_step_km steps, got 0.0 to 1000000000000.0 in steps of 5.0",
    ),
    # A span that overflows: "math domain error", and for hom-dip "scan
    # positions must be finite, got nan", named no key.
    *(
        (
            (command,),
            f'{{"{low}": -1e308, "{high}": 1e308}}',
            f"ConfigurationError: {low} and {high} must span a finite range, got -1e+308 to 1e+308",
        )
        for command, low, high in (
            ("spdc-spectrum", "spectrum_min_nm", "spectrum_max_nm"),
            ("coupler-curve", "coupler_curve_min_v", "coupler_curve_max_v"),
            ("hom-dip", "dip_scan_min_mm", "dip_scan_max_mm"),
        )
    ),
    # "output A/B filter must pass the interfering photons" and its three
    # siblings named neither key nor value.
    *(
        (
            (command,),
            f'{{"{name}_center_nm": {center}, "{name}_fwhm_pm": {fwhm}}}',
            f"ConfigurationError: {name}_center_nm and {name}_fwhm_pm must {verb} the {photons} photons "
            f"at {lam} nm, got a {fwhm} pm band at {center} nm",
        )
        for command, name, center, fwhm, verb, photons, lam in (
            ("mc-run", "filter_ab", 1540.0, 200.0, "pass", "interfering", 1530.0),
            ("hom-dip", "filter_c", 1540.0, 800.0, "pass", "partner", 1534.005235602094),
            ("mc-run", "filter_ab", 1530.0, 10000.0, "block", "partner", 1534.005235602094),
            ("hom-dip", "filter_c", 1534.0, 10000.0, "block", "interfering", 1530.0),
        )
    ),
    # The gate probability underflowed to 0.0, and the resolution check
    # divided by it: a ZeroDivisionError.
    *(
        (
            (command,),
            '{"pump_repetition_rate_hz": 1e308, "gate_rate_hz": 1e-308}',
            "ConfigurationError: pump_repetition_rate_hz and gate_rate_hz must give a gate probability > 0, "
            "got 1e-308 / 1e+308 = 0.0",
        )
        for command in ("mc-run", "hom-dip")
    ),
    *(
        ((command,), body, error)
        for command in ("mc-run", "hom-dip")
        for body, error in (
            ("[]", "ConfigurationError: configuration must be a JSON object"),
            (
                '{"coupler_kappa_lc_rad": 1.0, "coupler_c1_anchors": [[0, 1.0]]}',
                "CalibrationError: coupler_c1_anchors: "
                "anchor ratio 1.0 at 0.0 V exceeds the zero-bias maximum 0.708073",
            ),
            (
                '{"detector_dark_prob_per_ns": 2.0}',
                "ConfigurationError: detector_dark_prob_per_ns must be in [0, 1], got 2.0",
            ),
        )
    ),
    (
        ("keyrate-sweep",),
        '{"link_dark_prob_per_ns": 2.0}',
        "ConfigurationError: link_dark_prob_per_ns must be in [0, 1], got 2.0",
    ),
    # The models' range checks named a quantity, not the key: "efficiency
    # must be in [0, 1]" for either detector, "FWHM bandwidth must be > 0",
    # "center wavelength must be > 0", "filter FWHM must be > 0", "insertion
    # loss must be >= 0 dB", "pump power must be >= 0", "pairs_per_mw must be
    # >= 0", "gate window must be > 0 ns", "segment 'prop_back' loss must be
    # >= 0 dB", and "herald efficiency" or "herald dark probability must be
    # in [0, 1]".
    *(
        ((command,), f'{{"{key}": {value}}}', f"ConfigurationError: {key} must be {bound}, got {float(value)}")
        for command, key, value, bound in (
            ("mc-run", "detector_efficiency", 1.5, "in [0, 1]"),
            ("keyrate-sweep", "link_detector_efficiency", 1.5, "in [0, 1]"),
            ("hom-dip", "detector_gate_window_ns", 0, "> 0"),
            ("keyrate-sweep", "link_gate_window_ns", 0, "> 0"),
            ("spdc-spectrum", "spdc_center_wavelength_nm", 0, "> 0"),
            ("spdc-spectrum", "spdc_fwhm_nm", 0, "> 0"),
            ("mc-run", "spdc_fwhm_nm", -80, "> 0"),
            ("mc-run", "photon_center_wavelength_nm", 0, "> 0"),
            ("hom-dip", "photon_fwhm_pm", 0, "> 0"),
            ("mc-run", "external_pairs_per_mw", -1, ">= 0"),
            ("mc-run", "external_pump_power_mw", -1, ">= 0"),
            ("hom-dip", "chip_pairs_per_mw", -1, ">= 0"),
            ("hom-dip", "chip_pump_power_mw", -1, ">= 0"),
            ("mc-run", "filter_ab_fwhm_pm", 0, "> 0"),
            ("mc-run", "filter_ab_insertion_loss_db", -1, ">= 0"),
            ("hom-dip", "filter_c_fwhm_pm", 0, "> 0"),
            ("hom-dip", "filter_c_insertion_loss_db", -1, ">= 0"),
            ("mc-run", "loss_fiber_to_chip_db", -1, ">= 0"),
            ("mc-run", "loss_chip_to_fiber_db", -1, ">= 0"),
            ("hom-dip", "loss_propagation_front_db", -1, ">= 0"),
            ("keyrate-sweep", "loss_propagation_back_db", -1, ">= 0"),
            ("visibility-map", "map_herald_efficiency", 1.5, "in [0, 1]"),
            ("visibility-map", "map_herald_dark_prob", 2, "in [0, 1]"),
        )
    ),
    # An OverflowError in coherence_time, squaring the wavelength.
    *(
        (
            (command, "--pulses", "1000"),
            '{"photon_center_wavelength_nm": 1e300}',
            "ConfigurationError: photon_center_wavelength_nm: center wavelength 1e+300 nm overflows when squared",
        )
        for command in ("mc-run", "hom-dip")
    ),
    # A square that underflows to 0 would give a coherence time of 0.
    *(
        (
            argv,
            '{"photon_center_wavelength_nm": 1e-300}',
            "ConfigurationError: photon_center_wavelength_nm: center wavelength 1e-300 nm underflows when squared",
        )
        for argv in (("mc-run",), ("hom-dip", "--pulses", "0"))
    ),
    # A coherence time whose quotient by the bandwidth underflows to 0 blamed
    # dip_fwhm_time_ps ("must be > 0, got None"); one that overflows named no
    # key ("ValueError: delay must be finite, got inf").
    *(
        (
            argv,
            f'{{"photon_center_wavelength_nm": {center}, "photon_fwhm_pm": {fwhm}}}',
            "ConfigurationError: photon_center_wavelength_nm and photon_fwhm_pm must give a coherence time "
            f"that is finite and > 0, got {tau} ps",
        )
        for center, fwhm, tau in (("1e-151", "1e300", 0.0), ("1e150", "1e-300", math.inf))
        for argv in (("mc-run",), ("hom-dip", "--pulses", "0"))
    ),
    # The model's own range checks named neither key nor value ("arm losses
    # must be >= 0 dB", "mean photon numbers must be >= 0").
    (
        ("mc-run",),
        '{"gate_rate_hz": 0}',
        "ConfigurationError: pump_repetition_rate_hz and gate_rate_hz must be > 0, got 76000000.0 and 0.0",
    ),
    (
        ("mc-run",),
        '{"gate_rate_hz": 1e9}',
        "ConfigurationError: gate_rate_hz must be <= pump_repetition_rate_hz, got 1000000000.0 > 76000000.0",
    ),
    (("hom-dip",), '{"pump_duration_ps": -1}', "ConfigurationError: pump_duration_ps must be >= 0, got -1.0"),
    (
        ("mc-run",),
        '{"alice_arm_loss_db": -1}',
        "ConfigurationError: alice_arm_loss_db must be >= 0, got -1.0",
    ),
    *(
        (("keyrate-sweep",), f'{{"{key}": {value}}}', f"ValueError: {key} must be >= 0, got {value}")
        for key, value in (
            ("fiber_loss_db_per_km", -0.2), ("mean_photon_per_pulse", -1.0), ("relay_pair_mean", -0.5)
        )
    ),
]


def _rejection_id(argv, text) -> str:
    document = json.loads(text) if text else {}
    if not isinstance(document, dict):
        return " ".join([*argv, text])
    return " ".join([*argv, *(f"{key}={json.dumps(value)}" for key, value in document.items())])


@pytest.mark.parametrize("argv,text,line", _REJECTIONS, ids=[_rejection_id(a, t) for a, t, _ in _REJECTIONS])
def test_cli_rejects_input(tmp_path, capsys, argv, text, line):
    if text is not None:
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        argv = (*argv, "--config", str(path))
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("command", ["mc-run", "hom-dip"])
def test_huge_pump_duration_runs_without_a_traceback(tmp_path, capsys, command):
    # v_timing squared the pump duration over the coherence time: an
    # OverflowError.  In process, an uncaught exception fails the test.
    assert _run_with_config(tmp_path, {"pump_duration_ps": 1e308}, command, "--pulses", "1000") == 0
    assert "error" not in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


# Flags a subcommand does not take: --pulses and --workers where no pulse is
# sampled, --format everywhere (each subcommand has one output format),
# --anchors-csv (measured anchors enter through the configuration), and one
# that no subcommand has.
_REJECTED_FLAGS = [
    *((name, flag, "1") for name in ANALYTIC for flag in ("--pulses", "--workers")),
    ("hom-dip", "--workers", "1"),
    ("coupler-curve", "--anchors-csv", "anchors.csv"),
    *((name, "--format", "csv") for name in (*ANALYTIC, "hom-dip", "mc-run")),
    ("mc-run", "--no-such-flag", "1"),
]


@pytest.mark.parametrize(
    "argv", _REJECTED_FLAGS, ids=[f"{name}_{flag.lstrip('-')}" for name, flag, _ in _REJECTED_FLAGS]
)
def test_subcommand_rejects_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def child_env() -> dict:
    """The environment of a fresh interpreter that imports relaysim from where the tests do."""
    path = [str(Path(relaysim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def run_python(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=child_env()
    )


def _env_without_blas_setting() -> dict:
    return {k: v for k, v in child_env().items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}


def test_cli_starts_one_blas_thread_unless_told_otherwise():
    # numpy's OpenBLAS starts a worker thread at load unless
    # OPENBLAS_NUM_THREADS says 1; relaysim's einsums are at most 21 x 21.
    if not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2:
        pytest.skip("needs /proc and more than one CPU")
    script = (
        "import os, relaysim.cli\n"
        "relaysim.cli.main(['mc-run', '--preset', 'paper-fig6', '--pulses', '1000'])\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )

    def threads_and_setting(env):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    assert threads_and_setting(_env_without_blas_setting()) == ["1", "1"]
    assert threads_and_setting({**_env_without_blas_setting(), "OPENBLAS_NUM_THREADS": "2"})[1] == "2"


def test_importing_the_cli_leaves_the_environment_alone():
    script = "import os, relaysim.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=_env_without_blas_setting()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"


@pytest.mark.parametrize(
    "argv", [("mc-run",), ("hom-dip", "--pulses", "0")], ids=["mc-run", "hom-dip-analytic"]
)
def test_blas_thread_count_leaves_stdout_unchanged(argv):
    outputs = []
    for threads in ("1", "2"):
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "relaysim.cli", *argv, "--preset", "paper-fig6"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _cli(*argv) -> tuple[str, ...]:
    return ("-m", "relaysim.cli", *argv, "--out", os.devnull)


# The Monte Carlo set-up without a run: compile, enumeration, closed form, ledger.
_EXACT_MODEL = (
    "from relaysim.config import load_preset\n"
    "from relaysim.montecarlo import _ledger_per_gate, analytic_visibility, compile_scenario, expected_rates\n"
    "scenario = load_preset('paper-fig6').to_scenario()\n"
    "_ledger_per_gate(compile_scenario(scenario))\n"
    "expected_rates(scenario)\n"
    "expected_rates(scenario, overlap=0.0)\n"
    "analytic_visibility(scenario)\n"
)
_STUDY = ("relaysim", "components", "config", "records", "units")
_SAMPLER = (*_STUDY, "interference", "montecarlo", "photostats")

# What each cold start loads.  numpy is most of a cold start, scipy.optimize
# most of the rest and only the hom-dip fit needs it; dataclasses, and the
# inspect module it imports, cost milliseconds more.  A module a cold start
# imports is compiled again when no bytecode is cached, so no study loads
# another study's code.
_COLD_STARTS = {
    # id: (argv after `python`, its relaysim modules, then whether numpy, scipy.optimize, dataclasses, inspect load)
    "import":         (("-c", "import relaysim"),          ("relaysim",),                           0, 0, 0, 0),
    "spdc-spectrum":  (_cli("spdc-spectrum"),              _STUDY,                                  0, 0, 0, 0),
    "coupler-curve":  (_cli("coupler-curve"),              _STUDY,                                  0, 0, 0, 0),
    "visibility-map": (_cli("visibility-map"),             (*_STUDY, "interference", "photostats"), 0, 0, 0, 0),
    "keyrate-sweep":  (_cli("keyrate-sweep"),              (*_STUDY, "linkbudget"),                 0, 0, 0, 0),
    "hom-dip":        (_cli("hom-dip", "--pulses", "0"),   _SAMPLER,                                1, 1, 1, 1),
    "mc-run":         (_cli("mc-run", "--pulses", "1000"), _SAMPLER,                                1, 0, 0, 1),
    "exact-model":    (("-c", _EXACT_MODEL),               _SAMPLER,                                0, 0, 0, 0),
}


@pytest.mark.parametrize("name", _COLD_STARTS)
def test_cold_start_loads_only_what_it_uses(name):
    argv, modules, *watched = _COLD_STARTS[name]
    proc = run_python("-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    # Each "import time:" line ends with a module the child loaded.
    lines = proc.stderr.splitlines()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}
    assert sorted(m.removeprefix("relaysim.") for m in loaded if m.split(".")[0] == "relaysim") == sorted(modules)
    assert [m in loaded for m in ("numpy", "scipy.optimize", "dataclasses", "inspect")] == list(map(bool, watched))


@pytest.mark.parametrize(
    "argv",
    [("keyrate-sweep", "--preset", "paper-fig2"), ("hom-dip", "--pulses", "0")],
    ids=["keyrate-sweep", "hom-dip"],
)
def test_closed_stdout_exits_quietly(argv):
    # A reader that closes early, like `| head -3`, is not an input error.
    proc = subprocess.Popen(
        [sys.executable, "-m", "relaysim.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1

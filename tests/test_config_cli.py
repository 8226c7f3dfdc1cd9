import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import relaysim
from relaysim.cli import main
from relaysim.components import ChipLayout, ConfigurationError, SpdcSource, calibrate_coupler, chip_insertion_loss
from relaysim.config import (
    _FIELD_TYPES,
    PRESET_NAMES,
    SCHEMA_VERSION,
    ScenarioConfig,
    load_config,
    load_preset,
    parse_config,
)
from relaysim.montecarlo import Scenario, compile_scenario
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
    # The record defaults that remain repeat the config's values.
    cfg = ScenarioConfig()
    scenario = cfg.to_scenario()
    for f in fields(Scenario):
        if f.name in vars(Scenario):
            assert getattr(scenario, f.name) == vars(Scenario)[f.name], f.name
    assert scenario.external_source.spectrum == vars(SpdcSource)["spectrum"] == cfg.spdc_mode()
    assert scenario.layout.measured_insertion_db == vars(ChipLayout)["measured_insertion_db"]
    # The coupler literal is the calibration of the default anchors.
    assert calibrate_coupler(cfg.coupler_c1_anchors, cfg.coupler_kappa_lc_rad).model == Scenario.coupler_c1


def test_round_trip_is_identity():
    cfg = ScenarioConfig()
    once = parse_config(json.loads(cfg.dumps()))
    twice = parse_config(json.loads(once.dumps()))
    assert once == cfg
    assert twice == once


def test_unknown_keys_rejected_and_annotations_ignored():
    with pytest.raises(ConfigurationError):
        parse_config({"schema_version": SCHEMA_VERSION, "fiber_loss_per_km": 0.2})
    cfg = parse_config(
        {"schema_version": SCHEMA_VERSION, "_note": "annotation", "fiber_loss_db_per_km": 0.25}
    )
    assert cfg.fiber_loss_db_per_km == 0.25


def test_missing_keys_get_defaults():
    cfg = parse_config({"schema_version": SCHEMA_VERSION})
    assert cfg == ScenarioConfig()


def test_wrong_schema_version_rejected():
    with pytest.raises(ConfigurationError):
        parse_config({"schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(ConfigurationError):
        parse_config({"schema_version": SCHEMA_VERSION - 1})


@pytest.mark.parametrize(
    "key,reason",
    [
        ("chip_insertion_loss_db", "measured_insertion_loss_db"),
        ("link_pulse_rate_hz", "never read"),
        ("coupler_interaction_length_mm", "never read"),
        ("teleport_fidelity", "no output reads"),
        ("monitor_enabled", "no coincidence or visibility reads"),
        ("monitor_arm_loss_db", "no coincidence or visibility reads"),
        ("relay_position", "optimised per distance"),
        ("pair_number_cutoff", "moved the dip with no warning"),
    ],
)
def test_removed_keys_rejected_with_reason(key, reason):
    with pytest.raises(ConfigurationError, match=reason):
        parse_config({"schema_version": SCHEMA_VERSION, key: 9.0})


def test_type_validation():
    with pytest.raises(ConfigurationError):
        parse_config({"dip_scan_points": 2.5})
    with pytest.raises(ConfigurationError):
        parse_config({"dip_scan_points": True})
    with pytest.raises(ConfigurationError):
        parse_config({"photon_lineshape": 3})
    with pytest.raises(ConfigurationError):
        parse_config({"coupler_c1_anchors": [[0.0], [30.0, 0.5]]})
    with pytest.raises(ConfigurationError):
        parse_config({"delay_mm": "far"})


# A non-finite number is put where each numeric key holds one: the value
# itself, a list element, or the ratio of a [voltage, ratio] anchor pair.
_NUMBER_SLOTS = {
    "float": "{}",
    "float | None": "{}",
    "tuple[float, ...]": "[0.01, {}]",
    "tuple[tuple[float, float], ...]": "[[0.0, 1.0], [30.0, {}]]",
}
_NUMERIC_KEYS = [f.name for f in fields(ScenarioConfig) if f.type in _NUMBER_SLOTS]
# Numeric keys since removed: a non-finite value is rejected by name too,
# before any coercion, with the reason the key went.
_REMOVED_NUMERIC_KEYS = ["monitor_arm_loss_db", "relay_position"]
_NON_FINITE = [
    (key, literal)
    for key in _NUMERIC_KEYS + _REMOVED_NUMERIC_KEYS
    for literal in ("NaN", "Infinity", "-Infinity")
]


def test_every_config_field_is_numeric_or_exact():
    # Every field the non-finite test below skips is an int or a str.
    types = Counter(f.type for f in fields(ScenarioConfig))
    assert {t: n for t, n in types.items() if t in _NUMBER_SLOTS} == {
        "float": 45,
        "float | None": 3,
        "tuple[float, ...]": 2,
        "tuple[tuple[float, float], ...]": 2,
    }
    assert set(types) - set(_NUMBER_SLOTS) == {"int", "str"}


@pytest.mark.parametrize("key,literal", _NON_FINITE, ids=[f"{k}-{v}" for k, v in _NON_FINITE])
def test_config_rejects_non_finite_number(key, literal):
    # Python's json reads NaN and +-Infinity; each used to reach the models,
    # which printed nan rows, unbounded reaches or an unnamed numpy error.
    if key in _REMOVED_NUMERIC_KEYS:
        with pytest.raises(ConfigurationError, match=f"^configuration key '{key}' was removed: "):
            parse_config(json.loads(f'{{"{key}": {literal}}}'))
        return
    slot = _NUMBER_SLOTS[_FIELD_TYPES[key]].format(literal)
    with pytest.raises(ConfigurationError, match=f"^{key} must be "):
        parse_config(json.loads(f'{{"{key}": {slot}}}'))


@pytest.mark.parametrize(
    "key,value",
    [
        ("map_na_values", ["0.1"]),
        ("map_nb_values", [0.01, True]),
        ("coupler_c1_anchors", [["30", True]]),
        ("coupler_c2_anchors", [[30.0, "0.5"]]),
        ("coupler_c2_anchors", [[True, 0.5]]),
        ("delay_mm", 10**400),
    ],
    ids=[
        "string_in_list", "bool_in_list", "string_and_bool_anchor", "string_ratio", "bool_voltage",
        "int_past_float",
    ],
)
def test_config_numbers_pass_one_coercion(key, value):
    # List elements and anchors went through bare float(), which took "0.1"
    # and true; an int past float range died with an OverflowError.
    with pytest.raises(ConfigurationError, match=f"^{key} must be "):
        parse_config({key: value})


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


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError):
        load_preset("paper-fig99")


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


def _coupler_curve_with_anchors(tmp_path, anchors):
    """Run coupler-curve with the same measured anchors on both couplers."""
    path = tmp_path / "anchors.json"
    path.write_text(
        json.dumps({"coupler_c1_anchors": anchors, "coupler_c2_anchors": anchors}), encoding="utf-8"
    )
    return run_cli("coupler-curve", "--config", str(path), "--out", str(tmp_path / "couplers.csv"))


def test_coupler_curve_config_anchors(tmp_path, capsys):
    assert _coupler_curve_with_anchors(tmp_path, [[0.0, 1.0], [25.0, 0.5]]) == 0
    lines = (tmp_path / "couplers.csv").read_text().splitlines()
    table = {float(r[0]): (float(r[1]), float(r[2])) for r in (l.split(",") for l in lines[1:])}
    assert table[25.0] == pytest.approx((0.5, 0.5), abs=1e-6)
    assert _coupler_curve_with_anchors(tmp_path, [[0.0, 1.0], [25.0, 1.5]]) == 2
    assert "CalibrationError: anchor ratio 1.5 at 25.0 V is outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", [0.0, -1.0])
def test_coupler_curve_rejects_nonpositive_kappa_lc(tmp_path, capsys, kappa):
    # kappa*Lc = 0 was reported as the default anchor ratio 1.0 exceeding the
    # zero-bias maximum sin^2(0) = 0, which names the wrong input.  NaN, which
    # hung the detuning-slope fit, is rejected when the config is parsed.
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps({"coupler_kappa_lc_rad": kappa}), encoding="utf-8")
    assert run_cli("coupler-curve", "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: kappa*Lc must be > 0, got {kappa}\n"


def test_coupler_curve_zero_bias_anchor_unconstrained(tmp_path, capsys):
    # One anchor at 0 V leaves the detuning slope free: gamma stays 0, and
    # the summary says the fit did not constrain it.
    assert _coupler_curve_with_anchors(tmp_path, [[0.0, 1.0]]) == 0
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


def _run_with_config(tmp_path, document, *argv) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return run_cli(*argv, "--config", str(path))


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


@pytest.mark.parametrize("key", ["link_detector_efficiency", "mean_photon_per_pulse"])
def test_keyrate_sweep_rejects_zero_signal_normalization(tmp_path, capsys, key):
    # With mu * eta = 0 the direct link's zero-distance rate is all dark
    # counts, and the table printed direct = 1.0 at every distance.
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({key: 0.0}), encoding="utf-8")
    assert run_cli("keyrate-sweep", "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: ValueError: mean_photon_per_pulse * link_detector_efficiency is 0"
    )


def test_mc_run_byte_identical(tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    args = ["mc-run", "--seed", "1", "--pulses", "50000", "--out"]
    assert run_cli(*args, str(out1)) == 0
    assert run_cli(*args, str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("pulses_simulated: 50000\n")
    assert "net_visibility:" in text


def test_mc_run_worker_count_invariance(tmp_path):
    out1 = tmp_path / "w1.txt"
    out2 = tmp_path / "w2.txt"
    base = ["mc-run", "--seed", "5", "--pulses", "60000"]
    assert run_cli(*base, "--workers", "1", "--out", str(out1)) == 0
    assert run_cli(*base, "--workers", "2", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


_ENGINE_COMMANDS = [("mc-run",), ("hom-dip", "--pulses", "0")]


@pytest.mark.parametrize("argv", _ENGINE_COMMANDS, ids=["mc-run", "hom-dip-analytic"])
def test_thermal_source_too_bright_for_the_cutoff_is_named(tmp_path, capsys, argv):
    # Mean 0.6 pairs puts 1.13e-9 of a thermal law above 20 pairs.
    document = {"chip_pairs_per_mw": 0.6, "chip_pump_power_mw": 1.0}
    assert _run_with_config(tmp_path, document, *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ConfigurationError: chip source: thermal law at mean 0.6 pairs per pulse "
        "puts 1.13e-09 of its mass above n_max = 20 pairs, more than 1e-09\n"
    )


@pytest.mark.parametrize(
    "key,mean,lost",
    [("map_na_values", 1e200, "1"), ("map_nb_values", 0.7, "8.08e-09")],
    ids=["overflowing", "tail"],
)
def test_visibility_map_mean_too_large_for_the_law_is_named(tmp_path, capsys, key, mean, lost):
    # These once failed as a bare OverflowError (exit 1) and as an
    # unexplained "pmf must sum to ~1, got 0.99999999...".
    assert _run_with_config(tmp_path, {key: [mean]}, "visibility-map") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: ValueError: thermal law at mean {mean!r} pairs per pulse "
        f"puts {lost} of its mass above n_max = 20 pairs, more than 1e-09\n"
    )


def test_visibility_map_rejects_dark_clicks_without_herald_efficiency(tmp_path, capsys):
    # Printed the dark-free limit, V = 0.5483870967741935, whatever the dark probability.
    document = {
        "map_herald_efficiency": None,
        "map_herald_dark_prob": 0.5,
        "map_na_values": [0.05],
        "map_nb_values": [0.02],
    }
    assert _run_with_config(tmp_path, document, "visibility-map") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ValueError: the vanishing-efficiency herald takes no dark clicks, got dark "
        "probability 0.5: as the efficiency goes to 0 the conditioned pmf tends to the "
        "unconditioned one, not to n*p(n)/mean\n"
    )


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


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 1}', encoding="utf-8")
    assert run_cli("mc-run", "--config", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError:")
    # Unknown subcommands and flags exit nonzero via argparse.
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code != 0
    with pytest.raises(SystemExit) as exc:
        main(["mc-run", "--no-such-flag"])
    assert exc.value.code != 0


@pytest.mark.parametrize("step", [0, -5.0])
def test_keyrate_sweep_rejects_nonpositive_step(tmp_path, capsys, step):
    path = tmp_path / "step.json"
    path.write_text(json.dumps({"sweep_step_km": step}), encoding="utf-8")
    assert run_cli("keyrate-sweep", "--config", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ConfigurationError: sweep_step_km must be > 0")


@pytest.mark.parametrize("points", [0, -3])
@pytest.mark.parametrize(
    "command,key", [("spdc-spectrum", "spectrum_points"), ("coupler-curve", "coupler_curve_points")]
)
def test_output_grid_rejects_fewer_than_one_point(tmp_path, capsys, command, key, points):
    # 0 printed a header-only table and exited 0.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({key: points}), encoding="utf-8")
    assert run_cli(command, "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ConfigurationError: {key} must be >= 1, got {points}\n"


@pytest.mark.parametrize(
    "command,key",
    [("spdc-spectrum", "spectrum_points"), ("coupler-curve", "coupler_curve_points"), ("hom-dip", "dip_scan_points")],
)
def test_output_grid_rejects_more_than_max_points(tmp_path, capsys, command, key):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({key: 100_001}), encoding="utf-8")
    assert run_cli(command, "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ConfigurationError: {key} must be <= 100000, got 100001\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("mc-run", "--pulses", str(2**63)),
        ("hom-dip", "--pulses", str(2**63)),
        ("hom-dip", "--pulses", "-1"),
    ],
    ids=["mc_run_above_int64", "hom_dip_above_int64", "hom_dip_negative"],
)
def test_pulse_count_out_of_range_exits_2(capsys, argv):
    assert run_cli(*argv) == 2
    assert str(2**63 - 1) in capsys.readouterr().err


@pytest.mark.parametrize("low", [100.0, 50.4])
def test_keyrate_sweep_rejects_min_above_max(tmp_path, capsys, low):
    # 100 gave an empty grid; 50.4 gave one row beyond sweep_max_km.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"sweep_min_km": low, "sweep_max_km": 50}), encoding="utf-8")
    assert run_cli("keyrate-sweep", "--config", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: ConfigurationError: sweep_min_km must be <= sweep_max_km, got {low} > 50.0\n"
    )


_NAMED_INPUT_ERRORS = [
    # Both exited 0 with nan rates; keyrate-sweep also put every reach at inf.
    ("keyrate-sweep", "fiber_loss_db_per_km", "NaN", "must be a finite number, got nan"),
    ("hom-dip", "pump_duration_ps", "NaN", "must be a finite number, got nan"),
    # numpy's "pvals < 0, pvals > 1 or pvals contains NaNs" named no input.
    ("mc-run", "alice_arm_loss_db", "NaN", "must be a finite number, got nan"),
    # A zero width died with a ZeroDivisionError; a negative one was fitted as |FWHM|.
    ("mc-run", "dip_fwhm_time_ps", "0", "must be > 0, got 0.0"),
    ("mc-run", "dip_fwhm_time_ps", "-20", "must be > 0, got -20.0"),
    ("hom-dip", "dip_fwhm_time_ps", "0", "must be > 0, got 0.0"),
    ("hom-dip", "dip_fwhm_time_ps", "-20", "must be > 0, got -20.0"),
    # A width this small underflowed to 0 mm and died with a ZeroDivisionError.
    ("mc-run", "dip_fwhm_time_ps", "1e-320", "must be > 0, got 1e-320"),
    ("hom-dip", "dip_fwhm_time_ps", "1e-320", "must be > 0, got 1e-320"),
    # "need at least 3 scan positions" named no key.
    ("hom-dip", "dip_scan_points", "2", "must be >= 3, got 2"),
    # "scan span 1.000 mm must exceed twice the expected width" named no key.
    (
        "hom-dip",
        "dip_scan_min_mm,dip_scan_max_mm",
        "0,1",
        "are too close: scan span 1.000 mm must exceed twice the expected width (10.323 mm)",
    ),
    # Built a list of 2e11 distances until a MemoryError.
    (
        "keyrate-sweep",
        "sweep_max_km",
        "1e12",
        "must give at most 100000 distances from sweep_min_km in sweep_step_km steps, "
        "got 0.0 to 1000000000000.0 in steps of 5.0",
    ),
    # A span that overflows: "math domain error", and for hom-dip "scan
    # positions must be finite, got nan", named no key.
    *(
        (command, f"{low},{high}", "-1e308,1e308", "must span a finite range, got -1e+308 to 1e+308")
        for command, low, high in (
            ("spdc-spectrum", "spectrum_min_nm", "spectrum_max_nm"),
            ("coupler-curve", "coupler_curve_min_v", "coupler_curve_max_v"),
            ("hom-dip", "dip_scan_min_mm", "dip_scan_max_mm"),
        )
    ),
    # "output A/B filter must pass the interfering photons" and its three
    # siblings named neither key nor value.
    (
        "mc-run",
        "filter_ab_center_nm,filter_ab_fwhm_pm",
        "1540.0,200.0",
        "must pass the interfering photons at 1530.0 nm, got a 200.0 pm band at 1540.0 nm",
    ),
    (
        "hom-dip",
        "filter_c_center_nm,filter_c_fwhm_pm",
        "1540.0,800.0",
        "must pass the partner photons at 1534.005235602094 nm, got a 800.0 pm band at 1540.0 nm",
    ),
    (
        "mc-run",
        "filter_ab_center_nm,filter_ab_fwhm_pm",
        "1530.0,10000.0",
        "must block the partner photons at 1534.005235602094 nm, got a 10000.0 pm band at 1530.0 nm",
    ),
    (
        "hom-dip",
        "filter_c_center_nm,filter_c_fwhm_pm",
        "1534.0,10000.0",
        "must block the interfering photons at 1530.0 nm, got a 10000.0 pm band at 1534.0 nm",
    ),
    # The gate probability underflowed to 0.0, and the resolution check
    # divided by it: a ZeroDivisionError.
    *(
        (
            command,
            "pump_repetition_rate_hz,gate_rate_hz",
            "1e308,1e-308",
            "must give a gate probability > 0, got 1e-308 / 1e+308 = 0.0",
        )
        for command in ("mc-run", "hom-dip")
    ),
]


@pytest.mark.parametrize(
    "command,key,literal,message",
    _NAMED_INPUT_ERRORS,
    ids=[f"{command}-{key}-{literal}" for command, key, literal, _ in _NAMED_INPUT_ERRORS],
)
def test_cli_names_the_input_it_rejects(tmp_path, capsys, command, key, literal, message):
    # key and literal may list several keys and their values, comma-separated.
    keys = key.split(",")
    path = tmp_path / "bad.json"
    body = ", ".join(f'"{k}": {v}' for k, v in zip(keys, literal.split(",")))
    path.write_text(f"{{{body}}}", encoding="utf-8")
    assert run_cli(command, "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ConfigurationError: {' and '.join(keys)} {message}\n"


_PINNED_REJECTIONS = [
    ("[]", "ConfigurationError: configuration must be a JSON object"),
    (
        '{"coupler_kappa_lc_rad": 1.0, "coupler_c1_anchors": [[0, 1.0]]}',
        "CalibrationError: anchor ratio 1.0 at 0.0 V exceeds the zero-bias maximum 0.708073",
    ),
    ('{"detector_dark_prob_per_ns": 2.0}', "ValueError: dark probability must be in [0, 1], got 2.0"),
]


@pytest.mark.parametrize("command", ["mc-run", "hom-dip"])
@pytest.mark.parametrize(
    "body,error", _PINNED_REJECTIONS, ids=["not-an-object", "anchor-above-maximum", "dark-probability"]
)
def test_rejection_message_is_pinned(tmp_path, capsys, command, body, error):
    path = tmp_path / "bad.json"
    path.write_text(body, encoding="utf-8")
    assert run_cli(command, "--config", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_scan_span_error_prints_a_huge_width_in_exponent_form(tmp_path, capsys):
    # ":.3f" printed the width of a 1e-300 pm photon with about 300 digits.
    assert _run_with_config(tmp_path, {"photon_fwhm_pm": 1e-300}, "hom-dip") == 2
    assert capsys.readouterr().err == (
        "error: ConfigurationError: dip_scan_min_mm and dip_scan_max_mm are too close: "
        "scan span 18.000 mm must exceed twice the expected width (2.065e+303 mm)\n"
    )


_FINITE_EXTREMES = [
    # An OverflowError in v_timing, squaring the pump duration over the coherence time.
    ('{"pump_duration_ps": 1e308}', 0, None),
    # An OverflowError in coherence_time, squaring the wavelength.
    (
        '{"photon_center_wavelength_nm": 1e300}',
        2,
        "error: ValueError: center wavelength 1e+300 nm overflows when squared\n",
    ),
]


@pytest.mark.parametrize("command", ["mc-run", "hom-dip"])
@pytest.mark.parametrize(
    "body,status,error", _FINITE_EXTREMES, ids=["pump_duration_ps", "photon_center_wavelength_nm"]
)
def test_finite_extreme_input_ends_without_a_traceback(tmp_path, capsys, command, body, status, error):
    # In process, an uncaught exception fails the test where the console showed a traceback.
    path = tmp_path / "extreme.json"
    path.write_text(body, encoding="utf-8")
    assert run_cli(command, "--config", str(path), "--pulses", "1000") == status
    err = capsys.readouterr().err
    if error is None:
        assert "error" not in err
    else:
        assert err == error


# Flags a subcommand does not take: --pulses and --workers where no pulse is
# sampled, --format everywhere (each subcommand has one output format), and
# --anchors-csv (measured anchors enter through the configuration).
_REJECTED_FLAGS = [
    *((name, flag, "1") for name in ANALYTIC for flag in ("--pulses", "--workers")),
    ("hom-dip", "--workers", "1"),
    ("coupler-curve", "--anchors-csv", "anchors.csv"),
    *((name, "--format", "csv") for name in (*ANALYTIC, "hom-dip", "mc-run")),
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


def test_cli_entry_point_installed():
    proc = run_python("-m", "relaysim.cli", "keyrate-sweep", "--preset", "paper-fig2")
    assert proc.returncode == 0
    assert "gain_lossless" in proc.stdout


def test_import_defers_scipy_optimize():
    # scipy.optimize is most of the import time; only fits need it.
    proc = run_python("-c", "import sys, relaysim; print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_monte_carlo_and_coupler_curve_run_without_scipy_optimize():
    # Both calibrate the couplers; only the hom-dip fit needs scipy.optimize.
    script = (
        "import sys\n"
        "from relaysim.cli import main\n"
        "assert main(['mc-run', '--preset', 'paper-fig6', '--pulses', '1000']) == 0\n"
        "assert main(['coupler-curve', '--preset', 'paper-fig4']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "ref_threefold_abc: " in proc.stdout and "c1: gamma_rad_per_V=" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"


def test_import_and_closed_form_studies_leave_numpy_unloaded():
    # numpy is most of a cold start for the four studies that do not sample;
    # dataclasses, and the inspect module it imports, cost milliseconds more.
    script = (
        "import os, sys, relaysim\n"
        "print(sorted(m for m in sys.modules if m.startswith(('relaysim.', 'numpy'))))\n"
        "from relaysim.cli import main\n"
        "for name in ('spdc-spectrum', 'coupler-curve', 'visibility-map', 'keyrate-sweep'):\n"
        "    assert main([name, '--out', os.devnull]) == 0, name\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-2] == "[]"
    assert lines[-1] == "False"


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["coupler-curve"], ["relaysim.interference", "relaysim.linkbudget", "relaysim.photostats"]),
        (["keyrate-sweep"], ["relaysim.interference", "relaysim.photostats"]),
        (["mc-run", "--pulses", "1000"], ["relaysim.linkbudget"]),
    ],
    ids=["coupler-curve", "keyrate-sweep", "mc-run"],
)
def test_subcommand_loads_only_the_modules_it_uses(argv, unloaded):
    # Every module a cold start imports is compiled again when no bytecode
    # is cached, so a study should not load another study's code.
    script = (
        "import os, sys\n"
        "from relaysim.cli import main\n"
        f"assert main({argv!r} + ['--out', os.devnull]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('relaysim.')))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    assert not [name for name in unloaded if repr(name) in loaded], loaded


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

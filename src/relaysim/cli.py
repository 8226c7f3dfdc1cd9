"""Command-line interface: deterministic CSV/text emission for every study.

Subcommands map one-to-one onto the simulator's outputs: the pair-source
spectrum, the coupler tuning curves, the visibility map, the interference
dip scan, the key-rate sweep, and a raw Monte Carlo counts report.  Each
has one output format: the five tables are CSV, the counts report is one
"field: value" line per field.  Same config + seed + flags always produce
byte-identical output files.

Only `hom-dip` and `mc-run` load numpy, for the Monte Carlo draws and the
dip fit; the four figure studies `spdc-spectrum`, `coupler-curve`,
`visibility-map` and `keyrate-sweep` load neither numpy nor the standard
library's dataclass module (every record type comes from `relaysim.records`).
Each handler imports the modules only it needs, so a cold start compiles and
loads no other study's code.

`main` defaults OPENBLAS_NUM_THREADS to 1 unless it is set or numpy is
already loaded: the only BLAS work is `joint_law`'s `einsum` on operands
of at most 21 x 21, so a BLAS worker pool only costs start-up.
Importing this module leaves the environment alone.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from .components import ConfigurationError, coupler_ratio, spdc_spectral_density
from .config import PRESET_NAMES, ScenarioConfig, load_config, load_preset

if TYPE_CHECKING:
    from .montecarlo import CountsReport, NetRates

VISIBILITY_REFERENCE_TARGET = 0.75  # design-target dip visibility at the operating point

# Largest output grid, 244 times the largest preset grid (409 spectrum
# points): every grid is built as a list before a row is written.
MAX_GRID_POINTS = 100_000


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_csv(headers, rows) -> str:
    lines = [",".join(headers)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _fields_text(rows) -> str:
    return "".join(f"{k}: {_fmt(v)}\n" for k, v in rows)


def _emit(args, content: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _grid(cfg: ScenarioConfig, start_key: str, stop_key: str, points_key: str, least: int = 1) -> list[float]:
    """The config's `_linspace` grid from start_key to stop_key, its point count and span checked."""
    points = getattr(cfg, points_key)
    if not points >= least:
        raise ConfigurationError(f"{points_key} must be >= {least}, got {points}")
    if not points <= MAX_GRID_POINTS:
        raise ConfigurationError(f"{points_key} must be <= {MAX_GRID_POINTS}, got {points}")
    start, stop = getattr(cfg, start_key), getattr(cfg, stop_key)
    if not math.isfinite(stop - start):
        raise ConfigurationError(
            f"{start_key} and {stop_key} must span a finite range, got {start!r} to {stop!r}"
        )
    return _linspace(start, stop, points)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """`np.linspace(start, stop, num)` as a list, equal to it value for value."""
    delta, div = stop - start, max(num - 1, 1)
    step = delta / div
    if step == 0:  # numpy's branch for a step that underflows to 0: scale, then multiply
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    if num > 1:
        grid[-1] = stop
    return grid


def _load(args) -> ScenarioConfig:
    if args.preset:
        return load_preset(args.preset)
    if args.config:
        return load_config(args.config)
    return ScenarioConfig()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_spdc_spectrum(args) -> int:
    cfg = _load(args)
    lam = _grid(cfg, "spectrum_min_nm", "spectrum_max_nm", "spectrum_points")
    density = spdc_spectral_density(cfg.spdc_mode(), lam)
    rows = list(zip(lam, density))
    _emit(args, _table_csv(["wavelength_nm", "relative_density"], rows))
    return 0


def _cmd_coupler_curve(args) -> int:
    cfg = _load(args)
    cal1, cal2 = cfg.calibration("coupler_c1_anchors"), cfg.calibration("coupler_c2_anchors")
    volts = _grid(cfg, "coupler_curve_min_v", "coupler_curve_max_v", "coupler_curve_points")
    rows = [(v, coupler_ratio(cal1.model, v), coupler_ratio(cal2.model, v)) for v in volts]
    _emit(args, _table_csv(["voltage_V", "cross_ratio_c1", "cross_ratio_c2"], rows))
    for name, cal in (("c1", cal1), ("c2", cal2)):
        print(
            f"{name}: gamma_rad_per_V={cal.model.gamma_rad_per_v!r} "
            f"residual_rms={cal.residual_rms!r} gamma_constrained={cal.gamma_constrained}"
        )
    return 0


def _cmd_visibility_map(args) -> int:
    from .interference import GridMeanError, UndefinedVisibilityError, v_statistics, visibility_map
    from .photostats import UndefinedConditioningError, herald_condition, thermal

    cfg = _load(args)
    try:
        rows = visibility_map(cfg.map_na_values, cfg.map_nb_values)
    except GridMeanError as exc:
        raise ConfigurationError(f"map_n{exc.arm}_values: {exc}") from None
    except UndefinedConditioningError as exc:
        raise ConfigurationError(f"map_nb_values: {exc}") from None
    except UndefinedVisibilityError as exc:
        raise ConfigurationError(f"map_na_values and map_nb_values: {exc}") from None
    _emit(args, _table_csv(["N_a", "N_b", "visibility"], rows))

    # Operating-point summary at the nominal sources, with the gap to the reference design target.
    nominal = ScenarioConfig()
    na, nb = nominal.source("external").mean_pairs, nominal.source("chip").mean_pairs
    dist_a, law_b = thermal(na), thermal(nb)
    v_low = v_statistics(dist_a, herald_condition(law_b, None))
    v_unit = v_statistics(dist_a, herald_condition(law_b, 1.0))
    print(f"operating_point_Na={na!r} Nb={nb!r}")
    print(f"visibility_low_efficiency_herald={v_low!r}")
    print(f"visibility_unit_efficiency_herald={v_unit!r}")
    print(f"reference_target={VISIBILITY_REFERENCE_TARGET!r}")
    print(f"gap_low_efficiency={VISIBILITY_REFERENCE_TARGET - v_low!r}")
    print(f"gap_unit_efficiency={VISIBILITY_REFERENCE_TARGET - v_unit!r}")
    return 0


def _cmd_hom_dip(args) -> int:
    from .montecarlo import ScanSpanError, scan_dip

    cfg = _load(args)
    scenario = cfg.to_scenario()
    positions = _grid(cfg, "dip_scan_min_mm", "dip_scan_max_mm", "dip_scan_points", 3)
    try:
        result = scan_dip(scenario, positions, args.pulses, seed=args.seed)
    except ScanSpanError as exc:
        raise ConfigurationError(f"dip_scan_min_mm and dip_scan_max_mm are too close: {exc}") from None
    if result.resolution_warning is not None:
        print(result.resolution_warning, file=sys.stderr)
    rows = list(zip(result.positions_mm, result.rates, result.errors))
    _emit(args, _table_csv(["position_mm", "threefold_rate", "error"], rows))
    if result.fit is not None:
        for name in ("visibility", "visibility_err", "fwhm_mm", "fwhm_err", "baseline"):
            print(f"fit_{name}={getattr(result.fit, name)!r}")
    else:
        print(f"fit_failed={result.fit_failed}")
    return 0


def _cmd_keyrate_sweep(args) -> int:
    from .linkbudget import fig2_models, max_distance, sweep

    cfg = _load(args)
    cfg.checked("sweep_min_km", ">= 0")
    cfg.checked("sweep_max_km", ">= 0")
    distances = _grid(cfg, "sweep_min_km", "sweep_max_km", "sweep_points")
    params = cfg.to_link_params()
    variants = fig2_models()
    rows = sweep(variants, params, distances)
    _emit(args, _table_csv(["distance_km", *variants], rows))

    results = {v: max_distance(v, params) for v in variants}
    for name, res in results.items():
        dist = res.distance_km
        print(f"max_distance_{name}_km={dist!r}" + (" (unbounded)" if math.isinf(dist) else ""))
        if res.midpoint_distance_km is not None:
            print(f"max_distance_{name}_midpoint_km={res.midpoint_distance_km!r}")
    direct = results["direct"].distance_km
    if not 0.0 < direct < math.inf:
        print(f"warning: direct reach is {direct!r} km; distance gains are undefined", file=sys.stderr)
        return 0
    print(f"gain_lossless={results['folded_relay_lossless'].distance_km / direct!r}")
    print(f"gain_realistic_chip={results['folded_relay'].distance_km / direct!r}")
    return 0


def _report_rows(report: CountsReport, net: NetRates) -> list[tuple[str, object]]:
    d, r = report.dip, report.ref
    counts = ("singles_a", "singles_b", "singles_c", "twofold_ab", "threefold_abc")
    return [
        ("pulses_simulated", report.pulses_simulated),
        ("seed", report.seed),
        ("delay_mm", report.delay_mm),
        ("gated_pulses", d.gated),
        *((name, getattr(d, name)) for name in counts),
        ("photons_generated", report.ledger.generated),
        ("photons_lost", report.ledger.lost),
        ("photons_undetected_at_detector", report.ledger.undetected),
        ("photons_detected", report.ledger.detected),
        ("ref_gated_pulses", r.gated),
        *((f"ref_{name}", getattr(r, name)) for name in counts),
        ("accidental_threefold_dip", net.accidental_threefold_dip * d.gated),
        ("accidental_threefold_ref", net.accidental_threefold_ref * r.gated),
        ("raw_visibility", report.raw_visibility),
        ("raw_visibility_err", report.raw_visibility_err),
        ("net_visibility", net.net_visibility),
        ("net_visibility_err", net.net_visibility_err),
        ("raw_twofold_visibility", report.raw_twofold_visibility),
        ("net_twofold_visibility", net.net_twofold_visibility),
    ]


def _cmd_mc_run(args) -> int:
    from .montecarlo import run, subtract_accidentals

    report = run(_load(args).to_scenario(), args.pulses, seed=args.seed)
    if report.resolution_warning is not None:
        print(report.resolution_warning, file=sys.stderr)
    net = subtract_accidentals(report)
    _emit(args, _fields_text(_report_rows(report, net)))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "spdc-spectrum": (_cmd_spdc_spectrum, "emit the pair-source spectral envelope"),
    "coupler-curve": (_cmd_coupler_curve, "emit coupler cross ratio versus voltage"),
    "visibility-map": (_cmd_visibility_map, "emit the visibility statistics map"),
    "hom-dip": (_cmd_hom_dip, "scan the interference dip and fit it"),
    "keyrate-sweep": (_cmd_keyrate_sweep, "emit key rates versus distance with gain summary"),
    "mc-run": (_cmd_mc_run, "run the Monte Carlo engine and report tallies"),
}

_DEFAULT_PULSES = {"hom-dip": 0, "mc-run": 1_000_000}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Quantum relay link simulator: interference, counting statistics, key rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--config", help="path to a JSON configuration document")
        group.add_argument("--preset", choices=PRESET_NAMES, help="bundled parameter preset")
        p.add_argument("--seed", type=int, default=1, help="random stream seed (default 1)")
        if name in _DEFAULT_PULSES:
            p.add_argument(
                "--pulses",
                type=int,
                default=_DEFAULT_PULSES[name],
                help="laser pulses to simulate (hom-dip: per scan point; 0 = analytic mode)",
            )
        p.add_argument("--out", help="output file path (default: stdout)")
        if name == "mc-run":
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="accepted for compatibility; has no effect (sampling cost does not grow with --pulses)",
            )
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # OpenBLAS reads it once, when numpy loads
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        status = handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed early: send what is left to devnull so the flush
        # at exit cannot fail again (the recipe of the Python signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # every model and configuration error is a ValueError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Every input the library rejects, in one table with one harness.

A row of REJECTIONS is `id: (call, exception class, message)`.  The harness
asserts that the call raises that class exactly, not a subclass, with that
whole message.  The rows are built per callee: `_rows` states the callee and
the class once, then one (label, arguments, message) case per row.  A
comment above a case says how the input failed before it was rejected.  The
command line's rejections, exit status and stderr line included, are the
rows of `test_config_cli.py::_REJECTIONS`.

The nan rows check that each range guard reads "if not <valid range>": NaN
compares false with everything, so a guard written "if x < 0" lets it through.
"""

import math
from collections import Counter
from functools import partial

import pytest

from helpers import bench_scenario, photostats_closed_form, single_photon_scenario
from relaysim.components import (
    CalibrationError,
    ChipLayout,
    ConfigurationError,
    DetectorModel,
    FilterModel,
    SpdcSource,
    calibrate_coupler,
    detector_click_prob,
)
from relaysim.config import SCHEMA_VERSION, ScenarioConfig, load_preset, parse_config
from relaysim.interference import (
    GridMeanError,
    UndefinedVisibilityError,
    dip_profile,
    v_statistics,
    v_timing,
    visibility_map,
)
from relaysim.linkbudget import VARIANTS, link_rates, max_distance, sweep
from relaysim.montecarlo import ScanSpanError, analytic_visibility, compile_scenario, expected_rates, run, scan_dip
from relaysim.photostats import (
    PhotonNumberDistribution,
    UndefinedConditioningError,
    apply_loss,
    custom,
    herald_condition,
    poisson,
    thermal,
)
from relaysim.records import fields, replace
from relaysim.units import SpectralMode, delay_to_path

NAN, INF = math.nan, math.inf
HALF_PI = math.pi / 2
MAX_PULSES, MAX_SEED = 2**63 - 1, 2**64 - 1

CONFIG = ScenarioConfig()
SCENARIO = CONFIG.to_scenario()
LAYOUT = CONFIG.chip_layout()
DETECTOR = CONFIG.detector()
LINK = CONFIG.to_link_params()
BENCH = bench_scenario(0.01, 0.01)
FIG6 = load_preset("paper-fig6").to_scenario()
SCAN = (-30.0, -15.0, 0.0, 15.0, 30.0)
NO_SIGNAL = replace(LINK, mean_photon_per_pulse=0.0)
BLIND = replace(LINK, detector=replace(LINK.detector, efficiency=0.0))


def _rows(name: str, call, cls: type, cases) -> dict:
    """Rows `name label: (call(*args), cls, message)`, one per (label, args, message) case."""
    return {f"{name} {label}": (partial(call, *args), cls, message) for label, args, message in cases}


def _segments(**changes) -> dict:
    return {**LAYOUT.segments, **changes}


def _lost_mass(law: str, mean: float, lost: str) -> str:
    return f"{law} law at mean {mean!r} pairs per pulse puts {lost} of its mass above n_max = 20 pairs, more than 1e-09"


_BAD_PAIRS = "a list of [voltage, ratio] pairs of finite numbers"

# A non-finite number is put where each numeric configuration key holds one
# (json reads NaN and +-Infinity as these floats): the value, a list
# element, or the ratio of a [voltage, ratio] anchor.  Each slot has the
# noun its message uses.
_NUMBER_SLOTS = {
    "float": (lambda x: x, "a finite number"),
    "float | None": (lambda x: x, "a finite number"),
    "tuple[float, ...]": (lambda x: [0.01, x], "a list of finite numbers"),
    "tuple[tuple[float, float], ...]": (lambda x: [[0.0, 1.0], [30.0, x]], _BAD_PAIRS),
}

# Keys the schema no longer has, each rejected with the reason it went.
_REMOVED_KEYS = {
    "chip_insertion_loss_db": (
        "the link budget now reads the chip layout; set measured_insertion_loss_db or the loss_* segments instead"
    ),
    "link_pulse_rate_hz": "it was never read; key rates are per pulse",
    "coupler_interaction_length_mm": "it was never read; coupler_kappa_lc_rad sets the coupling",
    "teleport_fidelity": "it fed only a QBER that no output reads; the reach is where the SNR falls to unity",
    "monitor_enabled": "it fed only a singles count that no coincidence or visibility reads",
    "monitor_arm_loss_db": "it fed only a singles count that no coincidence or visibility reads",
    "relay_position": (
        "no preset or example set it, and it silently changed what the reach and gain lines mean; "
        "the relay position is optimised per distance"
    ),
    "pair_number_cutoff": "folding the tail onto it moved the dip with no warning; laws span 0-20 pairs",
    "spdc_lineshape": "no preset chose a gaussian; the pair spectrum is the sinc^2 phase-matching envelope",
    "photon_lineshape": "only the coherence time read it; the dip's overlap, timing factor and fit are gaussian",
}
# Numeric keys since removed: a non-finite value is rejected by the key's
# removal too, before any coercion.
_REMOVED_NUMERIC_KEYS = ("monitor_arm_loss_db", "relay_position")

_UNKNOWN_VARIANT = (
    "unknown variant 'quantum_carrier_pigeon'; expected one of "
    "('direct', 'standard_relay', 'folded_relay', 'folded_relay_lossless')"
)
_NO_SIGNAL = (
    "mean_photon_per_pulse * link_detector_efficiency is 0: the direct link detects no signal, "
    "so rates normalized to its zero-distance rate are undefined"
)
_NO_HERALD = "herald click probability is zero; conditioning is undefined"

REJECTIONS = {
    # ----- components ---------------------------------------------------
    **_rows("calibrate_coupler", calibrate_coupler, CalibrationError, [
        ("ratio above 1", ([(0.0, 1.2)], HALF_PI), "anchor ratio 1.2 at 0.0 V is outside [0, 1]"),
        ("negative ratio", ([(0.0, 1.0), (30.0, -0.1)], HALF_PI), "anchor ratio -0.1 at 30.0 V is outside [0, 1]"),
        ("no anchor", ([], HALF_PI), "at least one (voltage, ratio) anchor is required"),
        ("infinite voltage", ([(0.0, 1.0), (INF, 0.5)], HALF_PI), "anchor voltage inf is not finite"),
        ("nan voltage", ([(NAN, 0.5)], HALF_PI), "anchor voltage nan is not finite"),
    ]),
    **_rows("ChipLayout", ChipLayout, ConfigurationError, [
        (
            "missing segment", ({"fiber_to_chip": 3.0, "chip_to_fiber": 3.0, "prop_front": 1.0},),
            "path 'c2_to_out' references missing segment 'prop_back'",
        ),
        ("segment None", (_segments(prop_back=None),), "segment 'prop_back' has no loss value"),
        (
            "negative segment", (_segments(fiber_to_chip=-1.0),),
            "segment 'fiber_to_chip' loss must be >= 0 dB, got -1.0",
        ),
        ("nan segment", (_segments(prop_back=NAN),), "segment 'prop_back' loss must be >= 0 dB, got nan"),
        *(
            (f"measured {x}", (LAYOUT.segments, x), f"measured insertion loss must be finite and >= 0 dB, got {x}")
            for x in (-1.0, NAN)
        ),
        # The infinite measured figure gave NaN dB from the chip source to C2
        # (an unbounded relay reach), an infinite segment 0 dB after C2 on a
        # 9 dB chip.
        (
            "measured inf", (_segments(prop_front=0.0), INF),
            "measured insertion loss must be finite and >= 0 dB, got inf",
        ),
        ("infinite insertion", (_segments(prop_back=INF), 9.0), "cannot rescale an insertion path of inf dB to 9.0 dB"),
        (
            "zero insertion", (dict.fromkeys(LAYOUT.segments, 0.0), 9.0),
            "cannot rescale an insertion path of 0.0 dB to 9.0 dB",
        ),
    ]),
    "ChipLayout.path_loss_db unknown path": (
        partial(LAYOUT.path_loss_db, "nonexistent"), ConfigurationError, "unknown path 'nonexistent'"
    ),
    **_rows("SpdcSource", SpdcSource, ValueError, [
        ("pairs_per_mw nan", (NAN, 1.5), "pairs_per_mw must be >= 0, got nan"),
        ("pump_power_mw nan", (0.05 / 1.5, NAN), "pump power must be >= 0, got nan"),
    ]),
    **_rows("FilterModel", FilterModel, ValueError, [
        ("fwhm_pm nan", (1530.0, NAN, 0.0), "filter FWHM must be > 0, got nan"),
        ("insertion_loss_db nan", (1530.0, 200.0, NAN), "insertion loss must be >= 0 dB, got nan"),
    ]),
    **_rows("DetectorModel", DetectorModel, ValueError, [
        ("efficiency 1.5", (1.5, 1e-5, 1.0), "efficiency must be in [0, 1], got 1.5"),
        ("gate window 0.0", (0.1, 1e-5, 0.0), "gate window must be > 0 ns, got 0.0"),
        ("gate window nan", (0.1, 1e-5, NAN), "gate window must be > 0 ns, got nan"),
    ]),
    **_rows("detector_click_prob", detector_click_prob, ValueError, [
        (photons, (DETECTOR, photons), f"photon count must be >= 0, got {photons}") for photons in (-1, NAN)
    ]),
    # ----- units --------------------------------------------------------
    **_rows("SpectralMode", SpectralMode, ValueError, [
        *(
            (f"center {x}", (x, 200.0), f"center wavelength must be > 0, got {x}")
            for x in (0.0, -1530.0, NAN)
        ),
        *((f"fwhm {x}", (1530.0, x), f"FWHM bandwidth must be > 0, got {x}") for x in (0.0, -5.0, NAN)),
    ]),
    **_rows("delay_to_path", delay_to_path, ValueError, [
        (x, (x,), f"delay must be finite, got {x}") for x in (INF, NAN)
    ]),
    # ----- photostats ---------------------------------------------------
    # An infinite mean or entry turned every pmf entry into nan and was
    # reported as "pmf entries must be nonnegative"; an infinite total was
    # divided by and reported as "pmf must sum to ~1, got 0.0".  The mass
    # rows failed as "pmf must sum to ~1, got 0.99999999..." or, from mean
    # 1e16 up, as a bare OverflowError from mean**n; a poissonian law at
    # mean 0.6 loses only 2e-25 and is kept.
    **{
        f"{law.__name__} mean {mean}": (
            partial(law, mean), ValueError,
            f"mean pair number must be finite and >= 0, got {mean}" if lost is None
            else _lost_mass(law.__name__, mean, lost),
        )
        for law, mean, lost in (
            (thermal, -0.01, None), (thermal, NAN, None), (thermal, INF, None), (thermal, -INF, None),
            (poisson, -1.0, None), (poisson, NAN, None), (poisson, INF, None),
            (thermal, 0.6, "1.13e-09"), (thermal, 5.0, "0.0217"), (thermal, 30.0, "0.502"), (thermal, 800.0, "0.974"),
            (thermal, 1e16, "1"), (thermal, 1e200, "1"), (poisson, 5.0, "8.11e-08"), (poisson, 30.0, "0.965"),
            (poisson, 800.0, "1"), (poisson, 1e16, "1"), (poisson, 1e200, "1"),
        )
    },
    **_rows("custom", custom, ValueError, [
        ("infinite entry", ([INF, 1.0],), "pmf entry 0 must be finite, got inf"),
        ("infinite last entry", ([1.0, 0.5, INF],), "pmf entry 2 must be finite, got inf"),
        ("infinite entries", ([INF, -INF],), "pmf must have positive total mass, got nan"),
        ("nan entry", ([NAN, 1.0],), "pmf must have positive total mass, got nan"),
        ("infinite total", ([1e308, 1e308],), "pmf total mass must be finite, got inf"),
        ("no mass", ([0.0, 0.0],), "pmf must have positive total mass, got 0.0"),
    ]),
    **_rows("PhotonNumberDistribution", PhotonNumberDistribution, ValueError, [
        ("empty", ((),), "pmf must have at least one entry"),
        ("mass above 1", ((0.5, 0.6),), "pmf must sum to ~1, got 1.1"),
        ("negative entry", ((1.1, -0.1),), "pmf entries must be nonnegative"),
        ("nan entry", ((NAN, 1.0),), "pmf entries must be nonnegative"),
    ]),
    **_rows("herald_condition", herald_condition, UndefinedConditioningError, [
        ("no click", (thermal(0.05), 0.0), _NO_HERALD),
        ("vacuum 1.0", (thermal(0.0), 1.0), _NO_HERALD),
        ("vacuum None", (thermal(0.0), None), _NO_HERALD),
    ]),
    **_rows("herald_condition", herald_condition, ValueError, [
        ("efficiency 1.5", (thermal(0.05), 1.5), "herald efficiency must be in [0, 1], got 1.5"),
        ("dark -0.1", (thermal(0.05), 0.5, -0.1), "herald dark probability must be in [0, 1], got -0.1"),
        # As the efficiency goes to 0 at a fixed dark probability the
        # conditioned law tends to the unconditioned one, not to n p(n)/mean.
        (
            "vanishing efficiency with darks", (thermal(0.02), None, 0.5),
            "the vanishing-efficiency herald takes no dark clicks, got dark probability 0.5: as the efficiency "
            "goes to 0 the conditioned pmf tends to the unconditioned one, not to n*p(n)/mean",
        ),
    ]),
    "apply_loss survival 1.2": (
        partial(apply_loss, thermal(0.05), 1.2), ValueError, "survival probability must be in [0, 1], got 1.2"
    ),
    # ----- interference -------------------------------------------------
    **_rows("v_timing", v_timing, ValueError, [
        ("zero coherence time", (1.0, 0.0), "coherence time must be > 0, got 0.0"),
        ("nan coherence time", (2.5, NAN), "coherence time must be > 0, got nan"),
        ("negative time uncertainty", (-1.0, 10.0), "time uncertainty must be >= 0, got -1.0"),
        ("nan time uncertainty", (NAN, 17.0), "time uncertainty must be >= 0, got nan"),
    ]),
    "v_statistics vacuum": (
        partial(v_statistics, thermal(0.0), thermal(0.0)), UndefinedVisibilityError,
        "out-of-dip coincidence probability is zero; visibility undefined",
    ),
    "visibility_map empty grid": (partial(visibility_map, [], [0.01], None, 0.0), ValueError, "grids must be nonempty"),
    # Each names the arm of the first mean with no thermal law, arm a's first.
    **{
        f"visibility_map arm {arm} mean {mean}": (
            partial(visibility_map, *grids, 1.0, 0.0), GridMeanError, _lost_mass("thermal", mean, lost)
        )
        for arm, grids, mean, lost in (
            ("a", ([0.01, 30.0], [0.7]), 30.0, "0.502"),
            ("b", ([0.01], [0.02, 0.7]), 0.7, "8.08e-09"),
        )
    },
    # Each named no grid point.
    "visibility_map no herald click": (
        partial(visibility_map, [0.01], [0.01, 0.0], None, 0.0), UndefinedConditioningError, f"{_NO_HERALD} at N_b = 0.0"
    ),
    "visibility_map vacuum": (
        partial(visibility_map, [0.01, 0.0], [1e-200], 1.0, 0.0), UndefinedVisibilityError,
        "out-of-dip coincidence probability is zero; visibility undefined at N_a = 0.0, N_b = 1e-200",
    ),
    **_rows("dip_profile", dip_profile, ValueError, [
        ("visibility 1.5", (1.5, 20.0, 1.0, [0.0]), "visibility must be in [0, 1], got 1.5"),
        ("width -1.0", (0.5, -1.0, 1.0, [0.0]), "dip FWHM time must be > 0, got -1.0"),
        ("width nan", (0.5, NAN, 1.0, [0.0]), "dip FWHM time must be > 0, got nan"),
    ]),
    # ----- link budget --------------------------------------------------
    **{
        f"LinkParams {name} {x}": (partial(replace, LINK, **{name: x}), ValueError, f"{name} must be >= 0, got {x}")
        for name, x in (
            ("fiber_loss_db_per_km", -0.1), ("fiber_loss_db_per_km", NAN), ("mean_photon_per_pulse", NAN),
            ("relay_pair_mean", NAN),
        )
    },
    **_rows("link_rates", link_rates, ValueError, [
        ("distance -1.0", ("direct", LINK, -1.0), "distance must be >= 0, got -1.0"),
        ("distance nan", ("direct", LINK, NAN), "distance must be >= 0, got nan"),
        ("unknown variant", ("quantum_carrier_pigeon", LINK, 10.0), _UNKNOWN_VARIANT),
        *((f"{variant} no signal", (variant, NO_SIGNAL, 10.0), _NO_SIGNAL) for variant in VARIANTS),
        *((f"{variant} blind detector", (variant, BLIND, 10.0), _NO_SIGNAL) for variant in VARIANTS),
    ]),
    "max_distance unknown variant": (
        partial(max_distance, "quantum_carrier_pigeon", LINK), ValueError, _UNKNOWN_VARIANT
    ),
    **_rows("sweep", sweep, ValueError, [
        ("no variant", ([], LINK, [0.0, 10.0]), "variants and distances must be nonempty"),
        ("no distance", (["direct"], LINK, []), "variants and distances must be nonempty"),
        ("unknown variant", (["direct", "quantum_carrier_pigeon"], LINK, [0.0]), _UNKNOWN_VARIANT),
    ]),
    # ----- Monte Carlo --------------------------------------------------
    **_rows("compile_scenario", compile_scenario, ConfigurationError, [
        (
            "gate_rate_hz nan", (replace(SCENARIO, gate_rate_hz=NAN),),
            "pump_repetition_rate_hz and gate_rate_hz must be > 0, got 76000000.0 and nan",
        ),
        (
            "pump_repetition_rate_hz nan", (replace(SCENARIO, pump_repetition_rate_hz=NAN),),
            "pump_repetition_rate_hz and gate_rate_hz must be > 0, got nan and 600000.0",
        ),
        (
            "gate_rate_hz above pump rate", (replace(BENCH, gate_rate_hz=100e6),),
            "gate_rate_hz must be <= pump_repetition_rate_hz, got 100000000.0 > 76000000.0",
        ),
        ("pump_duration_ps nan", (replace(SCENARIO, pump_duration_ps=NAN),), "pump_duration_ps must be >= 0, got nan"),
        ("delay_mm nan", (replace(BENCH, delay_mm=NAN),), "delay_mm must be finite, got nan"),
        (
            "alice_arm_loss_db nan", (replace(SCENARIO, alice_arm_loss_db=NAN),),
            "alice_arm_loss_db must be >= 0, got nan",
        ),
        ("dip_fwhm_time_ps nan", (replace(SCENARIO, dip_fwhm_time_ps=NAN),), "dip_fwhm_time_ps must be > 0, got nan"),
        # Overlapping signal and partner filter bands break clean heralding.
        (
            "filter_c passes the signal", (replace(BENCH, filter_c=FilterModel(1532.0, 8000.0, 0.0)),),
            "filter_c_center_nm and filter_c_fwhm_pm must block the interfering photons at 1530.0 nm, "
            "got a 8000.0 pm band at 1532.0 nm",
        ),
        *(
            (
                f"{name} law past n_max", (replace(BENCH, **{f"{name}_distribution": custom([0.0] * 21 + [1.0])}),),
                "pair distributions must be truncated at <= 20",
            )
            for name in ("external", "chip")
        ),
        *(
            (
                f"{name} law losing mass", (bench_scenario(*means),),
                f"{name} source: {_lost_mass('thermal', 0.6, '1.13e-09')}",
            )
            for name, means in (("external", (0.6, 0.01)), ("chip", (0.01, 0.6)))
        ),
    ]),
    "analytic_visibility without herald photons": (
        partial(analytic_visibility, single_photon_scenario(0.0)), UndefinedConditioningError, _NO_HERALD
    ),
    "photostats closed form without herald photons": (
        partial(photostats_closed_form, single_photon_scenario(0.0)), UndefinedConditioningError, _NO_HERALD
    ),
    # At overlap 2.0 the three-fold probability came out negative.
    **_rows("expected_rates", expected_rates, ValueError, [
        (f"overlap {x}", (FIG6, x), f"overlap must be in [0, 1], got {x}") for x in (NAN, -0.5, 1.5, 2.0)
    ]),
    # The pulse counts name the int64 bound of numpy's binomial draw.  The
    # stream key read the seed modulo 2**64: these seeds drew the tallies of
    # seed 2**64 - 1 under three other seed lines.
    **_rows("run", run, ValueError, [
        *(
            (f"pulses {n}", (BENCH, n), f"n_pulses must be in [1, {MAX_PULSES}], got {n}")
            for n in (0, -1, 2**63, 10**30)
        ),
        *((f"seed {s}", (BENCH, 1000, s), f"seed must be in [0, {MAX_SEED}], got {s}") for s in (-1, 2**64, 2**65 - 1)),
    ]),
    **_rows("scan_dip", scan_dip, ValueError, [
        *(
            (f"pulses {n}", (BENCH, SCAN, n), f"n_pulses_per_point must be in [0, {MAX_PULSES}], got {n}")
            for n in (-1, 2**63, 10**30)
        ),
        *(
            (f"pulses {n} seed {s}", (BENCH, SCAN, n, s), f"seed must be in [0, {MAX_SEED}], got {s}")
            for n in (0, 1000)
            for s in (-1, 2**64, 2**65 - 1)
        ),
        ("two positions", (BENCH, [0.0, 1.0], 0), "need at least 3 scan positions"),
        # A non-finite position has no rate to fit.
        ("nan first position", (SCENARIO, [NAN, 0.0, 9.0], 0), "scan positions must be finite, got nan"),
        *(
            (
                f"pulses {n} position {x}", (FIG6, [-30.0, x, 0.0, 30.0, 10.0], n),
                f"scan positions must be finite, got {x}",
            )
            for x in (NAN, INF, -INF)
            for n in (0, 1000)
        ),
    ]),
    "scan_dip span below twice the width": (
        partial(scan_dip, BENCH, [-1.0, 0.0, 1.0], 0), ScanSpanError,
        "scan span 2.000 mm must exceed twice the expected width (10.323 mm)",
    ),
    # ----- configuration documents --------------------------------------
    # Python's json reads NaN and +-Infinity; each reached the models, which
    # printed nan rows, unbounded reaches or an unnamed numpy error.  List
    # elements and anchors went through bare float(), which took "0.1" and
    # true; an int past float range died with an OverflowError.
    **_rows("parse_config", parse_config, ConfigurationError, [
        (
            "unknown key", ({"schema_version": SCHEMA_VERSION, "fiber_loss_per_km": 0.2},),
            "unknown configuration key 'fiber_loss_per_km'",
        ),
        *(
            (
                f"schema_version {v}", ({"schema_version": v},),
                f"unsupported schema_version {v}; this build reads version {SCHEMA_VERSION}",
            )
            for v in (SCHEMA_VERSION + 1, SCHEMA_VERSION - 1)
        ),
        *(
            (f"removed {key}={x}", ({key: x},), f"configuration key {key!r} was removed: {reason}")
            for key, reason in _REMOVED_KEYS.items()
            for x in ((9.0, NAN, INF, -INF) if key in _REMOVED_NUMERIC_KEYS else (9.0,))
        ),
        *(
            (f"{f.name}={x}", ({f.name: wrap(x)},), f"{f.name} must be {noun}, got {wrap(x)!r}")
            for f in fields(ScenarioConfig)
            if f.type in _NUMBER_SLOTS
            for wrap, noun in [_NUMBER_SLOTS[f.type]]
            for x in (NAN, INF, -INF)
        ),
        *(
            (f"{key}={repr(value)[:20]}", ({key: value},), f"{key} must be {noun}, got {value!r}")
            for key, value, noun in (
                ("dip_scan_points", 2.5, "an integer"),
                ("dip_scan_points", True, "an integer"),
                ("delay_mm", "far", "a finite number"),
                ("delay_mm", 10**400, "a finite number"),
                ("map_na_values", ["0.1"], "a list of finite numbers"),
                ("map_nb_values", [0.01, True], "a list of finite numbers"),
                ("coupler_c1_anchors", [[0.0], [30.0, 0.5]], _BAD_PAIRS),
                ("coupler_c1_anchors", [["30", True]], _BAD_PAIRS),
                ("coupler_c2_anchors", [[30.0, "0.5"]], _BAD_PAIRS),
                ("coupler_c2_anchors", [[True, 0.5]], _BAD_PAIRS),
            )
        ),
    ]),
    "load_preset unknown": (
        partial(load_preset, "paper-fig99"), ConfigurationError,
        "unknown preset 'paper-fig99'; available: paper-fig2, paper-fig3, paper-fig4, paper-fig5, paper-fig6",
    ),
}


def test_every_config_field_is_numeric_or_exact():
    # Every field the non-finite rows skip is an int.
    types = Counter(f.type for f in fields(ScenarioConfig))
    assert {t: n for t, n in types.items() if t in _NUMBER_SLOTS} == {
        "float": 45,
        "float | None": 3,
        "tuple[float, ...]": 2,
        "tuple[tuple[float, float], ...]": 2,
    }
    assert set(types) - set(_NUMBER_SLOTS) == {"int"}


@pytest.mark.parametrize("call,cls,message", REJECTIONS.values(), ids=REJECTIONS)
def test_library_rejects_input(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message

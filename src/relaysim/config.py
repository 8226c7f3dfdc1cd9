"""Scenario configuration documents: schema, defaults, presets, round-tripping.

A configuration is a single JSON document with a schema_version field and
flat keys carrying explicit units in their names.  Unknown keys are
rejected (keys starting with "_" are annotation entries and are ignored);
missing keys take the documented defaults.  parse -> serialize -> parse is
the identity.
"""

from __future__ import annotations

import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .components import (
    CalibrationError,
    ChipLayout,
    ConfigurationError,
    CouplerCalibration,
    DetectorModel,
    FilterModel,
    SpdcSource,
    calibrate_coupler,
)
from .records import fields, record
from .units import SpectralMode

if TYPE_CHECKING:
    from .linkbudget import LinkParams
    from .montecarlo import Scenario

SCHEMA_VERSION = 2

PRESET_NAMES = ("paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5", "paper-fig6")

_MAP_GRID = tuple(round(0.005 * i, 3) for i in range(1, 21))

# The ranges a key is checked against, by `ScenarioConfig.checked`.
_BOUNDS = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    "in [0, 1]": lambda value: 0.0 <= value <= 1.0,
}


@record
class ScenarioConfig:
    """Versioned, flat configuration mirroring all model parameters."""

    schema_version: int = SCHEMA_VERSION

    # Pump and gating
    pump_repetition_rate_hz: float = 76e6
    pump_duration_ps: float = 2.5
    gate_rate_hz: float = 600e3
    detector_gate_window_ns: float = 1.0

    # Pair sources (mean pairs per pulse = pairs_per_mw * pump_power_mw)
    external_pairs_per_mw: float = 0.05 / 1.5
    external_pump_power_mw: float = 1.5
    chip_pairs_per_mw: float = 0.02 / 7.0
    chip_pump_power_mw: float = 7.0

    # Spectra
    spdc_center_wavelength_nm: float = 1532.0
    spdc_fwhm_nm: float = 80.0
    photon_center_wavelength_nm: float = 1530.0
    photon_fwhm_pm: float = 200.0
    dip_fwhm_time_ps: float | None = None
    delay_mm: float = 0.0

    # Electro-optic couplers
    coupler_kappa_lc_rad: float = math.pi / 2.0
    coupler_c1_anchors: tuple[tuple[float, float], ...] = ((0.0, 1.0), (30.0, 0.5))
    coupler_c2_anchors: tuple[tuple[float, float], ...] = ((0.0, 1.0), (30.0, 0.5))
    coupler_c1_voltage_v: float = 30.0
    coupler_c2_voltage_v: float = 30.0

    # Chip losses.  The through path (input fiber -> front propagation ->
    # back propagation -> output fiber) sums to 8.5 dB nominal; the measured
    # port-to-port figure for the real device is about 9 dB.
    loss_fiber_to_chip_db: float = 3.0
    loss_chip_to_fiber_db: float = 3.0
    loss_propagation_front_db: float = 1.25
    loss_propagation_back_db: float = 1.25
    measured_insertion_loss_db: float | None = None
    alice_arm_loss_db: float = 0.0

    # Filters
    filter_ab_center_nm: float = 1530.0
    filter_ab_fwhm_pm: float = 200.0
    filter_ab_insertion_loss_db: float = 0.0
    filter_c_center_nm: float = 1534.0
    filter_c_fwhm_pm: float = 800.0
    filter_c_insertion_loss_db: float = 0.0

    # Apparatus detectors
    detector_efficiency: float = 0.10
    detector_dark_prob_per_ns: float = 1e-5

    # Link budget
    fiber_loss_db_per_km: float = 0.2
    link_detector_efficiency: float = 0.10
    link_dark_prob_per_ns: float = 1e-6
    link_gate_window_ns: float = 1.0
    mean_photon_per_pulse: float = 1.0
    relay_pair_mean: float = 1.0
    sweep_min_km: float = 0.0
    sweep_max_km: float = 500.0
    sweep_step_km: float = 5.0

    # Visibility map grids
    map_na_values: tuple[float, ...] = _MAP_GRID
    map_nb_values: tuple[float, ...] = _MAP_GRID
    map_herald_efficiency: float | None = None
    map_herald_dark_prob: float = 0.0

    # Dip scan
    dip_scan_min_mm: float = -9.0
    dip_scan_max_mm: float = 9.0
    dip_scan_points: int = 13

    # Spectrum output grid
    spectrum_min_nm: float = 1430.0
    spectrum_max_nm: float = 1634.0
    spectrum_points: int = 409

    # Coupler curve output grid
    coupler_curve_min_v: float = 0.0
    coupler_curve_max_v: float = 60.0
    coupler_curve_points: int = 121

    # ------------------------------------------------------------------
    # Model builders
    # ------------------------------------------------------------------

    def checked(self, key: str, bound: str) -> float:
        """The value of key, which must be `bound`: "> 0", ">= 0" or "in [0, 1]".

        The models check their own ranges, but one model class serves
        several keys (`DetectorModel` the `detector_*` and the `link_*` ones),
        so each builder checks the keys it reads here and a rejection names
        the key.
        """
        value = getattr(self, key)
        if not _BOUNDS[bound](value):
            raise ConfigurationError(f"{key} must be {bound}, got {value}")
        return value

    def chip_layout(self) -> ChipLayout:
        return ChipLayout(
            segments={
                "fiber_to_chip": self.checked("loss_fiber_to_chip_db", ">= 0"),
                "chip_to_fiber": self.checked("loss_chip_to_fiber_db", ">= 0"),
                "prop_front": self.checked("loss_propagation_front_db", ">= 0"),
                "prop_back": self.checked("loss_propagation_back_db", ">= 0"),
            },
            measured_insertion_db=self.measured_insertion_loss_db,
        )

    def calibration(self, anchors_key: str) -> CouplerCalibration:
        """The calibration of the coupler whose anchors are the config key anchors_key."""
        kappa_lc_rad = self.checked("coupler_kappa_lc_rad", "> 0")
        try:
            return calibrate_coupler(getattr(self, anchors_key), kappa_lc_rad=kappa_lc_rad)
        except CalibrationError as exc:
            raise CalibrationError(f"{anchors_key}: {exc}") from None

    def detector(self) -> DetectorModel:
        return self._detector("detector_efficiency", "detector_dark_prob_per_ns", "detector_gate_window_ns")

    def _detector(self, efficiency_key: str, dark_key: str, window_key: str) -> DetectorModel:
        return DetectorModel(
            self.checked(efficiency_key, "in [0, 1]"),
            self.checked(dark_key, "in [0, 1]"),
            self.checked(window_key, "> 0"),
        )

    def spdc_mode(self) -> SpectralMode:
        return SpectralMode(
            self.checked("spdc_center_wavelength_nm", "> 0"),
            self.checked("spdc_fwhm_nm", "> 0") * 1e3,
        )

    def source(self, name: str) -> SpdcSource:
        """The "external" or the "chip" pair source."""
        return SpdcSource(
            spectrum=self.spdc_mode(),
            pairs_per_mw=self.checked(f"{name}_pairs_per_mw", ">= 0"),
            pump_power_mw=self.checked(f"{name}_pump_power_mw", ">= 0"),
        )

    def photon_mode(self) -> SpectralMode:
        return SpectralMode(
            self.checked("photon_center_wavelength_nm", "> 0"),
            self.checked("photon_fwhm_pm", "> 0"),
        )

    def passband(self, name: str) -> FilterModel:
        """The "filter_ab" or the "filter_c" bandpass."""
        return FilterModel(
            getattr(self, f"{name}_center_nm"),
            self.checked(f"{name}_fwhm_pm", "> 0"),
            self.checked(f"{name}_insertion_loss_db", ">= 0"),
        )

    def to_scenario(self) -> Scenario:
        from .montecarlo import Scenario  # deferred: only the two sampling studies need it

        det = self.detector()
        return Scenario(
            pump_repetition_rate_hz=self.pump_repetition_rate_hz,
            pump_duration_ps=self.pump_duration_ps,
            gate_rate_hz=self.gate_rate_hz,
            external_source=self.source("external"),
            chip_source=self.source("chip"),
            photon_mode=self.photon_mode(),
            dip_fwhm_time_ps=self.dip_fwhm_time_ps,
            coupler_c1=self.calibration("coupler_c1_anchors").model,
            coupler_c2=self.calibration("coupler_c2_anchors").model,
            coupler_c1_voltage_v=self.coupler_c1_voltage_v,
            coupler_c2_voltage_v=self.coupler_c2_voltage_v,
            layout=self.chip_layout(),
            alice_arm_loss_db=self.alice_arm_loss_db,
            filter_ab=self.passband("filter_ab"),
            filter_c=self.passband("filter_c"),
            detector_a=det,
            detector_b=det,
            detector_c=det,
            delay_mm=self.delay_mm,
        )

    def to_link_params(self) -> LinkParams:
        from .linkbudget import LinkParams  # deferred: only the key-rate study needs it

        return LinkParams(
            fiber_loss_db_per_km=self.fiber_loss_db_per_km,
            detector=self._detector("link_detector_efficiency", "link_dark_prob_per_ns", "link_gate_window_ns"),
            mean_photon_per_pulse=self.mean_photon_per_pulse,
            relay_pair_mean=self.relay_pair_mean,
            layout=self.chip_layout(),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _number(key: str, value) -> float:
    """Every number of a config passes here: NaN, +-Infinity and ints past float range fail."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _exact(kind: type, noun: str):
    def coerce(key: str, value):
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ConfigurationError(f"{key} must be {noun}, got {value!r}")
        return value

    return coerce


def _pair(key: str, item) -> tuple[float, float]:
    v, r = item
    return _number(key, v), _number(key, r)


def _list_of(convert, noun: str):
    def coerce(key: str, value) -> tuple:
        try:
            return tuple(convert(key, x) for x in value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{key} must be a list of {noun}, got {value!r}") from exc

    return coerce


# Coercion per ScenarioConfig field annotation (annotations are strings here).
_COERCE = {
    "float": _number,
    "float | None": lambda key, value: None if value is None else _number(key, value),
    "int": _exact(int, "an integer"),
    "tuple[float, ...]": _list_of(_number, "finite numbers"),
    "tuple[tuple[float, float], ...]": _list_of(_pair, "[voltage, ratio] pairs of finite numbers"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}

# Keys the schema no longer has, each with the reason or what replaces it.
_REMOVED_KEYS = {
    "chip_insertion_loss_db": (
        "the link budget now reads the chip layout; set measured_insertion_loss_db "
        "or the loss_* segments instead"
    ),
    "link_pulse_rate_hz": "it was never read; key rates are per pulse",
    "coupler_interaction_length_mm": "it was never read; coupler_kappa_lc_rad sets the coupling",
    "teleport_fidelity": (
        "it fed only a QBER that no output reads; the reach is where the SNR falls to unity"
    ),
    "monitor_enabled": "it fed only a singles count that no coincidence or visibility reads",
    "monitor_arm_loss_db": "it fed only a singles count that no coincidence or visibility reads",
    "relay_position": (
        "no preset or example set it, and it silently changed what the reach and gain "
        "lines mean; the relay position is optimised per distance"
    ),
    "pair_number_cutoff": "folding the tail onto it moved the dip with no warning; laws span 0-20 pairs",
    "spdc_lineshape": "no preset chose a gaussian; the pair spectrum is the sinc^2 phase-matching envelope",
    "photon_lineshape": "only the coherence time read it; the dip's overlap, timing factor and fit are gaussian",
}


def parse_config(document: dict) -> ScenarioConfig:
    """Validate a raw dict against the schema and build a ScenarioConfig."""
    if not isinstance(document, dict):
        raise ConfigurationError("configuration must be a JSON object")
    values = {}
    for key, value in document.items():
        if key.startswith("_"):
            continue
        if key in _REMOVED_KEYS:
            raise ConfigurationError(f"configuration key {key!r} was removed: {_REMOVED_KEYS[key]}")
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        values[key] = _COERCE[_FIELD_TYPES[key]](key, value)
    version = values.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version}; this build reads version {SCHEMA_VERSION}"
        )
    return ScenarioConfig(**values)


def load_config(path: str | Path) -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(document)


def load_preset(name: str) -> ScenarioConfig:
    if name not in PRESET_NAMES:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    ref = resources.files("relaysim.presets").joinpath(f"{name}.json")
    document = json.loads(ref.read_text(encoding="utf-8"))
    return parse_config(document)

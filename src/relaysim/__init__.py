"""Quantum relay link simulator.

Models an integrated relay circuit (pair source, two electro-optic couplers,
filters, gated detectors), predicts two-photon interference visibility
analytically and by Monte Carlo, and computes one-way key rates versus
distance for direct and relay-assisted links.
"""

from .components import (
    CalibrationError,
    ChipLayout,
    ConfigurationError,
    CouplerCalibration,
    CouplerModel,
    DetectorModel,
    FilterModel,
    SpdcSource,
    calibrate_coupler,
    chip_insertion_loss,
    coupler_ratio,
    detector_click_prob,
    spdc_spectral_density,
)
from .config import ScenarioConfig, load_anchor_csv, load_config, load_preset, parse_config
from .interference import (
    DipFit,
    DipProfile,
    FitFailureError,
    UndefinedVisibilityError,
    dip_profile,
    fit_dip,
    p_coincidence_bounds,
    v_statistics,
    v_timing,
    visibility_map,
)
from .linkbudget import (
    LinkModel,
    LinkParams,
    LinkRates,
    MaxDistanceResult,
    SweepResult,
    fig2_models,
    link_rates,
    max_distance,
    sweep,
)
from .montecarlo import (
    CountsReport,
    DipScanResult,
    ExpectedRates,
    NetRates,
    Scenario,
    analytic_visibility,
    expected_rates,
    run,
    scan_dip,
    subtract_accidentals,
)
from .photostats import (
    HeraldModel,
    PhotonNumberDistribution,
    UndefinedConditioningError,
    apply_loss,
    herald_condition,
    poisson,
    thermal,
)
from .units import SpectralMode, coherence_time, delay_to_path

__version__ = "0.1.0"

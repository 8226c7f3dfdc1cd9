"""Exact-law Monte Carlo of the relay interference apparatus.

One external heralded-style source feeds chip port 1; the on-chip source
feeds pairs through coupler C1; the surviving photons interfere at coupler
C2 and are counted on gated detectors D_a, D_b (outputs A, B) and D_c (the
herald at port C).  Reported tallies are singles, two-fold and three-fold
coincidences, at the scenario delay and at a far-delay reference, from which
raw and accidental-subtracted dip visibilities follow.

Gated pulses are independent and identically distributed, and every tally
is a function of one pulse's joint click pattern (A, B, C).  `joint_law`
gives that pattern's exact law over pair laws of at most N_MAX pairs.  A leg of n
pulses is then exactly Binomial(n, p_gate) gated pulses split over the 8
click cells by one multinomial draw, so its cost does not depend on n.  A
dip-scan point needs only the gated pulses and the three-folds (the law's
[1, 1, 1] cell, read from the enumeration): two binomial draws, no law.
Each leg draws from a numpy Generator seeded with `derive_key(seed, leg)`.
The photon ledger is not a function of the click pattern; `run` computes it
once, for the dip leg: expected flows, its gated pulses times the per-gate
expectation.  `joint_law`, the exact enumeration `expected_rates` and the
closed form `analytic_visibility` all read one set of `_model_inputs`.

numpy is imported in three places only: `joint_law`'s einsum, the Generator
draws (`_generator`) and `CounterRng` with its `_mix64`.  Compiling a
scenario, the enumeration, the closed form and the photon ledger are
standard-library Python: sums are sequential or `math.fsum`, which is
correctly rounded in any order, and powers are `**`.  So `expected_rates`,
`analytic_visibility` and the ledger run without loading numpy, and their
bits do not depend on its version.

`CounterRng` is a stateless counter hash: pulse i, draw slot j reads a
64-bit hash of (stream key, i * SLOTS + j), so a per-pulse sampler drawing
from it gives the same draws for any split of the pulse range.  No engine
path draws from it: `CounterRng` and `SLOTS` stay only for the independent
pulse-by-pulse sampler in `tests/pulse_reference.py` and for the names the
benchmark traces.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import accumulate
from typing import TYPE_CHECKING

from .components import (
    ChipLayout,
    ConfigurationError,
    CouplerModel,
    DetectorModel,
    FilterModel,
    SpdcSource,
    coupler_ratio,
    detector_clicks,
)
from .config import ScenarioConfig
from .interference import DipFit, FitFailureError, FOUR_LN2, fit_dip, v_statistics, v_timing
from .photostats import (
    N_MAX,
    PhotonNumberDistribution,
    UndefinedConditioningError,
    apply_loss,
    binomial,
    custom,
    thermal,
)
from .records import record
from .units import SpectralMode, coherence_time, db_to_linear, delay_to_path

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# Counter-based RNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Counters per pulse: pulse i's draw j reads counter i*SLOTS + j.
SLOTS = 512

# Largest pulse count per leg: numpy's binomial draw takes an int64 count.
MAX_PULSES = 2**63 - 1


def _mix_int(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MASK64:  # derive_key reads a seed modulo 2**64
        raise ValueError(f"seed must be in [0, {_MASK64}], got {seed}")


def derive_key(seed: int, *tags) -> int:
    """Deterministic 64-bit stream key from a seed and tag path."""
    h = _mix_int((seed & _MASK64) ^ 0x6A09E667F3BCC908)
    for tag in tags:
        data = tag.encode() if isinstance(tag, str) else str(int(tag)).encode()
        for byte in data:
            h = _mix_int((h + byte + _GOLDEN) & _MASK64)
    return h


def _mix64(x: np.ndarray) -> np.ndarray:
    import numpy as np

    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


class CounterRng:
    """Stateless per-pulse uniform generator over (stream key, counter)."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        import numpy as np

        self.key = np.uint64(key & _MASK64)

    def uniform(self, pulse_idx: np.ndarray, slot: int) -> np.ndarray:
        import numpy as np

        c = pulse_idx * np.uint64(SLOTS) + np.uint64(slot)
        x = self.key + c * np.uint64(_GOLDEN)
        return (_mix64(x) >> np.uint64(11)) * 2.0**-53


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

_DEFAULTS = ScenarioConfig()


@record
class Scenario:
    """Full experiment description for one Monte Carlo run.

    `ScenarioConfig` states the model's defaults, and `_DEFAULTS.to_scenario()`
    is the default scenario.  The defaults below read `_DEFAULTS` through the
    builders `to_scenario` calls.  They remain only because the benchmark's
    bench scenario (`perfbench/run.py`) builds a Scenario without them.
    """

    pump_duration_ps: float
    gate_rate_hz: float

    external_source: SpdcSource
    chip_source: SpdcSource
    layout: ChipLayout

    detector_a: DetectorModel
    detector_b: DetectorModel
    detector_c: DetectorModel

    pump_repetition_rate_hz: float = _DEFAULTS.pump_repetition_rate_hz

    # Explicit pair-number distributions override the sources' thermal laws.
    external_distribution: PhotonNumberDistribution | None = None
    chip_distribution: PhotonNumberDistribution | None = None

    photon_mode: SpectralMode = _DEFAULTS.photon_mode()
    dip_fwhm_time_ps: float | None = _DEFAULTS.dip_fwhm_time_ps

    coupler_c1: CouplerModel = _DEFAULTS.calibration("coupler_c1_anchors").model
    coupler_c2: CouplerModel = _DEFAULTS.calibration("coupler_c2_anchors").model
    coupler_c1_voltage_v: float = _DEFAULTS.coupler_c1_voltage_v
    coupler_c2_voltage_v: float = _DEFAULTS.coupler_c2_voltage_v

    alice_arm_loss_db: float = _DEFAULTS.alice_arm_loss_db
    filter_ab: FilterModel = _DEFAULTS.passband("filter_ab")
    filter_c: FilterModel = _DEFAULTS.passband("filter_c")

    # Accepted and read by nothing; the benchmark's bench scenario still passes it.
    detector_monitor: DetectorModel | None = None

    delay_mm: float = _DEFAULTS.delay_mm


@record
class SimParams:
    """Scenario compiled to per-arm probabilities and routing fractions."""

    p_gate: float
    pmf_a: tuple[float, ...]  # external pair number, at most N_MAX pairs
    pmf_b: tuple[float, ...]  # chip pair number, likewise
    q_a: float            # external photon survives to C2 input a
    q_b: float            # chip photon b routed up and surviving to C2 input b
    p_c_arrive: float     # chip photon c routed down and surviving to D_c input
    s_post: float         # C2 output to detector input (either output)
    cross2: float         # C2 cross-port fraction
    eta_a: float
    eta_b: float
    eta_c: float
    dark_a: float
    dark_b: float
    dark_c: float
    overlap_peak: float   # temporal overlap at zero path difference
    fwhm_mm: float
    delay_mm: float

    def overlap_at(self, delay_mm: float) -> float:
        x = delay_mm / self.fwhm_mm
        return self.overlap_peak * math.exp(-FOUR_LN2 * x * x)


def _pair_distribution(override, source: SpdcSource, name: str) -> PhotonNumberDistribution:
    """The override, else the source's thermal law; a mean with no law names the source's two keys."""
    if override is not None:
        return override
    try:
        return thermal(source.mean_pairs)
    except ValueError as exc:
        raise ConfigurationError(f"{name}_pairs_per_mw and {name}_pump_power_mw: {exc}") from None


def _pair_pmf(pmf) -> tuple[float, ...]:
    """Normalised pair-number pmf.

    The differences of the sequential cumulative sum are normalised by their
    `math.fsum`, not pmf itself: they differ from it by up to 1.1e-16, and
    the enumeration and Monte Carlo outputs are defined from them to the
    last bit.  In the far tail that is a large relative error (5.7 % at p(9)
    of a thermal law of mean 0.02), and past the point where the sum
    saturates they are exact zeros.  Where every difference is exact, as for
    a thermal law, their sum is the last cumulative value in any order.
    """
    cumulative = list(accumulate(pmf))
    diffs = [c - below for c, below in zip(cumulative, [0.0, *cumulative])]
    total = math.fsum(diffs)
    return tuple(p / total for p in diffs)


def compile_scenario(scenario: Scenario) -> SimParams:
    """Validate a scenario and reduce it to per-arm probabilities."""
    if not (scenario.gate_rate_hz > 0 and scenario.pump_repetition_rate_hz > 0):
        raise ConfigurationError(
            "pump_repetition_rate_hz and gate_rate_hz must be > 0, got "
            f"{scenario.pump_repetition_rate_hz} and {scenario.gate_rate_hz}"
        )
    if scenario.gate_rate_hz > scenario.pump_repetition_rate_hz:
        raise ConfigurationError(
            "gate_rate_hz must be <= pump_repetition_rate_hz, got "
            f"{scenario.gate_rate_hz} > {scenario.pump_repetition_rate_hz}"
        )
    p_gate = scenario.gate_rate_hz / scenario.pump_repetition_rate_hz
    if not p_gate > 0:  # the quotient can underflow to 0
        raise ConfigurationError(
            "pump_repetition_rate_hz and gate_rate_hz must give a gate probability > 0, got "
            f"{scenario.gate_rate_hz} / {scenario.pump_repetition_rate_hz} = {p_gate}"
        )
    if not scenario.pump_duration_ps >= 0:
        raise ConfigurationError(f"pump_duration_ps must be >= 0, got {scenario.pump_duration_ps}")
    if not math.isfinite(scenario.delay_mm):
        raise ConfigurationError(f"delay_mm must be finite, got {scenario.delay_mm}")
    if not scenario.alice_arm_loss_db >= 0:
        raise ConfigurationError(f"alice_arm_loss_db must be >= 0, got {scenario.alice_arm_loss_db}")
    try:
        tau_c_ps = coherence_time(scenario.photon_mode)
    except ValueError as exc:  # a center wavelength whose square overflows or underflows
        raise ConfigurationError(f"photon_center_wavelength_nm: {exc}") from None
    if not 0 < tau_c_ps < math.inf:  # the quotient by the bandwidth can underflow or overflow
        raise ConfigurationError(
            "photon_center_wavelength_nm and photon_fwhm_pm must give a coherence time that is finite and > 0, "
            f"got {tau_c_ps} ps"
        )
    tau_ps = tau_c_ps if scenario.dip_fwhm_time_ps is None else scenario.dip_fwhm_time_ps
    # An override that is not > 0, or one so small (below about 2.5e-312 ps)
    # that its path underflows to 0 mm, fails here.
    fwhm_mm = delay_to_path(tau_ps) if tau_ps > 0 else 0.0
    if not fwhm_mm > 0:
        raise ConfigurationError(f"dip_fwhm_time_ps must be > 0, got {scenario.dip_fwhm_time_ps}")

    lam_signal = scenario.photon_mode.center_wavelength_nm
    # Energy-matched partner of the interfering photons (chip pair).  Photons
    # at or past twice the pairs' center frequency leave it no energy.
    inverse_partner = 2.0 / scenario.chip_source.spectrum.center_wavelength_nm - 1.0 / lam_signal
    lam_partner = 1.0 / inverse_partner if inverse_partner else math.inf
    if not 0 < lam_partner < math.inf:
        raise ConfigurationError(
            "spdc_center_wavelength_nm and photon_center_wavelength_nm must give a partner wavelength "
            f"that is finite and > 0, got {lam_partner!r} nm"
        )
    # Each output passes its own photons and, for clean heralding, blocks the other's.
    for name, band, lam, photons, must_pass in (
        ("filter_ab", scenario.filter_ab, lam_signal, "interfering", True),
        ("filter_c", scenario.filter_c, lam_partner, "partner", True),
        ("filter_ab", scenario.filter_ab, lam_partner, "partner", False),
        ("filter_c", scenario.filter_c, lam_signal, "interfering", False),
    ):
        if band.passes(lam) != must_pass:
            raise ConfigurationError(
                f"{name}_center_nm and {name}_fwhm_pm must {'pass' if must_pass else 'block'} "
                f"the {photons} photons at {lam!r} nm, "
                f"got a {band.fwhm_pm!r} pm band at {band.center_nm!r} nm"
            )

    dist_a = _pair_distribution(scenario.external_distribution, scenario.external_source, "external")
    dist_b = _pair_distribution(scenario.chip_distribution, scenario.chip_source, "chip")
    if dist_a.n_max > N_MAX or dist_b.n_max > N_MAX:
        raise ConfigurationError(f"pair distributions must be truncated at <= {N_MAX}")

    t1 = coupler_ratio(scenario.coupler_c1, scenario.coupler_c1_voltage_v)
    t2 = coupler_ratio(scenario.coupler_c2, scenario.coupler_c2_voltage_v)

    # Cross port of C1 continues toward C2; bar port exits at port C.
    q_a = db_to_linear(scenario.alice_arm_loss_db) * scenario.layout.path_transmission("alice_to_c2")
    q_b = t1 * scenario.layout.path_transmission("chipsrc_to_c2")
    p_c = (
        (1.0 - t1)
        * scenario.layout.path_transmission("chipsrc_to_c")
        * db_to_linear(scenario.filter_c.insertion_loss_db)
    )
    s_post = scenario.layout.path_transmission("c2_to_out") * db_to_linear(
        scenario.filter_ab.insertion_loss_db
    )

    return SimParams(
        p_gate=p_gate,
        pmf_a=_pair_pmf(dist_a.pmf),
        pmf_b=_pair_pmf(dist_b.pmf),
        q_a=q_a,
        q_b=q_b,
        p_c_arrive=p_c,
        s_post=s_post,
        cross2=t2,
        eta_a=scenario.detector_a.efficiency,
        eta_b=scenario.detector_b.efficiency,
        eta_c=scenario.detector_c.efficiency,
        dark_a=scenario.detector_a.dark_prob_per_gate,
        dark_b=scenario.detector_b.dark_prob_per_gate,
        dark_c=scenario.detector_c.dark_prob_per_gate,
        overlap_peak=v_timing(scenario.pump_duration_ps, tau_c_ps),
        fwhm_mm=fwhm_mm,
        delay_mm=scenario.delay_mm,
    )


# ---------------------------------------------------------------------------
# Joint click law and tallies
# ---------------------------------------------------------------------------

def _model_inputs(params: SimParams) -> tuple:
    """The overlap-free inputs of `joint_law`, the enumeration and the closed form.

    Returns (pk_a, pk_b, pk_b_herald, pk_b_quiet, route, click_a, click_b):
    the law of the photons at C2 input a; that of the photons at input b,
    alone, with a herald click and with none; route[k][x], the probability
    that x of k photons take C2's cross port; and the D_a and D_b click
    tables for as many photons as both laws together hold, and at least 2.
    """
    # Photons from the external source at C2 input a: binomial thinning.
    pk_a = apply_loss(PhotonNumberDistribution(params.pmf_a), params.q_a).pmf

    # Joint law of (photons at C2 input b, herald click), correlated through
    # the chip pair number n.
    herald = detector_clicks(len(params.pmf_b) - 1, params.p_c_arrive * params.eta_c, params.dark_c)
    pk_b, pk_b_herald, pk_b_quiet = ([0.0] * len(params.pmf_b) for _ in range(3))
    for n, pn in enumerate(params.pmf_b):
        if pn == 0.0:
            continue
        quiet, click = herald[n]
        for k, b in enumerate(binomial(n, params.q_b)):
            pk_b[k] += pn * b
            pk_b_herald[k] += pn * b * click
            pk_b_quiet[k] += pn * b * quiet

    n = max(len(pk_a), len(pk_b))
    route = [binomial(k, params.cross2) + [0.0] * (n - 1 - k) for k in range(n)]

    m_max = max(len(pk_a) + len(pk_b) - 2, 2)  # _rate_table reads the 2-photon entries
    click_a = detector_clicks(m_max, params.s_post * params.eta_a, params.dark_a)
    click_b = detector_clicks(m_max, params.s_post * params.eta_b, params.dark_b)
    return pk_a, pk_b, pk_b_herald, pk_b_quiet, route, click_a, click_b


def _p_coinc(cross: float, overlap: float) -> float:
    """P[one photon at each C2 output] when one photon enters each input."""
    bar = 1.0 - cross
    return bar * bar + cross * cross - 2.0 * bar * cross * overlap


def joint_law(params: SimParams, overlap: float) -> np.ndarray:
    """Exact law of one gated pulse's click pattern, indexed [A, B, C].

    The external photons reaching C2 (k_a) depend on the external pair
    number only; the chip photons reaching C2 (k_b) and the herald click C on
    the chip pair number only.  C2 routes every pattern's photons
    independently by its cross ratio, except the one-plus-one pattern, which
    interferes at the given temporal overlap.
    """
    import numpy as np

    pk_a, pk_b, pk_b_herald, pk_b_quiet, route, click_a, click_b = _model_inputs(params)
    route, click_a, click_b = np.array(route), np.array(click_a), np.array(click_b)
    i, j = len(pk_a), len(pk_b)

    # C2 routing table T[k_a, k_b, A, B]: x of the k_a photons cross to
    # output B, y of the k_b photons cross to output A.
    k_a, x = np.ogrid[:i, :i]
    k_b, y = np.ogrid[:j, :j]
    m_a = np.maximum(k_a[:, :, None, None] - x[:, :, None, None] + y[None, None], 0)
    m_b = np.maximum(x[:, :, None, None] + k_b[None, None] - y[None, None], 0)
    table = np.einsum(
        "ix,jy,ixjya,ixjyb->ijab",
        route[:i, :i], route[:j, :j], click_a[m_a], click_b[m_b],
        optimize=True,
    )
    if i > 1 and j > 1:
        p_coinc = _p_coinc(params.cross2, overlap)
        table[1, 1] = p_coinc * np.outer(click_a[1], click_b[1]) + (1.0 - p_coinc) / 2.0 * (
            np.outer(click_a[2], click_b[0]) + np.outer(click_a[0], click_b[2])
        )
    w_b = np.stack([pk_b_quiet, pk_b_herald], axis=-1)
    return np.einsum("i,jc,ijab->abc", pk_a, w_b, table)


def _ledger_per_gate(params: SimParams) -> tuple[float, float, float, float]:
    """Expected (generated, lost, undetected, detected) photons per gated pulse.

    The C2 outputs carry k_a (1 - cross) + k_b cross and k_a cross +
    k_b (1 - cross) photons on average; the interfering one-plus-one pattern
    has the same means as independent routing.  The mean pair numbers are
    the `math.fsum` of n p(n), so they load no numpy.
    """
    n_a, n_b = (math.fsum(n * p for n, p in enumerate(pmf)) for pmf in (params.pmf_a, params.pmf_b))
    k_a, k_b, cross = params.q_a * n_a, params.q_b * n_b, params.cross2
    out_a = (1.0 - cross) * k_a + cross * k_b
    out_b = cross * k_a + (1.0 - cross) * k_b
    generated = n_a + 2.0 * n_b
    lost = (
        (n_a - k_a)
        + (n_b - k_b)
        + (out_a + out_b) * (1.0 - params.s_post)
        + n_b * (1.0 - params.p_c_arrive)
    )
    # (photons reaching a detector, its efficiency)
    arrivals = (
        (params.s_post * out_a, params.eta_a),
        (params.s_post * out_b, params.eta_b),
        (params.p_c_arrive * n_b, params.eta_c),
    )
    undetected = sum(m * (1.0 - eta) for m, eta in arrivals)
    detected = sum(m * eta for m, eta in arrivals)
    return generated, lost, undetected, detected


@record
class Tally:
    """One leg's click counts over its gated pulses."""

    gated: int
    singles_a: int
    singles_b: int
    singles_c: int
    twofold_ab: int
    threefold_abc: int


@record
class PhotonLedger:
    """Expected photon flows of a run's dip leg; they balance to float precision."""

    generated: float
    lost: float
    undetected: float
    detected: float


def _generator(key: int) -> np.random.Generator:
    """The numpy Generator of a stream key."""
    import numpy as np

    return np.random.default_rng(key)


def _sample_leg(params: SimParams, n_pulses: int, key: int, law: np.ndarray) -> Tally:
    """Draw one leg's gated pulses and their click-pattern counts from its joint law."""
    rng = _generator(key)
    gated = int(rng.binomial(n_pulses, params.p_gate))
    cells = rng.multinomial(gated, law.ravel()).reshape(law.shape)
    counts = (cells[1], cells[:, 1], cells[:, :, 1], cells[1, 1], cells[1, 1, 1])  # A, B, C, AB, ABC
    return Tally(gated, *(int(c.sum()) for c in counts))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@record
class CountsReport:
    """Tallies at the scenario delay (dip leg) and at far delay (reference leg)."""

    pulses_simulated: int
    seed: int
    delay_mm: float
    dip: Tally
    ref: Tally
    ledger: PhotonLedger  # the dip leg's
    dark_a: float
    dark_b: float
    dark_c: float
    resolution_warning: str | None  # None when the pulse count resolves the dip

    raw_visibility = property(lambda self: _dip_visibility(self.dip, self.ref, "threefold_abc")[0])
    raw_visibility_err = property(lambda self: _dip_visibility(self.dip, self.ref, "threefold_abc")[1])
    raw_twofold_visibility = property(lambda self: _dip_visibility(self.dip, self.ref, "twofold_ab")[0])


def _dip_visibility(
    dip: Tally, ref: Tally, count: str, acc_dip: float = 0.0, acc_ref: float = 0.0
) -> tuple[float, float]:
    """V = 1 - dip rate / reference rate of one coincidence count, with its Poisson error.

    Each leg's net rate is its count per gated pulse less its per-gate
    accidental probability; with no accidentals it is the raw rate.  A leg
    with no gated pulse, or a reference whose net rate is not positive, gives
    (nan, nan).  A dip with no count against a live reference is a perfect
    dip: 1.0, with no Poisson error (nan).  A dip whose accidentals exceed its
    count has a negative net rate and reads above 1, with its error.
    """
    c0, g0, c1, g1 = getattr(dip, count), dip.gated, getattr(ref, count), ref.gated
    if g0 <= 0 or g1 <= 0:
        return math.nan, math.nan
    net0, net1 = c0 / g0 - acc_dip, c1 / g1 - acc_ref
    if net1 <= 0.0:
        return math.nan, math.nan
    if c0 == 0:
        return 1.0, math.nan
    s0, s1 = math.sqrt(c0) / g0, math.sqrt(c1) / g1
    return 1.0 - net0 / net1, math.sqrt((s0 / net1) ** 2 + (net0 * s1 / net1**2) ** 2)


@record
class NetRates:
    """Per-gate accidental three-fold probabilities and net visibilities."""

    accidental_threefold_dip: float
    accidental_threefold_ref: float
    net_visibility: float
    net_visibility_err: float
    net_twofold_visibility: float


def _photon_click_prob(p_click: float, dark: float) -> float:
    if dark <= 0.0:
        return p_click
    if dark >= 1.0:
        return 0.0
    return max(0.0, 1.0 - (1.0 - p_click) / (1.0 - dark))


def _leg_accidentals(tally: Tally, dark_a: float, dark_b: float, dark_c: float):
    """Expected per-gate accidental coincidence probabilities for one leg.

    Assumes detector independence: any coincidence involving at least one
    dark click is accidental, with the photon-click probabilities inferred
    from the measured singles.
    """
    g = tally.gated
    if g == 0 or (dark_a == 0.0 and dark_b == 0.0 and dark_c == 0.0):
        return 0.0, 0.0
    pa, pb, pc = tally.singles_a / g, tally.singles_b / g, tally.singles_c / g
    fa, fb, fc = (
        _photon_click_prob(pa, dark_a),
        _photon_click_prob(pb, dark_b),
        _photon_click_prob(pc, dark_c),
    )
    acc3 = pa * pb * pc - fa * fb * fc
    acc2 = pa * pb - fa * fb
    return max(acc3, 0.0), max(acc2, 0.0)


def subtract_accidentals(report: CountsReport) -> NetRates:
    """Subtract dark-count-driven accidentals from both legs' coincidences."""
    acc3_dip, acc2_dip = _leg_accidentals(report.dip, report.dark_a, report.dark_b, report.dark_c)
    acc3_ref, acc2_ref = _leg_accidentals(report.ref, report.dark_a, report.dark_b, report.dark_c)

    vis, err = _dip_visibility(report.dip, report.ref, "threefold_abc", acc3_dip, acc3_ref)
    vis2 = _dip_visibility(report.dip, report.ref, "twofold_ab", acc2_dip, acc2_ref)[0]
    return NetRates(acc3_dip, acc3_ref, vis, err, vis2)


def run(scenario: Scenario, n_pulses: int, seed: int = 1, workers: int = 1) -> CountsReport:
    """Simulate n_pulses laser pulses at the scenario delay and at far delay.

    Deterministic for fixed (scenario, n_pulses, seed); the cost does not
    grow with n_pulses.  The far-delay reference leg (temporal overlap zero)
    uses an independent stream and provides the out-of-dip baseline from
    which the report's visibilities are derived.  `workers` is accepted for
    compatibility and has no effect: each leg is two draws in one process.
    """
    if not 1 <= n_pulses <= MAX_PULSES:
        raise ValueError(f"n_pulses must be in [1, {MAX_PULSES}], got {n_pulses}")
    _check_seed(seed)
    params = compile_scenario(scenario)
    dip_law = joint_law(params, params.overlap_at(params.delay_mm))
    ref_law = joint_law(params, 0.0)
    dip = _sample_leg(params, n_pulses, derive_key(seed, "dip"), dip_law)
    return CountsReport(
        pulses_simulated=n_pulses,
        seed=seed,
        delay_mm=scenario.delay_mm,
        dip=dip,
        ref=_sample_leg(params, n_pulses, derive_key(seed, "ref"), ref_law),
        ledger=PhotonLedger(*(dip.gated * flow for flow in _ledger_per_gate(params))),
        dark_a=params.dark_a,
        dark_b=params.dark_b,
        dark_c=params.dark_c,
        resolution_warning=_resolution_warning(params, n_pulses, dip_law[1, 1, 1], ref_law[1, 1, 1]),
    )


TARGET_SIGMA_V = 0.05
RESOLVABLE_REF_TRIPLES = 10.0


def _resolution_warning(params: SimParams, n_pulses: int, p_dip: float, p_ref: float) -> str | None:
    """A one-line warning when n_pulses per leg cannot resolve the dip, else None.

    p_dip and p_ref are the per-gate three-fold probabilities at the scenario
    delay and at far delay.  The reference leg is expected to hold
    n_pulses * p_gate * p_ref three-folds.  Below RESOLVABLE_REF_TRIPLES the
    warning names the pulse count that gives a raw-visibility sigma of
    TARGET_SIGMA_V, r sqrt(1/c_dip + 1/c_ref) with r = p_dip / p_ref, and at
    least RESOLVABLE_REF_TRIPLES reference three-folds (a full dip has sigma 0),
    or says that no count a leg can draw, MAX_PULSES at most, reaches it.
    """
    p_dip, p_ref = float(p_dip), float(p_ref)
    ref_triples = n_pulses * params.p_gate * p_ref
    if ref_triples >= RESOLVABLE_REF_TRIPLES:
        return None
    head = f"warning: {n_pulses} pulses give {ref_triples:.3g} expected reference three-folds"
    if p_ref <= 0.0:
        return head + "; the reference three-fold probability is zero"
    try:
        needed = max(
            p_dip * (p_dip + p_ref) / p_ref**3 / (params.p_gate * TARGET_SIGMA_V**2),
            RESOLVABLE_REF_TRIPLES / (params.p_gate * p_ref),
        )
    except ZeroDivisionError:  # a product underflowed to 0: the count is past any float
        needed = math.inf
    if not needed <= MAX_PULSES:
        return head + f"; no pulse count a leg can draw (at most {MAX_PULSES}) reaches sigma_V = {TARGET_SIGMA_V}"
    return head + f"; sigma_V = {TARGET_SIGMA_V} needs about {needed:.2g} pulses"


# ---------------------------------------------------------------------------
# Expected rates (exact truncated enumeration) and analytic prediction
# ---------------------------------------------------------------------------

@record
class ExpectedRates:
    """Exact per-gated-pulse event probabilities for the compiled model."""

    p_single_a: float
    p_single_b: float
    p_single_c: float
    p_twofold_ab: float
    p_threefold_abc: float


def expected_rates(scenario: Scenario, overlap: float | None = None) -> ExpectedRates:
    """Enumerate the pulse model exactly, over every photon pattern of the pair laws.

    This is the n -> infinity surrogate for the Monte Carlo engine: the same
    source statistics, routing rules, and detection model, summed over all
    photon patterns instead of sampled.  overlap is the temporal overlap of
    the interfering photons, in [0, 1] (ValueError otherwise); it defaults to
    the scenario delay's.
    """
    if overlap is not None and not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    params = compile_scenario(scenario)
    if overlap is None:
        overlap = params.overlap_at(params.delay_mm)
    return _rate_table(params)(overlap)


def _rate_table(params: SimParams) -> Callable[[float], ExpectedRates]:
    """rates_at(overlap) -> expected_rates of a compiled scenario at that temporal overlap.

    The pattern-by-pattern loop of tests/enumeration_reference.py, with the
    same terms added in the same order, so it is bit-identical to it until
    `rates_at` caps a rate at 1.  The patterns are the (k_a, k_b) photon
    numbers at C2 with nonzero weight in both laws (a herald weight is 0
    wherever pk_b is), k_a-major.  Every pattern's overlap-free terms are
    computed once here: its weight times its click probabilities, summed
    over C2's routings, x of the k_a photons crossing to output B and y of
    the k_b photons to A, in (x, y) order.  The one-plus-one pattern, the
    only one whose clicks depend on the overlap, has its entry filled on
    each call.  Each rate is a sequential sum over the patterns, except
    p_single_c, the `math.fsum` of the herald weights.
    """
    pk_a, pk_b, pk_b_herald, _, route, click_a, click_b = _model_inputs(params)
    ca = [c for _, c in click_a]  # P[click A] at m photons, darks included
    cb = [c for _, c in click_b]
    terms = []  # (A, B, AB, ABC) of each pattern
    one_plus_one = None
    for ka, wa in enumerate(pk_a):
        if wa == 0.0:
            continue
        for kb, wb in enumerate(pk_b):
            if wb == 0.0:
                continue
            if ka == kb == 1:
                one_plus_one = len(terms)
                terms.append(None)
                continue
            # Routing (x, y) leaves k_a - x + y photons at A and x + k_b - y at B.
            pa = pb = pab = 0.0  # P[click A], P[click B], P[click A and B]
            for x in range(ka + 1):
                for y in range(kb + 1):
                    w = route[ka][x] * route[kb][y]
                    wca = w * ca[ka - x + y]
                    pa += wca
                    pb += w * cb[x + kb - y]
                    pab += wca * cb[x + kb - y]
            w_ab, w_abc = wa * wb, wa * pk_b_herald[kb]
            terms.append((w_ab * pa, w_ab * pb, w_ab * pab, w_abc * pab))
    # Terms that add up to 1 can each round up, so even their exact sum can pass it.
    p_single_c = min(math.fsum(pk_b_herald), 1.0)  # includes the dark contribution

    def rates_at(overlap: float) -> ExpectedRates:
        if one_plus_one is not None:
            p_coinc = _p_coinc(params.cross2, overlap)
            p_bunch = (1.0 - p_coinc) / 2.0
            pa = p_coinc * ca[1] + p_bunch * (ca[2] + ca[0])
            pb = p_coinc * cb[1] + p_bunch * (cb[2] + cb[0])
            pab = p_coinc * ca[1] * cb[1] + p_bunch * (ca[2] * cb[0] + ca[0] * cb[2])
            w, wh = pk_a[1] * pk_b[1], pk_a[1] * pk_b_herald[1]
            terms[one_plus_one] = (w * pa, w * pb, w * pab, wh * pab)
        sums = [0.0] * 4
        for term in terms:
            for r in range(4):
                sums[r] += term[r]
        p_a, p_b, p_ab, p_abc = (min(rate, 1.0) for rate in sums)
        return ExpectedRates(p_a, p_b, p_single_c, p_ab, p_abc)

    return rates_at


def analytic_visibility(scenario: Scenario) -> float:
    """Closed-form three-fold dip visibility: the statistics factor times the timing factor.

    The statistics factor evaluates the coincidence bounds on the photon
    number laws at coupler C2 that both engines read from `_model_inputs`:
    the loss-thinned external law against the chip law at input b with a
    herald click, normalised.  The latter is the chip law conditioned on the
    herald click and thinned by the b-arm survival: both weight the pattern
    of n pairs and k photons at C2 by p(n) Bin(k | n, q_b) P[herald | n].
    """
    params = compile_scenario(scenario)
    pk_a, _, pk_b_herald, *_ = _model_inputs(params)
    if not sum(pk_b_herald) > 0.0:
        raise UndefinedConditioningError("herald click probability is zero; conditioning is undefined")
    return v_statistics(PhotonNumberDistribution(pk_a), custom(pk_b_herald)) * params.overlap_peak


# ---------------------------------------------------------------------------
# Dip scan
# ---------------------------------------------------------------------------

class ScanSpanError(ValueError):
    """Raised when scan positions do not span more than twice the expected dip width."""


def _mm(length_mm: float) -> str:
    """A length to the micrometre, in exponent form from 1 km up."""
    return f"{length_mm:.3f} mm" if length_mm < 1e6 else f"{length_mm:.3e} mm"


@record
class DipScanResult:
    """Per-position three-fold rates with a gaussian fit of the dip."""

    positions_mm: tuple[float, ...]
    rates: tuple[float, ...]
    errors: tuple[float, ...]
    fit: DipFit | None
    fit_failed: str | None
    resolution_warning: str | None  # as in CountsReport; None in analytic mode


def scan_dip(
    scenario: Scenario,
    positions_mm,
    n_pulses_per_point: int,
    seed: int = 1,
) -> DipScanResult:
    """Scan the delay line and fit the resulting three-fold dip.

    One enumeration table gives the three-fold probability p3 at each
    position.  With n_pulses_per_point = 0 the scan is analytic: the rate is
    p3.  Otherwise point i draws Binomial(n, p_gate) gated pulses and
    Binomial(gated, p3) three-folds from `derive_key(seed, "scan", i)`.
    Requires at least 3 positions spanning more than twice the expected dip
    width (ScanSpanError otherwise).  A fit that fails (no convergence, no
    positive rate, or a baseline that is not positive) is reported in
    fit_failed, with the raw samples preserved.  A Monte Carlo scan also
    checks, as `run` does, whether n_pulses_per_point resolves the dip.
    """
    if not 0 <= n_pulses_per_point <= MAX_PULSES:
        raise ValueError(f"n_pulses_per_point must be in [0, {MAX_PULSES}], got {n_pulses_per_point}")
    _check_seed(seed)
    positions = [float(x) for x in positions_mm]
    if len(positions) < 3:
        raise ValueError("need at least 3 scan positions")
    non_finite = [x for x in positions if not math.isfinite(x)]
    if non_finite:
        raise ValueError(f"scan positions must be finite, got {non_finite[0]}")
    params = compile_scenario(scenario)
    span = max(positions) - min(positions)
    if not span > 2.0 * params.fwhm_mm:
        raise ScanSpanError(
            f"scan span {_mm(span)} must exceed twice the expected width ({_mm(2 * params.fwhm_mm)})"
        )

    rates_at = _rate_table(params)
    rates, errors = [], []
    for i, pos in enumerate(positions):
        p3 = rates_at(params.overlap_at(pos)).p_threefold_abc
        if n_pulses_per_point == 0:
            rates.append(p3)
            errors.append(0.0)
            continue
        rng = _generator(derive_key(seed, "scan", i))
        gated = int(rng.binomial(n_pulses_per_point, params.p_gate))
        threefold = int(rng.binomial(gated, p3))
        rates.append(threefold / gated if gated else 0.0)
        errors.append(max(threefold, 1) ** 0.5 / gated if gated else 0.0)

    sigma = None if n_pulses_per_point == 0 else errors
    try:
        fit = fit_dip(positions, rates, params.fwhm_mm, errors=sigma)
        failed = None
    except FitFailureError as exc:
        fit = None
        failed = str(exc)
    warning = None
    if n_pulses_per_point > 0:
        p_dip = rates_at(params.overlap_at(params.delay_mm)).p_threefold_abc
        warning = _resolution_warning(params, n_pulses_per_point, p_dip, rates_at(0.0).p_threefold_abc)
    return DipScanResult(tuple(positions), tuple(rates), tuple(errors), fit, failed, warning)

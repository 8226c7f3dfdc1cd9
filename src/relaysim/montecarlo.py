"""Exact-law Monte Carlo of the relay interference apparatus.

One external heralded-style source feeds chip port 1; the on-chip source
feeds pairs through coupler C1; the surviving photons interfere at coupler
C2 and are counted on gated detectors D_a, D_b (outputs A, B) and D_c (the
herald at port C).  Reported tallies are singles, two-fold and three-fold
coincidences, at the scenario delay and at a far-delay reference, from which
raw and accidental-subtracted dip visibilities follow.

Gated pulses are independent and identically distributed, and every tally
is a function of one pulse's joint click pattern (A, B, C).  `joint_law`
gives that pattern's exact law, truncated at the pair cutoff.  A leg of n
pulses is then exactly Binomial(n, p_gate) gated pulses split over the 8
click cells by one multinomial draw, so its cost does not depend on n.
Each leg draws from a numpy Generator seeded with `derive_key(seed, leg)`.
The photon ledger is not a function of the click pattern; it holds expected
flows, gated pulses times the per-gate expectation.

`CounterRng` is a stateless counter hash: pulse i, draw slot j reads a
64-bit hash of (stream key, i * SLOTS + j), so a per-pulse sampler drawing
from it gives the same draws for any split of the pulse range.  No engine
path draws from it: `CounterRng` and `SLOTS` stay only for the independent
pulse-by-pulse sampler in `tests/pulse_reference.py` and for the names the
benchmark traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .components import (
    ChipLayout,
    ConfigurationError,
    CouplerModel,
    DetectorModel,
    FilterModel,
    SpdcSource,
    coupler_ratio,
)
from .interference import DipFit, FitFailureError, FOUR_LN2, fit_dip, v_statistics, v_timing
from .photostats import (
    HeraldModel,
    PhotonNumberDistribution,
    apply_loss,
    herald_condition,
    thermal,
)
from .units import SpectralMode, coherence_time, db_to_linear, delay_to_path

# ---------------------------------------------------------------------------
# Counter-based RNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Counters per pulse: pulse i's draw j reads counter i*SLOTS + j.
SLOTS = 512

# Largest accepted pair-number truncation; it keeps the (k_a, x, k_b, y)
# routing table behind joint_law at most 21**4 entries.
MAX_PAIR_CUTOFF = 20

# Largest pulse count per leg: numpy's binomial draw takes an int64 count.
MAX_PULSES = 2**63 - 1


def _mix_int(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_key(seed: int, *tags) -> int:
    """Deterministic 64-bit stream key from a seed and tag path."""
    h = _mix_int((seed & _MASK64) ^ 0x6A09E667F3BCC908)
    for tag in tags:
        data = tag.encode() if isinstance(tag, str) else str(int(tag)).encode()
        for byte in data:
            h = _mix_int((h + byte + _GOLDEN) & _MASK64)
    return h


def _mix64(x: np.ndarray) -> np.ndarray:
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
        self.key = np.uint64(key & _MASK64)

    def uniform(self, pulse_idx: np.ndarray, slot: int) -> np.ndarray:
        c = pulse_idx * np.uint64(SLOTS) + np.uint64(slot)
        x = self.key + c * np.uint64(_GOLDEN)
        return (_mix64(x) >> np.uint64(11)) * 2.0**-53


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

def _default_filter_ab() -> FilterModel:
    return FilterModel(center_nm=1530.0, fwhm_pm=200.0)


def _default_filter_c() -> FilterModel:
    return FilterModel(center_nm=1534.0, fwhm_pm=800.0)


def _default_coupler() -> CouplerModel:
    # gamma set so the cross ratio is 0.5 at 30 V (see calibrate_coupler).
    return CouplerModel(gamma_rad_per_v=0.041819067411536176)


@dataclass(frozen=True)
class Scenario:
    """Full experiment description for one Monte Carlo run."""

    pump_repetition_rate_hz: float = 76e6
    pump_duration_ps: float = 2.5
    gate_rate_hz: float = 600e3

    external_source: SpdcSource = field(
        default_factory=lambda: SpdcSource(pairs_per_mw=0.05 / 1.5, pump_power_mw=1.5)
    )
    chip_source: SpdcSource = field(
        default_factory=lambda: SpdcSource(pairs_per_mw=0.02 / 7.0, pump_power_mw=7.0)
    )
    # Explicit pair-number distributions override the sources' thermal laws.
    external_distribution: PhotonNumberDistribution | None = None
    chip_distribution: PhotonNumberDistribution | None = None

    photon_mode: SpectralMode = SpectralMode(1530.0, 200.0, "gaussian")
    dip_fwhm_time_ps: float | None = None

    coupler_c1: CouplerModel = field(default_factory=_default_coupler)
    coupler_c2: CouplerModel = field(default_factory=_default_coupler)
    coupler_c1_voltage_v: float = 30.0
    coupler_c2_voltage_v: float = 30.0

    layout: ChipLayout = field(default_factory=ChipLayout)
    alice_arm_loss_db: float = 0.0
    filter_ab: FilterModel = field(default_factory=_default_filter_ab)
    filter_c: FilterModel = field(default_factory=_default_filter_c)

    detector_a: DetectorModel = field(default_factory=DetectorModel)
    detector_b: DetectorModel = field(default_factory=DetectorModel)
    detector_c: DetectorModel = field(default_factory=DetectorModel)
    # Accepted and read by nothing; perfbench's bench scenario still passes it.
    detector_monitor: DetectorModel = field(default_factory=DetectorModel)

    delay_mm: float = 0.0
    pair_number_cutoff: int = 20

    @property
    def partner_wavelength_nm(self) -> float:
        """Energy-matched partner of the interfering photons (chip pair)."""
        inv = 2.0 / self.chip_source.spectrum.center_wavelength_nm - 1.0 / self.photon_mode.center_wavelength_nm
        return 1.0 / inv

    @property
    def tau_fwhm_ps(self) -> float:
        if self.dip_fwhm_time_ps is not None:
            return self.dip_fwhm_time_ps
        return coherence_time(self.photon_mode)


@dataclass(frozen=True)
class SimParams:
    """Scenario compiled to per-arm probabilities and routing fractions."""

    p_gate: float
    pmf_a: np.ndarray     # external pair number, mass above the cutoff folded onto it
    pmf_b: np.ndarray     # chip pair number, likewise
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
    cutoff: int

    def overlap_at(self, delay_mm: float) -> float:
        x = delay_mm / self.fwhm_mm
        return self.overlap_peak * math.exp(-FOUR_LN2 * x * x)


def _pair_distribution(
    override: PhotonNumberDistribution | None, source: SpdcSource, cutoff: int
) -> PhotonNumberDistribution:
    if override is not None:
        return override
    return thermal(source.mean_pairs, cutoff)


def _pair_pmf(pmf, cutoff: int) -> np.ndarray:
    """Normalised pair-number pmf with the mass above the cutoff folded onto it.

    The differences of the cumulative sum are normalised, not pmf itself:
    they differ from it by up to 1.1e-16, and the enumeration and Monte
    Carlo outputs are defined from them to the last bit.
    """
    pmf = np.diff(np.cumsum(pmf), prepend=0.0)
    pmf = pmf / pmf.sum()
    if pmf.shape[0] > cutoff + 1:
        pmf = np.append(pmf[:cutoff], pmf[cutoff:].sum())
    return pmf


def compile_scenario(scenario: Scenario) -> SimParams:
    """Validate a scenario and reduce it to per-arm probabilities."""
    if not (scenario.gate_rate_hz > 0 and scenario.pump_repetition_rate_hz > 0):
        raise ConfigurationError("pump and gate rates must be positive")
    if scenario.gate_rate_hz > scenario.pump_repetition_rate_hz:
        raise ConfigurationError("gating rate cannot exceed the pump repetition rate")
    if not 1 <= scenario.pair_number_cutoff <= MAX_PAIR_CUTOFF:
        raise ConfigurationError(
            f"pair_number_cutoff must be in [1, {MAX_PAIR_CUTOFF}]"
        )
    if not scenario.pump_duration_ps >= 0:
        raise ConfigurationError("pump duration must be >= 0")
    if not math.isfinite(scenario.delay_mm):
        raise ConfigurationError("delay must be finite")
    if not scenario.alice_arm_loss_db >= 0:
        raise ConfigurationError("arm losses must be >= 0 dB")
    # Only an override fails (the coherence time is > 0): one that is not > 0,
    # or one so small (below about 2.5e-312 ps) that its path underflows to 0 mm.
    tau_ps = scenario.tau_fwhm_ps
    fwhm_mm = delay_to_path(tau_ps) if tau_ps > 0 else 0.0
    if not fwhm_mm > 0:
        raise ConfigurationError(f"dip_fwhm_time_ps must be > 0, got {scenario.dip_fwhm_time_ps}")

    lam_signal = scenario.photon_mode.center_wavelength_nm
    lam_partner = scenario.partner_wavelength_nm
    if not scenario.filter_ab.passes(lam_signal):
        raise ConfigurationError("output A/B filter must pass the interfering photons")
    if not scenario.filter_c.passes(lam_partner):
        raise ConfigurationError("port C filter must pass the partner photons")
    if scenario.filter_ab.passes(lam_partner) or scenario.filter_c.passes(lam_signal):
        raise ConfigurationError(
            "signal and partner filter bands must be disjoint for clean heralding"
        )

    cutoff = scenario.pair_number_cutoff
    dist_a = _pair_distribution(scenario.external_distribution, scenario.external_source, cutoff)
    dist_b = _pair_distribution(scenario.chip_distribution, scenario.chip_source, cutoff)
    if dist_a.n_max > MAX_PAIR_CUTOFF or dist_b.n_max > MAX_PAIR_CUTOFF:
        raise ConfigurationError(f"pair distributions must be truncated at <= {MAX_PAIR_CUTOFF}")

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

    tau_c_ps = coherence_time(scenario.photon_mode)
    peak = v_timing(scenario.pump_duration_ps, tau_c_ps)

    return SimParams(
        p_gate=scenario.gate_rate_hz / scenario.pump_repetition_rate_hz,
        pmf_a=_pair_pmf(dist_a.pmf, cutoff),
        pmf_b=_pair_pmf(dist_b.pmf, cutoff),
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
        overlap_peak=peak,
        fwhm_mm=fwhm_mm,
        delay_mm=scenario.delay_mm,
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# Joint click law and tallies
# ---------------------------------------------------------------------------

_COMB = np.array(
    [[math.comb(n, k) for k in range(MAX_PAIR_CUTOFF + 1)] for n in range(MAX_PAIR_CUTOFF + 1)],
    dtype=float,
)


def _binomial(n_max: int, p: float) -> np.ndarray:
    """B[n, k]: probability that k of n photons survive, each with probability p."""
    n, k = np.ogrid[: n_max + 1, : n_max + 1]
    return _COMB[: n_max + 1, : n_max + 1] * p**k * (1.0 - p) ** np.maximum(n - k, 0)


def _clicks(m_max: int, p_det: float, dark: float) -> np.ndarray:
    """P[no click, click] of a gated detector reached by m = 0..m_max photons."""
    quiet = (1.0 - p_det) ** np.arange(m_max + 1) * (1.0 - dark)
    return np.stack([quiet, 1.0 - quiet], axis=-1)


def _source_weights(pmf: np.ndarray, survive: float, clicks: np.ndarray) -> np.ndarray:
    """w[k, X] = sum_n P(n) Bin(k | n, survive) P(X | n), X the partner photons' click."""
    return np.einsum("n,nk,nx->kx", pmf, _binomial(pmf.shape[0] - 1, survive), clicks)


def joint_law(params: SimParams, overlap: float) -> np.ndarray:
    """Exact law of one gated pulse's click pattern, indexed [A, B, C].

    The external photons reaching C2 (k_a) depend on the external pair
    number only; the chip photons reaching C2 (k_b) and the herald click C on
    the chip pair number only.  C2 routes every pattern's photons
    independently by its cross ratio, except the one-plus-one pattern, which
    interferes at the given temporal overlap.
    """
    pmf_a, pmf_b = params.pmf_a, params.pmf_b
    i, j = pmf_a.shape[0], pmf_b.shape[0]
    w_a = np.einsum("n,nk->k", pmf_a, _binomial(i - 1, params.q_a))
    herald = _clicks(j - 1, params.p_c_arrive * params.eta_c, params.dark_c)
    w_b = _source_weights(pmf_b, params.q_b, herald)

    # C2 routing table T[k_a, k_b, A, B]: x of the k_a photons cross to
    # output B, y of the k_b photons cross to output A.
    m_max = max(i + j - 2, 2)
    click_a = _clicks(m_max, params.s_post * params.eta_a, params.dark_a)
    click_b = _clicks(m_max, params.s_post * params.eta_b, params.dark_b)
    k_a, x = np.ogrid[:i, :i]
    k_b, y = np.ogrid[:j, :j]
    m_a = np.clip(k_a[:, :, None, None] - x[:, :, None, None] + y[None, None], 0, m_max)
    m_b = np.clip(x[:, :, None, None] + k_b[None, None] - y[None, None], 0, m_max)
    cross = params.cross2
    table = np.einsum(
        "ix,jy,ixjya,ixjyb->ijab",
        _binomial(i - 1, cross), _binomial(j - 1, cross), click_a[m_a], click_b[m_b],
        optimize=True,
    )
    if i > 1 and j > 1:
        bar = 1.0 - cross
        p_coinc = bar * bar + cross * cross - 2.0 * bar * cross * overlap
        table[1, 1] = p_coinc * np.outer(click_a[1], click_b[1]) + (1.0 - p_coinc) / 2.0 * (
            np.outer(click_a[2], click_b[0]) + np.outer(click_a[0], click_b[2])
        )
    return np.einsum("i,jc,ijab->abc", w_a, w_b, table)


def _ledger_per_gate(params: SimParams) -> tuple[float, float, float, float]:
    """Expected (generated, lost, undetected, detected) photons per gated pulse.

    The C2 outputs carry k_a (1 - cross) + k_b cross and k_a cross +
    k_b (1 - cross) photons on average; the interfering one-plus-one pattern
    has the same means as independent routing.
    """
    n_a, n_b = (float(np.arange(pmf.shape[0]) @ pmf) for pmf in (params.pmf_a, params.pmf_b))
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


@dataclass(frozen=True)
class Tally:
    """One leg's counts over its gated pulses, and its expected photon ledger.

    The click counters are sampled integers.  generated, lost, undetected and
    detected are expected photon flows (gated pulses times the per-gate
    expectation), so they balance to float precision.
    """

    gated: int
    singles_a: int
    singles_b: int
    singles_c: int
    twofold_ab: int
    threefold_abc: int
    generated: float
    lost: float
    undetected: float
    detected: float


def _sample_leg(params: SimParams, n_pulses: int, key: int, overlap: float) -> Tally:
    """Draw one leg's gated pulses and their click-pattern counts."""
    law = joint_law(params, overlap)
    rng = np.random.default_rng(key)
    gated = int(rng.binomial(n_pulses, params.p_gate))
    cells = rng.multinomial(gated, law.ravel()).reshape(law.shape)
    ledger = _ledger_per_gate(params)
    return Tally(
        gated,
        int(cells[1].sum()),
        int(cells[:, 1].sum()),
        int(cells[:, :, 1].sum()),
        int(cells[1, 1].sum()),
        int(cells[1, 1, 1].sum()),
        *(gated * flow for flow in ledger),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountsReport:
    """Tallies at the scenario delay (dip leg) and at far delay (reference leg)."""

    pulses_simulated: int
    seed: int
    delay_mm: float
    dip: Tally
    ref: Tally
    dark_a: float
    dark_b: float
    dark_c: float

    raw_visibility = property(lambda self: _raw_visibility(self, "threefold_abc")[0])
    raw_visibility_err = property(lambda self: _raw_visibility(self, "threefold_abc")[1])
    raw_twofold_visibility = property(lambda self: _raw_visibility(self, "twofold_ab")[0])


def _raw_visibility(report: CountsReport, count: str) -> tuple[float, float]:
    """1 - (dip rate / reference rate) of one coincidence count, with its Poisson error."""
    c0, c1 = getattr(report.dip, count), getattr(report.ref, count)
    g0, g1 = report.dip.gated, report.ref.gated
    if c0 <= 0 or c1 <= 0 or g0 <= 0 or g1 <= 0:
        return float("nan"), float("nan")
    r = (c0 / g0) / (c1 / g1)
    return 1.0 - r, r * math.sqrt(1.0 / c0 + 1.0 / c1)


@dataclass(frozen=True)
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

    g0, g1 = report.dip.gated, report.ref.gated
    net3_dip = max(report.dip.threefold_abc / g0 - acc3_dip, 0.0) if g0 else 0.0
    net3_ref = max(report.ref.threefold_abc / g1 - acc3_ref, 0.0) if g1 else 0.0
    net2_dip = max(report.dip.twofold_ab / g0 - acc2_dip, 0.0) if g0 else 0.0
    net2_ref = max(report.ref.twofold_ab / g1 - acc2_ref, 0.0) if g1 else 0.0

    if net3_dip > 0 and net3_ref > 0:
        vis = 1.0 - net3_dip / net3_ref
        s0 = math.sqrt(report.dip.threefold_abc) / g0
        s1 = math.sqrt(report.ref.threefold_abc) / g1
        err = math.sqrt((s0 / net3_ref) ** 2 + (net3_dip * s1 / net3_ref**2) ** 2)
    elif net3_ref > 0:
        vis, err = 1.0, float("nan")
    else:
        vis, err = float("nan"), float("nan")

    vis2 = 1.0 - net2_dip / net2_ref if net2_ref > 0 else float("nan")

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
    params = compile_scenario(scenario)
    overlap = params.overlap_at(params.delay_mm)
    return CountsReport(
        pulses_simulated=n_pulses,
        seed=seed,
        delay_mm=scenario.delay_mm,
        dip=_sample_leg(params, n_pulses, derive_key(seed, "dip"), overlap),
        ref=_sample_leg(params, n_pulses, derive_key(seed, "ref"), 0.0),
        dark_a=params.dark_a,
        dark_b=params.dark_b,
        dark_c=params.dark_c,
    )


TARGET_SIGMA_V = 0.05
RESOLVABLE_REF_TRIPLES = 10.0


def resolution_warning(scenario: Scenario, n_pulses: int) -> str | None:
    """A one-line warning when n_pulses per leg cannot resolve the dip, else None.

    The reference leg is expected to hold n_pulses * p_gate * P[ABC]
    three-folds.  Below RESOLVABLE_REF_TRIPLES the warning names the pulse
    count that gives a raw-visibility sigma of TARGET_SIGMA_V,
    r sqrt(1/c_dip + 1/c_ref) with r = P_dip / P_ref, and at least
    RESOLVABLE_REF_TRIPLES reference three-folds (a full dip has sigma 0).
    """
    params = compile_scenario(scenario)
    p_dip = float(joint_law(params, params.overlap_at(params.delay_mm))[1, 1, 1].sum())
    p_ref = float(joint_law(params, 0.0)[1, 1, 1].sum())
    ref_triples = n_pulses * params.p_gate * p_ref
    if ref_triples >= RESOLVABLE_REF_TRIPLES:
        return None
    head = f"warning: {n_pulses} pulses give {ref_triples:.3g} expected reference three-folds"
    if p_ref <= 0.0:
        return head + "; the reference three-fold probability is zero"
    needed = max(
        p_dip * (p_dip + p_ref) / p_ref**3 / (params.p_gate * TARGET_SIGMA_V**2),
        RESOLVABLE_REF_TRIPLES / (params.p_gate * p_ref),
    )
    return head + f"; sigma_V = {TARGET_SIGMA_V} needs about {needed:.2g} pulses"


# ---------------------------------------------------------------------------
# Expected rates (exact truncated enumeration) and analytic prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectedRates:
    """Exact per-gated-pulse event probabilities for the compiled model."""

    p_single_a: float
    p_single_b: float
    p_single_c: float
    p_twofold_ab: float
    p_threefold_abc: float


def expected_rates(scenario: Scenario, overlap: float | None = None) -> ExpectedRates:
    """Enumerate the pulse model exactly, pair mass above the cutoff counted at it.

    This is the n -> infinity surrogate for the Monte Carlo engine: the same
    source statistics, routing rules, and detection model, summed over all
    photon patterns instead of sampled.  overlap defaults to the scenario
    delay's.
    """
    params = compile_scenario(scenario)
    return _expected_rates(params, params.overlap_at(params.delay_mm) if overlap is None else overlap)


def _expected_rates(params: SimParams, overlap: float) -> ExpectedRates:
    """expected_rates of a compiled scenario at one temporal overlap."""
    # Photons from the external source at C2 input a: binomial thinning.
    pk_a = np.asarray(apply_loss(PhotonNumberDistribution(tuple(params.pmf_a)), params.q_a).pmf)

    # Joint law of (photons at C2 input b, herald click), correlated through
    # the chip pair number n.
    h_det = params.p_c_arrive * params.eta_c
    pk_b_herald = np.zeros(params.pmf_b.shape[0])
    pk_b = np.zeros(params.pmf_b.shape[0])
    for n, pn in enumerate(params.pmf_b):
        if pn == 0.0:
            continue
        p_click_c = 1.0 - (1.0 - h_det) ** n * (1.0 - params.dark_c)
        for k in range(n + 1):
            b = math.comb(n, k) * params.q_b**k * (1.0 - params.q_b) ** (n - k)
            pk_b[k] += pn * b
            pk_b_herald[k] += pn * b * p_click_c
    p_single_c = float(pk_b_herald.sum())  # includes the dark contribution

    p_det_a = params.s_post * params.eta_a
    p_det_b = params.s_post * params.eta_b
    cross = params.cross2
    bar = 1.0 - cross
    p_coinc = bar * bar + cross * cross - 2.0 * bar * cross * overlap

    max_m = 2 * params.cutoff + 1
    click_a = _clicks(max_m - 1, p_det_a, params.dark_a)[:, 1]
    click_b = _clicks(max_m - 1, p_det_b, params.dark_b)[:, 1]

    def output_stats(ka: int, kb: int) -> tuple[float, float, float]:
        """(P[click A], P[click B], P[click A and B]) for a coupler pattern."""
        if ka == 1 and kb == 1:
            p_bunch = (1.0 - p_coinc) / 2.0
            pa = p_coinc * click_a[1] + p_bunch * (click_a[2] + click_a[0])
            pb = p_coinc * click_b[1] + p_bunch * (click_b[2] + click_b[0])
            pab = (
                p_coinc * click_a[1] * click_b[1]
                + p_bunch * (click_a[2] * click_b[0] + click_a[0] * click_b[2])
            )
            return pa, pb, pab
        pa = pb = pab = 0.0
        for x in range(ka + 1):          # a-photons crossing to output B
            px = math.comb(ka, x) * cross**x * bar ** (ka - x)
            for y in range(kb + 1):      # b-photons crossing to output A
                py = math.comb(kb, y) * cross**y * bar ** (kb - y)
                m_a = ka - x + y
                m_b = x + kb - y
                w = px * py
                pa += w * click_a[m_a]
                pb += w * click_b[m_b]
                pab += w * click_a[m_a] * click_b[m_b]
        return pa, pb, pab

    p_single_a = p_single_b = p_two = p_three = 0.0
    for ka in range(pk_a.shape[0]):
        if pk_a[ka] == 0.0:
            continue
        for kb in range(pk_b.shape[0]):
            if pk_b[kb] == 0.0 and pk_b_herald[kb] == 0.0:
                continue
            pa, pb, pab = output_stats(ka, kb)
            p_single_a += pk_a[ka] * pk_b[kb] * pa
            p_single_b += pk_a[ka] * pk_b[kb] * pb
            p_two += pk_a[ka] * pk_b[kb] * pab
            p_three += pk_a[ka] * pk_b_herald[kb] * pab

    return ExpectedRates(
        float(p_single_a), float(p_single_b), float(p_single_c), float(p_two), float(p_three)
    )


def analytic_visibility(scenario: Scenario) -> float:
    """Closed-form three-fold dip visibility: the statistics factor times the timing factor.

    The statistics factor evaluates the coincidence bounds on the photon
    number distributions presented to coupler C2: the loss-thinned external
    distribution against the chip distribution conditioned on the herald
    click and thinned by the b-arm survival.
    """
    params = compile_scenario(scenario)
    dist_a = _pair_distribution(scenario.external_distribution, scenario.external_source, params.cutoff)
    dist_b = herald_condition(
        _pair_distribution(scenario.chip_distribution, scenario.chip_source, params.cutoff),
        HeraldModel(params.p_c_arrive * params.eta_c, params.dark_c),
    )
    v_stat = v_statistics(apply_loss(dist_a, params.q_a), apply_loss(dist_b, params.q_b))
    return v_stat * params.overlap_peak


# ---------------------------------------------------------------------------
# Dip scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DipScanResult:
    """Per-position three-fold rates with a gaussian fit of the dip."""

    positions_mm: tuple[float, ...]
    rates: tuple[float, ...]
    errors: tuple[float, ...]
    fit: DipFit | None
    fit_failed: str | None


def scan_dip(
    scenario: Scenario,
    positions_mm,
    n_pulses_per_point: int,
    seed: int = 1,
) -> DipScanResult:
    """Scan the delay line and fit the resulting coincidence dip.

    With n_pulses_per_point = 0 the scan is analytic: expected rates are
    evaluated exactly at each position instead of sampling pulses.
    Requires at least 3 positions spanning more than twice the expected dip
    width.  A fit that fails (no convergence, no positive rate, or a
    baseline that is not positive) is reported in fit_failed, with the raw
    samples preserved.
    """
    if not 0 <= n_pulses_per_point <= MAX_PULSES:
        raise ValueError(f"n_pulses_per_point must be in [0, {MAX_PULSES}], got {n_pulses_per_point}")
    positions = [float(x) for x in positions_mm]
    if len(positions) < 3:
        raise ValueError("need at least 3 scan positions")
    params = compile_scenario(scenario)
    span = max(positions) - min(positions)
    if not span > 2.0 * params.fwhm_mm:
        raise ValueError(
            f"scan span {span:.3f} mm must exceed twice the expected width "
            f"({2 * params.fwhm_mm:.3f} mm)"
        )

    rates: list[float] = []
    errors: list[float] = []
    for i, pos in enumerate(positions):
        overlap = params.overlap_at(pos)
        if n_pulses_per_point == 0:
            rates.append(_expected_rates(params, overlap).p_threefold_abc)
            errors.append(0.0)
        else:
            tally = _sample_leg(params, n_pulses_per_point, derive_key(seed, "scan", i), overlap)
            if tally.gated == 0:
                rates.append(0.0)
                errors.append(0.0)
            else:
                rates.append(tally.threefold_abc / tally.gated)
                errors.append(max(tally.threefold_abc, 1) ** 0.5 / tally.gated)

    sigma = None if n_pulses_per_point == 0 else errors
    try:
        fit = fit_dip(positions, rates, errors=sigma, fwhm_guess_mm=params.fwhm_mm)
        failed = None
    except FitFailureError as exc:
        fit = None
        failed = str(exc)
    return DipScanResult(tuple(positions), tuple(rates), tuple(errors), fit, failed)

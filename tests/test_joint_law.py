"""The exact click law behind the Monte Carlo, checked two independent ways.

Deterministically against the truncated enumeration `expected_rates`, and
statistically against the pulse-by-pulse reference sampler in
`pulse_reference`, which draws every photon from `CounterRng`.  The
enumeration itself is held bit-equal to the cell-by-cell reference in
`enumeration_reference`.
"""

import math
import random

import numpy as np
import pytest
from scipy.stats import chi2

from enumeration_reference import _click_probs, reference_rates
from helpers import bench_scenario, case_params, law_cases, random_bench_cases
from pulse_reference import LEDGER, click_table
from relaysim.components import DetectorModel, detector_click_prob, detector_clicks
from relaysim.config import load_preset
from relaysim.montecarlo import (
    _rate_table,
    compile_scenario,
    derive_key,
    expected_rates,
    joint_law,
    run,
    scan_dip,
)
from relaysim.photostats import custom, herald_condition
from relaysim.records import replace

# A correct sampler fails a chi-square check at this p-value once in 1000 seeds.
ALPHA = 1e-3


# ---------------------------------------------------------------------------
# Against the exact enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overlap", [None, 0.0], ids=["dip", "ref"])
@pytest.mark.parametrize("name,scenario,laws", case_params(law_cases()))
def test_law_marginals_match_enumeration(name, scenario, laws, overlap):
    params = compile_scenario(scenario, **laws)
    law = joint_law(params, params.overlap_at(params.delay_mm) if overlap is None else overlap)
    assert law.shape == (2, 2, 2)
    assert law.min() >= 0.0
    assert abs(law.sum() - 1.0) <= 1e-12
    exact = expected_rates(scenario, overlap=overlap, **laws)
    # The worst case over these cases and legs is 6.8e-16.  Power: scaling
    # the overlap by 1 + 1e-13 moves a three-fold or two-fold marginal past
    # 1e-14 in all 13 cases (at 1e-12, only 2 of them).
    for got, want in (
        (law[1].sum(), exact.p_single_a),
        (law[:, 1].sum(), exact.p_single_b),
        (law[:, :, 1].sum(), exact.p_single_c),
        (law[1, 1].sum(), exact.p_twofold_ab),
        (law[1, 1, 1], exact.p_threefold_abc),
    ):
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# The enumeration against its cell-by-cell reference
# ---------------------------------------------------------------------------

# None is the config delay's overlap; 1e-300 is nonzero but below the
# rounding of the one-plus-one coincidence probability.
OVERLAPS = [None, 0.0, 0.37, 1.0, 0.999999, 1e-300]


def test_click_table_matches_reference_bit_for_bit():
    # Both take each power with `**`.  numpy's vectorised `power` rounds
    # about one table in ten of this sample differently on some hosts.  The
    # click law's other readers, the single-detector probability and the
    # herald conditioning, must give the same bits as the table.
    rnd, pmfs = random.Random(31), random.Random(32)
    for _ in range(2000):
        m_max, p_det, dark = rnd.randint(0, 40), rnd.random(), rnd.random() * 1e-3
        want = _click_probs(m_max, p_det, dark)
        assert [c for _, c in detector_clicks(m_max, p_det, dark)] == want
        det = DetectorModel(efficiency=p_det, dark_prob_per_ns=dark, gate_window_ns=1.0)
        assert detector_click_prob(det, m_max) == _click_probs(m_max, p_det, det.dark_prob_per_gate)[-1]
        dist = custom([pmfs.random() for _ in range(m_max + 1)])
        weights = [p * c for p, c in zip(dist.pmf, want)]
        total = sum(weights)
        assert herald_condition(dist, p_det, dark).pmf == tuple(w / total for w in weights)


@pytest.mark.parametrize("overlap", OVERLAPS)
@pytest.mark.parametrize("name,scenario,laws", case_params(law_cases() + random_bench_cases(seed=31, count=4)))
def test_enumeration_matches_reference_bit_for_bit(name, scenario, laws, overlap):
    params = compile_scenario(scenario, **laws)
    at = params.overlap_at(params.delay_mm) if overlap is None else overlap
    assert expected_rates(scenario, overlap=overlap, **laws) == reference_rates(params, at)


@pytest.mark.parametrize("name,scenario,laws", case_params(law_cases()))
def test_rate_table_matches_reference_on_reuse(name, scenario, laws):
    # One table serves every overlap: the one-plus-one row is refilled on each call.
    params = compile_scenario(scenario, **laws)
    rates_at = _rate_table(params)
    for overlap in (1.0, 0.0, 0.37, 1.0):
        assert rates_at(overlap) == reference_rates(params, overlap)


def test_analytic_scan_matches_reference_bit_for_bit():
    cfg = load_preset("paper-fig6")
    params = compile_scenario(cfg)
    positions = np.linspace(cfg.dip_scan_min_mm, cfg.dip_scan_max_mm, cfg.dip_scan_points)
    assert len(positions) == 13
    result = scan_dip(cfg, positions, 0)
    for pos, rate in zip(positions, result.rates):
        assert rate == reference_rates(params, params.overlap_at(float(pos))).p_threefold_abc


# ---------------------------------------------------------------------------
# Against the pulse-by-pulse reference sampler
# ---------------------------------------------------------------------------

def chi_square_p(table: np.ndarray, law: np.ndarray) -> float:
    expected = table.sum() * law
    stat = float(((table - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, law.size - 1))


REFERENCE_PULSES = 600_000


def test_pulse_reference_matches_joint_law():
    """Full 8-cell click table of 6e5 reference pulses against the law.

    Bright thermal sources, dark counts and an unbalanced C2 on the dip
    flank, so multi-photon patterns, the interference term and every
    detector take part.  Power: a relative bias d in the three-fold cell
    alone shifts that cell by d * sqrt(mu) sigma, mu the expected three-fold
    count (about 4200 here), so a bias of 3 / sqrt(mu) = 4.6 % or more is
    caught at 3 sigma.  The photon ledger's expected flows are checked
    against the sampled photon counts with their sample variance.
    """
    sc = replace(
        bench_scenario(0.3, 0.2, eta=0.9, dark_per_ns=1e-3, gate_window_ns=10.0, delay_mm=2.0),
        dip_fwhm_time_ps=20.0,
        coupler_c2_voltage_v=28.0,
    )
    params = compile_scenario(sc)
    overlap = params.overlap_at(params.delay_mm)
    assert 0.3 < overlap < 0.9 and not 0.48 < params.cross2 < 0.52
    table, moments = click_table(params, REFERENCE_PULSES, derive_key(5, "reference"), overlap)
    law = joint_law(params, overlap)

    mu = REFERENCE_PULSES * law[1, 1, 1].sum()
    assert 3.0 / math.sqrt(mu) <= 0.047
    assert chi_square_p(table, law) >= ALPHA

    report = run(sc, REFERENCE_PULSES)
    for name in LEDGER:
        expected = getattr(report.ledger, name) / report.dip.gated
        total, squares = moments[name]
        mean = total / REFERENCE_PULSES
        sigma = math.sqrt((squares / REFERENCE_PULSES - mean * mean) / REFERENCE_PULSES)
        assert abs(mean - expected) <= 4.0 * sigma, name


@pytest.mark.parametrize("factor,caught", [(1.0, False), (0.98, True)])
def test_injected_overlap_bias_is_caught(factor, caught):
    """The reference sampler run at 0.98 of the true overlap must fail the check.

    One photon at most from the external source and mostly single chip
    pairs make the dip deep, so the 2 % overlap cut raises the three-fold
    cell by 10 %; unbiased, the same scenario passes.
    """
    params = compile_scenario(
        bench_scenario(0.1, 0.1, eta=0.9),
        external_distribution=custom([0.5, 0.5]),
        chip_distribution=custom([0.5, 0.45, 0.05]),
    )
    overlap = params.overlap_at(params.delay_mm)
    table, _ = click_table(params, 400_000, derive_key(7, "reference"), factor * overlap)
    assert (chi_square_p(table, joint_law(params, overlap)) < ALPHA) == caught

"""The exact click law behind the Monte Carlo, checked two independent ways.

Deterministically against the truncated enumeration `expected_rates`, and
statistically against the pulse-by-pulse reference sampler in
`pulse_reference`, which draws every photon from `CounterRng`.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import bench_scenario, oracle_scenarios, single_photon_scenario
from pulse_reference import LEDGER, click_table
from relaysim.config import load_preset
from relaysim.montecarlo import compile_scenario, derive_key, expected_rates, joint_law, run
from relaysim.photostats import custom

# A correct sampler fails a chi-square check at this p-value once in 1000 seeds.
ALPHA = 1e-3


def law_cases():
    return [
        *oracle_scenarios(),
        ("darks", bench_scenario(0.02, 0.01, dark_per_ns=1e-4, gate_window_ns=10.0)),
        ("unbalanced_c2", replace(bench_scenario(0.05, 0.02), coupler_c2_voltage_v=20.0)),
        ("bright_darks", bench_scenario(0.05, 0.02, dark_per_ns=1e-4)),
        ("paper-fig6", load_preset("paper-fig6").to_scenario()),
        # Pair distributions shorter and longer than cutoff + 1.
        ("single_photon", single_photon_scenario(0.0)),
        (
            "folded_above_cutoff",
            replace(
                bench_scenario(0.1, 0.1),
                external_distribution=custom([0.5, 0.3, 0.2]),
                chip_distribution=custom([0.6, 0.3, 0.1]),
                pair_number_cutoff=1,
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# Against the exact enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overlap", [None, 0.0], ids=["dip", "ref"])
@pytest.mark.parametrize("name,scenario", law_cases())
def test_law_marginals_match_enumeration(name, scenario, overlap):
    params = compile_scenario(scenario)
    law = joint_law(params, params.overlap_at(params.delay_mm) if overlap is None else overlap)
    assert law.shape == (2, 2, 2)
    assert law.min() >= 0.0
    assert abs(law.sum() - 1.0) <= 1e-12
    exact = expected_rates(scenario, overlap=overlap)
    for got, want in (
        (law[1].sum(), exact.p_single_a),
        (law[:, 1].sum(), exact.p_single_b),
        (law[:, :, 1].sum(), exact.p_single_c),
        (law[1, 1].sum(), exact.p_twofold_ab),
        (law[1, 1, 1], exact.p_threefold_abc),
    ):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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

    leg = run(sc, REFERENCE_PULSES).dip
    for name in LEDGER:
        expected = getattr(leg, name) / leg.gated
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
    sc = replace(
        bench_scenario(0.1, 0.1, eta=0.9),
        external_distribution=custom([0.5, 0.5]),
        chip_distribution=custom([0.5, 0.45, 0.05]),
    )
    params = compile_scenario(sc)
    overlap = params.overlap_at(params.delay_mm)
    table, _ = click_table(params, 400_000, derive_key(7, "reference"), factor * overlap)
    assert (chi_square_p(table, joint_law(params, overlap)) < ALPHA) == caught

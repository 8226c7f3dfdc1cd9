import math

import pytest

from relaysim.photostats import (
    apply_loss,
    custom,
    herald_condition,
    poisson,
    thermal,
)


def brute_force_condition(pmf, eta, dark):
    # Independent oracle: joint weights p(n) * p(click|n), renormalized.
    weights = [p * (1.0 - (1.0 - eta) ** n * (1.0 - dark)) for n, p in enumerate(pmf)]
    total = sum(weights)
    return [w / total for w in weights]


def test_thermal_pmf_frozen_values():
    d = thermal(0.05)
    assert d.p(0) == pytest.approx(0.9523809523809523, rel=1e-12)
    assert d.p(1) == pytest.approx(0.045351473922902494, rel=1e-12)
    assert d.p(2) == pytest.approx(0.0021595939963287, rel=1e-9)
    assert thermal(0.02).p(1) == pytest.approx(0.019223375624759707, rel=1e-12)


def test_thermal_vacuum():
    d = thermal(0.0)
    assert d.p(0) == 1.0
    assert all(d.p(n) == 0.0 for n in range(1, d.n_max + 1))


def mean(dist) -> float:
    return sum(n * p for n, p in enumerate(dist.pmf))


def test_thermal_normalization_and_mean():
    for n_mean in (0.001, 0.02, 0.05, 0.1):
        d = thermal(n_mean)
        assert sum(d.pmf) == pytest.approx(1.0, abs=1e-12)
        assert mean(d) == pytest.approx(n_mean, abs=1e-12)


def test_thermal_identity_p0_p2_equals_p1_squared():
    # The identity behind the exact 1/3 two-fold visibility.
    for n_mean in (0.001, 0.02, 0.05, 0.2):
        d = thermal(n_mean)
        assert d.p(0) * d.p(2) == pytest.approx(d.p(1) ** 2, rel=1e-12)


def test_poisson_frozen_values():
    assert poisson(0.0).p(0) == 1.0
    assert poisson(0.05).p(1) == pytest.approx(math.exp(-0.05) * 0.05, rel=1e-12)
    assert poisson(0.05).p(1) == pytest.approx(0.047561471225035706, rel=1e-12)


def test_poisson_mean_from_moments():
    d = poisson(0.5)
    assert mean(d) == pytest.approx(0.5, abs=1e-12)
    assert sum(d.pmf) == pytest.approx(1.0, abs=1e-12)


def test_laws_keep_what_fits_below_n_max():
    # Just inside the 1e-9 bound: thermal 0.59 loses 9.1e-10, poisson 0.6 2e-25.
    assert sum(thermal(0.59).pmf) >= 1.0 - 1e-9
    assert sum(poisson(0.6).pmf) == pytest.approx(1.0, abs=1e-15)


def test_herald_unit_efficiency_frozen_values():
    # Perfect herald on thermal(0.02): no vacuum; pmf shifts down by one order.
    h = herald_condition(thermal(0.02), 1.0)
    assert h.p(0) == 0.0
    assert h.p(1) == pytest.approx(0.9803921568627453, abs=1e-4)
    assert h.p(2) == pytest.approx(0.0192233756, abs=1e-4)
    oracle = brute_force_condition(thermal(0.02).pmf, 1.0, 0.0)
    for n in range(10):
        assert h.p(n) == pytest.approx(oracle[n], abs=1e-12)


def test_herald_low_efficiency_limit_frozen_values():
    h = herald_condition(thermal(0.02), None)
    assert h.p(0) == 0.0
    assert h.p(1) == pytest.approx(0.961169, abs=1e-6)
    assert h.p(2) == pytest.approx(0.037693, abs=1e-6)


def test_low_efficiency_limit_matches_small_eta():
    d = thermal(0.02)
    limit = herald_condition(d, None)
    small = herald_condition(d, 1e-9)
    for n in range(d.n_max + 1):
        assert small.p(n) == pytest.approx(limit.p(n), abs=1e-8)


def test_herald_never_leaves_vacuum_with_perfect_click():
    for d in (thermal(0.05), poisson(0.1), custom([0.3, 0.5, 0.2])):
        h = herald_condition(d, 1.0)
        assert h.p(0) == 0.0


def test_herald_normalization():
    for eta in (None, 1e-3, 0.3, 1.0):
        for dark in (0.0, 1e-5, 0.1) if eta is not None else (0.0,):
            h = herald_condition(thermal(0.05), eta, dark)
            assert sum(h.pmf) == pytest.approx(1.0, abs=1e-12)


def test_herald_ratio_monotone_in_efficiency():
    # p'(2)/p'(1) weakly decreases as the herald efficiency grows (dark = 0).
    d = thermal(0.05)
    etas = [1e-6, 1e-3, 0.01, 0.1, 0.3, 0.6, 0.9, 1.0]
    ratios = []
    for eta in etas:
        h = herald_condition(d, eta)
        ratios.append(h.p(2) / h.p(1))
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_herald_dark_mixes_unconditioned():
    # With a pure dark click (eta = 0, dark > 0) conditioning changes nothing.
    d = thermal(0.05)
    h = herald_condition(d, 0.0, 0.01)
    for n in range(d.n_max + 1):
        assert h.p(n) == pytest.approx(d.p(n), rel=1e-12)
    # As the efficiency goes to 0 at a fixed dark probability the conditioned
    # law tends to the unconditioned one, not to n p(n)/mean.
    assert herald_condition(thermal(0.02), 1e-12, 0.5).pmf == pytest.approx(thermal(0.02).pmf, rel=1e-9)


def test_apply_loss_thermal_stays_thermal():
    thinned = apply_loss(thermal(0.05), 0.37)
    reference = thermal(0.05 * 0.37)
    for n in range(thinned.n_max + 1):
        assert thinned.p(n) == pytest.approx(reference.p(n), abs=1e-15)


def test_apply_loss_poisson_stays_poisson():
    thinned = apply_loss(poisson(0.2), 0.5)
    reference = poisson(0.1)
    for n in range(thinned.n_max + 1):
        assert thinned.p(n) == pytest.approx(reference.p(n), abs=1e-15)


def test_apply_loss_edge_cases():
    d = thermal(0.05)
    assert apply_loss(d, 1.0).pmf == pytest.approx(d.pmf)
    assert apply_loss(d, 0.0).p(0) == pytest.approx(1.0, abs=1e-12)


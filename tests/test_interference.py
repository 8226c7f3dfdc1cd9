import math

import pytest

from relaysim import interference, photostats
from relaysim.cli import main
from relaysim.interference import (
    FitFailureError,
    dip_profile,
    fit_dip,
    p_coincidence_bounds,
    v_statistics,
    v_timing,
    visibility_map,
)
from relaysim.photostats import custom, herald_condition, thermal
from relaysim.units import SPEED_OF_LIGHT_M_PER_S

# Frozen oracle values for the nominal operating point (hand evaluation of
# the coincidence bounds on thermal(0.05) vs heralded thermal(0.02)).
P_MIN_LOW_ETA = 0.035897993697030256
P_MAX_LOW_ETA = 0.0794884146148527
V_LOW_ETA = 0.5483870967741935


def test_v_timing_limits():
    assert v_timing(0.0, 17.3) == 1.0
    assert v_timing(5.0, 5.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    # The squared ratio overflows here; sqrt(x^2 + 1) rounds to x, so V = 1 / x.
    assert v_timing(1e308, 1.0) == 1e-308


def test_coincidence_bounds_operating_point():
    dist_a = thermal(0.05)
    dist_b = herald_condition(thermal(0.02), None)
    p_min, p_max = p_coincidence_bounds(dist_a, dist_b)
    assert p_min == pytest.approx(P_MIN_LOW_ETA, abs=1e-6)
    assert p_max == pytest.approx(P_MAX_LOW_ETA, abs=1e-6)


def test_coincidence_bounds_against_vacuum():
    dist_a = thermal(0.05)
    vacuum = thermal(0.0)
    p_min, p_max = p_coincidence_bounds(dist_a, vacuum)
    assert p_min == p_max == pytest.approx(dist_a.p(2), rel=1e-12)
    assert v_statistics(dist_a, vacuum) == 0.0


def test_visibility_in_unit_interval_and_product_bound():
    pairs = [
        (thermal(0.05), thermal(0.02)),
        (thermal(0.01), herald_condition(thermal(0.05), 0.4, 1e-4)),
        (custom([0.2, 0.7, 0.1]), custom([0.5, 0.4, 0.1])),
    ]
    for da, db in pairs:
        v_s = v_statistics(da, db)
        assert 0.0 <= v_s <= 1.0


def test_visibility_map_operating_point_low_eta():
    rows = visibility_map([0.05], [0.02])
    assert rows[0][2] == pytest.approx(V_LOW_ETA, abs=1e-3)


def test_visibility_map_monotone_in_nb():
    nb_grid = [0.005, 0.01, 0.02, 0.04, 0.08]
    rows = visibility_map([0.05], nb_grid)
    values = [v for _, _, v in rows]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_visibility_map_cli_builds_each_law_once(monkeypatch, capsys):
    # paper-fig5 maps 20 x 20 means: one thermal law per grid mean and two for
    # the operating-point summary.  Building each twice, once only to name the
    # key of a rejected mean, took 84.
    means = []

    def counted(mean, _original=photostats.thermal):
        means.append(mean)
        return _original(mean)

    for module in (photostats, interference):
        monkeypatch.setattr(module, "thermal", counted)
    assert main(["visibility-map", "--preset", "paper-fig5"]) == 0
    capsys.readouterr()
    assert len(means) == 42


# ---------------------------------------------------------------------------
# Dip profile and fitting
# ---------------------------------------------------------------------------

def test_dip_profile_geometry():
    positions = [x * 0.5 for x in range(-30, 31)]
    prof = dip_profile(0.75, 20.0, 100.0, positions)
    # Path-units FWHM is c * tau: 5.9958 mm for 20 ps.
    assert prof.fwhm_mm == pytest.approx(20e-12 * SPEED_OF_LIGHT_M_PER_S * 1e3, rel=1e-12)
    assert prof.fwhm_mm == pytest.approx(6.0, rel=5e-3)
    # Dip bottom and asymptote.
    bottom, far = dip_profile(0.75, 20.0, 100.0, [0.0, 80.0]).rates
    assert bottom == pytest.approx(100.0 * 0.25, rel=1e-12)
    assert far == pytest.approx(100.0, rel=1e-9)


def test_dip_profile_even_in_position():
    xs = (0.7, 2.0, 5.5)
    prof = dip_profile(0.5, 20.0, 1.0, [*xs, *(-x for x in xs)])
    right, left = prof.rates[: len(xs)], prof.rates[len(xs):]
    for r, l in zip(right, left):
        assert r == pytest.approx(l, rel=1e-12)


def test_dip_profile_flat_when_visibility_zero():
    prof = dip_profile(0.0, 20.0, 42.0, [-5.0, 0.0, 5.0])
    assert all(r == pytest.approx(42.0, rel=1e-12) for r in prof.rates)


def test_fit_recovers_profile_parameters():
    positions = [x * 0.75 for x in range(-16, 17)]
    prof = dip_profile(0.6, 20.0, 250.0, positions)
    fit = fit_dip(prof.positions_mm, prof.rates, 6.0)
    assert fit.visibility == pytest.approx(0.6, rel=1e-6)
    assert fit.fwhm_mm == pytest.approx(prof.fwhm_mm, rel=5e-3)
    assert fit.baseline == pytest.approx(250.0, rel=1e-6)


def test_fit_with_offset_center():
    positions = [x * 0.75 for x in range(-16, 17)]
    fwhm = 20e-12 * SPEED_OF_LIGHT_M_PER_S * 1e3
    rates = [10.0 * (1 - 0.4 * math.exp(-4 * math.log(2) * ((x - 1.5) / fwhm) ** 2)) for x in positions]
    fit = fit_dip(positions, rates, 6.0)
    assert fit.visibility == pytest.approx(0.4, rel=1e-6)
    assert fit.fwhm_mm == pytest.approx(fwhm, rel=1e-6)


def test_fit_failure_reported(monkeypatch):
    with pytest.raises(FitFailureError):
        fit_dip([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 1.0)  # too few points for 4 params
    positions = [x * 1.5 for x in range(-6, 7)]
    with pytest.raises(FitFailureError, match="no positive rate"):
        fit_dip(positions, [0.0] * len(positions), 6.0)
    # An inverted peak fits exactly, but to a negative baseline: no dip.
    rates = [-1.0 + 1.2 * math.exp(-4 * math.log(2) * (x / 6.0) ** 2) for x in positions]
    with pytest.raises(FitFailureError, match="baseline .* is not positive"):
        fit_dip(positions, rates, 6.0)
    # A rate that does not depend on the delay has no dip, and no width to fit.
    with pytest.raises(FitFailureError, match="every rate is equal: no dip to fit"):
        fit_dip(positions, [2.5e-12] * len(positions), 6.0)
    # curve_fit raises when it does not converge; the error names the cause.
    def no_convergence(*args, **kwargs):
        raise RuntimeError("Optimal parameters not found")

    monkeypatch.setattr("scipy.optimize.curve_fit", no_convergence)
    with pytest.raises(FitFailureError, match="did not converge: Optimal parameters not found"):
        fit_dip(positions, [1.0 - 0.5 * math.exp(-4 * math.log(2) * (x / 6.0) ** 2) for x in positions], 6.0)

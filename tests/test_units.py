import math

import pytest

from relaysim.units import (
    SPEED_OF_LIGHT_M_PER_S,
    SpectralMode,
    coherence_time,
    db_to_linear,
    delay_to_path,
)

C = SPEED_OF_LIGHT_M_PER_S


def test_pump_mode_coherence_time():
    # 250 pm gaussian at 766 nm; the transform-limited value, 3.45 ps.
    ct = coherence_time(SpectralMode(766.0, 250.0))
    assert ct == pytest.approx(3.4525, abs=5e-4)


def test_doubling_bandwidth_halves_coherence_time():
    base = coherence_time(SpectralMode(1530.0, 200.0))
    halved = coherence_time(SpectralMode(1530.0, 400.0))
    assert halved == pytest.approx(base / 2.0, rel=1e-12)


def test_coherence_time_is_the_gaussian_transform_limit():
    # The photons are gaussian: time-bandwidth product 0.441.
    ct = coherence_time(SpectralMode(1550.0, 300.0))
    assert ct == pytest.approx(0.441 * 1550e-9**2 / (C * 300e-12) * 1e12, rel=1e-15)


def test_coherence_time_decreasing_in_bandwidth():
    widths = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]
    times = [coherence_time(SpectralMode(1530.0, w)) for w in widths]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_coherence_time_limit_of_a_bandwidth_that_underflows():
    # 5e-324 pm is 0 m: the quotient died with a ZeroDivisionError.
    assert coherence_time(SpectralMode(1530.0, 5e-324)) == math.inf


def test_path_to_delay_quoted_point():
    # 6 mm of free-space path corresponds to 20 ps.
    assert delay_to_path(20.0) == pytest.approx(6.0, abs=0.015)
    assert delay_to_path(20.0) == pytest.approx(20e-12 * C * 1e3, rel=1e-15)


def test_path_to_delay_zero_and_linearity():
    assert delay_to_path(0.0) == 0.0
    assert delay_to_path(10.0) == pytest.approx(delay_to_path(20.0) / 2.0, rel=1e-12)


def test_delay_path_round_trip_within_ulp():
    # Path -> delay by hand, back through delay_to_path: exact to 1 ulp over [0, 1 m].
    xs = [0.0, 1e-6, 0.123, 1.0, 6.0, 47.25, 999.0, 1000.0]
    for x in xs:
        back = delay_to_path(x * 1e-3 / C * 1e12)
        assert abs(back - x) <= math.ulp(max(abs(x), 1e-300)) * 2


def test_db_linear_round_trip():
    for db in (0.0, 0.1, 3.0, 8.5, 30.0):
        assert -10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)
    assert db_to_linear(3.0) == pytest.approx(0.501187, abs=1e-6)

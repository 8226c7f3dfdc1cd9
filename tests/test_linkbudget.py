import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkbudget_reference import midpoint_reach, reference_rates
from relaysim.components import ChipLayout, DetectorModel
from relaysim.linkbudget import (
    VARIANTS,
    LinkParams,
    fig2_models,
    link_rates,
    max_distance,
    sweep,
)


def reference_params(chip_db: float = 9.0) -> LinkParams:
    return LinkParams(layout=ChipLayout(measured_insertion_db=chip_db))


# ---------------------------------------------------------------------------
# Direct link
# ---------------------------------------------------------------------------

def test_direct_normalization_anchor():
    rates = link_rates("direct", reference_params(), 0.0)
    assert rates.normalized_rate == pytest.approx(1.0, rel=1e-12)
    assert rates.accidental_prob < 1e-4 * rates.signal_prob


def test_direct_closed_form_snr_unity_at_250_km():
    # 0.1 * 10^(-0.02 L) = 1e-6 gives exactly 250 km.
    res = max_distance("direct", reference_params())
    assert not math.isinf(res.distance_km)
    assert res.distance_km == pytest.approx(250.0, abs=0.1)
    assert 200.0 <= res.distance_km <= 300.0


def test_direct_log_linear_slope_one_decade_per_50_km():
    params = reference_params()
    r50 = link_rates("direct", params, 50.0).signal_prob
    r100 = link_rates("direct", params, 100.0).signal_prob
    assert r50 / r100 == pytest.approx(10.0, rel=1e-9)


def test_direct_rate_floors_at_dark_level():
    params = reference_params()
    far = link_rates("direct", params, 600.0)
    dark = params.detector.dark_prob_per_gate
    norm = params.mean_photon_per_pulse * params.detector.efficiency + dark
    assert far.normalized_rate == pytest.approx(dark / norm, rel=1e-3)
    assert far.signal_prob < 2e-3 * far.accidental_prob


# ---------------------------------------------------------------------------
# Relay variants
# ---------------------------------------------------------------------------

def test_folded_relay_intercept_below_direct():
    rates = link_rates("folded_relay", reference_params(9.0), 0.0)
    assert rates.normalized_rate < 1.0


def test_distance_gains_against_reference_targets():
    params = reference_params(9.0)
    direct = max_distance("direct", params).distance_km
    lossless = max_distance("folded_relay_lossless", params).distance_km
    realistic = max_distance("folded_relay", params).distance_km
    assert 1.6 <= lossless / direct <= 2.0
    assert 1.25 <= realistic / direct <= 1.55


def test_lossless_relay_dominates_direct():
    for dark in (1e-7, 1e-6, 1e-5):
        params = LinkParams(
            detector=DetectorModel(efficiency=0.1, dark_prob_per_ns=dark, gate_window_ns=1.0),
            layout=ChipLayout(measured_insertion_db=0.0),
        )
        direct = max_distance("direct", params).distance_km
        relay = max_distance("folded_relay", params).distance_km
        assert relay > direct


def test_optimized_position_beats_midpoint():
    params = reference_params(9.0)
    res = max_distance("folded_relay", params)
    assert res.midpoint_distance_km is not None
    assert res.distance_km >= res.midpoint_distance_km - 0.2


@pytest.mark.parametrize(
    "variant,chip_db,dark_per_ns",
    [
        ("standard_relay", 9.0, 1e-6),
        ("folded_relay", 0.0, 1e-6),
        ("folded_relay", 9.0, 1e-6),
        ("folded_relay", 20.0, 1e-5),
        ("folded_relay_lossless", 9.0, 1e-7),
    ],
)
def test_midpoint_reach_equals_reference(variant, chip_db, dark_per_ns):
    # Exact: the reference recomputes the rates at position 0.5 per distance.
    params = LinkParams(
        detector=DetectorModel(efficiency=0.1, dark_prob_per_ns=dark_per_ns, gate_window_ns=1.0),
        layout=ChipLayout(measured_insertion_db=chip_db),
    )
    midpoint = max_distance(variant, params).midpoint_distance_km
    assert midpoint is not None
    assert midpoint == midpoint_reach(variant, params)


def test_lossless_variant_is_the_zero_db_chip():
    lossless = "folded_relay_lossless"
    folded = "folded_relay"
    for x in [5.0 * i for i in range(101)]:  # the paper-fig2 sweep grid
        assert link_rates(lossless, reference_params(9.0), x) == link_rates(
            folded, reference_params(0.0), x
        )


def test_unbounded_distance_flagged():
    params = LinkParams(
        fiber_loss_db_per_km=0.0,
        detector=DetectorModel(efficiency=0.1, dark_prob_per_ns=1e-9, gate_window_ns=1.0),
    )
    res = max_distance("direct", params)
    assert math.isinf(res.distance_km)
    assert res.midpoint_distance_km is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    variant=st.sampled_from(VARIANTS),
    distance_km=st.just(0.0) | st.floats(0.0, 1e4),
    fiber_db_per_km=st.floats(0.0, 1.0),
    efficiency=st.floats(1e-3, 1.0),
    dark_per_ns=st.sampled_from([0.0, 1e-9, 1e-6, 1e-4]),
    gate_ns=st.floats(0.1, 10.0),
    mu=st.floats(1e-3, 5.0),
    nu=st.floats(0.0, 5.0),
    chip_db=st.none() | st.floats(0.0, 20.0),
)
def test_link_rates_equal_reference(
    variant, distance_km, fiber_db_per_km, efficiency, dark_per_ns, gate_ns, mu, nu, chip_db
):
    # The reference recomputes every term per relay position, so hoisting
    # must not move a bit.
    params = LinkParams(
        fiber_loss_db_per_km=fiber_db_per_km,
        detector=DetectorModel(efficiency, dark_per_ns, gate_ns),
        mean_photon_per_pulse=mu,
        relay_pair_mean=nu,
        layout=ChipLayout(measured_insertion_db=chip_db),
    )
    rates = link_rates(variant, params, distance_km)
    assert (rates.signal_prob, rates.accidental_prob, rates.normalized_rate) == reference_rates(
        variant, params, distance_km
    )


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def test_sweep_reproduces_intercepts_and_monotonicity():
    params = reference_params(9.0)
    variants = fig2_models()
    distances = [0.0, 25.0, 50.0, 100.0, 200.0, 300.0, 400.0]
    rows = sweep(variants, params, distances)
    assert variants == ("direct", "standard_relay", "folded_relay", "folded_relay_lossless")
    assert [row[0] for row in rows] == distances
    for i, variant in enumerate(variants, start=1):
        rates = [row[i] for row in rows]
        assert rates[0] == pytest.approx(
            link_rates(variant, params, 0.0).normalized_rate, rel=1e-12
        )
        assert all(a > b for a, b in zip(rates, rates[1:])), variant


def test_relay_curves_cross_direct_dark_floor():
    # Beyond the direct link's dark floor the relay curves keep falling
    # below it, extending the usable range.
    params = reference_params(9.0)
    direct_floor = link_rates("direct", params, 450.0).normalized_rate
    lossless = "folded_relay_lossless"
    assert link_rates(lossless, params, 300.0).normalized_rate > 0.0
    assert link_rates(lossless, params, 450.0).normalized_rate < direct_floor


def test_sweep_validation():
    params = reference_params()
    with pytest.raises(ValueError):
        sweep([], params, [0.0, 10.0])
    with pytest.raises(ValueError):
        sweep(["direct"], params, [])
    with pytest.raises(ValueError):
        link_rates("direct", params, -1.0)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mu,efficiency", [(0.0, 0.1), (1.0, 0.0)])
def test_zero_signal_normalization_rejected(variant, mu, efficiency):
    params = LinkParams(
        detector=DetectorModel(efficiency=efficiency, dark_prob_per_ns=1e-6),
        mean_photon_per_pulse=mu,
    )
    with pytest.raises(ValueError, match="mean_photon_per_pulse \\* link_detector_efficiency is 0"):
        link_rates(variant, params, 10.0)


def test_model_and_params_validation():
    unknown = r"unknown variant 'quantum_carrier_pigeon'; expected one of \('direct', "
    with pytest.raises(ValueError, match=unknown):
        link_rates("quantum_carrier_pigeon", reference_params(), 10.0)
    with pytest.raises(ValueError, match=unknown):
        max_distance("quantum_carrier_pigeon", reference_params())
    with pytest.raises(ValueError, match=unknown):
        sweep(["direct", "quantum_carrier_pigeon"], reference_params(), [0.0])
    with pytest.raises(ValueError):
        LinkParams(fiber_loss_db_per_km=-0.1)

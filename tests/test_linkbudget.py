import math

import pytest

from relaysim.components import ChipLayout, DetectorModel
from relaysim.linkbudget import (
    LinkModel,
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
    rates = link_rates(LinkModel("direct"), reference_params(), 0.0)
    assert rates.normalized_rate == pytest.approx(1.0, rel=1e-12)
    assert rates.accidental_prob < 1e-4 * rates.signal_prob


def test_direct_closed_form_snr_unity_at_250_km():
    # 0.1 * 10^(-0.02 L) = 1e-6 gives exactly 250 km.
    res = max_distance(LinkModel("direct"), reference_params())
    assert not math.isinf(res.distance_km)
    assert res.distance_km == pytest.approx(250.0, abs=0.1)
    assert 200.0 <= res.distance_km <= 300.0


def test_direct_log_linear_slope_one_decade_per_50_km():
    params = reference_params()
    model = LinkModel("direct")
    r50 = link_rates(model, params, 50.0).signal_prob
    r100 = link_rates(model, params, 100.0).signal_prob
    assert r50 / r100 == pytest.approx(10.0, rel=1e-9)


def test_direct_rate_floors_at_dark_level():
    params = reference_params()
    far = link_rates(LinkModel("direct"), params, 600.0)
    dark = params.detector.dark_prob_per_gate
    norm = params.mean_photon_per_pulse * params.detector.efficiency + dark
    assert far.normalized_rate == pytest.approx(dark / norm, rel=1e-3)
    assert far.signal_prob < 2e-3 * far.accidental_prob


# ---------------------------------------------------------------------------
# Relay variants
# ---------------------------------------------------------------------------

def test_folded_relay_intercept_below_direct():
    rates = link_rates(LinkModel("folded_relay"), reference_params(9.0), 0.0)
    assert rates.normalized_rate < 1.0


def test_distance_gains_against_reference_targets():
    params = reference_params(9.0)
    direct = max_distance(LinkModel("direct"), params).distance_km
    lossless = max_distance(LinkModel("folded_relay_lossless"), params).distance_km
    realistic = max_distance(LinkModel("folded_relay"), params).distance_km
    assert 1.6 <= lossless / direct <= 2.0
    assert 1.25 <= realistic / direct <= 1.55


def test_lossless_relay_dominates_direct():
    for dark in (1e-7, 1e-6, 1e-5):
        params = LinkParams(
            detector=DetectorModel(efficiency=0.1, dark_prob_per_ns=dark, gate_window_ns=1.0),
            layout=ChipLayout(measured_insertion_db=0.0),
        )
        direct = max_distance(LinkModel("direct"), params).distance_km
        relay = max_distance(LinkModel("folded_relay"), params).distance_km
        assert relay > direct


def test_optimized_position_beats_midpoint():
    params = reference_params(9.0)
    res = max_distance(LinkModel("folded_relay"), params)
    assert res.midpoint_distance_km is not None
    assert res.distance_km >= res.midpoint_distance_km - 0.2


def test_fixed_relay_position_respected():
    params = reference_params(9.0)
    fixed = max_distance(LinkModel("folded_relay", relay_position=0.5), params)
    optimized = max_distance(LinkModel("folded_relay"), params)
    assert fixed.distance_km == optimized.midpoint_distance_km


def test_lossless_variant_is_the_zero_db_chip():
    lossless = LinkModel("folded_relay_lossless")
    folded = LinkModel("folded_relay")
    for x in [5.0 * i for i in range(101)]:  # the paper-fig2 sweep grid
        assert link_rates(lossless, reference_params(9.0), x) == link_rates(
            folded, reference_params(0.0), x
        )


def test_unbounded_distance_flagged():
    params = LinkParams(
        fiber_loss_db_per_km=0.0,
        detector=DetectorModel(efficiency=0.1, dark_prob_per_ns=1e-9, gate_window_ns=1.0),
    )
    res = max_distance(LinkModel("direct"), params)
    assert math.isinf(res.distance_km)
    assert res.midpoint_distance_km is None


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def test_sweep_reproduces_intercepts_and_monotonicity():
    params = reference_params(9.0)
    models = fig2_models()
    distances = [0.0, 25.0, 50.0, 100.0, 200.0, 300.0, 400.0]
    table = sweep(models, params, distances)
    assert table.labels == ("direct", "standard_relay", "folded_relay", "folded_relay_lossless")
    for label, rates in zip(table.labels, table.rates):
        model = next(m for m in models if m.variant == label)
        assert rates[0] == pytest.approx(
            link_rates(model, params, 0.0).normalized_rate, rel=1e-12
        )
        assert all(a > b for a, b in zip(rates, rates[1:])), label


def test_relay_curves_cross_direct_dark_floor():
    # Beyond the direct link's dark floor the relay curves keep falling
    # below it, extending the usable range.
    params = reference_params(9.0)
    direct_floor = link_rates(LinkModel("direct"), params, 450.0).normalized_rate
    lossless = LinkModel("folded_relay_lossless")
    assert link_rates(lossless, params, 300.0).normalized_rate > 0.0
    assert link_rates(lossless, params, 450.0).normalized_rate < direct_floor


def test_sweep_validation():
    params = reference_params()
    with pytest.raises(ValueError):
        sweep([], params, [0.0, 10.0])
    with pytest.raises(ValueError):
        sweep([LinkModel("direct")], params, [])
    with pytest.raises(ValueError):
        link_rates(LinkModel("direct"), params, -1.0)


def test_model_and_params_validation():
    with pytest.raises(ValueError):
        LinkModel("quantum_carrier_pigeon")
    with pytest.raises(ValueError):
        LinkModel("folded_relay", relay_position=1.5)
    with pytest.raises(ValueError):
        LinkParams(fiber_loss_db_per_km=-0.1)

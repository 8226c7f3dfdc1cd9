"""Scenarios and a closed form shared by the Monte Carlo, acceptance and rejection tests."""

from relaysim.components import ChipLayout, DetectorModel, SpdcSource
from relaysim.config import ScenarioConfig, load_preset
from relaysim.interference import v_statistics
from relaysim.montecarlo import Scenario, compile_scenario
from relaysim.photostats import apply_loss, custom, herald_condition, thermal
from relaysim.records import replace


def lossless_layout() -> ChipLayout:
    return ChipLayout(
        segments={"fiber_to_chip": 0.0, "chip_to_fiber": 0.0, "prop_front": 0.0, "prop_back": 0.0}
    )


def bench_scenario(
    mean_a: float,
    mean_b: float,
    eta: float = 0.8,
    dark_per_ns: float = 0.0,
    gate_window_ns: float = 1.0,
    alice_db: float = 0.0,
    pump_ps: float = 0.0,
    delay_mm: float = 0.0,
    layout: ChipLayout | None = None,
    gate_rate_hz: float = 76e6,
) -> Scenario:
    """Bright bench scenario: every pulse gated, losses and darks as given."""
    det = DetectorModel(efficiency=eta, dark_prob_per_ns=dark_per_ns, gate_window_ns=gate_window_ns)
    return Scenario(
        gate_rate_hz=gate_rate_hz,
        external_source=SpdcSource(pairs_per_mw=mean_a, pump_power_mw=1.0),
        chip_source=SpdcSource(pairs_per_mw=mean_b, pump_power_mw=1.0),
        layout=layout if layout is not None else lossless_layout(),
        alice_arm_loss_db=alice_db,
        detector_a=det,
        detector_b=det,
        detector_c=det,
        pump_duration_ps=pump_ps,
        delay_mm=delay_mm,
    )


def single_photon_scenario(delay_mm: float) -> Scenario:
    """Exactly one photon into each interference port, ideal instruments.

    Coupler C1 at zero bias routes the full chip-pair flux toward the
    interference coupler, so no herald photons exist; the two-fold A&B
    coincidence is the observable.
    """
    one = custom([0.0, 1.0])
    det = DetectorModel(efficiency=1.0, dark_prob_per_ns=0.0, gate_window_ns=1.0)
    return replace(
        ScenarioConfig().to_scenario(),
        gate_rate_hz=76e6,
        external_distribution=one,
        chip_distribution=one,
        coupler_c1_voltage_v=0.0,
        layout=lossless_layout(),
        detector_a=det,
        detector_b=det,
        detector_c=det,
        pump_duration_ps=0.0,
        delay_mm=delay_mm,
    )


def oracle_scenarios() -> list[tuple[str, Scenario]]:
    """Scenarios inside the low-mean-number approximation regime.

    Coupler-level mean photon numbers stay at or below ~0.01 so the two-photon
    truncation behind the closed-form visibility holds well within the Monte
    Carlo resolution at 1e7 gated pulses.
    """
    return [
        ("Na.01_Nb.005", bench_scenario(0.01, 0.005)),
        ("Na.005_Nb.005", bench_scenario(0.005, 0.005)),
        ("Na.02_Nb.01_alice6dB", bench_scenario(0.02, 0.01, alice_db=6.0)),
        ("Na.01_Nb.01_pump2.5ps", bench_scenario(0.01, 0.01, pump_ps=2.5)),
        ("Na.01_Nb.005_dark1e-6", bench_scenario(0.01, 0.005, dark_per_ns=1e-6)),
        ("Na.008_Nb.004_eta.9", bench_scenario(0.008, 0.004, eta=0.9)),
        # Nominal operating-point source statistics under a 10 dB external arm.
        ("Na.05_Nb.02_alice10dB", bench_scenario(0.05, 0.02, alice_db=10.0)),
    ]


def law_cases() -> list[tuple[str, Scenario]]:
    """Named scenarios that every exact-law check runs over."""
    return [
        *oracle_scenarios(),
        ("darks", bench_scenario(0.02, 0.01, dark_per_ns=1e-4, gate_window_ns=10.0)),
        ("unbalanced_c2", replace(bench_scenario(0.05, 0.02), coupler_c2_voltage_v=20.0)),
        ("bright_darks", bench_scenario(0.05, 0.02, dark_per_ns=1e-4)),
        ("paper-fig6", load_preset("paper-fig6").to_scenario()),
        # Pair distributions shorter than N_MAX + 1.
        ("single_photon", single_photon_scenario(0.0)),
    ]


def photostats_closed_form(scenario) -> float:
    """The closed form composed from photostats: the sources' pair laws built
    again, the chip law conditioned on the herald click, then both thinned."""
    params = compile_scenario(scenario)
    dist_a, dist_b = scenario.external_distribution, scenario.chip_distribution
    dist_a = thermal(scenario.external_source.mean_pairs) if dist_a is None else dist_a
    dist_b = thermal(scenario.chip_source.mean_pairs) if dist_b is None else dist_b
    dist_b = herald_condition(dist_b, params.p_c_arrive * params.eta_c, params.dark_c)
    v_stat = v_statistics(apply_loss(dist_a, params.q_a), apply_loss(dist_b, params.q_b))
    return v_stat * params.overlap_peak

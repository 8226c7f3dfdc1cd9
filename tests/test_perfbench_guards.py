"""Guards for what the benchmark under perfbench/ relies on.

The benchmark checks each analytic CLI command's stdout, run with --seed,
against the sha256 in perfbench/cli_contract.json; it passes --workers to
mc-run; its Monte Carlo workloads build their inputs, run the engine and
check the tallies through perfbench/run.py's own functions, and parse the
mc-run report by its field names; and its traced mode wraps every callable
that perfbench/spans.py lists in WRAPPED, looked up by attribute path.
These tests load those files and check them in-process, so a change that
would break the benchmark fails here first.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from relaysim import montecarlo
from relaysim.cli import main
from relaysim.components import DetectorModel
from relaysim.config import ScenarioConfig, load_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONTRACT = json.loads((PERFBENCH / "cli_contract.json").read_text(encoding="utf-8"))


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    # run.py imports its sibling spans.py by bare name.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield load_perfbench("run")


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_cli_contract_digest(name, capsys):
    # The benchmark appends --seed to every contract command.
    entry = CONTRACT[name]
    assert main([*entry["argv"], "--seed", "1"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == entry["bytes"]
    assert hashlib.sha256(out).hexdigest() == entry["sha256"]


def test_mc_run_accepts_workers():
    # The mc-fig6 workload passes --workers 2 to every mc-run.
    assert main(["mc-run", "--preset", "paper-fig6", "--pulses", "1000", "--workers", "2", "--seed", "3"]) == 0


@pytest.mark.parametrize("workload", ["mc-bright", "mc-fig6"])
def test_mc_workload_in_process(bench, workload):
    # The mc-bright operation and the tally check both workloads run.
    inputs = bench._mc_inputs(workload, smoke=True)
    report = montecarlo.run(inputs["scenario"], inputs["pulses"], seed=11, workers=1)
    montecarlo.subtract_accidentals(report)
    assert bench.check_tallies(bench.report_counts(report), inputs) == []


def test_bench_scenarios_are_the_configs_they_state(bench, monkeypatch):
    # mc-bright's bench scenario goes through the `Scenario` shim and mc-fig6's
    # preset through `ScenarioConfig.to_scenario`; neither may change what
    # the engines are given.  The monitor detector is read by nothing.
    stated = ScenarioConfig(
        gate_rate_hz=76e6,
        pump_duration_ps=0.0,
        external_pairs_per_mw=0.01,
        external_pump_power_mw=1.0,
        chip_pairs_per_mw=0.005,
        chip_pump_power_mw=1.0,
        loss_fiber_to_chip_db=0.0,
        loss_chip_to_fiber_db=0.0,
        loss_propagation_front_db=0.0,
        loss_propagation_back_db=0.0,
        detector_efficiency=0.8,
        detector_dark_prob_per_ns=1e-5,
        detector_gate_window_ns=20.0,
    )
    assert bench._bench_scenario() == stated

    shim, records = montecarlo.Scenario, {}
    monkeypatch.setattr(montecarlo, "Scenario", lambda **kwargs: records.update(kwargs))
    bench._bench_scenario()
    assert "detector_monitor" in records
    monitor = DetectorModel(efficiency=0.3, dark_prob_per_ns=1e-3, gate_window_ns=1.0)
    assert shim(**{**records, "detector_monitor": monitor}) == stated
    assert shim(**{**records, "detector_monitor": None}) == stated

    fig6 = load_preset("paper-fig6")
    assert fig6.to_scenario() is fig6


def test_mc_run_report_parses(bench, capsys):
    # The mc-fig6 operation: parse the mc-run report, then check its tallies.
    inputs = bench._mc_inputs("mc-fig6", smoke=True)
    argv = ["mc-run", "--preset", "paper-fig6", "--pulses", str(inputs["pulses"]), "--workers", "2", "--seed", "11"]
    assert main(argv) == 0
    counts = bench.parse_mc_run(capsys.readouterr().out.encode("utf-8"))
    assert bench.check_tallies(counts, inputs) == []


def test_traced_callables_resolve():
    missing = []
    for layer, paths in load_perfbench("spans").WRAPPED.items():
        module = importlib.import_module(f"relaysim.{layer}")
        for path in paths:
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            # The tracer patches the attribute where it is defined.
            if owner is None or attr not in vars(owner):
                missing.append(f"{layer}.{path}")
    assert not missing

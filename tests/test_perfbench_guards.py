"""Guards for what the benchmark under perfbench/ relies on.

The benchmark checks each analytic CLI command's stdout, run with --seed,
against the sha256 in perfbench/cli_contract.json; it passes --workers to
mc-run; and its traced mode wraps every callable that
perfbench/spans.py lists in WRAPPED, looked up by attribute path.  These
tests read both files and check them in-process, so a change that would
break the benchmark fails here first.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from relaysim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONTRACT = json.loads((PERFBENCH / "cli_contract.json").read_text(encoding="utf-8"))


def load_wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


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


def test_traced_callables_resolve():
    missing = []
    for layer, paths in load_wrapped().items():
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

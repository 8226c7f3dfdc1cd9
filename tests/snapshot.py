"""Bit-identity snapshot of the checked CLI outputs and the exact pair-law engines.

Prints one sorted JSON object: for each checked command, the exit status and
the sha256 of stdout and stderr, run in-process through `relaysim.cli.main`;
for each `law_cases()` scenario, the sha256 of `joint_law(...).tobytes()` and
of `repr(expected_rates(...))` at the delay's overlap, 0, 0.37 and 1.

To check that a change moves no byte, run it against both source trees and
diff the outputs:

    PYTHONPATH=<other checkout>/src:tests python tests/snapshot.py > before.json
    PYTHONPATH=src:tests python tests/snapshot.py > after.json
    diff before.json after.json

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from helpers import law_cases
from relaysim.cli import main
from relaysim.config import PRESET_NAMES
from relaysim.montecarlo import compile_scenario, expected_rates, joint_law

CONTRACT = (
    ["spdc-spectrum", "--preset", "paper-fig3"],
    ["coupler-curve", "--preset", "paper-fig4"],
    ["visibility-map", "--preset", "paper-fig5"],
    ["hom-dip", "--preset", "paper-fig6", "--pulses", "0"],
    ["keyrate-sweep", "--preset", "paper-fig2"],
)

# The vanishing-efficiency herald with dark clicks, which has no such limit.
DARK_LIMIT_HERALD = {
    "map_herald_efficiency": None,
    "map_herald_dark_prob": 0.5,
    "map_na_values": [0.05],
    "map_nb_values": [0.02],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commands(config_dir: str) -> list[list[str]]:
    herald_path = os.path.join(config_dir, "dark_limit_herald.json")
    with open(herald_path, "w", encoding="utf-8") as fh:
        json.dump(DARK_LIMIT_HERALD, fh)
    return [
        *(argv + ["--seed", "1"] for argv in CONTRACT),
        *([cmd, "--preset", p] for cmd in ("visibility-map", "keyrate-sweep") for p in PRESET_NAMES),
        ["mc-run", "--preset", "paper-fig6", "--pulses", "5000000000000", "--seed", "1"],
        ["mc-run", "--pulses", "1000000", "--seed", "3"],
        ["mc-run", "--preset", "paper-fig6", "--pulses", "100000000000", "--seed", "2"],
        ["hom-dip", "--preset", "paper-fig6", "--pulses", "1000", "--seed", "1"],
        ["hom-dip", "--pulses", "0"],
        ["visibility-map", "--config", herald_path],
    ]


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return {
        "exit": status,
        "stdout_sha256": _sha(out.getvalue().encode()),
        "stderr_sha256": _sha(err.getvalue().encode()),
    }


def _guarded(compute) -> str:
    """sha256 of compute()'s bytes, or the exception a scenario raises instead."""
    try:
        return _sha(compute())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def snapshot() -> dict:
    entries = {}
    with tempfile.TemporaryDirectory() as config_dir:
        for argv in _commands(config_dir):
            name = " ".join(os.path.basename(a) if a.endswith(".json") else a for a in argv)
            entries[f"cli {name}"] = _run_cli(argv)
    for case, scenario in law_cases():
        params = compile_scenario(scenario)
        for label, overlap in (("delay", None), ("0", 0.0), ("0.37", 0.37), ("1", 1.0)):
            law_overlap = params.overlap_at(params.delay_mm) if overlap is None else overlap
            entries[f"joint_law {case} overlap={label}"] = _guarded(
                lambda: joint_law(params, law_overlap).tobytes()
            )
            entries[f"expected_rates {case} overlap={label}"] = _guarded(
                lambda: repr(expected_rates(scenario, overlap)).encode()
            )
    return entries


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

"""Bit-identity snapshot of the checked CLI outputs and the exact pair-law engines.

Prints one sorted JSON object: for each checked command, the exit status,
the sha256 of stdout and stderr, run in-process through `relaysim.cli.main`,
and every number stdout prints, parsed as a float; for each `law_cases()`
scenario, the sha256 and the values of `joint_law(...)` and of
`expected_rates(...)` at the delay's overlap, 0, 0.37 and 1.  The checked
commands start with the benchmark's pinned ones, read from
`perfbench/cli_contract.json`, each run with `--seed 1`.

To check that a change moves no byte, run it against both source trees and
compare the outputs:

    PYTHONPATH=<other checkout>/src:tests python tests/snapshot.py > before.json
    PYTHONPATH=src:tests python tests/snapshot.py > after.json
    python tests/snapshot.py --diff before.json after.json

`--diff` prints each entry whose digests moved and, for every value that
moved, its old and new value and their distance in units in the last place;
it exits 1 when anything moved and 0 when the snapshots are identical.  An
input it cannot read or compare exits 2 with one `error:` line on stderr, so
a failed diff never reads as a moved entry.  A reader that closes the output
early, like `| head -1`, ends it quietly.

Only building a snapshot imports relaysim and the test helpers, so `--diff`
runs in a bare checkout.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import sys

CONTRACT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "cli_contract.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(text: str) -> list[float]:
    """Every token of text that parses as a number, in order."""
    values = []
    for token in re.split(r"[\s,=:()]+", text):
        try:
            values.append(float(token))
        except ValueError:
            pass
    return values


def _commands() -> list[list[str]]:
    from relaysim.config import PRESET_NAMES

    return [
        *(entry["argv"] + ["--seed", "1"] for entry in _load(CONTRACT_PATH).values()),
        *([cmd, "--preset", p] for cmd in ("visibility-map", "keyrate-sweep") for p in PRESET_NAMES),
        ["mc-run", "--preset", "paper-fig6", "--pulses", "5000000000000", "--seed", "1"],
        ["mc-run", "--pulses", "1000000", "--seed", "3"],
        ["mc-run", "--preset", "paper-fig6", "--pulses", "100000000000", "--seed", "2"],
        ["hom-dip", "--preset", "paper-fig6", "--pulses", "1000", "--seed", "1"],
        ["hom-dip", "--preset", "paper-fig6", "--pulses", "50000000000000", "--seed", "7"],
        ["hom-dip", "--pulses", "0"],
    ]


def _run_cli(argv: list[str]) -> dict:
    from relaysim.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli_main(argv)
    return {
        "exit": status,
        "stdout_sha256": _sha(out.getvalue().encode()),
        "stderr_sha256": _sha(err.getvalue().encode()),
        "stdout_values": _floats(out.getvalue()),
    }


def _guarded(compute) -> dict | str:
    """sha256 and values of compute()'s (bytes, floats), or the exception raised instead."""
    try:
        data, values = compute()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return {"sha256": _sha(data), "values": values}


def snapshot() -> dict:
    from helpers import law_cases
    from relaysim.montecarlo import compile_scenario, expected_rates, joint_law

    entries = {f"cli {' '.join(argv)}": _run_cli(argv) for argv in _commands()}
    for case, scenario, laws in law_cases():
        params = compile_scenario(scenario, **laws)
        for label, overlap in (("delay", None), ("0", 0.0), ("0.37", 0.37), ("1", 1.0)):
            law_overlap = params.overlap_at(params.delay_mm) if overlap is None else overlap
            entries[f"joint_law {case} overlap={label}"] = _guarded(
                lambda: _law_bytes_and_values(joint_law(params, law_overlap))
            )
            entries[f"expected_rates {case} overlap={label}"] = _guarded(
                lambda: _rates_bytes_and_values(expected_rates(scenario, overlap, **laws))
            )
    return entries


def _law_bytes_and_values(law) -> tuple[bytes, list[float]]:
    return law.tobytes(), law.ravel().tolist()


def _rates_bytes_and_values(rates) -> tuple[bytes, list[float]]:
    from relaysim.records import fields

    return repr(rates).encode(), [getattr(rates, f.name) for f in fields(rates)]


def _ordered_bits(x: float) -> int:
    """x's bits as an integer that counts up through the floats in order."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _ulps(old: float, new: float) -> str:
    if math.isnan(old) or math.isnan(new):
        return "nan <-> number"
    return f"{abs(_ordered_bits(new) - _ordered_bits(old))} ulp"


def diff(before: dict, after: dict) -> list[str]:
    """One line per entry whose digests, exit status or error moved, then one per moved value."""
    lines = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name), after.get(name)
        if not isinstance(old, dict) or not isinstance(new, dict):
            if old != new:
                lines.append(f"{name}: {old!r} -> {new!r}")
            continue
        moved = [key for key in sorted(old) if not key.endswith("values") and old[key] != new.get(key)]
        if not moved:
            continue
        lines.append(f"{name}: {', '.join(moved)} moved")
        key = "stdout_values" if "stdout_values" in old else "values"
        old_values, new_values = old[key], new[key]
        if len(old_values) != len(new_values):
            lines.append(f"  {len(old_values)} -> {len(new_values)} values")
            continue
        for i, (a, b) in enumerate(zip(old_values, new_values)):
            if struct.pack("<d", a) != struct.pack("<d", b):
                lines.append(f"  value {i}: {a!r} -> {b!r} ({_ulps(a, b)})")
    return lines


def _write(text: str) -> None:
    """Write text to stdout; a reader that closed early ends the output quietly."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is left to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"] and len(argv) == 3:
        try:
            lines = diff(_load(argv[1]), _load(argv[2]))
        except Exception as exc:  # exit status 1 means "moved": no failure may end with it
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        _write("\n".join(lines) + "\n" if lines else "no entry moved\n")
        return 1 if lines else 0
    if argv:
        print("usage: snapshot.py [--diff BEFORE.json AFTER.json]", file=sys.stderr)
        return 2
    _write(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

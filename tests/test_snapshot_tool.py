"""`tests/snapshot.py --diff` compares two snapshots without importing relaysim or the test helpers."""

import json
import math
import subprocess
import sys
from pathlib import Path

SNAPSHOT_TOOL = Path(__file__).with_name("snapshot.py")

# Block both imports, then run the tool as a script: sys.argv[1:] of the
# child is the tool's path and its arguments.
_BARE_DIFF = (
    "import runpy, sys\n"
    "sys.modules['relaysim'] = sys.modules['helpers'] = None\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
)

BEFORE = {
    "cli mc-run": {"exit": 0, "stdout_sha256": "aa", "stderr_sha256": "bb", "stdout_values": [1.0, 0.5]},
    "expected_rates case overlap=0": {"sha256": "cc", "values": [0.25, 0.125]},
    "joint_law case overlap=0": "ValueError: pmf must sum to ~1",
}


def _bare_diff(tmp_path, before: dict, after: dict) -> subprocess.CompletedProcess:
    paths = []
    for name, snapshot in (("before.json", before), ("after.json", after)):
        path = tmp_path / name
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, "-c", _BARE_DIFF, str(SNAPSHOT_TOOL), "--diff", *paths],
        capture_output=True, text=True, timeout=120,
    )


def test_identical_snapshots_move_nothing(tmp_path):
    proc = _bare_diff(tmp_path, BEFORE, BEFORE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "no entry moved\n"


def test_value_moved_by_one_ulp_is_reported(tmp_path):
    moved = {**BEFORE, "expected_rates case overlap=0": {"sha256": "dd", "values": [0.25, math.nextafter(0.125, 1.0)]}}
    proc = _bare_diff(tmp_path, BEFORE, moved)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0] == "expected_rates case overlap=0: sha256 moved"
    assert "value 1: 0.125 -> 0.12500000000000003 (1 ulp)" in proc.stdout


def test_moved_error_and_new_entry_are_reported(tmp_path):
    after = {
        **BEFORE,
        "joint_law case overlap=0": "ValueError: pmf has a negative entry",
        "joint_law case overlap=1": {"sha256": "ee", "values": [1.0]},
    }
    proc = _bare_diff(tmp_path, BEFORE, after)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "joint_law case overlap=0: 'ValueError: pmf must sum to ~1' -> 'ValueError: pmf has a negative entry'",
        "joint_law case overlap=1: None -> {'sha256': 'ee', 'values': [1.0]}",
    ]

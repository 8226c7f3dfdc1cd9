"""`tests/snapshot.py --diff` compares two snapshots without importing relaysim or the test helpers.

It exits 0 when nothing moved, 1 when an entry moved, and 2 when an input
cannot be read.
"""

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


def _bare_diff_argv(*paths) -> list[str]:
    return [sys.executable, "-c", _BARE_DIFF, str(SNAPSHOT_TOOL), "--diff", *map(str, paths)]


def _snapshot_paths(tmp_path, before: dict, after: dict) -> list[Path]:
    paths = []
    for name, snapshot in (("before.json", before), ("after.json", after)):
        path = tmp_path / name
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        paths.append(path)
    return paths


def _bare_diff(tmp_path, before: dict, after: dict) -> subprocess.CompletedProcess:
    argv = _bare_diff_argv(*_snapshot_paths(tmp_path, before, after))
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


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


def test_unreadable_input_exits_2_with_one_line(tmp_path):
    # A crash exited 1, the status of a moved entry, so CI read it as a diff.
    before, _ = _snapshot_paths(tmp_path, BEFORE, BEFORE)
    missing = tmp_path / "missing.json"
    proc = subprocess.run(_bare_diff_argv(before, missing), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == (
        "", f"error: FileNotFoundError: [Errno 2] No such file or directory: {str(missing)!r}\n"
    )


def test_closed_stdout_ends_the_diff_quietly(tmp_path):
    # A reader that closes early, like `| head -1`, ended in a BrokenPipeError traceback.
    after = {**BEFORE, "expected_rates case overlap=0": {"sha256": "dd", "values": [0.5, 0.25]}}
    proc = subprocess.Popen(
        _bare_diff_argv(*_snapshot_paths(tmp_path, BEFORE, after)), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1

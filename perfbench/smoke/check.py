"""Smoke check of the benchmark at tiny sizes.

usage: python3 perfbench/smoke/check.py

Runs every workload of BENCHMARK.json once untraced and once traced with
`--smoke` (small pulse counts, one sample of each extra measurement) and a
one-second loop.  Fails if a run exits non-zero, reports a failed output
check, or leaves out a metric named in BENCHMARK.json or its unit.  Last, it
runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        metric = got.get(name)
        if metric is None:
            problems.append(f"{where}: metric {name} missing")
        elif not metric.get("unit") or metric["unit"] != unit:
            problems.append(f"{where}: metric {name} unit {metric.get('unit')!r}, want {unit!r}")
        elif not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} value {metric.get('value')!r}")
    for name in set(got) - set(wanted):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")
    return problems


def check_bare() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            found = check_result(workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    found = check_bare()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

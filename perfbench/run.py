"""relaysim benchmark: three closed-loop workloads, end to end and layer by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1} [--smoke]

Workloads (one client, one operation at a time):
  cli-analytic  a fresh `python -m relaysim.cli` per operation, cycling the five
                analytic figure studies; import dominates, no pulse is sampled.
  mc-bright     in-process `montecarlo.run` + `subtract_accidentals` on an
                all-gated bench scenario with dark counts: the per-pulse photon
                loops and the counter hash.
  mc-fig6       a fresh `mc-run --preset paper-fig6 --workers 2` per operation:
                the paper operating point, where 0.79 % of pulses are gated and
                the gate draw, batch grid and worker pool dominate.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics from
a run that alternates untraced and traced operations.  The last line of
standard output is the JSON result; a results file with the machine, the
versions and every operation goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import FIELDS, Tracer, read_spill, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli-analytic", "mc-bright", "mc-fig6")

# Requested pulses per operation (per leg: run() simulates the dip and the
# reference leg with this many pulses each).  mc-bright stays inside one
# batch of the engine's 2**21-pulse grid; mc-fig6 spans five batches.
PULSES = {"mc-bright": 700_000, "mc-fig6": 10_000_000}
SMOKE_PULSES = {"mc-bright": 50_000, "mc-fig6": 500_000}
FIG6_WORKERS = min(2, os.cpu_count() or 1)

# Each tally is checked against the exact enumeration: the observed count
# must not fall in either Poisson tail below this probability (|z| ~ 6 in the
# normal limit), so a correct engine fails about once in 1e8 tally checks.
TAIL_PROB = 1e-9
TALLIES = ("singles_a", "singles_b", "singles_c", "twofold_ab", "threefold_abc")
TARGET_SIGMA_V = 0.05

# op_s.tail: the highest of p50/p75/p90/p95/p99 that kept at least ten samples
# beyond it over the operation counts of 30 s runs on a 2-vCPU host whose
# speed drifted by up to 40 % (cli-analytic 24-41 ops, mc-bright about 50-95,
# mc-fig6 17-25).  It is fixed per workload, so it cannot switch between runs
# as the count drifts; each run records how many samples lie beyond it.
TAIL_PERCENTILE = {"cli-analytic": 50.0, "mc-bright": 75.0, "mc-fig6": 50.0}

SETUP_SAMPLES = 5          # this process plus four fresh set-up probes
STARTUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
SCALING_PAIRS = 3
CHILD_TIMEOUT_S = 100.0

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
))


# ---------------------------------------------------------------------------
# Set-up: import relaysim and build the workload's inputs
# ---------------------------------------------------------------------------

def _bench_scenario():
    """Criterion 11's bench scenario: every pulse gated, lossless chip, darks on."""
    from relaysim.components import ChipLayout, DetectorModel, SpdcSource
    from relaysim.montecarlo import Scenario

    det = DetectorModel(efficiency=0.8, dark_prob_per_ns=1e-5, gate_window_ns=20.0)
    return Scenario(
        gate_rate_hz=76e6,
        external_source=SpdcSource(pairs_per_mw=0.01, pump_power_mw=1.0),
        chip_source=SpdcSource(pairs_per_mw=0.005, pump_power_mw=1.0),
        layout=ChipLayout(
            segments={"fiber_to_chip": 0.0, "chip_to_fiber": 0.0, "prop_front": 0.0, "prop_back": 0.0}
        ),
        detector_a=det,
        detector_b=det,
        detector_c=det,
        detector_monitor=det,
        pump_duration_ps=0.0,
    )


def _mc_inputs(name: str, smoke: bool) -> dict:
    from relaysim.config import load_preset
    from relaysim.montecarlo import compile_scenario, expected_rates

    scenario = _bench_scenario() if name == "mc-bright" else load_preset("paper-fig6").to_scenario()
    params = compile_scenario(scenario)
    legs = {}
    for leg, overlap in (("dip", None), ("ref", 0.0)):
        rates = expected_rates(scenario, overlap=overlap)
        legs[leg] = {
            "singles_a": rates.p_single_a,
            "singles_b": rates.p_single_b,
            "singles_c": rates.p_single_c,
            "twofold_ab": rates.p_twofold_ab,
            "threefold_abc": rates.p_threefold_abc,
        }
    pulses = (SMOKE_PULSES if smoke else PULSES)[name]
    return {
        "scenario": scenario,
        "pulses": pulses,
        "p_gate": params.p_gate,
        "pump_rate_hz": scenario.pump_repetition_rate_hz,
        "expected": legs,
    }


def setup(name: str, smoke: bool) -> tuple[float, dict]:
    """Import relaysim and build the inputs; returns (seconds, inputs)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import relaysim

    if name == "cli-analytic":
        # The five analytic figure studies and the sha256 of each one's output.
        contract = json.loads((HERE / "cli_contract.json").read_text(encoding="utf-8"))
        inputs = {"commands": list(contract.values())}
    else:
        inputs = _mc_inputs(name, smoke)
    seconds = time.perf_counter() - t0
    if not Path(relaysim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: relaysim imported from {relaysim.__file__}, not from {SRC}")
    return seconds, inputs


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def spawn(argv: list[str]) -> dict:
    """Run a child to completion: wall seconds, exit code, output, peak RSS.

    The child is reaped with wait4, whose usage covers the child and the
    pool workers it waited for, so peak RSS is the largest process of the tree.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "seconds": seconds,
            "code": proc.returncode,
            "stdout": out.read(),
            "stderr": err.read().decode(errors="replace"),
            "rss_kb": usage.ru_maxrss,
        }


def cli_argv(args: list[str], spill_dir: Path | None = None, op: int = 0) -> list[str]:
    if spill_dir is None:
        return [sys.executable, "-m", "relaysim.cli", *args]
    return [sys.executable, str(HERE / "traced_cli.py"), str(spill_dir), str(op), *args]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def poisson_tails(observed: int, mean: float) -> tuple[float, float]:
    """(P[X <= observed], P[X >= observed]) for X ~ Poisson(mean)."""
    from scipy.special import pdtr, pdtrc

    lower = float(pdtr(observed, mean))
    upper = 1.0 if observed <= 0 else float(pdtrc(observed - 1, mean))
    return lower, upper


def check_tallies(counts: dict, inputs: dict, n_ops: int = 1) -> list[str]:
    """Problems with the tallies of n_ops operations against the exact expectation."""
    problems = []
    pulses, p_gate = inputs["pulses"] * n_ops, inputs["p_gate"]
    for leg in ("dip", "ref"):
        gated = counts[leg]["gated"]
        if p_gate >= 1.0:
            if gated != pulses:
                problems.append(f"{leg}.gated {gated} != {pulses}")
        elif min(poisson_tails(gated, pulses * p_gate)) < TAIL_PROB:
            problems.append(f"{leg}.gated {gated} vs expected {pulses * p_gate:.1f}")
        for tally in TALLIES:
            mean = inputs["expected"][leg][tally] * gated
            observed = counts[leg][tally]
            if min(poisson_tails(observed, mean)) < TAIL_PROB:
                problems.append(f"{leg}.{tally} {observed} vs expected {mean:.3f}")
    return problems


def report_counts(report) -> dict:
    return {
        leg: {"gated": t.gated, **{k: getattr(t, k) for k in TALLIES}}
        for leg, t in (("dip", report.dip), ("ref", report.ref))
    }


def parse_mc_run(stdout: bytes) -> dict:
    """Tallies from `mc-run` structured-text output."""
    fields = dict(line.split(": ", 1) for line in stdout.decode().splitlines())
    return {
        "dip": {"gated": int(fields["gated_pulses"]), **{k: int(fields[k]) for k in TALLIES}},
        "ref": {"gated": int(fields["ref_gated_pulses"]), **{k: int(fields["ref_" + k]) for k in TALLIES}},
    }


def power_table(inputs: dict) -> dict:
    """Smallest relative bias one operation's check would catch, per tally.

    With |z| ~ 6 the check catches a bias of about 6 / sqrt(expected count).
    """
    gated = inputs["pulses"] * inputs["p_gate"]
    table = {}
    for leg in ("dip", "ref"):
        for tally in TALLIES:
            mean = inputs["expected"][leg][tally] * gated
            table[f"{leg}.{tally}"] = {
                "expected_per_op": mean,
                "detectable_relative_bias": 6.0 / math.sqrt(mean) if mean > 0 else None,
            }
    return table


def sigma_v(gated_dip: float, gated_ref: float, expected: dict) -> float:
    """Raw-visibility sigma that counts with the exact expected rates would give."""
    p_dip = expected["dip"]["threefold_abc"]
    p_ref = expected["ref"]["threefold_abc"]
    r = p_dip / p_ref
    return r * math.sqrt(1.0 / (gated_dip * p_dip) + 1.0 / (gated_ref * p_ref))


def resolution_record(inputs: dict) -> dict:
    """Reference triples per operation and the pulses a sigma_V target needs."""
    expected, p_gate, pulses = inputs["expected"], inputs["p_gate"], inputs["pulses"]
    p_dip = expected["dip"]["threefold_abc"]
    p_ref = expected["ref"]["threefold_abc"]
    r = p_dip / p_ref
    needed = r * r * (1.0 / p_dip + 1.0 / p_ref) / (p_gate * TARGET_SIGMA_V**2)
    return {
        "ref_triple_prob_per_gate": p_ref,
        "dip_triple_prob_per_gate": p_dip,
        "expected_ref_triples_per_op": pulses * p_gate * p_ref,
        "expected_sigma_v_per_op": sigma_v(pulses * p_gate, pulses * p_gate, expected),
        "target_sigma_v": TARGET_SIGMA_V,
        "pulses_per_leg_for_target": needed,
        "hours_of_experiment_for_target": needed / inputs["pump_rate_hz"] / 3600.0,
        "formula": "sigma_V = r*sqrt(1/c_dip + 1/c_ref), r = p_dip/p_ref, c = pulses*p_gate*p",
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Workload:
    """One closed-loop client: `op(i, traced)` runs and checks operation i."""

    def __init__(self, name: str, seed: int, inputs: dict, tracer: Tracer | None):
        self.name = name
        self.seed = seed
        self.inputs = inputs
        self.tracer = tracer
        self.spill_dir = OUT / f"spill-{name}-{os.getpid()}"

    def op_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def op(self, i: int, traced: bool) -> dict:
        if self.name == "mc-bright":
            return self._op_bright(i, traced)
        if traced:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        spill = self.spill_dir if traced else None
        if self.name == "cli-analytic":
            commands = self.inputs["commands"]
            command = commands[(self.seed + i) % len(commands)]
            child = spawn(cli_argv([*command["argv"], "--seed", str(self.seed)], spill, i))
            problems = [] if child["code"] == 0 else [f"exit {child['code']}: {child['stderr'][-300:]}"]
            digest = hashlib.sha256(child["stdout"]).hexdigest()
            if digest != command["sha256"]:
                problems.append(f"{command['argv'][0]} output sha256 {digest} != {command['sha256']}")
            result = {"command": command["argv"][0], "counts": None}
        else:
            child = spawn(cli_argv(self.fig6_args(i, FIG6_WORKERS), spill, i))
            problems, counts = self._check_fig6(child)
            result = {"command": "mc-run", "counts": counts}
        result.update(
            seconds=child["seconds"],
            problems=problems,
            rss_kb=child["rss_kb"],
            output_bytes=len(child["stdout"]),
            spans=read_spill(self.spill_dir) if traced else [],
        )
        return result

    def fig6_args(self, i: int, workers: int) -> list[str]:
        return [
            "mc-run", "--preset", "paper-fig6",
            "--pulses", str(self.inputs["pulses"]),
            "--workers", str(workers),
            "--seed", str(self.op_seed(i)),
        ]

    def _check_fig6(self, child: dict) -> tuple[list[str], dict | None]:
        if child["code"] != 0:
            return [f"exit {child['code']}: {child['stderr'][-300:]}"], None
        try:
            counts = parse_mc_run(child["stdout"])
        except (KeyError, ValueError) as exc:
            return [f"unreadable mc-run output: {exc!r}"], None
        return check_tallies(counts, self.inputs), counts

    def _op_bright(self, i: int, traced: bool) -> dict:
        from relaysim import montecarlo

        if traced:
            self.tracer.op = i
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            report = montecarlo.run(self.inputs["scenario"], self.inputs["pulses"], seed=self.op_seed(i))
            montecarlo.subtract_accidentals(report)
            seconds = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        counts = report_counts(report)
        spans = []
        if traced:
            spans, self.tracer.spans = self.tracer.spans, []
        return {
            "command": "run",
            "seconds": seconds,
            "problems": check_tallies(counts, self.inputs),
            "rss_kb": None,
            "output_bytes": 0,
            "counts": counts,
            "spans": spans,
        }

    def close(self) -> None:
        if self.spill_dir.exists():
            read_spill(self.spill_dir)
            self.spill_dir.rmdir()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile q (0-100) of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def closed_loop(workload: Workload, seconds: float, traced_pairs: bool) -> list[dict]:
    """Run operations back to back for `seconds`.

    With traced_pairs, operation i runs untraced and traced with the same
    inputs, in alternating order, so the pair measures the tracing overhead.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not ops:
        if traced_pairs:
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = {traced: workload.op(i, traced) for traced in order}
            if pair[False]["counts"] != pair[True]["counts"]:
                pair[True]["problems"].append("traced tallies differ from untraced")
            for traced in order:
                ops.append(dict(pair[traced], index=i, traced=traced))
        else:
            ops.append(dict(workload.op(i, False), index=i, traced=False))
        i += 1
    return ops


def setup_samples(name: str, seed: int, first: float, samples: int, smoke: bool) -> list[float]:
    values = [first]
    for _ in range(samples - 1):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
        child = spawn(argv + (["--smoke"] if smoke else []))
        if child["code"] != 0:
            raise SystemExit(f"error: set-up probe failed: {child['stderr'][-500:]}")
        values.append(json.loads(child["stdout"].decode().splitlines()[-1])["setup_s"])
    return values


def python_startup(samples: int) -> float:
    return statistics.median(spawn([sys.executable, "-c", "pass"])["seconds"] for _ in range(samples))


def import_times(samples: int) -> dict:
    """Cumulative import time of relaysim and scipy.optimize from -X importtime."""
    found = {"relaysim": [], "scipy.optimize": []}
    for _ in range(samples):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import relaysim"])
        for line in child["stderr"].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def scaling(workload: Workload, pairs: int) -> tuple[float, list[str]]:
    """t(1 worker) / (2 t(2 workers)) for one operation, and determinism problems."""
    if FIG6_WORKERS < 2:
        return 0.0, []
    t1, t2, problems = [], [], []
    for k in range(pairs):
        outputs = {}
        for workers in (1, 2) if k % 2 == 0 else (2, 1):
            if workload.name == "mc-bright":
                from relaysim import montecarlo

                t0 = time.perf_counter()
                report = montecarlo.run(
                    workload.inputs["scenario"], workload.inputs["pulses"],
                    seed=workload.op_seed(k), workers=workers,
                )
                (t1 if workers == 1 else t2).append(time.perf_counter() - t0)
                outputs[workers] = report_counts(report)
            else:
                child = spawn(cli_argv(workload.fig6_args(k, workers)))
                (t1 if workers == 1 else t2).append(child["seconds"])
                outputs[workers] = (child["code"], child["stdout"])
        if outputs[1] != outputs[2]:
            problems.append(f"scaling pair {k}: output differs between 1 and 2 workers")
    return statistics.median(t1) / (2.0 * statistics.median(t2)), problems


def end_to_end(ops: list[dict], setup_values: list[float], q: float) -> tuple[dict, dict]:
    times = [op["seconds"] for op in ops]
    rss = [op["rss_kb"] for op in ops if op["rss_kb"] is not None]
    peak_kb = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = percentile(times, q)
    metrics = {
        "setup_s": (statistics.median(setup_values), "s"),
        "op_s.p50": (percentile(times, 50.0), "s"),
        "op_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {
        "tail_percentile": q,
        "samples": len(times),
        "samples_beyond_tail": sum(t > tail for t in times),
        "setup_samples_s": setup_values,
    }
    return metrics, info


def per_layer(workload: Workload, ops: list[dict], smoke: bool) -> tuple[dict, dict]:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)
    s = summarize([span for op in traced for span in op["spans"]])
    ft, fs, calls, counts = s["func_time"], s["func_self"], s["calls"], s["counts"]
    layer = s["layer_self"]
    is_mc = workload.name != "cli-analytic"
    pulses = workload.inputs["pulses"] if is_mc else 0

    untraced_p50 = percentile([op["seconds"] for op in untraced], 50.0)
    traced_p50 = percentile([op["seconds"] for op in traced], 50.0)
    startup = python_startup(1 if smoke else STARTUP_SAMPLES)
    imports = import_times(1 if smoke else IMPORTTIME_SAMPLES)
    eff, scaling_problems = scaling(workload, 1 if smoke else SCALING_PAIRS) if is_mc else (0.0, [])

    draws = counts.get("montecarlo.CounterRng.uniform", 0)
    attempted_pulses = 2 * pulses * n
    gated = [(op["counts"]["dip"]["gated"], op["counts"]["ref"]["gated"]) for op in traced if op["counts"]]
    ref_triples = sum(op["counts"]["ref"]["threefold_abc"] for op in traced if op["counts"])
    metrics = {
        "python.startup_s": (startup, "s"),
        "import.relaysim_s": (imports["relaysim"], "s"),
        "import.scipy_optimize_s": (imports["scipy.optimize"], "s"),
        "config.load_s": (layer["config"] / n, "s/op"),
        "components.calibrate_s": (ft.get("components.calibrate_coupler", 0.0) / n, "s/op"),
        "components.calibrate.calls": (calls.get("components.calibrate_coupler", 0) / n, "calls/op"),
        "components.spectral_density_s": (ft.get("components.spdc_spectral_density", 0.0) / n, "s/op"),
        "components.self_s": (layer["components"] / n, "s/op"),
        "photostats.s": (layer["photostats"] / n, "s/op"),
        "interference.visibility_map_s": (ft.get("interference.visibility_map", 0.0) / n, "s/op"),
        "interference.fit_dip_s": (ft.get("interference.fit_dip", 0.0) / n, "s/op"),
        "interference.fit_failures": (s["errors"].get("interference.fit_dip", 0) / n, "count/op"),
        "interference.self_s": (layer["interference"] / n, "s/op"),
        "montecarlo.compile_s": (ft.get("montecarlo.compile_scenario", 0.0) / n, "s/op"),
        "montecarlo.expected_rates_s": (ft.get("montecarlo.expected_rates", 0.0) / n, "s/op"),
        "montecarlo.expected_rates.calls": (calls.get("montecarlo.expected_rates", 0) / n, "calls/op"),
        "montecarlo.sample_s": (fs.get("montecarlo.run", 0.0) / n, "s/op"),
        "montecarlo.rng_s": (ft.get("montecarlo.CounterRng.uniform", 0.0) / n, "s/op"),
        "montecarlo.rng_draws": (draws / n, "count/op"),
        "montecarlo.draws_per_pulse": (draws / attempted_pulses if attempted_pulses else 0.0, "count"),
        "montecarlo.gated_fraction": (
            sum(map(sum, gated)) / attempted_pulses if attempted_pulses else 0.0, "ratio"),
        "montecarlo.scaling_eff_2w": (eff, "ratio"),
        "montecarlo.ref_triples": (ref_triples / n if is_mc else 0.0, "count/op"),
        "montecarlo.sigma_v": (
            statistics.fmean(sigma_v(g0, g1, workload.inputs["expected"]) for g0, g1 in gated)
            if gated else 0.0, "ratio"),
        "montecarlo.self_s": (layer["montecarlo"] / n, "s/op"),
        "linkbudget.sweep_s": (ft.get("linkbudget.sweep", 0.0) / n, "s/op"),
        "linkbudget.max_distance_s": (ft.get("linkbudget.max_distance", 0.0) / n, "s/op"),
        "linkbudget.max_distance.calls": (calls.get("linkbudget.max_distance", 0) / n, "calls/op"),
        "linkbudget.self_s": (layer["linkbudget"] / n, "s/op"),
        "cli.self_s": (layer["cli"] / n, "s/op"),
        "cli.output_bytes": (statistics.fmean(op["output_bytes"] for op in traced), "bytes/op"),
        "trace.overhead": (traced_p50 / untraced_p50, "ratio"),
        "pulses_per_s": (pulses / untraced_p50, "1/s"),
        "error_rate": (sum(bool(op["problems"]) for op in ops) / len(ops), "ratio"),
    }
    info = {
        "traced_ops": n,
        "untraced_ops": len(untraced),
        "scaling_problems": scaling_problems,
        "zero": [name for name, (value, _) in metrics.items() if value == 0],
    }
    return metrics, info


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "relaysim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(name: str) -> int | None:
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": _cache_bytes("SC_LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _cache_bytes("SC_LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relaysim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one sample of each extra")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "relaysim" / "__init__.py").is_file():
        print(f"error: no relaysim sources under {SRC}", file=sys.stderr)
        return 2

    first_setup, inputs = setup(args.workload, args.smoke)
    if args.setup_probe:
        print(json.dumps({"setup_s": first_setup}))
        return 0

    workload = Workload(args.workload, args.seed, inputs, Tracer() if args.trace else None)
    try:
        ops = closed_loop(workload, args.seconds, traced_pairs=bool(args.trace))
        if args.trace:
            metrics, info = per_layer(workload, ops, args.smoke)
        else:
            setup_values = setup_samples(
                args.workload, args.seed, first_setup, 1 if args.smoke else SETUP_SAMPLES, args.smoke
            )
            metrics, info = end_to_end(ops, setup_values, TAIL_PERCENTILE[args.workload])
    finally:
        workload.close()

    failed_ops = [op for op in ops if op["problems"]]
    problems = [p for op in failed_ops for p in op["problems"]] + info.get("scaling_problems", [])
    # The same check on the sum over the run's independent operations (a
    # traced op repeats its untraced twin) catches a bias sqrt(n) times smaller.
    sampled = [op["counts"] for op in ops if op["counts"] and not op["traced"]]
    if sampled:
        pooled = {
            leg: {k: sum(c[leg][k] for c in sampled) for k in ("gated", *TALLIES)}
            for leg in ("dip", "ref")
        }
        problems += [f"pooled over {len(sampled)} ops: {p}" for p in check_tallies(pooled, inputs, len(sampled))]
    pulses = inputs.get("pulses", 0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_record(),
        "pulses_per_op": pulses,
        "workers": FIG6_WORKERS if args.workload == "mc-fig6" else 1,
        "check": {
            "rule": "each tally vs expected_rates x gated, both Poisson tails >= "
            f"{TAIL_PROB:g} (|z| ~ 6), per op and pooled over the run's untraced ops; "
            "cli output sha256 vs cli_contract.json",
            "power": power_table(inputs) if pulses else None,
            "pooled_ops": len(sampled),
        },
        "resolution": resolution_record(inputs) if pulses else None,
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems[:50],
        "ops": [
            {k: op[k] for k in ("index", "traced", "command", "seconds", "rss_kb", "output_bytes")}
            | {"ok": not op["problems"]}
            for op in ops
        ],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for op in ops:
                for span in op["spans"]:
                    fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")

    if "tail_percentile" in info:
        print(
            f"op_s.tail is p{info['tail_percentile']:g} of {info['samples']} operations, "
            f"{info['samples_beyond_tail']} beyond it"
        )
    if record["resolution"]:
        res = record["resolution"]
        print(
            f"expected reference triples per op {res['expected_ref_triples_per_op']:.4g}; "
            f"sigma_V={TARGET_SIGMA_V} needs {res['pulses_per_leg_for_target']:.3g} pulses per leg"
        )
    for problem in problems[:5]:
        print(f"check failed: {problem}")
    print(f"results: {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": record["metrics"],
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each relaysim module from outside
the package and records one span per call: name, layer, start, end and the
span that was open when the call began.  The layer of a span is the module
that defines the function.  `units` holds sub-microsecond conversions and is
not wrapped, so its time counts as self time of its callers.

Spans stay in memory.  A process forked from the traced one (a Monte Carlo
pool worker) has no way back to the parent's memory, so it appends each span
to a JSON-lines file in the spill directory as the span closes; workers leave
through `os._exit`, so nothing may wait for an exit hook.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# Wrapped callables per layer, as attribute paths inside relaysim.<layer>.
WRAPPED = {
    "config": (
        "load_preset",
        "load_config",
        "parse_config",
        "ScenarioConfig.to_scenario",
        "ScenarioConfig.to_link_params",
    ),
    "components": (
        "calibrate_coupler",
        "spdc_spectral_density",
        "chip_insertion_loss",
        "detector_click_prob",
    ),
    "photostats": ("thermal", "poisson", "custom", "herald_condition", "apply_loss"),
    "interference": ("visibility_map", "v_statistics", "v_timing", "fit_dip", "dip_profile"),
    "montecarlo": (
        "compile_scenario",
        "expected_rates",
        "run",
        "scan_dip",
        "subtract_accidentals",
        "analytic_visibility",
        "CounterRng.uniform",
    ),
    "linkbudget": ("sweep", "max_distance", "link_rates", "fig2_models"),
    "cli": ("main",),
}


# Work counted on a span, from the call's arguments: draws per uniform call.
_COUNTERS = {"montecarlo.CounterRng.uniform": lambda args, kwargs: len(args[1])}

# Span tuple fields.
OP, PID, ID, PARENT, NAME, LAYER, T0, T1, COUNT, ERROR = range(10)
FIELDS = ("op", "pid", "id", "parent", "name", "layer", "t0", "t1", "count", "error")


class Tracer:
    """Records spans around relaysim's public functions while installed."""

    def __init__(self, spill_dir: str | None = None, op: int = 0):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.op = op
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._spill = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # First call in a forked worker: the inherited stack and spans
            # belong to the parent, which records them itself.
            self.pid = pid
            self.spans = []
            self._stack = []
            self._spill = open(
                os.path.join(self.spill_dir, f"spans-{pid}.jsonl"), "a", buffering=1
            )

    def _close(self, span: tuple) -> None:
        if self._spill is not None:
            self._spill.write(json.dumps(dict(zip(FIELDS, span))) + "\n")
        else:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, count: int = 0):
        """Record a span around a block of the caller's own code."""
        self._check_fork()
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = None
        t0 = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close((self.op, self.pid, sid, parent, name, layer, t0, t1, count, error))

    def _wrap(self, layer: str, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            with self.span(name, layer, count):
                return fn(*args, **kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every wrapped callable, including names other modules imported."""
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "relaysim"]
        for layer, paths in WRAPPED.items():
            module = importlib.import_module(f"relaysim.{layer}")
            for path in paths:
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                traced = self._wrap(layer, f"{layer}.{path}", original)
                self._patch(owner, attr, traced)
                if owner is module:
                    for other in loaded:
                        for key, value in list(vars(other).items()):
                            if value is original and other is not module:
                                self._patch(other, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self) -> None:
        """Write this process's spans to the spill directory."""
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def read_spill(spill_dir: str) -> list[tuple]:
    """Load and remove every span file a traced process left in spill_dir."""
    spans = []
    for name in sorted(os.listdir(spill_dir)):
        path = os.path.join(spill_dir, name)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                spans.append(tuple(record[f] for f in FIELDS))
        os.remove(path)
    return spans


def summarize(spans: list[tuple]) -> dict:
    """Self time per layer, time and counts per function, for one set of spans.

    A span's self time is its duration minus the durations of its direct
    children (calls in one process run one at a time, so children never
    overlap).  A function's time is the duration of its outermost calls, so a
    recursive or re-entrant call is not counted twice.  Span ids are unique
    per (op, pid): a process id can come back in a later operation.
    """
    by_key = {(s[OP], s[PID], s[ID]): s for s in spans}
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            key = (s[OP], s[PID], s[PARENT])
            child_time[key] = child_time.get(key, 0.0) + (s[T1] - s[T0])

    layer_self = {layer: 0.0 for layer in WRAPPED}
    func_self: dict[str, float] = {}
    func_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    errors: dict[str, int] = {}
    for s in spans:
        duration = s[T1] - s[T0]
        own = duration - child_time.get((s[OP], s[PID], s[ID]), 0.0)
        layer_self[s[LAYER]] += own
        name = s[NAME]
        func_self[name] = func_self.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[COUNT]
        if s[ERROR] is not None:
            errors[name] = errors.get(name, 0) + 1
        parent = s[PARENT]
        outermost = True
        while parent is not None:
            ancestor = by_key[(s[OP], s[PID], parent)]
            if ancestor[NAME] == name:
                outermost = False
                break
            parent = ancestor[PARENT]
        if outermost:
            func_time[name] = func_time.get(name, 0.0) + duration
    return {
        "layer_self": layer_self,
        "func_self": func_self,
        "func_time": func_time,
        "calls": calls,
        "counts": counts,
        "errors": errors,
    }

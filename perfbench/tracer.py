"""Span tracer that times twotone's layers from outside the package.

Each traced function is replaced, wherever callers look it up (its defining
module and every twotone module that imported the name), by a wrapper that
records a span: name, start, end, parent span and pass id. Spans stay in
memory until the worker writes them out at exit; per-layer figures are
derived from them afterwards, so no file of the package changes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass


def _freq_points(args, kwargs, result):
    return {"freq_points": int(result.freq.size)}


def _probe_points(args, kwargs, result):
    return {"freq_points": int(result.size)}


def _csv_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


def _zero_area(args, kwargs, result):
    return {"zero_area": int(result.zero_area)}


def _truncation(args, kwargs, result):
    return {"truncation": int(result.n_trunc)}


# Traced layers, as "module.function" under the twotone package, with an
# optional function that turns (args, kwargs, result) into work counts.
LAYERS = {
    "config.load_config": None,
    "analytic.quadrature_variances": None,
    "dynamics.build_linear_model": None,
    "dynamics.steady_covariance": None,
    "dynamics.output_spectrum": _freq_points,
    "dynamics.driven_response": _probe_points,
    "dynamics.transparency_window_fwhm": None,
    "oracle.build_liouvillian": None,
    "oracle.steady_state": None,
    "oracle.converged_steady_state": _truncation,
    "synthesis.synthesize": None,
    "synthesis.write_noisy_csv": _csv_bytes,
    "inference.fit_lorentzian": _zero_area,
    "inference.write_fit_records": None,
    "scenarios.run_scenario": None,
}

PASS = "pass"


@dataclass
class Span:
    """One traced call. ``ok`` is false if it raised; ``counts`` holds work counts."""

    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    ok: bool
    counts: dict


class Tracer:
    """Records spans around the calls into each layer while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._pass_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for qualified, count in LAYERS.items():
            module_name, func_name = qualified.split(".")
            fn = getattr(sys.modules[f"twotone.{module_name}"], func_name)
            originals[id(fn)] = self._wrap(qualified, fn, count)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "twotone" or name.startswith("twotone.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _open(self, name: str) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open(name)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = count(args, kwargs, result) if ok and count else {}
                self.spans[index] = Span(name, start, end, parent, self._pass_id, ok, counts)

        return traced

    def run_pass(self, pass_id: int, body):
        """Call ``body()`` inside a root span that tags its spans with ``pass_id``."""
        self._pass_id = pass_id
        index, parent = self._open(PASS)
        start = time.perf_counter()
        try:
            return body()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(PASS, start, end, parent, pass_id, True, {})
            self._pass_id = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_totals(spans: list[Span], pass_id: int) -> dict:
    """Per-layer calls, busy and self time, and work counts of one pass.

    Self time is a span's duration minus the part covered by its child
    spans. ``covered_s`` is the time spent inside layers called directly
    from the pass.
    """
    child_time: dict[int, float] = {}
    members = [(i, s) for i, s in enumerate(spans) if s.pass_id == pass_id]
    for _, s in members:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    root = next(i for i, s in members if s.name == PASS)
    totals: dict[str, dict] = {}
    covered = 0.0
    for i, s in members:
        if s.name == PASS:
            continue
        duration = s.end - s.start
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += duration
        t["self_s"] += duration - child_time.get(i, 0.0)
        for key, value in s.counts.items():
            if key == "truncation":
                t[key] = max(t.get(key, 0), value)
            else:
                t[key] = t.get(key, 0) + value
        if s.parent == root:
            covered += duration
    totals[PASS] = {"wall_s": spans[root].end - spans[root].start, "covered_s": covered}
    return totals

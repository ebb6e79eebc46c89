"""Per-layer tracing of chcsim from outside the package.

``Tracer.install`` replaces the public functions and ``Engine`` methods
listed in ``LAYERS`` by wrappers that time each call and accumulate its self
time (its duration minus the time of traced calls made inside it) under the
layer's name, plus exact work counts taken from the call's arguments or
result.  ``uninstall`` puts the originals back, so untraced and traced runs
alternate in one process.  Every call site in chcsim looks these names up
through the module at call time, which is what makes the patch effective.
All workloads run with one worker thread; the span stack is not thread safe.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict


def _rows(arr) -> int:
    return math.prod(arr.shape[:-1])


# (chcsim module, attribute, layer, counter(args, result) -> {count name: amount})
LAYERS = (
    ("spectral", "synthesize_many", "spectral.synthesize",
     lambda a, r: {"spectral.synthesize_rows": _rows(a[0])}),
    ("spectral", "analyze_many", "spectral.analyze",
     lambda a, r: {"spectral.analyze_rows": _rows(a[0])}),
    ("spectral", "seminorm_sq_many", "spectral.seminorm",
     lambda a, r: {"spectral.seminorm_calls": 1}),
    ("potential", "nonlinearity_grid", "potential.nonlinearity",
     lambda a, r: {"potential.nonlinearity_points": a[0].size}),
    ("potential", "nonlinearity_poly", "potential.nonlinearity", None),
    ("potential", "free_energy_many", "potential.free_energy", None),
    ("dynamics", "Engine.scatter_noise", "dynamics.scatter", None),
    ("dynamics", "Engine.advance", "dynamics.advance",
     lambda a, r: {"dynamics.row_steps": _rows(a[1])}),
    ("dynamics", "Engine.h_integrands", "dynamics.budget", None),
    ("dynamics", "Engine.mart_weights", "dynamics.budget", None),
    ("dynamics", "simulate", "dynamics.self",
     lambda a, r: {"dynamics.retries": r.stiff_retries}),
    ("dynamics", "run_ensemble", "dynamics.self",
     lambda a, r: {"dynamics.failed_rows": r.n_failed}),
    ("coupling", "coupled_ensemble", "coupling.self",
     lambda a, r: {"dynamics.failed_rows": r.n_failed}),
    ("coupling", "girsanov_gap", "coupling.self", None),
    ("ergodics", "time_average", "ergodics.time_average", None),
    ("observables", "evaluate", "observables.evaluate", None),
    ("runner", "write_csv", "runner.write", None),
    ("runner", "write_json", "runner.write", None),
    ("runner", "run", "runner.self", None),
)

TIME_METRICS = sorted({layer + "_s" for _, _, layer, _ in LAYERS} | {"noise.draw_s"})
# runner.bytes_written is added by the benchmark from the run directory
COUNT_METRICS = (
    "spectral.synthesize_rows", "spectral.analyze_rows", "spectral.seminorm_calls",
    "potential.nonlinearity_points", "noise.normals", "noise.streams",
    "dynamics.row_steps", "dynamics.retries", "dynamics.failed_rows",
)


class _TracedGenerator:
    """A noise stream whose normal draws are timed and counted."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = self._tracer.open_span()
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close_span("noise.draw", t0)
        self._tracer.counts["noise.normals"] += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Self times and counts of one traced operation, keyed by layer name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list = []

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    def open_span(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def close_span(self, layer: str, t0: float):
        duration = time.perf_counter() - t0
        self.self_s[layer] += duration - self._stack.pop()
        if self._stack:
            self._stack[-1] += duration

    def _wrap(self, fn, layer, counter):
        def traced(*args, **kwargs):
            t0 = self.open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(layer, t0)
            if counter is not None:
                for name, amount in counter(args, result).items():
                    self.counts[name] += amount
            return result

        return traced

    def _stream(self, fn):
        def traced(*args, **kwargs):
            t0 = self.open_span()
            try:
                gen = fn(*args, **kwargs)
            finally:
                self.close_span("noise.draw", t0)
            self.counts["noise.streams"] += 1
            return _TracedGenerator(gen, self)

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for module, path, layer, counter in LAYERS:
            owner = importlib.import_module(f"chcsim.{module}")
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], layer, counter))
        noise = importlib.import_module("chcsim.noise")
        self._patch(noise, "stream", self._stream(noise.stream))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        out = {name: self.self_s.get(name[:-2], 0.0) for name in TIME_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out

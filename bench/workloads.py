"""The benchmark's three workloads: chc-sim configs generated from a seed.

Each workload is one real experiment kind.  The seed becomes the config's
noise seed and also draws the initial amplitudes (and, for the ergodic
workload, the conserved mean), so one seed always gives the same config.
Everything else is fixed here and recorded in the README.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

THREADS = 1  # worker threads of every workload; BLAS is pinned to 1 thread too
NOISE = "b = 1:1.0\nb = 2:1.0\nN = 2\n"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    config_text: str
    replicas: int  # rows whose noise streams the run draws
    rows: int  # state rows advanced per step
    steps: int
    check: Callable[[Path], list[str]]  # run directory -> failure messages


def _modes(M: int, amplitudes: dict) -> np.ndarray:
    x = np.zeros(M + 1)
    for k, v in amplitudes.items():
        x[k] += v
    return x


def _spec(amplitudes: dict) -> str:
    return "modes:" + ",".join(f"{k}={v!r}" for k, v in amplitudes.items())


def _b(M: int) -> np.ndarray:
    b = np.zeros(M + 1)
    b[1:3] = 1.0
    return b


def _read_json(directory, name):
    with open(f"{directory}/{name}", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(directory, name) -> dict:
    with open(f"{directory}/{name}", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


def coupled_batch(seed: int) -> Workload:
    """girsanov: 500 coupled pairs at M = 32, Q = 132, n = 4, band N = 2."""
    rng = random.Random(seed)
    M, R, dt, steps, lam, N = 32, 500, 1e-4, 300, 1.0, 2
    y_amp = {1: rng.uniform(0.008, 0.012)}
    text = (
        f"kind = girsanov\nM = {M}\nQ = 132\ndt = {dt!r}\nT = {steps * dt!r}\nc = 0\n"
        f"lambda = {lam!r}\npotential = poly\nn = 4\n{NOISE}seed = {seed}\n"
        f"replicas = {R}\nsave_every = 100\nthreads = {THREADS}\n"
        f"x0 = const\ny0 = {_spec(y_amp)}\n"
    )
    x0, y0 = _modes(M, {}), _modes(M, y_amp)

    def check(directory):
        report = _read_json(directory, "girsanov.json")
        return checks.check_girsanov(report, x0, y0, _b(M), lam, N, R)

    return Workload("coupled_batch", "girsanov", text, R, 2 * R, steps, check)


def linear_ensemble(seed: int) -> Workload:
    """lintest: potential off, M = 8, 5000 replicas as in configs/lintest.cfg."""
    rng = random.Random(seed)
    M, R, dt, steps, save_every = 8, 5000, 5e-5, 2000, 100
    amp = {1: rng.uniform(0.3, 0.5), 2: rng.uniform(-0.3, -0.1)}
    text = (
        f"kind = lintest\nM = {M}\ndt = {dt!r}\nT = {steps * dt!r}\nc = 0\n"
        f"lambda = 0\npotential = off\n{NOISE}seed = {seed}\nreplicas = {R}\n"
        f"save_every = {save_every}\nthreads = {THREADS}\nx0 = {_spec(amp)}\n"
    )
    x0 = _modes(M, amp)

    def check(directory):
        report = _read_json(directory, "lintest.json")
        curve = _read_csv(directory, "ensemble_norm.csv")
        return checks.check_lintest(report, curve, x0, _b(M), dt, steps, save_every, R)

    return Workload("linear_ensemble", "lintest", text, R, R, steps, check)


def ergodic_paths(seed: int) -> Workload:
    """ergodic: two far-apart starts +-x at M = 32, 5000 steps each."""
    rng = random.Random(seed)
    M, dt, steps, lam = 32, 1e-3, 5000, 1.0
    c = rng.uniform(-0.2, 0.2)
    a1, a2 = rng.uniform(0.25, 0.35), rng.uniform(0.05, 0.15)
    text = (
        f"kind = ergodic\nM = {M}\ndt = {dt!r}\nT = {steps * dt!r}\nc = {c!r}\n"
        f"lambda = {lam!r}\npotential = poly\nn = 4\n{NOISE}seed = {seed}\n"
        f"save_every = 10\nthreads = {THREADS}\n"
        f"x0 = {_spec({1: a1, 2: a2})}\nx0 = {_spec({1: -a1, 2: -a2})}\n"
        "observable = mean\nobservable = seminorm_sq:1\n"
        "observable = seminorm_sq:-1\nobservable = energy\n"
    )

    def check(directory):
        return checks.check_ergodic(_read_json(directory, "ergodic.json"), c, lam, _b(M))

    return Workload("ergodic_paths", "ergodic", text, 2, 2, steps, check)


BUILDERS = {
    "coupled_batch": coupled_batch,
    "linear_ensemble": linear_ensemble,
    "ergodic_paths": ergodic_paths,
}

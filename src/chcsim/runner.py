"""Run a validated config through its kind; write its artifacts and a manifest.

Every run gets its own directory named by the config hash (never
overwritten); outputs are CSV/JSON with deterministic float formatting, and
the manifest is written last as the commit marker.  (config, seed)
determines every emitted byte except the wall-clock fields of the manifest.
A kind that reads ``replicas`` draws that many replica streams, any other
one per start.  ``emit_plotdata`` takes a series from the first CSV output
whose header has a ``t`` column and the series.

Exit-code contract (enforced by the CLI): 2 config error, 3 stiff event,
4 failed in-run assertion, 0 otherwise.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_observable, build_state, config_hash, emit_config
from .kinds import KINDS


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunManifest:
    path: str
    directory: str
    config_hash: str
    outputs: list
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _run_directory(cfg: ExperimentConfig, override_out: str | None) -> str:
    base = override_out or cfg.out
    os.makedirs(base, exist_ok=True)
    stem = f"{cfg.kind}-{config_hash(cfg)}"
    candidate = os.path.join(base, stem)
    suffix = 1
    while True:
        try:  # claim the name by creating it: another run may take it first
            os.makedirs(candidate)
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = os.path.join(base, f"{stem}-r{suffix}")


class _Outputs:
    """Writes a run's artifacts into its directory and lists them in order."""

    def __init__(self, directory: str):
        self.directory = directory
        self.names: list[str] = []

    def _path(self, name: str) -> str:
        self.names.append(name)
        return os.path.join(self.directory, name)

    def csv(self, name: str, header: list[str], columns: list[np.ndarray]):
        write_csv(self._path(name), header, columns)

    def json(self, name: str, payload: dict):
        write_json(self._path(name), payload)

    def text(self, name: str, text: str):
        with open(self._path(name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run(cfg: ExperimentConfig, override_out: str | None = None) -> RunManifest:
    """Execute one experiment; returns the manifest (written last)."""
    t_start = time.time()
    kind = KINDS[cfg.kind]
    out = _Outputs(_run_directory(cfg, override_out))
    sim = cfg.sim
    states = [build_state(s, sim, slot) for slot, s in enumerate(cfg.x0)]
    y_state = build_state(cfg.y0, sim, len(cfg.x0)) if cfg.y0 is not None else None
    phis = tuple(build_observable(s, sim.M) for s in cfg.observables)
    checks, extra = kind.run(cfg, states, y_state, phis, out)

    manifest_payload = {
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.time() - t_start,
        "kind": cfg.kind,
        "seed": sim.seed,
        "config": emit_config(cfg),
        "replica_streams": {
            "scheme": "philox, key = [seed, replica]",
            "seed": sim.seed,
            "first": 0,
            "count": cfg.replicas if "replicas" in kind.reads else len(cfg.x0),
        },
        "outputs": out.names,
        "checks": checks,
        "passed": all(checks.values()),
        "extra": extra,
    }
    manifest_path = os.path.join(out.directory, "manifest.json")
    write_json(manifest_path, manifest_payload)
    return RunManifest(
        path=manifest_path,
        directory=out.directory,
        config_hash=manifest_payload["config_hash"],
        outputs=out.names,
        checks=checks,
    )


def emit_plotdata(manifest_path: str, series: str, out_path: str | None = None) -> str:
    """Extract one series from a run as plot-ready CSV.

    The series comes from the first CSV output whose header has both ``t``
    and the series.  Adds a log10 hint column for strictly positive series (the decay
    plots) and carries envelope columns along when the source defines them.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    directory = os.path.dirname(os.path.abspath(manifest_path))
    for name in manifest["outputs"]:
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                if series != "t" and "t" in header and series in header:
                    table = dict(zip(header, np.loadtxt(fh, delimiter=",", ndmin=2).T))
                    break
    else:
        raise KeyError(f"series {series!r} is not a column of any CSV output with a t column")

    header = ["t", series]
    columns = [table["t"], table[series]]
    for env_name in ("growth_envelope", "gronwall_envelope", "se"):
        if env_name in table and env_name != series:
            header.append(env_name)
            columns.append(table[env_name])
    values = table[series]
    if np.all(values > 0):
        header.append(f"log10_{series}")
        columns.append(np.log10(values))
    if out_path is None:
        out_path = os.path.join(directory, f"plot_{series}.csv")
    write_csv(out_path, header, columns)
    return out_path

"""Experiment dispatch: run a validated config, emit artifacts and a manifest.

Every run gets its own directory named by the config hash (never
overwritten); outputs are CSV/JSON with deterministic float formatting, and
the manifest is written last as the commit marker.  (config, seed)
determines every emitted byte except the wall-clock fields of the manifest.

Exit-code contract (enforced by the CLI): 2 config error, 3 stiff event,
4 failed in-run assertion, 0 otherwise.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.stats

from . import __version__
from . import coupling, dynamics, ergodics, noise, observables, potential, spectral
from .config import (
    ConfigError,
    ExperimentConfig,
    build_observable,
    build_state,
    config_hash,
    emit_config,
)
from .errors import CheckFailure

LIPSCHITZ_TOL = 0.05


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
    while os.path.exists(candidate):
        suffix += 1
        candidate = os.path.join(base, f"{stem}-r{suffix}")
    os.makedirs(candidate)
    return candidate


def _write_trajectory_csv(path: str, traj: dynamics.Trajectory):
    names = ["mean", "norm_m1", "norm_1", "sup", "energy"]
    write_csv(
        path,
        ["t"] + names,
        [traj.times] + [traj.observables[n] for n in names],
    )


def _write_snapshots(path: str, traj: dynamics.Trajectory):
    payload = {
        "M": traj.config.M,
        "times": [float(t) for t in traj.times],
        "coeffs": [[float(v) for v in row] for row in traj.states],
    }
    write_json(path, payload)


def _mass_ok(traj: dynamics.Trajectory) -> bool:
    return bool(np.max(np.abs(traj.observables["mean"] - traj.config.c)) <= 1e-12)


def _default_ergodic_observables():
    return (
        observables.seminorm_sq(-1.0),
        observables.mode_moment(1, 2),
        observables.energy(),
    )


def run(cfg: ExperimentConfig, override_out: str | None = None) -> RunManifest:
    """Execute one experiment; returns the manifest (written last)."""
    t_start = time.time()
    directory = _run_directory(cfg, override_out)
    outputs: list[str] = []
    checks: dict[str, bool] = {}
    extra: dict = {}
    sim = cfg.sim

    def emit(name):
        outputs.append(name)
        return os.path.join(directory, name)

    states = [build_state(s, sim, slot) for slot, s in enumerate(cfg.x0)]
    y_state = build_state(cfg.y0, sim, len(cfg.x0)) if cfg.y0 is not None else None
    phis = tuple(build_observable(s) for s in cfg.observables)

    if cfg.kind == "simulate":
        traj = dynamics.simulate(states[0], sim)
        _write_trajectory_csv(emit("trajectory.csv"), traj)
        if cfg.save_states:
            _write_snapshots(emit("snapshots.json"), traj)
        checks["mass_conservation"] = _mass_ok(traj)

    elif cfg.kind == "pair":
        traj_x, traj_y, dist = dynamics.simulate_pair(states[0], y_state, sim)
        lam = sim.potential.lam if sim.potential.active else 0.0
        envelope = dist[0] * np.exp(lam * traj_x.times) * (1.0 + LIPSCHITZ_TOL)
        write_csv(
            emit("distance.csv"),
            ["t", "dist_m1", "growth_envelope"],
            [traj_x.times, dist, envelope],
        )
        _write_trajectory_csv(emit("trajectory_x.csv"), traj_x)
        _write_trajectory_csv(emit("trajectory_y.csv"), traj_y)
        checks["mass_conservation"] = _mass_ok(traj_x) and _mass_ok(traj_y)
        checks["lipschitz_growth"] = bool(np.all(dist <= envelope + 1e-300))

    elif cfg.kind == "couple":
        record = coupling.simulate_coupled(
            states[0], y_state, sim, cfg.band, check=False
        )
        write_csv(
            emit("coupling.csv"),
            ["t", "dist_m1", "control_sq_integral", "log_weight"],
            [record.times, record.dist_m1, record.control_sq_integral, record.log_weight],
        )
        envelope = record.decay_envelope(coupling.CONTRACTION_TOL)
        checks["contraction_pathwise"] = bool(np.all(record.dist_m1 <= envelope + 1e-300))
        fitted = record.fitted_rate()
        checks["fitted_rate"] = bool(fitted >= 0.9 * record.rate.operational)
        extra["rates"] = {
            "nominal": record.rate.nominal,
            "operational": record.rate.operational,
            "fitted": fitted,
            "kappa": record.kappa,
        }

    elif cfg.kind == "girsanov":
        gg = coupling.girsanov_gap(
            states[0], y_state, sim, cfg.band, cfg.replicas, threads=cfg.threads
        )
        write_json(
            emit("girsanov.json"),
            {
                "estimate": gg.estimate,
                "se": gg.se,
                "bound": gg.bound,
                "martingale_mean": gg.martingale_mean,
                "martingale_se": gg.martingale_se,
                "kappa": gg.kappa,
                "delta": gg.delta,
                "dist0": gg.dist0,
                "replicas": gg.replicas,
            },
        )
        checks["martingale_unit_mean"] = bool(
            abs(gg.martingale_mean - 1.0) <= 3.0 * gg.martingale_se + 1e-12
        )
        checks["gap_below_bound"] = bool(gg.estimate <= gg.bound + 3.0 * gg.se)

    elif cfg.kind == "asf":
        phi = phis[0] if phis else observables.tanh_mode(1)
        rows = coupling.asf_estimate(
            phi, states[0], y_state, cfg.times, sim, cfg.band, cfg.replicas,
            threads=cfg.threads,
        )
        write_json(
            emit("asf.json"),
            {
                "observable": phi.name,
                "rows": [
                    {"t": r.t, "lhs": r.lhs, "se": r.se, "bound": r.bound} for r in rows
                ],
            },
        )
        checks["smoothing_bound"] = all(r.lhs <= r.bound + 3.0 * r.se for r in rows)

    elif cfg.kind == "ergodic":
        phi_list = phis or _default_ergodic_observables()
        report = ergodics.uniqueness_evidence(
            states, phi_list, sim, N=cfg.band, burn_in=cfg.burn_in, threads=cfg.threads
        )
        write_json(emit("ergodic.json"), report.to_dict())
        with open(emit("ergodic.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.render_text() + "\n")
        checks["start_independence"] = report.consistent is not False

    elif cfg.kind == "irreducibility":
        t_eval = cfg.times[0]
        rows = []
        for i, x0 in enumerate(states):
            probe = ergodics.exit_probability(
                x0, cfg.radius, t_eval, sim, cfg.replicas, threads=cfg.threads
            )
            rows.append(
                {
                    "start": cfg.x0[i],
                    "estimate": probe.estimate,
                    "se": probe.se,
                    "lower95": probe.lower95,
                    "hits": probe.hits,
                    "replicas": probe.replicas,
                }
            )
        write_json(
            emit("irreducibility.json"),
            {"t": t_eval, "radius": cfg.radius, "rows": rows},
        )
        checks["reachable_from_all_starts"] = all(r["lower95"] > 0.0 for r in rows)

    elif cfg.kind == "nsweep":
        phi_list = phis or (observables.seminorm(-1.0),)
        sweep = ergodics.truncation_sweep(
            states[0], cfg.sweep_n, phi_list, cfg.times[0], sim, cfg.replicas,
            threads=cfg.threads,
        )
        write_json(emit("nsweep.json"), sweep.to_dict())
        name0 = phi_list[0].name
        rows = sweep.rows[name0]
        write_csv(
            emit("nsweep.csv"),
            ["n", "mean", "se", "failed"],
            [
                np.array([r.n for r in rows]),
                np.array([r.mean for r in rows]),
                np.array([r.se for r in rows]),
                np.array([r.failed for r in rows]),
            ],
        )
        checks["cauchy_decreasing"] = all(
            sweep.monotone_decreasing(p.name) for p in phi_list
        )
        checks["limit_within_se"] = all(sweep.last_within_se(p.name) for p in phi_list)

    elif cfg.kind == "lintest":
        extra_out, lin_checks = _run_lintest(cfg, states[0], directory, outputs)
        checks.update(lin_checks)
        extra.update(extra_out)

    else:  # pragma: no cover - kinds are validated at parse time
        raise ConfigError(f"kind: unhandled experiment kind {cfg.kind!r}")

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
            "replicas": cfg.replicas,
            "keys": [[sim.seed, r] for r in range(cfg.replicas)],
        },
        "outputs": outputs,
        "checks": checks,
        "passed": all(checks.values()),
        "extra": extra,
    }
    manifest_path = os.path.join(directory, "manifest.json")
    write_json(manifest_path, manifest_payload)
    return RunManifest(
        path=manifest_path,
        directory=directory,
        config_hash=manifest_payload["config_hash"],
        outputs=outputs,
        checks=checks,
    )


def _run_lintest(cfg: ExperimentConfig, x0, directory: str, outputs: list):
    """Linear-oracle suite: ensemble vs the exact Gaussian law at T."""
    sim = cfg.sim
    res = dynamics.run_ensemble(
        x0, sim, cfg.replicas, record_norm_path=True, threads=cfg.threads
    )
    law = noise.linear_law(x0, sim.horizon, sim.cov)
    R = cfg.replicas

    emp_mean = res.final.mean(axis=0)
    emp_var = res.final.var(axis=0, ddof=1)
    # tolerance = 3 sigma of the Monte Carlo estimator plus the known
    # O(dt alpha^2) bias of the semi-implicit scheme at this step size
    alpha_sq = spectral.eigenvalues(sim.M) ** 2
    steps = sim.steps
    mean_bias = np.abs(law.mean) * np.expm1(
        np.minimum(steps * (0.5 * sim.dt * alpha_sq) ** 2 / 2.0, 50.0)
    )
    mean_bias[0] = 0.0
    mean_tol = 3.0 * np.sqrt(law.var / R) + mean_bias + 1e-9
    means_ok = bool(np.all(np.abs(emp_mean - law.mean) <= mean_tol))
    noisy = law.var > 0
    var_bias = law.var[noisy] * 0.25 * sim.dt * alpha_sq[noisy]
    var_tol = 3.0 * law.var[noisy] * math.sqrt(2.0 / (R - 1)) + var_bias
    vars_ok = bool(np.all(np.abs(emp_var[noisy] - law.var[noisy]) <= var_tol))

    active = sim.cov.active_modes
    k_probe = int(active[0]) if active.size else 1
    if law.var[k_probe] > 0:
        ks = scipy.stats.kstest(
            res.final[:, k_probe],
            scipy.stats.norm(law.mean[k_probe], math.sqrt(law.var[k_probe])).cdf,
        ).statistic
    else:
        ks = 0.0
    ks_ok = bool(ks < 0.02)

    # ensemble second-moment curve with its dissipation-budget envelope
    q = potential.budget_rate(0.0, sim.c, noise.trace_gamma(sim.cov, -1.0))
    pi4 = spectral.eigenvalue(1) ** 2
    x_sq = float(spectral.seminorm_sq_many(np.asarray(x0.coeffs), -1.0))
    mean_curve = res.norm_m1_sq.mean(axis=0)
    se_curve = res.norm_m1_sq.std(axis=0, ddof=1) / math.sqrt(R)
    envelope = (x_sq - q / pi4) * np.exp(-pi4 * res.times) + q / pi4

    path = os.path.join(directory, "ensemble_norm.csv")
    outputs.append("ensemble_norm.csv")
    write_csv(
        path,
        ["t", "mean_norm_m1_sq", "se", "gronwall_envelope"],
        [res.times, mean_curve, se_curve, envelope],
    )
    write_json(
        os.path.join(directory, "lintest.json"),
        {
            "replicas": R,
            "ks_mode": k_probe,
            "ks_statistic": float(ks),
            "mode_mean_abs_err": np.abs(emp_mean - law.mean).tolist(),
            "mode_var": emp_var.tolist(),
            "law_var": law.var.tolist(),
        },
    )
    outputs.append("lintest.json")
    checks = {
        "per_mode_means": means_ok,
        "per_mode_variances": vars_ok,
        "ks_mode_distribution": ks_ok,
        "gronwall_envelope": bool(
            np.all(mean_curve <= envelope + 3.0 * se_curve + 1e-12)
        ),
    }
    return {"ks": float(ks)}, checks


SERIES_SOURCES = {
    "mean": ("trajectory.csv", "trajectory_x.csv"),
    "norm_m1": ("trajectory.csv", "trajectory_x.csv"),
    "norm_1": ("trajectory.csv", "trajectory_x.csv"),
    "sup": ("trajectory.csv", "trajectory_x.csv"),
    "energy": ("trajectory.csv", "trajectory_x.csv"),
    "dist_m1": ("coupling.csv", "distance.csv"),
    "control_sq_integral": ("coupling.csv",),
    "log_weight": ("coupling.csv",),
    "mean_norm_m1_sq": ("ensemble_norm.csv",),
}


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def emit_plotdata(manifest_path: str, series: str, out_path: str | None = None) -> str:
    """Extract one series from a run as plot-ready CSV.

    Adds a log10 hint column for strictly positive series (the decay plots)
    and carries envelope columns along when the source defines them.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    directory = os.path.dirname(os.path.abspath(manifest_path))
    if series not in SERIES_SOURCES:
        raise KeyError(
            f"unknown series {series!r}; known: {', '.join(sorted(SERIES_SOURCES))}"
        )
    source = None
    for candidate in SERIES_SOURCES[series]:
        if candidate in manifest["outputs"]:
            source = candidate
            break
    if source is None:
        raise KeyError(f"series {series!r} not present in this run's outputs")
    table = _read_csv(os.path.join(directory, source))
    if series not in table:
        raise KeyError(f"series {series!r} missing from {source}")

    header = ["t", series]
    columns = [table["t"], table[series]]
    for env_name in ("growth_envelope", "gronwall_envelope", "se"):
        if env_name in table:
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

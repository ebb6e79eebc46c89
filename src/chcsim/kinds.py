"""The experiment kinds: one table says what each reads, needs, writes and checks.

``KINDS`` maps a kind name to its ``KindSpec``.  ``config`` validates a
config against the entry's keys and requirements, ``cli`` builds one subcommand per
entry, and ``runner`` calls the entry's ``run``.  A key a kind reads brings
its rule from ``KEY_RULES``, so an entry names only its own rules; a kind
that reads ``replicas`` draws that many replica streams, any other one per
start.  Adding a kind means adding one entry (and its ``configs/<kind>.cfg``).

A kind's ``run(cfg, states, y_state, phis, out)`` gets the built initial
states ``x0[0], x0[1], ...``, the built ``y0`` (or None), the built
observables, and ``out``, which writes an artifact into the run directory
and lists it in the manifest.  It returns ``(checks, extra)``: the named
in-run verdicts and any further manifest entries.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from . import coupling, dynamics, ergodics, noise, observables, potential, spectral

LIPSCHITZ_TOL = 0.05


class Need(NamedTuple):
    """One requirement on a config: the field it names, the test, the message."""

    field: str
    ok: Callable
    message: str


Y0 = Need("y0", lambda cfg: cfg.y0 is not None, "needs a second initial state")
BAND = Need(  # the spectral-gap condition of coupling.contraction_rate
    "N",
    lambda cfg: spectral.eigenvalue(cfg.sim.cov.band + 1) > cfg.sim.potential.lam,
    "needs alpha_(N+1) = ((N+1) pi)^2 > lambda to couple; enlarge the band",
)


def _times_ok(cfg) -> bool:
    """t lines in dt..T on strictly increasing steps: a repeated or
    out-of-order step would change the config hash alone."""
    steps = [round(t / cfg.sim.dt) for t in cfg.times]
    return (bool(steps) and steps == sorted(set(steps))
            and min(cfg.times) >= cfg.sim.dt and max(cfg.times) <= cfg.sim.T)


HORIZON_TIMES = Need(
    "t", _times_ok, "needs evaluation times dt <= t <= T on increasing steps (t lines)"
)
RADIUS = Need("radius", lambda cfg: cfg.radius > 0, "needs a positive radius")
REPLICAS = Need("replicas", lambda cfg: cfg.replicas >= 2, "needs at least 2 replicas")
STARTS = Need("x0", lambda cfg: len(cfg.x0) >= 2, "needs at least two starts (repeat the x0 key)")
# a second start or observable would enter the hash (and move y0's stream
# slot) of a kind that runs only the first
ONE_START = Need("x0", lambda cfg: len(cfg.x0) == 1, "takes one start")
ONE_OBSERVABLE = Need(
    "observable", lambda cfg: len(cfg.observables) <= 1, "takes one observable"
)
ORDERS = Need(
    "sweep_n",
    lambda cfg: len(cfg.sweep_n) >= 2 and list(cfg.sweep_n) == sorted(cfg.sweep_n),
    "needs at least two truncation orders, in non-decreasing order",
)
POLY = Need(
    "potential",
    lambda cfg: cfg.sim.potential.is_truncated,
    "sweeps the truncated potential; set potential = poly",
)


def _samples_after_burn_in(cfg) -> int:
    """Save times ``ergodics.time_average`` keeps after the burn-in that
    ``uniqueness_evidence`` resolves."""
    sim, burn_in = cfg.sim, cfg.burn_in
    if burn_in is None:
        burn_in = ergodics.default_burn_in(sim)
    return int(np.count_nonzero(ergodics.after_burn_in(dynamics.save_steps(sim) * sim.dt, burn_in)))


SAMPLES = Need(
    "T",
    lambda cfg: _samples_after_burn_in(cfg) >= 2 * ergodics.N_BATCHES,
    f"needs at least {2 * ergodics.N_BATCHES} saved samples after burn-in; lengthen T",
)
OFF = Need(
    "potential",
    lambda cfg: not cfg.sim.potential.active,
    "drives the linear oracle; set potential = off",
)


# every key a kind may read, with the rule (or None) every kind reading it meets
KEY_RULES = {
    "replicas": REPLICAS,
    "t": HORIZON_TIMES,
    "observable": None,
    "y0": Y0,
    "burn_in": None,
    "radius": RADIUS,
    "sweep_n": ORDERS,
    "save_states": None,
}


@dataclasses.dataclass(frozen=True)
class KindSpec:
    """An experiment kind.

    run:     (cfg, states, y_state, phis, out) -> (checks, extra).
    needs:   requirements checked at parse time, in order: the kind's own,
             then the ``KEY_RULES`` of the keys it reads.
    reads:   the keys of ``KEY_RULES`` its run reads; config rejects the
             others unless they hold their defaults.
    """

    run: Callable
    needs: tuple = ()
    reads: tuple = ()

    def __post_init__(self):
        rules = (rule for key, rule in KEY_RULES.items() if key in self.reads and rule)
        object.__setattr__(
            self, "needs", self.needs + tuple(r for r in rules if r not in self.needs)
        )


# every trajectory CSV's (column name, observable), in written order
TRAJECTORY_COLUMNS = (
    ("mean", observables.mean()),
    ("norm_m1", observables.seminorm(-1.0)),
    ("norm_1", observables.seminorm(1.0)),
    ("sup", observables.sup_norm()),
    ("energy", observables.energy()),
)


def _write_trajectory(out, name: str, traj: dynamics.Trajectory):
    out.csv(name, ["t"] + [n for n, _ in TRAJECTORY_COLUMNS],
            [traj.times] + [observables.evaluate(phi, traj.states, traj.config)
                            for _, phi in TRAJECTORY_COLUMNS])


def _mass_ok(traj: dynamics.Trajectory) -> bool:
    return bool(np.max(np.abs(traj.states[:, 0] - traj.config.c)) <= 1e-12)


def _simulate(cfg, states, y_state, phis, out):
    traj = dynamics.simulate(states[0], cfg.sim)
    _write_trajectory(out, "trajectory.csv", traj)
    if cfg.save_states:
        out.json(
            "snapshots.json",
            {
                "M": traj.config.M,
                "times": [float(t) for t in traj.times],
                "coeffs": [[float(v) for v in row] for row in traj.states],
            },
        )
    return {"mass_conservation": _mass_ok(traj)}, {}


def _pair(cfg, states, y_state, phis, out):
    sim = cfg.sim
    traj_x, traj_y, dist = dynamics.simulate_pair(states[0], y_state, sim)
    envelope = dist[0] * np.exp(sim.potential.lam * traj_x.times) * (1.0 + LIPSCHITZ_TOL)
    out.csv("distance.csv", ["t", "dist_m1", "growth_envelope"], [traj_x.times, dist, envelope])
    _write_trajectory(out, "trajectory_x.csv", traj_x)
    _write_trajectory(out, "trajectory_y.csv", traj_y)
    checks = {
        "mass_conservation": _mass_ok(traj_x) and _mass_ok(traj_y),
        "lipschitz_growth": bool(np.all(dist <= envelope + 1e-300)),
    }
    return checks, {}


def _couple(cfg, states, y_state, phis, out):
    ens = coupling.coupled_ensemble(states[0], y_state, cfg.sim, 1)
    dist = np.sqrt(ens.dist_sq_path[0])
    out.csv(
        "coupling.csv",
        ["t", "dist_m1", "control_sq_integral", "log_weight"],
        [ens.times, dist, ens.int_w_sq[0], ens.log_weight[0]],
    )
    fitted = float(ens.fitted_rates()[0])
    checks = {
        "contraction_pathwise": bool(np.all(dist <= ens.decay_envelope()[0] + 1e-300)),
        "fitted_rate": bool(fitted >= 0.9 * ens.rate),
    }
    return checks, {"rates": {"operational": ens.rate, "fitted": fitted, "kappa": ens.kappa}}


def _girsanov(cfg, states, y_state, phis, out):
    gg = coupling.girsanov_gap(states[0], y_state, cfg.sim, cfg.replicas)
    out.json("girsanov.json", dataclasses.asdict(gg))
    checks = {
        "martingale_unit_mean": bool(
            abs(gg.martingale_mean - 1.0) <= 3.0 * gg.martingale_se + 1e-12
        ),
        "gap_below_bound": bool(gg.estimate <= gg.bound + 3.0 * gg.se),
    }
    return checks, {}


def _asf(cfg, states, y_state, phis, out):
    phi = phis[0] if phis else observables.tanh_mode(1)
    rows = coupling.asf_estimate(phi, states[0], y_state, cfg.times, cfg.sim, cfg.replicas)
    out.json("asf.json", {"observable": phi.name, "rows": [dataclasses.asdict(r) for r in rows]})
    return {"smoothing_bound": all(r.lhs <= r.bound + 3.0 * r.se for r in rows)}, {}


def _ergodic(cfg, states, y_state, phis, out):
    phi_list = phis or (
        observables.seminorm_sq(-1.0),
        observables.mode_moment(1, 2),
        observables.energy(),
    )
    report = ergodics.uniqueness_evidence(states, phi_list, cfg.sim, burn_in=cfg.burn_in)
    out.json("ergodic.json", report.to_dict())
    out.text("ergodic.txt", report.render_text() + "\n")
    return {"start_independence": report.consistent is not False}, {}


def _irreducibility(cfg, states, y_state, phis, out):
    rows = []
    for label, x0 in zip(cfg.x0, states):
        probe = ergodics.exit_probability(x0, cfg.radius, cfg.sim, cfg.replicas)
        rows.append({"start": label, **dataclasses.asdict(probe)})
    out.json("irreducibility.json", {"t": cfg.sim.T, "radius": cfg.radius, "rows": rows})
    return {"reachable_from_all_starts": all(r["lower95"] > 0.0 for r in rows)}, {}


def _nsweep(cfg, states, y_state, phis, out):
    phi_list = phis or (observables.seminorm(-1.0),)
    sweep = ergodics.truncation_sweep(states[0], cfg.sweep_n, phi_list, cfg.sim, cfg.replicas)
    out.json("nsweep.json", {"t": cfg.sim.T, **sweep.to_dict()})
    rows = sweep.rows[phi_list[0].name]
    fields = ["n", "mean", "se", "failed"]
    out.csv("nsweep.csv", fields, [np.array([getattr(r, f) for r in rows]) for f in fields])
    checks = {
        "cauchy_decreasing": all(sweep.monotone_decreasing(p.name) for p in phi_list),
        "limit_within_se": all(sweep.last_within_se(p.name) for p in phi_list),
    }
    return checks, {}


def ks_normal(sample: np.ndarray, mean: float, sd: float) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample from N(mean, sd^2).

    D = max(D+, D-) over the sorted sample, with the arithmetic of
    ``scipy.stats.kstest`` against ``norm(mean, sd).cdf``.  The normal cdf
    comes from ``scipy.special.ndtr``, imported here so that only a lintest
    run loads scipy.
    """
    import scipy.special

    x = np.sort(sample)
    cdf = scipy.special.ndtr((x - mean) / sd)
    n = x.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def _lintest(cfg, states, y_state, phis, out):
    """Linear-oracle suite: ensemble vs the exact Gaussian law at T."""
    sim, x0, R = cfg.sim, states[0], cfg.replicas
    res = dynamics.run_ensemble(x0, sim, R)
    law = noise.linear_law(x0, sim.horizon, sim.cov)

    emp_mean = res.final.mean(axis=0)
    emp_var = res.final.var(axis=0, ddof=1)
    # tolerance = 3 sigma of the Monte Carlo estimator plus the known
    # O(dt alpha^2) bias of the semi-implicit scheme at this step size
    alpha_sq = spectral.eigenvalues(sim.M) ** 2
    mean_bias = np.abs(law.mean) * np.expm1(
        np.minimum(sim.steps * (0.5 * sim.dt * alpha_sq) ** 2 / 2.0, 50.0)
    )
    mean_bias[0] = 0.0
    mean_tol = 3.0 * np.sqrt(law.var / R) + mean_bias + 1e-9
    noisy = law.var > 0
    var_bias = law.var[noisy] * 0.25 * sim.dt * alpha_sq[noisy]
    var_tol = 3.0 * law.var[noisy] * math.sqrt(2.0 / (R - 1)) + var_bias

    active = sim.cov.active_modes
    k_probe = int(active[0]) if active.size else 1
    if law.var[k_probe] > 0:
        ks = ks_normal(res.final[:, k_probe], law.mean[k_probe], math.sqrt(law.var[k_probe]))
    else:
        ks = 0.0

    # ensemble second-moment curve with its dissipation-budget envelope
    q = noise.trace_gamma(sim.cov, -1.0) + potential.budget_rate_polynomial(0.0, sim.c)
    pi4 = spectral.eigenvalue(1) ** 2
    x_sq = float(spectral.seminorm_sq_many(np.asarray(x0.coeffs), -1.0))
    mean_curve = res.norm_m1_sq.mean(axis=0)
    se_curve = res.norm_m1_sq.std(axis=0, ddof=1) / math.sqrt(R)
    envelope = (x_sq - q / pi4) * np.exp(-pi4 * res.times) + q / pi4

    out.csv(
        "ensemble_norm.csv",
        ["t", "mean_norm_m1_sq", "se", "gronwall_envelope"],
        [res.times, mean_curve, se_curve, envelope],
    )
    out.json(
        "lintest.json",
        {
            "replicas": R,
            "ks_mode": k_probe,
            "ks_statistic": float(ks),
            "mode_mean_abs_err": np.abs(emp_mean - law.mean).tolist(),
            "mode_var": emp_var.tolist(),
            "law_var": law.var.tolist(),
        },
    )
    checks = {
        "per_mode_means": bool(np.all(np.abs(emp_mean - law.mean) <= mean_tol)),
        "per_mode_variances": bool(
            np.all(np.abs(emp_var[noisy] - law.var[noisy]) <= var_tol)
        ),
        "ks_mode_distribution": bool(ks < 0.02),
        "gronwall_envelope": bool(np.all(mean_curve <= envelope + 3.0 * se_curve + 1e-12)),
    }
    return checks, {"ks": float(ks)}


KINDS = {
    "simulate": KindSpec(_simulate, (ONE_START,), ("save_states",)),
    "pair": KindSpec(_pair, (ONE_START,), ("y0",)),
    "couple": KindSpec(_couple, (ONE_START, BAND), ("y0",)),
    "girsanov": KindSpec(_girsanov, (ONE_START, BAND), ("replicas", "y0")),
    "asf": KindSpec(_asf, (ONE_START, ONE_OBSERVABLE, BAND),
                    ("replicas", "t", "observable", "y0")),
    "ergodic": KindSpec(_ergodic, (STARTS, SAMPLES), ("observable", "burn_in")),
    "irreducibility": KindSpec(_irreducibility, (), ("replicas", "radius")),
    "nsweep": KindSpec(_nsweep, (ONE_START, POLY), ("replicas", "observable", "sweep_n")),
    "lintest": KindSpec(_lintest, (ONE_START, OFF), ("replicas",)),
}

"""Long-run statistics: time averages, start-independence, reachability.

Invariant-measure estimation follows the time-averaging route: a single long
trajectory is averaged after a burn-in, with batch-means confidence
intervals.  Uniqueness of the invariant measure cannot be certified by
simulation, so the report language distinguishes "consistent with a unique
invariant measure" (all cross-start discrepancies within combined CIs) from
"violation detected"; with the noise switched off entirely the elliptic
assumption is unmet and the report says so instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.stats

from . import dynamics, noise, observables, spectral
from .dynamics import SimConfig, Trajectory
from .noise import CovarianceSpec
from .observables import ObservableSpec
from .potential import PotentialSpec
from .spectral import ModeVector

N_BATCHES = 16


class InsufficientDataError(ValueError):
    """Too few post-burn-in samples for a batch-means interval."""


@dataclass(frozen=True)
class TimeAverage:
    """Trapezoidal time average with a batch-means confidence half-width."""

    mean: float
    ci: float

    def agrees_with(self, other: "TimeAverage") -> bool:
        return abs(self.mean - other.mean) <= self.ci + other.ci


def time_average(traj: Trajectory, phi: ObservableSpec, burn_in: float) -> TimeAverage:
    """Average phi over [burn_in, T] with a 16-batch-means CI.

    The CI half-width uses the Student t quantile on 15 degrees of freedom.
    """
    if burn_in >= traj.horizon:
        raise InsufficientDataError(f"burn-in {burn_in} consumes the whole horizon")
    values = observables.evaluate(phi, traj.states, traj.config)
    sel = traj.times >= burn_in - 1e-12
    t_sel = traj.times[sel]
    v_sel = values[sel]
    if v_sel.size < 2 * N_BATCHES:
        raise InsufficientDataError(
            f"{v_sel.size} samples after burn-in; need at least {2 * N_BATCHES}"
        )
    if np.ptp(v_sel) == 0.0:
        # conserved quantities: exact average, zero-width interval
        return TimeAverage(mean=float(v_sel[0]), ci=0.0)
    mean = float(np.trapezoid(v_sel, t_sel) / (t_sel[-1] - t_sel[0]))
    batch_means = np.array([np.mean(b) for b in np.array_split(v_sel, N_BATCHES)])
    spread = float(np.std(batch_means, ddof=1))
    tq = scipy.stats.t.ppf(0.975, N_BATCHES - 1)
    return TimeAverage(mean=mean, ci=float(tq * spread / math.sqrt(N_BATCHES)))


def default_burn_in(cfg: SimConfig, N: int | None) -> float:
    """10 / operational contraction rate when available, else T/10."""
    if N is not None and cfg.potential.active:
        from . import coupling  # local import: coupling depends on dynamics

        try:
            rate = coupling.contraction_rate(N, cfg.potential.lam)
        except coupling.BandTooSmallError:
            return cfg.horizon / 10.0
        burn = 10.0 / rate.operational
        if burn < 0.5 * cfg.horizon:
            return burn
    return cfg.horizon / 10.0


@dataclass
class ErgodicReport:
    """Cross-start comparison of long-run averages.

    consistent is True when every pairwise discrepancy lies within the sum
    of the two confidence half-widths; with the noise off the elliptic
    assumption is unmet and consistency is reported as not applicable.
    """

    burn_in: float
    observable_names: list
    start_labels: list
    averages: np.ndarray  # (n_starts, n_obs)
    cis: np.ndarray  # (n_starts, n_obs)
    violations: list  # (observable, start_i, start_j, gap, tolerance)
    elliptic_ok: bool
    notes: list

    @property
    def consistent(self) -> bool | None:
        if not self.elliptic_ok:
            return None
        return not self.violations

    def discrepancy(self, obs_index: int) -> np.ndarray:
        m = self.averages[:, obs_index]
        return np.abs(m[:, None] - m[None, :])

    def tolerance(self, obs_index: int) -> np.ndarray:
        c = self.cis[:, obs_index]
        return c[:, None] + c[None, :]

    def verdict(self) -> str:
        if not self.elliptic_ok:
            return "elliptic assumption unmet (no noise): start-independence not expected"
        if self.violations:
            return "violation detected: start-dependent averages"
        return "consistent with a unique invariant measure"

    def to_dict(self) -> dict:
        return {
            "burn_in": self.burn_in,
            "observables": list(self.observable_names),
            "starts": list(self.start_labels),
            "averages": self.averages.tolist(),
            "cis": self.cis.tolist(),
            "violations": [list(v) for v in self.violations],
            "elliptic_ok": self.elliptic_ok,
            "verdict": self.verdict(),
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = []
        width = max(12, max((len(s) for s in self.start_labels), default=12) + 2)
        header = "start".ljust(width) + "".join(
            f"{name:>24}" for name in self.observable_names
        )
        lines.append(header)
        lines.append("-" * len(header))
        for i, label in enumerate(self.start_labels):
            cells = "".join(
                f"{self.averages[i, j]:>14.6g} ±{self.cis[i, j]:<8.2g}"
                for j in range(len(self.observable_names))
            )
            lines.append(label.ljust(width) + cells)
        lines.append("")
        lines.append(self.verdict())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def uniqueness_evidence(
    x_list,
    phi_list,
    cfg: SimConfig,
    N: int | None = None,
    burn_in: float | None = None,
    *,
    threads: int = 1,
) -> ErgodicReport:
    """Compare long-run averages across starts under independent noise.

    All starts integrate as one batch, start i with replica stream i;
    evidence for a unique invariant measure is that all averages agree
    within combined CIs.
    """
    if len(x_list) < 2:
        raise ValueError("need at least two initial states")
    if burn_in is None:
        burn_in = default_burn_in(cfg, N)
    elliptic_ok = cfg.cov.active_modes.size > 0
    notes = []
    if not elliptic_ok:
        notes.append("covariance is zero: deterministic flow may keep multiple equilibria")

    averages = np.empty((len(x_list), len(phi_list)))
    cis = np.empty_like(averages)
    labels = []
    trajs = dynamics.simulate_many(x_list, cfg, threads=threads)
    for i, (x0, traj) in enumerate(zip(x_list, trajs)):
        labels.append(f"start{i}|x|={spectral.norm(x0, -1.0):.3g}")
        for j, phi in enumerate(phi_list):
            ta = time_average(traj, phi, burn_in)
            averages[i, j] = ta.mean
            cis[i, j] = ta.ci

    violations = []
    if elliptic_ok:
        for j, phi in enumerate(phi_list):
            for a in range(len(x_list)):
                for b in range(a + 1, len(x_list)):
                    gap = abs(averages[a, j] - averages[b, j])
                    tol = cis[a, j] + cis[b, j]
                    if gap > tol:
                        violations.append((phi.name, a, b, gap, tol))

    return ErgodicReport(
        burn_in=burn_in,
        observable_names=[phi.name for phi in phi_list],
        start_labels=labels,
        averages=averages,
        cis=cis,
        violations=violations,
        elliptic_ok=elliptic_ok,
        notes=notes,
    )


def clopper_pearson_lower(hits: int, n: int, confidence: float = 0.95) -> float:
    """Lower Clopper-Pearson bound for a binomial proportion (two-sided)."""
    if not 0 <= hits <= n or n <= 0:
        raise ValueError("need 0 <= hits <= n with n > 0")
    if hits == 0:
        return 0.0
    alpha = 1.0 - confidence
    return float(scipy.stats.beta.ppf(alpha / 2.0, hits, n - hits + 1))


@dataclass(frozen=True)
class ExitProbe:
    """Estimate of P(|X(t) - c e_0|_{-1} <= radius)."""

    estimate: float
    se: float
    lower95: float
    hits: int
    replicas: int

    @property
    def reachable(self) -> bool:
        return self.lower95 > 0.0


def exit_probability(
    x0: ModeVector,
    radius: float,
    t: float,
    cfg: SimConfig,
    replicas: int,
    *,
    threads: int = 1,
) -> ExitProbe:
    """Probability of sitting inside the ball around the flat state at time t.

    A positive Clopper-Pearson lower bound is the reachability evidence; the
    probe certifies positivity only, not a rate.
    """
    if radius <= 0 or t <= 0:
        raise ValueError("radius and t must be positive")
    run_cfg = replace(cfg, T=t)
    res = dynamics.run_ensemble(x0, run_cfg, replicas, threads=threads)
    centered = res.final.copy()
    centered[:, 0] -= cfg.c
    dist_sq = spectral.seminorm_sq_many(centered, -1.0)
    hits = int(np.sum(dist_sq <= radius * radius))
    p = hits / replicas
    return ExitProbe(
        estimate=p,
        se=math.sqrt(max(p * (1.0 - p), 1e-300) / replicas),
        lower95=clopper_pearson_lower(hits, replicas),
        hits=hits,
        replicas=replicas,
    )


def linear_ball_probability(
    x0: ModeVector,
    t: float,
    cov: CovarianceSpec,
    radius: float,
    samples: int,
    rng: np.random.Generator,
    batch: int = 100_000,
) -> tuple[float, float]:
    """Mode-space oracle for the linear dynamics: sample the exact Gaussian
    law at time t and count the ball hits.  Returns (estimate, se)."""
    law = noise.linear_law(x0, t, cov)
    hits = 0
    done = 0
    r_sq = radius * radius
    while done < samples:
        m = min(batch, samples - done)
        z = law.sample_many(m, rng)
        z[:, 0] -= x0.mean
        hits += int(np.sum(spectral.seminorm_sq_many(z, -1.0) <= r_sq))
        done += m
    p = hits / samples
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / samples)


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean: float
    se: float
    failed: int


@dataclass
class TruncationSweep:
    """E[phi(X(t))] across truncation orders, with Cauchy differences."""

    t: float
    rows: dict  # observable name -> list[SweepRow]

    def diffs(self, name: str) -> np.ndarray:
        means = np.array([r.mean for r in self.rows[name]])
        return np.abs(np.diff(means))

    def combined_ses(self, name: str) -> np.ndarray:
        ses = np.array([r.se for r in self.rows[name]])
        return ses[1:] + ses[:-1]

    def monotone_decreasing(self, name: str) -> bool:
        d = self.diffs(name)
        return bool(np.all(np.diff(d) <= 0.0))

    def last_within_se(self, name: str) -> bool:
        return bool(self.diffs(name)[-1] <= self.combined_ses(name)[-1])

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "rows": {
                name: [
                    {"n": r.n, "mean": r.mean, "se": r.se, "failed": r.failed}
                    for r in rows
                ]
                for name, rows in self.rows.items()
            },
        }


def truncation_sweep(
    x0: ModeVector,
    n_list,
    phi_list,
    t: float,
    cfg: SimConfig,
    replicas: int,
    *,
    threads: int = 1,
) -> TruncationSweep:
    """Sweep the polynomial truncation order with common random numbers.

    Every order reuses the identical per-replica noise streams, so the
    Cauchy differences isolate the effect of the truncation tail instead of
    being swamped by Monte Carlo noise.  Stiff replicas are surfaced per
    order (excluded from that order's mean, counted in the row).
    """
    n_list = list(n_list)
    if any(b > a for a, b in zip(n_list[1:], n_list[:-1])):
        raise ValueError("truncation orders must be non-decreasing")
    lam = cfg.potential.lam
    rows = {phi.name: [] for phi in phi_list}
    for n in n_list:
        run_cfg = replace(cfg, T=t, potential=PotentialSpec.truncated(n, lam))
        res = dynamics.run_ensemble(x0, run_cfg, replicas, threads=threads, strict=False)
        ok = res.failed_step < 0
        n_ok = int(np.sum(ok))
        if n_ok < 2:
            raise dynamics.StiffEventError(
                f"truncation order {n}: {replicas - n_ok} of {replicas} replicas stiff"
            )
        for phi in phi_list:
            vals = observables.evaluate(phi, res.final[ok], run_cfg)
            rows[phi.name].append(
                SweepRow(
                    n=n,
                    mean=float(np.mean(vals)),
                    se=float(np.std(vals, ddof=1) / math.sqrt(n_ok)),
                    failed=replicas - n_ok,
                )
            )
    return TruncationSweep(t=t, rows=rows)

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import coupling, dynamics, observables, spectral
from .dynamics import SimConfig, Trajectory
from .observables import ObservableSpec
from .potential import PotentialSpec
from .spectral import ModeVector

N_BATCHES = 16
# the 0.975 quantile of Student's t on N_BATCHES - 1 degrees of freedom,
# scipy.special.stdtrit(15, 0.975) written out so no run loads scipy for it
T_QUANTILE = 2.131449545559776


class InsufficientDataError(ValueError):
    """Too few post-burn-in samples for a batch-means interval."""


@dataclass(frozen=True)
class TimeAverage:
    """Trapezoidal time average with a batch-means confidence half-width."""

    mean: float
    ci: float


def time_average(traj: Trajectory, phi: ObservableSpec, burn_in: float) -> TimeAverage:
    """Average phi over [burn_in, T] with a 16-batch-means CI.

    The CI half-width uses the Student t quantile on 15 degrees of freedom.
    """
    if burn_in >= traj.horizon:
        raise InsufficientDataError(f"burn-in {burn_in} consumes the whole horizon")
    values = observables.evaluate(phi, traj.states, traj.config)
    sel = after_burn_in(traj.times, burn_in)
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
    return TimeAverage(mean=mean, ci=float(T_QUANTILE * spread / math.sqrt(N_BATCHES)))


def after_burn_in(times: np.ndarray, burn_in: float) -> np.ndarray:
    """Mask of the save times a time average keeps."""
    return times >= burn_in - 1e-12


def default_burn_in(cfg: SimConfig) -> float:
    """10 / delta, the contraction rate of the config's band, when available,
    else T/10."""
    if cfg.potential.active:
        try:
            rate = coupling.contraction_rate(cfg.cov.band, cfg.potential.lam)
        except coupling.BandTooSmallError:
            return cfg.horizon / 10.0
        burn = 10.0 / rate
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
    burn_in: float | None = None,
) -> ErgodicReport:
    """Compare long-run averages across starts under independent noise.

    All starts integrate as one batch, start i with replica stream i;
    evidence for a unique invariant measure is that all averages agree
    within combined CIs.
    """
    if len(x_list) < 2:
        raise ValueError("need at least two initial states")
    if burn_in is None:
        burn_in = default_burn_in(cfg)
    elliptic_ok = cfg.cov.active_modes.size > 0
    notes = []
    if not elliptic_ok:
        notes.append("covariance is zero: deterministic flow may keep multiple equilibria")

    averages = np.empty((len(x_list), len(phi_list)))
    cis = np.empty_like(averages)
    labels = []
    trajs = dynamics.simulate_many(x_list, cfg)
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


def clopper_pearson_lower(hits: int, n: int) -> float:
    """Lower bound of the two-sided 95 % Clopper-Pearson interval for a
    binomial proportion."""
    if not 0 <= hits <= n or n <= 0:
        raise ValueError("need 0 <= hits <= n with n > 0")
    if hits == 0:
        return 0.0
    import scipy.special  # here, not at the top: only irreducibility needs it

    # (1 - 0.95)/2 rounds above 0.025; the tail keeps the bits lower95 has had
    return float(scipy.special.betaincinv(hits, n - hits + 1, (1.0 - 0.95) / 2.0))


@dataclass(frozen=True)
class ExitProbe:
    """Estimate of P(|X(T) - c e_0|_{-1} <= radius)."""

    estimate: float
    se: float
    lower95: float
    hits: int
    replicas: int


def exit_probability(
    x0: ModeVector,
    radius: float,
    cfg: SimConfig,
    replicas: int,
) -> ExitProbe:
    """Probability of sitting inside the ball around the flat state at time T.

    A positive Clopper-Pearson lower bound is the reachability evidence; the
    probe certifies positivity only, not a rate.  Replicas out of stiff-step
    halvings raise StiffEventError after the run (``run_paths``).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    final = dynamics.run_paths(cfg, (x0,), replicas, (cfg.steps,))[1][0, :, 0]
    dist_sq = spectral.seminorm_sq_many(final, -1.0)  # reads no mode 0: c e_0 drops out
    hits = int(np.sum(dist_sq <= radius * radius))
    p = hits / replicas
    return ExitProbe(
        estimate=p,
        se=math.sqrt(max(p * (1.0 - p), 1e-300) / replicas),
        lower95=clopper_pearson_lower(hits, replicas),
        hits=hits,
        replicas=replicas,
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean: float
    se: float
    failed: int


@dataclass
class TruncationSweep:
    """E[phi(X(T))] across truncation orders, with Cauchy differences."""

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
        return {"rows": {name: [asdict(r) for r in rows] for name, rows in self.rows.items()}}


def truncation_sweep(
    x0: ModeVector,
    n_list,
    phi_list,
    cfg: SimConfig,
    replicas: int,
) -> TruncationSweep:
    """Sweep the polynomial truncation order with common random numbers.

    Every order reuses the identical per-replica noise streams, so the
    Cauchy differences isolate the effect of the truncation tail instead of
    being swamped by Monte Carlo noise.  A replica out of stiff-step
    halvings is parked, left out of that order's mean and counted in its row;
    fewer than two left raise StiffEventError naming the parked ones.
    """
    n_list = list(n_list)
    if any(b > a for a, b in zip(n_list[1:], n_list[:-1])):
        raise ValueError("truncation orders must be non-decreasing")
    lam = cfg.potential.lam
    rows = {phi.name: [] for phi in phi_list}
    for n in n_list:
        run_cfg = replace(cfg, potential=PotentialSpec.truncated(n, lam))
        res = dynamics.run_ensemble(x0, run_cfg, replicas)
        ok = res.failed_step < 0
        n_ok = int(np.sum(ok))
        if n_ok < 2:
            raise dynamics.StiffEventError(
                f"truncation order {n}: {replicas - n_ok} of {replicas} replicas stiff",
                failed_replicas=np.flatnonzero(~ok),
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
    return TruncationSweep(rows)

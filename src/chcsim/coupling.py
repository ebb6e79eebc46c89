"""Coupling construction: low-mode control, contraction rate, Girsanov weight.

Two copies of the dynamics are driven by the same noise.  The target copy
runs the plain equation from y; the shifted copy starts from x and has its
destabilizing linear term on the band modes 1..N evaluated at the *target*
state instead of itself; N is the covariance's band cfg.cov.band, which every
driver here reads from its SimConfig.  That shift is exactly a drift change
absorbed into the noise: the shifted copy solves the plain equation driven by
W + int w(s) ds with the band-supported control

    w_k(t) = -(lam/2) alpha_k (shifted - target)_k / sqrt(b_k),  k = 1..N,

well defined because b_k > 0 on the band.  Writing Y = shifted - target, the
difference dynamics lose their noise and the band lambda-term, and a
spectral-gap Gronwall argument yields pathwise exponential contraction

    |Y(t)|_{-1} <= exp(-delta t) |Y(0)|_{-1},
    delta = (alpha_1 / 2) * min(alpha_1, alpha_{N+1} - lam),

valid whenever alpha_{N+1} > lam.  The discrete log-weight

    G(t) = int w dW - (1/2) int |w|^2 ds

is accumulated with the integrator's own increments (left-point rule), which
makes exp(G) an exact discrete-time martingale: E[exp(G(T))] = 1 holds for
every dt, not just in the limit.

This module holds the coupling alone: the rate, the gain, the bounds and the
estimators.  ``coupled_ensemble`` is the one coupled-pair driver; it runs
``dynamics.run_paths`` with ``control=True``, whose engine books G and
int |w|^2, and its result carries both copies' states, delta, kappa, the
decay envelope and each pair's fitted rate; one coupled path is pair 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, observables, spectral
from .dynamics import SimConfig
from .noise import CovarianceSpec
from .observables import ObservableSpec
from .spectral import ModeVector

CONTRACTION_TOL = 0.05


class BandTooSmallError(ValueError):
    """The controlled band does not dominate the destabilizing coefficient."""


def contraction_rate(N: int, lam: float) -> float:
    """Decay rate delta = (alpha_1/2) min(alpha_1, alpha_{N+1} - lam) for band N
    and coefficient lam, the one rate the Gronwall argument proves.

    Raises BandTooSmallError unless alpha_{N+1} > lam (the spectral-gap
    condition the contraction argument needs on (0,1)).
    """
    if N < 0:
        raise ValueError(f"band must be >= 0, got {N}")
    a1 = spectral.eigenvalue(1)
    a_next = spectral.eigenvalue(N + 1)
    if a_next <= lam:
        raise BandTooSmallError(
            f"need alpha_(N+1) = {a_next:.6g} > lam = {lam:.6g}; enlarge the band"
        )
    return 0.5 * a1 * min(a1, a_next - lam)


def control_gain(cov: CovarianceSpec, lam: float) -> float:
    """Operator norm of the control map from |.|_{-1} to the L^2 norm:

    kappa = (lam/2) max_{k<=N} alpha_k^(3/2) / sqrt(b_k),

    so |w(t)|_0 <= kappa |Y(t)|_{-1} pathwise.  This is the constant used in
    every Girsanov bound here.
    """
    if cov.band == 0 or lam == 0.0:
        return 0.0
    band = slice(1, cov.band + 1)  # CovarianceSpec keeps b_k > 0 here
    alpha_band = spectral.eigenvalues(cov.order)[band]
    return 0.5 * abs(lam) * float(np.max(alpha_band**1.5 / np.sqrt(cov.b[band])))


def girsanov_bound(dist0: float, kappa: float, delta: float) -> float:
    """Bound on E|1 - exp(G(T))| from the control tail integral:

    with v = kappa^2 d^2 / (2 delta) >= int |w|^2 ds pathwise, the
    exponential-martingale estimate gives exp(v/2) sqrt(v).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    v = kappa * kappa * dist0 * dist0 / (2.0 * delta)
    return math.exp(0.5 * v) * math.sqrt(v)


@dataclass
class CoupledEnsemble:
    """Batched coupled pairs sharing per-pair noise streams at the saved steps
    (row r is pair r), with the band's contraction rate delta and control gain."""

    times: np.ndarray  # (S,)
    states: np.ndarray  # (2, R, S, M+1): copy 0 shifted, copy 1 the target
    log_weight: np.ndarray  # (R, S) running G
    int_w_sq: np.ndarray  # (R, S) running int |w|^2 ds
    dist_sq_path: np.ndarray  # (R, S) squared H^-1 distances of the copies
    failed_step: np.ndarray
    rate: float  # delta, contraction_rate of the band
    kappa: float  # control_gain of the band

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.failed_step >= 0))

    def decay_envelope(self, tol: float = CONTRACTION_TOL) -> np.ndarray:
        """(R, S): each pair's start distance times exp(-delta t), times 1 + tol."""
        dist_start = np.sqrt(self.dist_sq_path[:, :1])
        return dist_start * np.exp(-self.rate * self.times) * (1.0 + tol)

    def fitted_rates(self) -> np.ndarray:
        """(R,): per pair, the least-squares slope of -log(dist) over its
        positive distances, or inf where fewer than two are positive."""
        out = np.full(len(self.dist_sq_path), math.inf)
        for r, dist_sq in enumerate(self.dist_sq_path):
            good = dist_sq > 0
            if np.sum(good) >= 2:
                out[r] = -np.polyfit(self.times[good], np.log(np.sqrt(dist_sq[good])), 1)[0]
        return out


def coupled_ensemble(x0, y0, cfg: SimConfig, replicas: int, steps=None) -> CoupledEnsemble:
    """Run `replicas` coupled pairs; pair r draws from stream (seed, r).

    x0/y0 may be single states or (R, M+1) batches of per-pair starts.  The
    pairs run on ``dynamics.run_paths`` with the control on, which keeps both
    copies and the Girsanov sums at the step indices `steps` (default: the
    save grid).  Results are identical for any thread count (streams are keyed
    by the absolute pair index and outputs are written by index).  Pairs out
    of halvings raise StiffEventError after the run, which names them all; a
    band with alpha_{N+1} <= lam raises BandTooSmallError.
    """
    rate = contraction_rate(cfg.cov.band, cfg.potential.lam)
    steps = dynamics.save_steps(cfg) if steps is None else np.asarray(steps, dtype=np.int64)
    kern, states, sums = dynamics.run_paths(cfg, (x0, y0), replicas, steps, control=True)
    return CoupledEnsemble(
        times=steps * cfg.dt,
        states=states,
        log_weight=sums["log_weight"],
        int_w_sq=sums["int_w_sq"],
        dist_sq_path=spectral.seminorm_sq_many(states[0] - states[1], -1.0),
        failed_step=kern.failed,
        rate=rate,
        kappa=control_gain(cfg.cov, cfg.potential.lam),
    )


@dataclass(frozen=True)
class GirsanovGap:
    """Monte Carlo estimate of E|1 - exp(G(T))| against its assembled bound."""

    estimate: float
    se: float
    bound: float
    martingale_mean: float  # E[exp(G(T))], 1 exactly in law
    martingale_se: float
    kappa: float
    delta: float
    dist0: float
    replicas: int


def _one_start_pair(x0, y0) -> None:
    """The bounds are stated for one start pair, not for per-pair batches."""
    if any(np.ndim(getattr(v, "coeffs", v)) != 1 for v in (x0, y0)):
        raise ValueError("x0, y0: the bound takes one start pair, not per-pair batches")


def girsanov_gap(x0: ModeVector, y0: ModeVector, cfg: SimConfig, replicas: int) -> GirsanovGap:
    """Estimate the weight gap E|1 - exp(G(T))| over coupled replicas.

    The bound is exp(v/2) sqrt(v) with v = kappa^2 |x-y|_{-1}^2 / (2 delta);
    the martingale mean E[exp(G(T))] doubles as an exact oracle (= 1).  Only
    t = 0 and t = T are read, so the pairs keep only those two steps.
    """
    _one_start_pair(x0, y0)
    ens = coupled_ensemble(x0, y0, cfg, replicas, (0, cfg.steps))
    weights = np.exp(ens.log_weight[:, -1])
    gap = np.abs(1.0 - weights)
    dist0 = math.sqrt(ens.dist_sq_path[0, 0])
    return GirsanovGap(
        estimate=float(np.mean(gap)),
        se=float(np.std(gap, ddof=1) / math.sqrt(replicas)),
        bound=girsanov_bound(dist0, ens.kappa, ens.rate),
        martingale_mean=float(np.mean(weights)),
        martingale_se=float(np.std(weights, ddof=1) / math.sqrt(replicas)),
        kappa=ens.kappa,
        delta=ens.rate,
        dist0=dist0,
        replicas=replicas,
    )


@dataclass(frozen=True)
class AsfEstimate:
    """One smoothing-inequality data point at time t."""

    t: float
    lhs: float  # |E phi(X(t,x)) - E phi(X(t,y))| estimate
    se: float  # paired standard error of the difference
    bound: float  # kappa-term * |phi|_inf + exp(-delta t) * lip, times dist0


def asf_estimate(
    phi: ObservableSpec,
    x0: ModeVector,
    y0: ModeVector,
    ts,
    cfg: SimConfig,
    replicas: int,
) -> list[AsfEstimate]:
    """Two-start smoothing estimates with common random numbers.

    Both starts run ``dynamics.run_paths`` on the same per-replica streams,
    so the difference of means is estimated pairwise.  The bound combines the Girsanov gap bound
    (floor term, |phi|_inf) with the coupling decay (exp(-delta t), lip).
    """
    phi.require_bounded_lipschitz()
    _one_start_pair(x0, y0)
    lam = cfg.potential.lam
    rate = contraction_rate(cfg.cov.band, lam)
    kappa = control_gain(cfg.cov, lam)
    dist0 = spectral.seminorm(x0 - y0, -1.0)

    snap = sorted(set(int(round(t / cfg.dt)) for t in ts))
    if any(s < 1 or s > cfg.steps for s in snap):
        raise ValueError("requested times fall outside the horizon")
    # one run per start, so that each row retries on its own path
    states_x, states_y = (dynamics.run_paths(cfg, (v,), replicas, snap)[1][0] for v in (x0, y0))

    floor = girsanov_bound(dist0, kappa, rate) * phi.sup_bound
    out = []
    for j, s in enumerate(snap):
        t = s * cfg.dt
        vx = observables.evaluate(phi, states_x[:, j], cfg)
        vy = observables.evaluate(phi, states_y[:, j], cfg)
        diff = vx - vy
        lhs = abs(float(np.mean(diff)))
        se = float(np.std(diff, ddof=1) / math.sqrt(replicas))
        bound = floor + math.exp(-rate * t) * phi.lip * dist0
        out.append(AsfEstimate(t=t, lhs=lhs, se=se, bound=bound))
    return out

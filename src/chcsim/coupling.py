"""Coupling construction: low-mode control, contraction rate, Girsanov weight.

Two copies of the dynamics are driven by the same noise.  The target copy
runs the plain equation from y; the shifted copy starts from x and has its
destabilizing linear term on the band modes 1..N evaluated at the *target*
state instead of itself.  That shift is exactly a drift change absorbed into
the noise: the shifted copy solves the plain equation driven by
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, observables, spectral
from .dynamics import SimConfig
from .errors import CheckFailure
from .noise import CovarianceSpec
from .observables import ObservableSpec
from .spectral import ModeVector

CONTRACTION_TOL = 0.05


class BandTooSmallError(ValueError):
    """The controlled band does not dominate the destabilizing coefficient."""


class ContractionRate(NamedTuple):
    """Coupling decay rates.

    nominal:     2 pi min((N+1)^2/2 - lam, 1), the rate quoted under a
                 unit-normalized spectral gap; reported as a diagnostic.
    operational: (alpha_1/2) min(alpha_1, alpha_{N+1} - lam), the rate the
                 Gronwall argument proves for the convention actually
                 integrated here; every assertion uses this one.
    """

    nominal: float
    operational: float


def contraction_rate(N: int, lam: float) -> ContractionRate:
    """Both decay rates for band N and coefficient lam.

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
    nominal = 2.0 * math.pi * min(0.5 * (N + 1) ** 2 - lam, 1.0)
    operational = 0.5 * a1 * min(a1, a_next - lam)
    return ContractionRate(nominal=nominal, operational=operational)


def _band_arrays(cov: CovarianceSpec, N: int):
    if N > cov.order:
        raise ValueError(f"band N={N} exceeds truncation order {cov.order}")
    b_band = cov.b[1 : N + 1]
    if np.any(b_band <= 0.0):
        raise BandTooSmallError(
            f"covariance invalid for coupling: b_k must be > 0 for k = 1..{N}"
        )
    alpha_band = spectral.eigenvalues(cov.order)[1 : N + 1]
    return alpha_band, np.sqrt(b_band)


def control(y: ModeVector, cov: CovarianceSpec, lam: float, N: int | None = None) -> ModeVector:
    """Control w for a given difference y = shifted - target.

    w_k = -(lam/2) alpha_k y_k / sqrt(b_k) on the band, zero elsewhere; its
    L^2 size is at most (lam/2) max_k(alpha_k/sqrt(b_k)) |pi_low y|_0.
    """
    if N is None:
        N = cov.band
    alpha_band, sqrt_b = _band_arrays(cov, N)
    out = np.zeros(cov.order + 1)
    out[1 : N + 1] = -(0.5 * lam) * alpha_band * y.coeffs[1 : N + 1] / sqrt_b
    return ModeVector(out)


def control_gain(cov: CovarianceSpec, lam: float, N: int | None = None) -> float:
    """Operator norm of the control map from |.|_{-1} to the L^2 norm:

    kappa = (lam/2) max_{k<=N} alpha_k^(3/2) / sqrt(b_k),

    so |w(t)|_0 <= kappa |Y(t)|_{-1} pathwise.  This is the constant used in
    every Girsanov bound here.
    """
    if N is None:
        N = cov.band
    if N == 0 or lam == 0.0:
        return 0.0
    alpha_band, sqrt_b = _band_arrays(cov, N)
    return 0.5 * abs(lam) * float(np.max(alpha_band**1.5 / sqrt_b))


def control_gain_low(cov: CovarianceSpec, lam: float, N: int | None = None) -> float:
    """Per-mode gain (lam/2) max_{k<=N} alpha_k / sqrt(b_k): bounds |w|_0 by
    the L^2 size of the low-mode difference only; reported for diagnostics."""
    if N is None:
        N = cov.band
    if N == 0 or lam == 0.0:
        return 0.0
    alpha_band, sqrt_b = _band_arrays(cov, N)
    return 0.5 * abs(lam) * float(np.max(alpha_band / sqrt_b))


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
class CouplingRecord:
    """Time series of one coupled pair."""

    times: np.ndarray
    dist_m1: np.ndarray  # |shifted(t) - target(t)|_{-1}
    control_sq_integral: np.ndarray  # running int_0^t |w|^2 ds
    log_weight: np.ndarray  # running G(t)
    control_norm: np.ndarray  # |w(t)|_0 at the save grid
    rate: ContractionRate
    kappa: float

    def __post_init__(self):
        if np.any(np.diff(self.control_sq_integral) < -1e-15):
            raise ValueError("control integral must be non-decreasing")
        if np.any(self.dist_m1 < 0):
            raise ValueError("distances must be nonnegative")

    @property
    def terminal_weight(self) -> float:
        return float(np.exp(self.log_weight[-1]))

    def decay_envelope(self, tol: float = CONTRACTION_TOL) -> np.ndarray:
        return self.dist_m1[0] * np.exp(-self.rate.operational * self.times) * (1.0 + tol)

    def fitted_rate(self) -> float:
        """Least-squares slope of -log(dist) over the recorded window."""
        good = self.dist_m1 > 0
        if np.sum(good) < 2:
            return math.inf
        t = self.times[good]
        y = np.log(self.dist_m1[good])
        slope = np.polyfit(t, y, 1)[0]
        return -float(slope)


def _band_shift(cfg: SimConfig, N: int):
    """Kernel band part (lam, alpha_band, sqrt_b); validates the band condition."""
    lam = cfg.potential.lam if cfg.potential.active else 0.0
    contraction_rate(N, lam)
    return (lam, *_band_arrays(cfg.cov, N))


def simulate_coupled(
    x0: ModeVector,
    y0: ModeVector,
    cfg: SimConfig,
    N: int,
    *,
    check: bool = True,
    tol: float = CONTRACTION_TOL,
) -> CouplingRecord:
    """Integrate one coupled pair and record distance, control, and weight.

    Copy 0 is the shifted copy started at x0, copy 1 the target started at
    y0.  With check=True a violation of the pathwise decay envelope
    exp(-delta t) (1 + tol) raises CheckFailure.
    """
    band = _band_shift(cfg, N)
    lam, alpha_band, sqrt_b = band
    _, saved, running = dynamics._run_paths(
        cfg, np.stack([dynamics._tile_starts(v, cfg, 1) for v in (x0, y0)]), band=band
    )
    diff = saved[0, 0] - saved[1, 0]
    w = -(0.5 * lam) * alpha_band * diff[:, 1 : N + 1] / sqrt_b
    record = CouplingRecord(
        times=dynamics.save_steps(cfg) * cfg.dt,
        dist_m1=np.sqrt(spectral.seminorm_sq_many(diff, -1.0)),
        control_sq_integral=running["int_w_sq"][0],
        log_weight=running["log_weight"][0],
        control_norm=np.linalg.norm(w, axis=-1),
        rate=contraction_rate(N, lam),
        kappa=control_gain(cfg.cov, lam, N),
    )
    if check:
        envelope = record.decay_envelope(tol)
        bad = record.dist_m1 > envelope + 1e-300
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise CheckFailure(
                f"coupling contraction violated at t={record.times[j]:.6g}: "
                f"dist={record.dist_m1[j]:.6g} > envelope={envelope[j]:.6g}"
            )
    return record


@dataclass
class CoupledEnsemble:
    """Batched coupled pairs sharing per-pair noise streams."""

    times: np.ndarray
    log_weight: np.ndarray  # (R,) terminal G
    int_w_sq: np.ndarray  # (R,)
    dist0: np.ndarray  # (R,)
    final_dist_sq: np.ndarray  # (R,)
    dist_sq_path: np.ndarray | None  # (R, S) squared distances
    failed_step: np.ndarray

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.failed_step >= 0))


def coupled_ensemble(
    x0,
    y0,
    cfg: SimConfig,
    N: int,
    replicas: int,
    *,
    record_dist_path: bool = False,
    strict: bool = True,
    threads: int = 1,
) -> CoupledEnsemble:
    """Run `replicas` coupled pairs; pair r draws from stream (seed, r).

    x0/y0 may be single states or (R, M+1) batches of per-pair starts.
    Results are identical for any thread count (streams are keyed by the
    absolute pair index and outputs are written by index).
    """
    kern = dynamics._Kernel(cfg, replicas, copies=2, band=_band_shift(cfg, N))
    starts = np.stack([dynamics._tile_starts(v, cfg, replicas) for v in (x0, y0)])
    marks = dynamics.save_steps(cfg)
    pos = {int(s): j for j, s in enumerate(marks)}
    dist_path = np.empty((replicas, marks.size)) if record_dist_path else None

    def record(span, step, states):
        if dist_path is not None and step in pos:
            n = states.shape[0] // 2
            dist_path[span, pos[step]] = spectral.seminorm_sq_many(states[:n] - states[n:], -1.0)

    final = kern.run(starts, record, threads)
    if strict:
        kern.raise_failures("coupled pair(s)")
    return CoupledEnsemble(
        times=marks * cfg.dt,
        log_weight=kern.sums["log_weight"],
        int_w_sq=kern.sums["int_w_sq"],
        dist0=np.sqrt(spectral.seminorm_sq_many(starts[0] - starts[1], -1.0)),
        final_dist_sq=spectral.seminorm_sq_many(final[0] - final[1], -1.0),
        dist_sq_path=dist_path,
        failed_step=kern.failed,
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


def girsanov_gap(
    x0: ModeVector, y0: ModeVector, cfg: SimConfig, N: int, replicas: int,
    *, threads: int = 1,
) -> GirsanovGap:
    """Estimate the weight gap E|1 - exp(G(T))| over coupled replicas.

    The bound is exp(v/2) sqrt(v) with v = kappa^2 |x-y|_{-1}^2 / (2 delta);
    the martingale mean E[exp(G(T))] doubles as an exact oracle (= 1).
    """
    lam = cfg.potential.lam if cfg.potential.active else 0.0
    rate = contraction_rate(N, lam)
    kappa = control_gain(cfg.cov, lam, N)
    ens = coupled_ensemble(x0, y0, cfg, N, replicas, threads=threads)
    weights = np.exp(ens.log_weight)
    gap = np.abs(1.0 - weights)
    dist0 = float(ens.dist0[0])
    return GirsanovGap(
        estimate=float(np.mean(gap)),
        se=float(np.std(gap, ddof=1) / math.sqrt(replicas)),
        bound=girsanov_bound(dist0, kappa, rate.operational),
        martingale_mean=float(np.mean(weights)),
        martingale_se=float(np.std(weights, ddof=1) / math.sqrt(replicas)),
        kappa=kappa,
        delta=rate.operational,
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

    def __post_init__(self):
        if self.lhs < 0 or self.bound < 0:
            raise ValueError("estimate and bound must be nonnegative")


def asf_estimate(
    phi: ObservableSpec,
    x0: ModeVector,
    y0: ModeVector,
    ts,
    cfg: SimConfig,
    N: int,
    replicas: int,
    *,
    threads: int = 1,
) -> list[AsfEstimate]:
    """Two-start smoothing estimates with common random numbers.

    Both ensembles reuse the same per-replica streams, so the difference of
    means is estimated pairwise.  The bound combines the Girsanov gap bound
    (floor term, |phi|_inf) with the coupling decay (exp(-delta t), lip).
    """
    phi.require_bounded_lipschitz()
    lam = cfg.potential.lam if cfg.potential.active else 0.0
    rate = contraction_rate(N, lam)
    kappa = control_gain(cfg.cov, lam, N)
    dist0 = spectral.seminorm(x0 - y0, -1.0)

    snap = sorted(set(int(round(t / cfg.dt)) for t in ts))
    if any(s < 1 or s > cfg.steps for s in snap):
        raise ValueError("requested times fall outside the horizon")
    res_x = dynamics.run_ensemble(x0, cfg, replicas, snap_steps=snap, threads=threads)
    res_y = dynamics.run_ensemble(y0, cfg, replicas, snap_steps=snap, threads=threads)

    floor = girsanov_bound(dist0, kappa, rate.operational) * phi.sup_bound
    out = []
    for s in snap:
        t = s * cfg.dt
        vx = observables.evaluate(phi, res_x.snapshots[s], cfg)
        vy = observables.evaluate(phi, res_y.snapshots[s], cfg)
        diff = vx - vy
        lhs = abs(float(np.mean(diff)))
        se = float(np.std(diff, ddof=1) / math.sqrt(replicas))
        bound = floor + math.exp(-rate.operational * t) * phi.lip * dist0
        out.append(AsfEstimate(t=t, lhs=lhs, se=se, bound=bound))
    return out

"""Diagonal trace-class noise, exact linear (OU) law, and RNG streams.

The covariance acts diagonally in the cosine basis with eigenvalues b_k >= 0,
b_0 = 0 so the spatial mean is conserved, and b_k > 0 on an elliptic band
k = 1..N.  Under the linear drift -(1/2) A^2 every mode is an independent
Ornstein-Uhlenbeck process; its transition law is computed exactly here

    mean_k(t) = exp(-alpha_k^2 t / 2) x_k,
    var_k(t)  = b_k (1 - exp(-alpha_k^2 t)) / alpha_k^2,

which is the per-mode integral of the stochastic convolution under this
drift.  All samplers take an explicit generator; ensembles use one
counter-based (Philox) stream per replica keyed by (seed, replica) so runs
reproduce bit-exactly regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import ModeVector

MASK64 = (1 << 64) - 1

# replica indices at or above this value are reserved for auxiliary draws
# (initial conditions, oracles) so they never collide with ensemble members
AUX_STREAM_BASE = 1 << 48
# replica r's stiff-retry bridge normals use key BRIDGE_STREAM_BASE + r, above
# every replica and auxiliary key
BRIDGE_STREAM_BASE = 1 << 49


def stream(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, replica); splittable and stable."""
    key = np.array([seed & MASK64, replica & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def aux_stream(seed: int, slot: int = 0) -> np.random.Generator:
    """Stream for auxiliary sampling, disjoint from all replica streams."""
    return stream(seed, AUX_STREAM_BASE + slot)


def bridge_stream(seed: int, replica: int) -> np.random.Generator:
    """Brownian-bridge normals for the stiff retries of one replica."""
    return stream(seed, BRIDGE_STREAM_BASE + replica)


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """Diagonal noise covariance: eigenvalues b (length M+1) and band N.

    Requires b_0 = 0 (mean conservation) and b_k > 0 for k = 1..N (the
    elliptic band used by the coupling construction).
    """

    b: np.ndarray
    band: int

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a 1-d sequence with at least mode 0")
        if not np.all(np.isfinite(b)) or np.any(b < 0):
            raise ValueError("b must be finite and nonnegative")
        if b[0] != 0.0:
            raise ValueError("b_0 must vanish: mode-0 noise would break mean conservation")
        if not 0 <= self.band <= b.size - 1:
            raise ValueError(f"band N={self.band} outside 0..{b.size - 1}")
        if np.any(b[1 : self.band + 1] == 0.0):
            bad = int(np.flatnonzero(b[1 : self.band + 1] == 0.0)[0]) + 1
            raise ValueError(
                f"b_{bad} = 0 inside the band: the elliptic assumption needs "
                f"b_k > 0 for every k in 1..{self.band}"
            )
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if not isinstance(other, CovarianceSpec):
            return NotImplemented
        return self.band == other.band and np.array_equal(self.b, other.b)

    @property
    def order(self) -> int:
        return self.b.size - 1

    @property
    def active_modes(self) -> np.ndarray:
        """Indices k with b_k > 0 (all >= 1)."""
        return np.flatnonzero(self.b > 0.0)

    @classmethod
    def zero(cls, M: int) -> "CovarianceSpec":
        return cls(np.zeros(M + 1), 0)

    @classmethod
    def from_pairs(cls, pairs, band: int, M: int) -> "CovarianceSpec":
        b = np.zeros(M + 1)
        for k, bk in pairs:
            if not 0 <= k <= M:
                raise ValueError(f"mode index {k} outside 0..{M}")
            b[k] = bk
        return cls(b, band)

    def to_pairs(self) -> list[tuple[int, float]]:
        return [(int(k), float(self.b[k])) for k in self.active_modes]

    def paper_band_condition(self, lam: float) -> bool:
        """Diagnostic check of the unit-normalized band inequality
        (N+1)^2/2 - lam > 0; the operational condition lives in coupling."""
        return 0.5 * (self.band + 1) ** 2 - lam > 0.0


def trace_gamma(cov: CovarianceSpec, gamma: float) -> float:
    """Weighted trace sum_{k>=1} b_k alpha_k^gamma (finite: b has finite support)."""
    active = cov.active_modes
    if active.size == 0:
        return 0.0
    alpha = spectral.eigenvalues(cov.order)[active]
    return float(np.sum(cov.b[active] * alpha**gamma))


def wiener_increment(cov: CovarianceSpec, dt: float, rng: np.random.Generator) -> ModeVector:
    """One noise increment: independent N(0, b_k dt) per mode, mode 0 = 0.

    Standard normals are drawn for the active modes in increasing k, the
    draw order every driver in this package uses.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = np.zeros(cov.order + 1)
    active = cov.active_modes
    if active.size:
        out[active] = rng.standard_normal(active.size) * np.sqrt(cov.b[active] * dt)
    return ModeVector(out)


@dataclass(frozen=True)
class LinearLaw:
    """Gaussian law of the linear solution at time t: per-mode mean/variance."""

    mean: np.ndarray
    var: np.ndarray
    t: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        var = np.asarray(self.var, dtype=np.float64)
        if mean.shape != var.shape or mean.ndim != 1:
            raise ValueError("mean and var must be 1-d arrays of equal length")
        if np.any(var < 0) or var[0] != 0.0:
            raise ValueError("variances must be >= 0 with var_0 = 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    def sample(self, rng: np.random.Generator) -> ModeVector:
        out = self.mean.copy()
        hot = np.flatnonzero(self.var > 0.0)
        if hot.size:
            out[hot] += rng.standard_normal(hot.size) * np.sqrt(self.var[hot])
        return ModeVector(out)

    def sample_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.tile(self.mean, (count, 1))
        hot = np.flatnonzero(self.var > 0.0)
        if hot.size:
            out[:, hot] += rng.standard_normal((count, hot.size)) * np.sqrt(self.var[hot])
        return out


def linear_law(x: ModeVector, t: float, cov: CovarianceSpec) -> LinearLaw:
    """Exact transition law of the linear equation started at x.

    mean_k = exp(-alpha_k^2 t/2) x_k and var_k = b_k (1-exp(-alpha_k^2 t)) / alpha_k^2
    for k >= 1; the mean mode is deterministic.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if x.order != cov.order:
        raise ValueError("state and covariance truncation orders differ")
    alpha = spectral.eigenvalues(x.order)
    mean = x.coeffs.copy()
    mean[1:] *= np.exp(-0.5 * alpha[1:] ** 2 * t)
    var = np.zeros_like(mean)
    var[1:] = cov.b[1:] * -np.expm1(-alpha[1:] ** 2 * t) / alpha[1:] ** 2
    return LinearLaw(mean=mean, var=var, t=t)


def stationary_variances(cov: CovarianceSpec) -> np.ndarray:
    """Long-time per-mode variances b_k / alpha_k^2 (0 for mode 0)."""
    alpha = spectral.eigenvalues(cov.order)
    out = np.zeros(cov.order + 1)
    out[1:] = cov.b[1:] / alpha[1:] ** 2
    return out


def sample_stationary_gaussian(c: float, cov: CovarianceSpec, rng: np.random.Generator) -> ModeVector:
    """Draw from the invariant Gaussian of the linear flow with mean c.

    Mode 0 is pinned to c; mode k >= 1 is N(0, b_k / alpha_k^2).
    """
    var = stationary_variances(cov)
    mean = np.zeros(cov.order + 1)
    mean[0] = c
    return LinearLaw(mean=mean, var=var, t=float("inf")).sample(rng)

"""Neumann cosine eigenbasis on (0,1): transforms and Sobolev scales.

The basis is e_0 = 1, e_k(theta) = sqrt(2) cos(k pi theta), orthonormal in
L^2(0,1).  These are the eigenfunctions of the Laplacian with zero-flux
boundary conditions; all arithmetic here uses the nonnegative eigenvalues

    alpha_k = (k pi)^2

of the *negated* Laplacian, which removes any sign ambiguity downstream.

Fields are represented either by their coefficients in this basis (a
``ModeVector`` of length M+1, mode 0 being the spatial mean) or by values at
the midpoint nodes theta_q = (q + 1/2)/Q, both as arrays over the last axis.
Midpoint nodes keep the discrete cosine family exactly orthogonal, so
analyze_many/synthesize_many is an exact round trip on band-limited data;
both directions are realized with fast DCTs.  Synthesis runs its DCT in
place on the zero-padded array it builds; analysis does so only when the
caller hands over its grid values (``overwrite=True``), as the step kernel
does with each fresh nonlinearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

SQRT2 = math.sqrt(2.0)


def eigenvalue(k: int) -> float:
    """Eigenvalue alpha_k = (k pi)^2 of the negated Neumann Laplacian."""
    if k < 0:
        raise ValueError(f"mode index must be >= 0, got {k}")
    return (k * math.pi) ** 2


def eigenvalues(M: int) -> np.ndarray:
    """Vector (alpha_0, ..., alpha_M)."""
    return (np.arange(M + 1) * math.pi) ** 2


def nodes(Q: int) -> np.ndarray:
    """Midpoint quadrature nodes theta_q = (q + 1/2)/Q, q = 0..Q-1."""
    return (np.arange(Q) + 0.5) / Q


def default_grid_size(M: int) -> int:
    """Default dealiasing grid: Q = 4(M + 1)."""
    return 4 * (M + 1)


def exact_dealias_size(M: int, n: int) -> int:
    """Grid size making the degree-(2n+1) nonlinearity alias-free.

    Products of a band-limited field (max frequency M) under the polynomial
    reach frequency (2n+1)M; midpoint-grid aliasing folds frequency 2Q - k
    onto -e_k, so modes 0..M stay clean once (2n+1)M + (M+1) <= 2Q.
    """
    return math.ceil(((2 * n + 1) * M + M + 1) / 2)


@dataclass(frozen=True)
class ModeVector:
    """Coefficients of a field in the cosine basis; entry k multiplies e_k.

    coeffs[0] is the spatial mean of the represented field.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a 1-d sequence with at least mode 0")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def mean(self) -> float:
        return float(self.coeffs[0])

    @classmethod
    def zeros(cls, M: int) -> "ModeVector":
        return cls(np.zeros(M + 1))

    @classmethod
    def constant(cls, value: float, M: int) -> "ModeVector":
        c = np.zeros(M + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def unit(cls, k: int, M: int, amplitude: float = 1.0) -> "ModeVector":
        c = np.zeros(M + 1)
        c[k] = amplitude
        return cls(c)

    def __add__(self, other: "ModeVector") -> "ModeVector":
        return ModeVector(self.coeffs + other.coeffs)

    def __sub__(self, other: "ModeVector") -> "ModeVector":
        return ModeVector(self.coeffs - other.coeffs)


def synthesize_many(coeffs: np.ndarray, Q: int) -> np.ndarray:
    """Evaluate fields at the midpoint nodes; coeffs has shape (..., M+1).

    values[..., q] = c_0 + sqrt(2) * sum_k c_k cos(k pi theta_q), via a
    type-III DCT of the zero-padded, half-weighted coefficient array.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    M = coeffs.shape[-1] - 1
    if Q < M + 1:
        raise ValueError(f"grid size Q={Q} must be at least M+1={M + 1}")
    pad = np.zeros(coeffs.shape[:-1] + (Q,))
    pad[..., 0] = coeffs[..., 0]
    np.divide(coeffs[..., 1:], SQRT2, out=pad[..., 1 : M + 1])
    return scipy.fft.dct(pad, type=3, axis=-1, overwrite_x=True)


def analyze_many(values: np.ndarray, M: int, overwrite: bool = False) -> np.ndarray:
    """Project grid values onto modes 0..M; values has shape (..., Q).

    coeffs[..., k] = (1/Q) sum_q values[..., q] e_k(theta_q).  Exact inverse
    of :func:`synthesize_many` whenever Q >= M+1.  With overwrite=True the
    DCT may run in place and leave `values` destroyed.
    """
    values = np.asarray(values, dtype=np.float64)
    Q = values.shape[-1]
    if Q < M + 1:
        raise ValueError(f"grid size Q={Q} must be at least M+1={M + 1}")
    raw = scipy.fft.dct(values, type=2, axis=-1, overwrite_x=overwrite)
    out = np.empty(values.shape[:-1] + (M + 1,))
    np.divide(raw[..., 0], 2.0 * Q, out=out[..., 0])
    np.divide(raw[..., 1 : M + 1], SQRT2 * Q, out=out[..., 1:])
    return out


def gradient_matrix(M: int, Q: int) -> np.ndarray:
    """Matrix D with D[k-1, q] = e_k'(theta_q), k = 1..M.

    Coefficients (..., M+1) map to grid derivatives via coeffs[..., 1:] @ D.
    """
    k = np.arange(1, M + 1)[:, None]
    theta = nodes(Q)[None, :]
    return -SQRT2 * k * math.pi * np.sin(k * math.pi * theta)


def seminorm_sq_many(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    """Squared seminorm sum_{k>=1} alpha_k^gamma c_k^2 over the last axis."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    M = coeffs.shape[-1] - 1
    w = eigenvalues(M)[1:] ** gamma
    return np.einsum("...k,k->...", coeffs[..., 1:] ** 2, w)


def seminorm(v: ModeVector, gamma: float) -> float:
    """Sobolev seminorm |v|_gamma = (sum_{k>=1} alpha_k^gamma v_k^2)^(1/2).

    Mode 0 is excluded; the seminorm vanishes on constants.
    """
    return float(np.sqrt(seminorm_sq_many(v.coeffs, gamma)))


def norm(v: ModeVector, gamma: float) -> float:
    """Full norm ||v||_gamma = (|v|_gamma^2 + mean^2)^(1/2)."""
    return float(np.sqrt(seminorm_sq_many(v.coeffs, gamma) + v.mean**2))

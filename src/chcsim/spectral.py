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
analyze_many/synthesize_many is an exact round trip on band-limited data.
Both directions multiply by a cached cosine matrix, and BLAS only ever sees
tiles of exactly ``TILE`` = 8 rows (the last one zero-padded): a row's bits
then depend on that row alone, never on the batch it shares or on how many
worker threads split the batch.  They do depend on the BLAS build and CPU,
and from M = 192 on (analysis, measured on two CPUs) on OPENBLAS_NUM_THREADS.

At N of order 30 modes a matrix product beats an FFT-based transform (Boyd,
Chebyshev and Fourier Spectral Methods, 2001, ch. 10): at M = 32, Q = 132 it
is faster than a DCT from one row up.  The tile is the smallest whose
1000-row transforms there cost about what 32-row tiles do, so a path or a
pair pays for 8 rows, not 32.  Each tile is one BLAS call, which packs the
whole cosine matrix: at M = 256 a 1000-row batch takes twice as long as on
32-row tiles, and a batch of a few rows is still slower than a DCT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
# rows per BLAS call of the transforms; every call has exactly this many
TILE = 8


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


@functools.lru_cache(maxsize=16)
def _cosine_matrices(M: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (S, A): S[k, q] = e_k(theta_q), shape (M+1, Q), and A = S^T / Q."""
    # k pi theta_q = pi k (2q+1) / (2Q); reduce k (2q+1) mod 4Q exactly first
    j = (np.arange(M + 1)[:, None] * (2 * np.arange(Q) + 1)[None, :]) % (4 * Q)
    S = SQRT2 * np.cos(j * (math.pi / (2 * Q)))
    S[0] = 1.0
    A = np.ascontiguousarray(S.T / Q)
    S.flags.writeable = A.flags.writeable = False
    return S, A


def _tiled_matmul(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat over the last axis of x, calling BLAS on TILE-row tiles only: the
    full tiles as one stack, the rest (maybe the whole batch) copied straight
    into one zero-padded tile whose product fills out's last tile."""
    (K, N), lead = mat.shape, x.shape[:-1]
    R = math.prod(lead)
    full = R - R % TILE
    out = np.empty((full + TILE if full < R else R, N))
    if full:
        rows = np.ascontiguousarray(x).reshape(R, K)
        np.matmul(rows[:full].reshape(-1, TILE, K), mat, out=out[:full].reshape(-1, TILE, N))
        x = rows[full:]
    if full < R:  # np.dot: the same BLAS call as matmul's, with less overhead
        tile = np.zeros((TILE, K))
        tile[: R - full].reshape(x.shape)[...] = x
        np.dot(tile, mat, out=out[full:])
    return out[:R].reshape(lead + (N,))


def synthesize_many(coeffs: np.ndarray, Q: int) -> np.ndarray:
    """Evaluate fields at the midpoint nodes; coeffs has shape (..., M+1).

    values[..., q] = c_0 + sqrt(2) * sum_k c_k cos(k pi theta_q).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    M = coeffs.shape[-1] - 1
    if Q < M + 1:
        raise ValueError(f"grid size Q={Q} must be at least M+1={M + 1}")
    return _tiled_matmul(coeffs, _cosine_matrices(M, Q)[0])


def analyze_many(values: np.ndarray, M: int) -> np.ndarray:
    """Project grid values onto modes 0..M; values has shape (..., Q).

    coeffs[..., k] = (1/Q) sum_q values[..., q] e_k(theta_q).  Exact inverse
    of :func:`synthesize_many` whenever Q >= M+1.
    """
    values = np.asarray(values, dtype=np.float64)
    Q = values.shape[-1]
    if Q < M + 1:
        raise ValueError(f"grid size Q={Q} must be at least M+1={M + 1}")
    return _tiled_matmul(values, _cosine_matrices(M, Q)[1])


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

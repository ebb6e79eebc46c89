"""Logarithmic nonlinearity, its odd-polynomial truncations, and potentials.

The exact nonlinearity is

    f(u) = ln((1 - u)/(1 + u)) + lam * u        on (-1, 1),

evaluated by ``nonlinearity_grid``, which raises SingularInputError at any
|u| >= 1, and the degree-(2n+1) truncations

    f_n(u) = -2 sum_{k=0}^{n} u^(2k+1)/(2k+1) + lam * u
           = u * sum_{k=0}^{n} c_k u^(2k),   c_0 = lam - 2,  c_k = -2/(2k+1),

defined on all of R and evaluated in the second form, lam and the factor -2
folded into the coefficients of one Horner pass in u^2.  The map
u -> f_n(u) - lam*u is odd and monotone non-increasing; everything the
simulator asserts about contraction rests on that sign property.  The
potential F (an antiderivative of -f) feeds the free-energy monitor, and the
quadratic-in-lambda rate polynomial at the bottom of the module controls the
dissipation budgets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral

# points per in-place pass of nonlinearity_poly: its one scratch block (u^2)
# and the block of output stay in cache.  Swept at 1000 x 132 points, n = 4,
# one thread: 0.51-0.59 ms per call at 16,384, 0.45-0.54 ms at 32,768 and
# 65,536, 1.47 ms at 131,072 and above.  The block size never changes a bit.
POLY_BLOCK = 32_768


class SingularInputError(ValueError):
    """A field value hit the singular set |u| >= 1 of the exact nonlinearity."""


@dataclass(frozen=True)
class PotentialSpec:
    """Nonlinearity selector: coefficient lam plus truncation order.

    n is the polynomial truncation order (degree 2n+1); n = None selects the
    exact logarithm.  active = False disables the nonlinearity entirely
    (f == 0), which is the linear test mode; it then carries lam = 0 and
    n = None, so lam is the coefficient in force whatever active says.
    """

    lam: float = 0.0
    n: int | None = None
    active: bool = True

    def __post_init__(self):
        if self.n is not None and self.n < 0:
            raise ValueError(f"n: truncation order must be >= 0, got {self.n}")
        if not self.active and self.lam != 0.0:
            raise ValueError(f"lambda: an inactive potential (potential = off) has lambda = 0, "
                             f"got {self.lam}")
        if not self.active and self.n is not None:
            raise ValueError(f"n: an inactive potential has no truncation order, got {self.n}")

    @classmethod
    def truncated(cls, n: int, lam: float) -> "PotentialSpec":
        return cls(lam=lam, n=n, active=True)

    @classmethod
    def exact(cls, lam: float) -> "PotentialSpec":
        return cls(lam=lam, n=None, active=True)

    @classmethod
    def off(cls) -> "PotentialSpec":
        return cls(lam=0.0, n=None, active=False)

    @functools.cached_property
    def horner(self) -> tuple[float, tuple[float, ...], float | None]:
        """f_n's folded coefficients, built once: (c_0, (c_{n-1}..c_1), c_n or None at n=0)."""
        coeffs = [self.lam - 2.0] + [-2.0 / (2 * k + 1) for k in range(1, self.n + 1)]
        return coeffs[0], tuple(coeffs[-2:0:-1]), coeffs[-1] if self.n else None

    @property
    def is_truncated(self) -> bool:
        return self.active and self.n is not None

    @property
    def is_exact(self) -> bool:
        return self.active and self.n is None


def nonlinearity_poly(u, spec: PotentialSpec):
    """Polynomial truncation f_n(u) = u * sum_{k=0}^{n} c_k u^(2k), with
    c_0 = lam - 2 and c_k = -2/(2k+1).

    lam and the factor -2 are folded into the spec's ``horner`` coefficients,
    so one Horner pass in u^2 and a final product with u give f_n (exactly odd
    in u), in place over blocks of POLY_BLOCK points so u^2 and out stay in cache.
    """
    if not spec.is_truncated:
        raise ValueError("nonlinearity_poly requires a truncated PotentialSpec")
    u_arr = np.asarray(u, dtype=np.float64)
    flat_u = u_arr.reshape(-1)
    out = np.empty(flat_u.size)
    c0, middle, top = spec.horner
    u2 = np.empty(min(POLY_BLOCK, flat_u.size))
    for lo in range(0, flat_u.size, POLY_BLOCK):
        x, acc = flat_u[lo : lo + POLY_BLOCK], out[lo : lo + POLY_BLOCK]
        if top is None:  # n = 0: f_0(u) = c_0 u
            np.multiply(x, c0, out=acc)
            continue
        sq = u2[: x.size]
        np.multiply(x, x, out=sq)
        np.multiply(sq, top, out=acc)
        for c in middle:
            acc += c
            acc *= sq
        acc += c0
        acc *= x
    return float(out[0]) if u_arr.ndim == 0 else out.reshape(u_arr.shape)


def nonlinearity_grid(u: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """Nonlinearity on grid values, dispatching on the spec's mode.

    Exact mode raises SingularInputError when any node sits outside (-1, 1).
    """
    if not spec.active:
        return np.zeros_like(np.asarray(u, dtype=np.float64))
    if spec.is_truncated:
        return nonlinearity_poly(u, spec)
    u = np.asarray(u, dtype=np.float64)
    if np.any(np.abs(u) >= 1.0):
        raise SingularInputError("grid value reached |u| >= 1 in exact mode")
    return np.log((1.0 - u) / (1.0 + u)) + spec.lam * u


def log_potential_part(c: float) -> float:
    """(1+c) ln(1+c) + (1-c) ln(1-c), the lambda-free part of the potential.

    Defined on [-1, 1]; the endpoint limit is 2 ln 2.
    """
    if abs(c) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {c}")
    if abs(c) == 1.0:
        return 2.0 * math.log(2.0)
    return (1.0 + c) * math.log(1.0 + c) + (1.0 - c) * math.log(1.0 - c)


def potential_poly_value(u, spec: PotentialSpec):
    """Term-wise antiderivative of -f_n:

    F_n(u) = sum_{k=0}^{n} u^(2k+2) / ((2k+1)(k+1)) - lam u^2 / 2.
    """
    if not spec.is_truncated:
        raise ValueError("potential_poly_value requires a truncated PotentialSpec")
    u = np.asarray(u, dtype=np.float64)
    u2 = u * u
    n = spec.n
    acc = np.full_like(u, 1.0 / ((2 * n + 1) * (n + 1)))
    for k in range(n - 1, -1, -1):
        acc *= u2
        acc += 1.0 / ((2 * k + 1) * (k + 1))
    out = u2 * acc - 0.5 * spec.lam * u2
    if np.ndim(out) == 0:
        return float(out)
    return out


def free_energy_many(coeffs: np.ndarray, spec: PotentialSpec, Q: int | None = None) -> np.ndarray:
    """Free energy (1/2)|v|_1^2 + potential quadrature for states (..., M+1).

    The potential integral uses midpoint quadrature on Q nodes (default
    4(M+1)).  Exact mode demands all node values strictly inside (-1, 1).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if Q is None:
        Q = spectral.default_grid_size(coeffs.shape[-1] - 1)
    grad_sq = spectral.seminorm_sq_many(coeffs, 1.0)
    if not spec.active:
        return 0.5 * grad_sq
    u = spectral.synthesize_many(coeffs, Q)
    if spec.is_truncated:
        pot = potential_poly_value(u, spec)
    else:
        if np.any(np.abs(u) >= 1.0):
            raise SingularInputError("free energy undefined: grid value reached |u| >= 1")
        pot = (1.0 + u) * np.log(1.0 + u) + (1.0 - u) * np.log(1.0 - u) - 0.5 * spec.lam * u * u
    return 0.5 * grad_sq + np.mean(pot, axis=-1)


def budget_rate_polynomial(lam: float, c: float) -> float:
    """Drift part of the dissipation budget rate:

    P_c(lam) = (3/2)(1 - lam)^2 - c^2 lam + [(1+c)ln(1+c) + (1-c)ln(1-c)].

    Nonnegative for every |c| < 1 (its discriminant is <= 0).
    """
    if abs(c) >= 1.0:
        raise ValueError(f"mean must lie in (-1, 1), got {c}")
    return 1.5 * (1.0 - lam) ** 2 - c * c * lam + log_potential_part(c)

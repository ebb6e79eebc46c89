"""The README's potential algebra, checked by acceptance 08 and test_potential:
the potential F, the uniform tail bound of f_n - f, and the discriminant and
minimizer of the budget rate polynomial.  No run of the simulator reads these."""

from chcsim.potential import log_potential_part

SERIES_TOL = 1e-12
SERIES_MAX_TERMS = 10_000


def potential_value(u: float, lam: float) -> float:
    """Potential F(u) = (1+u)ln(1+u) + (1-u)ln(1-u) - lam u^2 / 2.

    F' = -f on (-1, 1); the closure values at u = +-1 are 2 ln 2 - lam/2.
    """
    if abs(u) > 1.0:
        raise ValueError(f"potential argument must lie in [-1, 1], got {u}")
    return log_potential_part(u) - 0.5 * lam * u * u


def tail_bound(n: int, r: float) -> float:
    """Uniform bound 2 sum_{k>n} r^(2k+1)/(2k+1) on sup_{|u|<=r} |f_n - f|."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    total = 0.0
    term_pow = r ** (2 * n + 3)
    r2 = r * r
    for k in range(n + 1, n + 1 + SERIES_MAX_TERMS):
        term = term_pow / (2 * k + 1)
        total += term
        if term < 1e-18:
            break
        term_pow *= r2
    return 2.0 * total


def _tail_series(c: float, tol: float) -> float:
    """sum_{k>=2} c^(2k+2) / ((2k+1)(2k+2)), summed until the term < tol."""
    total = 0.0
    c2 = c * c
    term_pow = c2**3
    for k in range(2, 2 + SERIES_MAX_TERMS):
        term = term_pow / ((2 * k + 1) * (2 * k + 2))
        total += term
        if term < tol:
            break
        term_pow *= c2
    return total


def budget_rate_discriminant(c: float, tol: float = SERIES_TOL) -> float:
    """Discriminant of the budget rate polynomial in lam:

    -12 sum_{k>=2} c^(2k+2) / ((2k+1)(2k+2)) <= 0.
    """
    if abs(c) >= 1.0:
        raise ValueError(f"mean must lie in (-1, 1), got {c}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return -12.0 * _tail_series(c, tol)


def budget_rate_minimizer(c: float, tol: float = SERIES_TOL) -> tuple[float, float]:
    """Minimizing lam* = c^2/3 + 1 and the minimum value of the rate polynomial.

    The minimum equals 2 sum_{k>=2} c^(2k+2)/((2k+1)(2k+2)) >= 0, evaluated
    by the same truncated series as the discriminant.
    """
    if abs(c) >= 1.0:
        raise ValueError(f"mean must lie in (-1, 1), got {c}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return c * c / 3.0 + 1.0, 2.0 * _tail_series(c, tol)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chcsim import potential, spectral
from chcsim.potential import PotentialSpec
from chcsim.spectral import ModeVector

import algebra

finite = st.floats(-8.0, 8.0, allow_nan=False)


def test_exact_values():
    assert potential.nonlinearity_grid(0.0, PotentialSpec.exact(3.7)) == 0.0
    assert potential.nonlinearity_grid(0.5, PotentialSpec.exact(0.0)) == pytest.approx(
        -1.0986122886681098, abs=1e-12
    )
    assert potential.nonlinearity_grid(-0.5, PotentialSpec.exact(2.0)) == pytest.approx(
        0.0986122886681097, abs=1e-12
    )


def test_exact_singular_signals():
    # one node on or beyond the singular set fails the whole grid
    for u in (1.0, -1.0, -1.2, 2.0):
        with pytest.raises(potential.SingularInputError):
            potential.nonlinearity_grid(np.array([0.0, u]), PotentialSpec.exact(1.0))


def test_poly_values():
    spec = PotentialSpec.truncated(1, 0.0)
    assert potential.nonlinearity_poly(0.0, spec) == 0.0
    assert potential.nonlinearity_poly(0.5, spec) == pytest.approx(-13.0 / 12.0)


def _poly_reference(u, n, lam):
    # f_n as evaluated before lam and -2 were folded into the coefficients:
    # Horner in u^2 on fresh arrays, then -2 * u * acc + lam * u
    u = np.asarray(u, dtype=np.float64)
    u2 = u * u
    acc = np.full_like(u, 1.0 / (2 * n + 1))
    for k in range(n - 1, -1, -1):
        acc *= u2
        acc += 1.0 / (2 * k + 1)
    return -2.0 * (u * acc) + lam * u


def _horner_bound(u, n, lam):
    """Sum of both sides' rounding bounds gamma_K |u| sum_k |c_k| u^(2k)
    (Higham 2002, sec. 5.1), K = 3n + 3 for each.

    A term c_k u^(2k+1) meets at most 2n Horner operations, k from the
    rounded u^2, one from its coefficient, one from the product with u and,
    in the reference, one from the final sum: 3n + 3.  The folded side has
    c_0 = lam - 2; the reference's terms are lam u and -2 u^(2k+1)/(2k+1).
    """
    K = 3 * n + 3
    gamma = K * 2.0**-53 / (1.0 - K * 2.0**-53)
    u = np.abs(np.asarray(u, dtype=np.float64))
    tail = sum(2.0 / (2 * k + 1) * u ** (2 * k) for k in range(1, n + 1))
    folded = u * (abs(lam - 2.0) + tail)
    reference = u * (abs(lam) + 2.0 + tail)
    return gamma * (folded + reference)


BLOCK_SHAPES = [(potential.POLY_BLOCK + d,) for d in (-1, 0, 1)] + [
    (3 * potential.POLY_BLOCK + 7,), (1000, 132), (0,),
]


@pytest.mark.parametrize("n, lam", [(0, 0.0), (1, -0.3), (4, 1.0), (20, 2.5)])
def test_poly_blocks_equal_reference(rng, n, lam):
    # equal up to the rounding of either Horner form: the folded one
    # evaluates the same polynomial in another order
    spec = PotentialSpec.truncated(n, lam)
    for shape in BLOCK_SHAPES:
        u = rng.uniform(-1.2, 1.2, size=shape)
        got = potential.nonlinearity_poly(u, spec)
        assert np.all(np.abs(got - _poly_reference(u, n, lam)) <= _horner_bound(u, n, lam))
        assert np.array_equal(potential.nonlinearity_grid(u, spec), got)
    strided = rng.uniform(-1.0, 1.0, size=(300, 264))[:, ::2]
    assert np.array_equal(
        potential.nonlinearity_poly(strided, spec),
        potential.nonlinearity_poly(np.ascontiguousarray(strided), spec),
    )
    for u in (0.0, -0.0, 0.37, np.float64(-0.81)):
        got = potential.nonlinearity_poly(u, spec)
        assert type(got) is float
        assert got == potential.nonlinearity_poly(np.array([u]), spec)[0]
        assert abs(got - float(_poly_reference(u, n, lam))) <= _horner_bound(u, n, lam)


@pytest.mark.parametrize(
    "block", [1, 7, potential.POLY_BLOCK, potential.POLY_BLOCK + 1, 2**20]
)
@pytest.mark.parametrize("n, lam", [(0, 0.0), (4, 1.0), (20, 2.5)])
def test_poly_block_size_never_changes_bits(rng, monkeypatch, block, n, lam):
    # a path equals its ensemble member only if a row's values do not depend
    # on where the blocks of its batch fall
    spec = PotentialSpec.truncated(n, lam)
    inputs = [rng.uniform(-1.2, 1.2, size=shape) for shape in BLOCK_SHAPES]
    if block == 1:  # one pass per point: the first 528 points of each input
        inputs = [u.reshape(-1)[:528].reshape((-1,) + u.shape[1:]) for u in inputs]
    want = [potential.nonlinearity_poly(u, spec) for u in inputs]
    monkeypatch.setattr(potential, "POLY_BLOCK", block)
    for u, w in zip(inputs, want):
        assert np.array_equal(potential.nonlinearity_poly(u, spec), w)


def test_poly_converges_to_exact():
    spec = PotentialSpec.truncated(60, 0.0)
    got = potential.nonlinearity_poly(0.5, spec)
    want = potential.nonlinearity_grid(0.5, PotentialSpec.exact(0.0))
    assert abs(got - want) < 1e-12


@given(finite, st.integers(0, 40), st.floats(-5.0, 5.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_poly_exactly_odd(u, n, lam):
    spec = PotentialSpec.truncated(n, lam)
    assert potential.nonlinearity_poly(-u, spec) == -potential.nonlinearity_poly(u, spec)


@given(finite, finite, st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_drift_part_monotone_non_increasing(a, b, n):
    # (p_n(a) - p_n(b)) (a - b) <= 0 for the lambda-free part
    spec = PotentialSpec.truncated(n, 0.0)
    pa = potential.nonlinearity_poly(a, spec)
    pb = potential.nonlinearity_poly(b, spec)
    assert (pa - pb) * (a - b) <= 1e-9 * max(1.0, abs(pa - pb) * abs(a - b))


@given(finite, finite, st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_shifted_sign_property(a, b, n):
    # (f_n(a+b) - f_n(a)) b <= 0 at lambda = 0
    spec = PotentialSpec.truncated(n, 0.0)
    gap = potential.nonlinearity_poly(a + b, spec) - potential.nonlinearity_poly(a, spec)
    assert gap * b <= 1e-9 * max(1.0, abs(gap * b))


def test_uniform_convergence_tail_bound():
    u = np.linspace(-0.9, 0.9, 2001)
    exact = potential.nonlinearity_grid(u, PotentialSpec.exact(0.0))
    for n in (2, 4, 8, 16, 32):
        approx = potential.nonlinearity_poly(u, PotentialSpec.truncated(n, 0.0))
        sup_err = np.max(np.abs(approx - exact))
        # the bound is attained at u = +-0.9, so allow roundoff-level slack
        assert sup_err <= algebra.tail_bound(n, 0.9) + 1e-12


def test_potential_values():
    assert algebra.potential_value(0.0, 2.5) == 0.0
    assert algebra.potential_value(0.5, 0.0) == pytest.approx(
        0.2616240718822739, abs=1e-12
    )
    assert algebra.potential_value(1.0, 3.0) == pytest.approx(2 * math.log(2) - 1.5)
    with pytest.raises(ValueError):
        algebra.potential_value(1.5, 0.0)


@pytest.mark.parametrize("u", [-0.3, 0.3])
def test_potential_is_antiderivative_of_minus_f(u):
    h = 1e-6
    lam = 1.3
    fd = (algebra.potential_value(u + h, lam) - algebra.potential_value(u - h, lam)) / (2 * h)
    assert fd == pytest.approx(-potential.nonlinearity_grid(u, PotentialSpec.exact(lam)), abs=1e-8)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_poly_potential_is_antiderivative(n):
    spec = PotentialSpec.truncated(n, 0.8)
    h = 1e-6
    for u in (-0.7, 0.2, 1.4):
        fd = (
            potential.potential_poly_value(u + h, spec)
            - potential.potential_poly_value(u - h, spec)
        ) / (2 * h)
        assert fd == pytest.approx(-potential.nonlinearity_poly(u, spec), abs=1e-6)


def test_poly_potential_converges():
    u = np.linspace(-0.9, 0.9, 401)
    lam = 0.4
    want = np.array([algebra.potential_value(x, lam) for x in u])
    got = potential.potential_poly_value(u, PotentialSpec.truncated(80, lam))
    assert np.max(np.abs(got - want)) < 1e-10


def test_free_energy_constant_state():
    spec = PotentialSpec.truncated(3, 0.9)
    v = ModeVector.constant(0.4, 16)
    want = float(potential.potential_poly_value(0.4, spec))
    assert potential.free_energy_many(v.coeffs, spec) == pytest.approx(want, abs=1e-12)


def test_free_energy_single_mode_against_refined_quadrature():
    spec = PotentialSpec.truncated(0, 0.0)
    v = ModeVector.unit(1, 8, amplitude=0.1)
    got = potential.free_energy_many(v.coeffs, spec)
    assert got == pytest.approx(0.05934802200544679, abs=1e-12)
    finer = potential.free_energy_many(v.coeffs, spec, Q=10 * spectral.default_grid_size(8))
    assert got == pytest.approx(finer, abs=1e-10)


def test_free_energy_exact_mode_singular():
    spec = PotentialSpec.exact(0.0)
    ok = ModeVector.unit(1, 8, amplitude=0.2)
    assert math.isfinite(potential.free_energy_many(ok.coeffs, spec))
    with pytest.raises(potential.SingularInputError):
        potential.free_energy_many(ModeVector.unit(1, 8, amplitude=0.9).coeffs, spec)


def test_budget_rate_polynomial_nonnegative_grid():
    lams = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    for c in (0.0, 0.5, -0.5, 0.9, -0.9):
        vals = [potential.budget_rate_polynomial(lam, c) for lam in lams]
        assert min(vals) >= -1e-12


def test_discriminant_nonpositive_grid():
    for c in np.linspace(-0.95, 0.95, 39):
        assert algebra.budget_rate_discriminant(float(c)) <= 0.0


def test_discriminant_series_oracle():
    # independent partial-sum oracle, terms until < 1e-12
    def oracle(c):
        total, k = 0.0, 2
        while True:
            term = c ** (2 * k + 2) / ((2 * k + 1) * (2 * k + 2))
            total += term
            if term < 1e-12:
                return -12.0 * total
            k += 1

    for c in (0.25, 0.5, 0.8):
        assert algebra.budget_rate_discriminant(c) == pytest.approx(oracle(c), abs=1e-12)
    assert algebra.budget_rate_discriminant(0.5) == pytest.approx(
        -0.007244431293643509, abs=1e-12
    )
    # closed-form cross-check of the same quantity
    c = 0.5
    closed = c**4 + 6 * c**2 - 6 * potential.log_potential_part(c)
    assert algebra.budget_rate_discriminant(c) == pytest.approx(closed, abs=1e-10)


def test_trivia_at_zero_mean():
    lam_star, minimum = algebra.budget_rate_minimizer(0.0)
    assert lam_star == 1.0
    assert minimum == 0.0
    assert potential.budget_rate_polynomial(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert algebra.budget_rate_discriminant(0.0) == 0.0


def test_minimizer_against_grid_search():
    for c in (0.3, 0.5, 0.9):
        lam_star, val = algebra.budget_rate_minimizer(c)
        assert lam_star == pytest.approx(c * c / 3.0 + 1.0, rel=1e-14)
        assert val == pytest.approx(
            potential.budget_rate_polynomial(lam_star, c), abs=1e-10
        )
        grid = np.linspace(lam_star - 0.5, lam_star + 0.5, 100_001)
        grid_min = min(potential.budget_rate_polynomial(float(l), c) for l in grid)
        assert val <= grid_min + 1e-10


def test_budget_rate_adds_trace():
    with pytest.raises(ValueError):
        potential.budget_rate_polynomial(0.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec.truncated(-1, 0.0)
    off = PotentialSpec.off()
    assert not off.active and off.lam == 0.0
    with pytest.raises(ValueError):
        potential.nonlinearity_poly(0.1, PotentialSpec.exact(1.0))


@pytest.mark.parametrize("lam, n", [(1.0, None), (0.0, 4), (-2.0, 0)])
def test_inactive_potential_carries_no_coefficient(lam, n):
    # an inactive potential means lam = 0, so callers read pot.lam directly
    with pytest.raises(ValueError, match="inactive potential"):
        PotentialSpec(lam=lam, n=n, active=False)

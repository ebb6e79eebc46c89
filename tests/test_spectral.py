import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from chcsim import spectral
from chcsim.spectral import ModeVector


def coeff_arrays(min_modes=2, max_modes=17):
    return st.lists(
        st.floats(-100.0, 100.0, allow_nan=False),
        min_size=min_modes,
        max_size=max_modes,
    ).map(np.array)


def test_eigenvalues():
    assert spectral.eigenvalue(0) == 0.0
    assert spectral.eigenvalue(1) == pytest.approx(9.8696044, abs=1e-6)
    # squared first eigenvalue is the spectral-gap constant of the decay rate
    assert spectral.eigenvalue(1) ** 2 == pytest.approx(math.pi**4)
    with pytest.raises(ValueError):
        spectral.eigenvalue(-1)


def test_synthesize_constant():
    v = ModeVector.constant(0.7, 5)
    g = spectral.synthesize_many(v.coeffs, 16)
    assert np.allclose(g, 0.7, atol=1e-14)


def test_synthesize_mode_one_explicit_nodes():
    v = ModeVector.unit(1, 3)
    g = spectral.synthesize_many(v.coeffs, 4)
    expected = math.sqrt(2) * np.cos(math.pi * (np.arange(4) + 0.5) / 4)
    assert np.allclose(g, expected, atol=1e-14)


def test_synthesize_requires_enough_nodes():
    with pytest.raises(ValueError):
        spectral.synthesize_many(ModeVector.zeros(5).coeffs, 5)


def test_analyze_constant():
    g = np.full(12, 0.3)
    v = spectral.analyze_many(g, 4)
    assert v[0] == pytest.approx(0.3, abs=1e-15)
    assert np.all(np.abs(v[1:]) < 1e-15)


def test_analyze_pure_cosine():
    theta = spectral.nodes(32)
    g = math.sqrt(2) * np.cos(2 * math.pi * theta)
    v = spectral.analyze_many(g, 8)
    expected = np.zeros(9)
    expected[2] = 1.0
    assert np.max(np.abs(v - expected)) < 1e-12


def test_round_trip_random(rng):
    v = rng.standard_normal(33)
    g = spectral.synthesize_many(v, 64)
    assert np.max(np.abs(spectral.analyze_many(g, 32) - v)) < 1e-12


def test_round_trip_large_truncation(rng):
    v = rng.standard_normal(257)
    Q = spectral.default_grid_size(256)
    back = spectral.analyze_many(spectral.synthesize_many(v, Q), 256)
    assert np.max(np.abs(back - v)) < 1e-10


def test_basis_orthonormality_on_grid():
    M, Q = 12, 52
    for j in range(M + 1):
        g = spectral.synthesize_many(ModeVector.unit(j, M).coeffs, Q)
        v = spectral.analyze_many(g, M)
        expected = np.zeros(M + 1)
        expected[j] = 1.0
        assert np.max(np.abs(v - expected)) < 1e-12


def test_dealiased_nonlinearity_matches_dense_quadrature(rng):
    # degree-(2n+1) image analyzed on the rule-sized grid vs a dense oracle
    from chcsim.potential import PotentialSpec, nonlinearity_poly

    M, n = 8, 2
    spec = PotentialSpec.truncated(n, 0.7)
    v = 0.1 * rng.standard_normal(M + 1)
    Q_rule = spectral.exact_dealias_size(M, n)
    Q_dense = 4096
    img_rule = spectral.analyze_many(
        nonlinearity_poly(spectral.synthesize_many(v, Q_rule), spec), M
    )
    img_dense = spectral.analyze_many(
        nonlinearity_poly(spectral.synthesize_many(v, Q_dense), spec), M
    )
    assert np.max(np.abs(img_rule - img_dense)) < 1e-8


def _synthesize_reference(coeffs, Q):
    # type-III DCT of the zero-padded, half-weighted coefficients
    M = coeffs.shape[-1] - 1
    pad = np.zeros(coeffs.shape[:-1] + (Q,))
    pad[..., 0] = coeffs[..., 0]
    pad[..., 1 : M + 1] = coeffs[..., 1:] / spectral.SQRT2
    return scipy.fft.dct(pad, type=3, axis=-1)


def _analyze_reference(values, M):
    raw = scipy.fft.dct(values, type=2, axis=-1)
    out = np.empty(values.shape[:-1] + (M + 1,))
    out[..., 0] = raw[..., 0] / (2.0 * values.shape[-1])
    out[..., 1:] = raw[..., 1 : M + 1] / (spectral.SQRT2 * values.shape[-1])
    return out


def _dot_bound(x, scale=1.0):
    # twice the worst-case rounding of a K-term dot product of x with entries
    # at most sqrt(2) * scale in size, gamma_K * sqrt(2) * scale * sum|x|:
    # once for each side
    K = x.shape[-1]
    gamma = K * np.finfo(float).eps / (1 - K * np.finfo(float).eps)
    return 2 * gamma * spectral.SQRT2 * scale * np.sum(np.abs(x), axis=-1, keepdims=True)


@pytest.mark.parametrize(
    "lead, M, Q", [((), 8, 9), ((3,), 8, 36), ((1000,), 32, 132), ((2, 5), 32, 165)]
)
def test_in_place_transforms_equal_pad_then_dct(rng, lead, M, Q):
    # the tiled cosine products agree with the DCT to within rounding
    coeffs = rng.standard_normal(lead + (M + 1,))
    kept = coeffs.copy()
    grid = spectral.synthesize_many(coeffs, Q)
    assert np.all(np.abs(grid - _synthesize_reference(kept, Q)) <= _dot_bound(kept))
    assert np.array_equal(coeffs, kept)
    strided = rng.standard_normal(lead + (2 * (M + 1),))[..., ::2]
    strided_grid = spectral.synthesize_many(strided, Q)
    assert np.array_equal(strided_grid, spectral.synthesize_many(strided.copy(), Q))
    assert np.all(
        np.abs(strided_grid - _synthesize_reference(strided, Q)) <= _dot_bound(strided)
    )

    values = rng.standard_normal(lead + (Q,))
    kept = values.copy()
    got = spectral.analyze_many(values, M)
    assert np.all(np.abs(got - _analyze_reference(kept, M)) <= _dot_bound(kept, 1 / Q))
    assert np.array_equal(values, kept)


@pytest.mark.parametrize("M, Q", [(32, 132), (8, 36)])
def test_transform_row_does_not_depend_on_its_tile(rng, M, Q):
    x, v = rng.standard_normal(M + 1), rng.standard_normal(Q)
    alone_grid, alone_coeffs = spectral.synthesize_many(x, Q), spectral.analyze_many(v, M)
    for r in range(spectral.TILE):
        tile = rng.standard_normal((spectral.TILE, M + 1))
        tile[r] = x
        assert np.array_equal(spectral.synthesize_many(tile, Q)[r], alone_grid)
        tile = rng.standard_normal((spectral.TILE, Q))
        tile[r] = v
        assert np.array_equal(spectral.analyze_many(tile, M)[r], alone_coeffs)
    # every batch size, below, at and above one tile, against one row per tile
    T = spectral.TILE
    for mat in spectral._cosine_matrices(M, Q):
        for R in (0, 1, 2, T - 1, T, T + 1, 2 * T + 1):
            x = rng.standard_normal((R, mat.shape[0]))
            want = np.empty((R, mat.shape[1]))
            for i, row in enumerate(x):
                tile = np.zeros((spectral.TILE, mat.shape[0]))
                tile[0] = row
                want[i] = np.matmul(tile, mat)[0]
            assert np.array_equal(spectral._tiled_matmul(x, mat), want)


# (M, Q) of the BLAS-thread test: at M = 96 and 128 the product of a 32-row
# tile depended on the BLAS thread count on two CPUs; an 8-row tile's does not
_THREAD_SIZES = ((32, 132), (8, 36), (96, 388), (128, 516))
# the transforms in a fresh interpreter limited to one BLAS thread
_ONE_THREAD_PROBE = """
import sys
import numpy as np
from chcsim import spectral
out = {}
for M, Q in %r:
    rng = np.random.default_rng(M)
    out[f"s{M}"] = spectral.synthesize_many(rng.standard_normal((75, M + 1)), Q)
    out[f"a{M}"] = spectral.analyze_many(rng.standard_normal((75, Q)), M)
np.savez(sys.argv[1], **out)
print("scipy.fft" in sys.modules)
""" % (_THREAD_SIZES,)


def test_transforms_equal_single_thread_blas(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    path = tmp_path / "one_thread.npz"
    done = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_PROBE, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"  # the package does not load scipy.fft
    single = np.load(path)
    for M, Q in _THREAD_SIZES:
        rng = np.random.default_rng(M)
        grid = spectral.synthesize_many(rng.standard_normal((75, M + 1)), Q)
        assert np.array_equal(grid, single[f"s{M}"])
        assert np.array_equal(spectral.analyze_many(rng.standard_normal((75, Q)), M), single[f"a{M}"])


def test_seminorm_values():
    e1 = ModeVector.unit(1, 6)
    assert spectral.seminorm(e1, -1.0) == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert spectral.seminorm(e1, 0.0) == pytest.approx(1.0)
    # mode 0 never contributes
    assert spectral.seminorm(ModeVector.constant(3.0, 6), -1.0) == 0.0
    assert spectral.norm(ModeVector.constant(3.0, 6), -1.0) == pytest.approx(3.0)


@given(coeff_arrays())
@settings(max_examples=60, deadline=None)
def test_interpolation_inequality(coeffs):
    coeffs[0] = 0.0
    v = ModeVector(coeffs)
    s0 = spectral.seminorm(v, 0.0)
    bound = spectral.seminorm(v, -1.0) * spectral.seminorm(v, 1.0)
    assert s0**2 <= bound * (1 + 1e-10) + 1e-12


@given(coeff_arrays(), st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_seminorm_homogeneous(coeffs, scale):
    v = ModeVector(coeffs)
    scaled = spectral.seminorm(ModeVector(v.coeffs * scale), 1.0)
    assert scaled == pytest.approx(abs(scale) * spectral.seminorm(v, 1.0), rel=1e-10, abs=1e-12)


@given(coeff_arrays(min_modes=5, max_modes=5), coeff_arrays(min_modes=5, max_modes=5))
@settings(max_examples=60, deadline=None)
def test_seminorm_triangle(a, b):
    u, v = ModeVector(a), ModeVector(b)
    for gamma in (-1.0, 0.0, 1.0):
        lhs = spectral.seminorm(u + v, gamma)
        rhs = spectral.seminorm(u, gamma) + spectral.seminorm(v, gamma)
        assert lhs <= rhs * (1 + 1e-10) + 1e-12


@given(coeff_arrays(min_modes=6, max_modes=12), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_projections(coeffs, N):
    v = ModeVector(coeffs)
    N = min(N, v.order)
    in_band = np.arange(v.order + 1) <= N
    low = ModeVector(np.where(in_band, v.coeffs, 0.0))
    high = ModeVector(np.where(in_band, 0.0, v.coeffs))
    assert np.array_equal(low.coeffs + high.coeffs, v.coeffs)
    total = spectral.norm(v, 0.0) ** 2
    split = spectral.norm(low, 0.0) ** 2 + spectral.norm(high, 0.0) ** 2
    assert split == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_high_block_spectral_gap(rng):
    # |pi_h v|_1^2 >= alpha_(N+1) |pi_h v|_0^2
    for _ in range(20):
        v = ModeVector(rng.standard_normal(17))
        N = int(rng.integers(0, 8))
        high = ModeVector(np.where(np.arange(17) <= N, 0.0, v.coeffs))
        lhs = spectral.seminorm(high, 1.0) ** 2
        rhs = spectral.eigenvalue(N + 1) * spectral.seminorm(high, 0.0) ** 2
        assert lhs >= rhs * (1 - 1e-12)


def test_parseval_against_refined_trapezoid(rng):
    M, Q = 16, 68
    v = rng.standard_normal(M + 1)
    g = spectral.synthesize_many(v, Q)
    coeffs = spectral.analyze_many(g, M)
    # endpoint-inclusive 4x-refined grid, direct cosine evaluation
    theta = np.linspace(0.0, 1.0, 4 * Q + 1)
    k = np.arange(M + 1)[:, None]
    basis = np.where(k == 0, 1.0, math.sqrt(2) * np.cos(k * math.pi * theta[None, :]))
    dense = coeffs @ basis
    integral = np.trapezoid(dense**2, theta)
    norm_sq = spectral.seminorm_sq_many(coeffs, 0.0) + coeffs[0] ** 2
    assert integral == pytest.approx(norm_sq, abs=1e-6)


def test_gradient_matrix_matches_finite_differences(rng):
    M, Q = 10, 44
    v = rng.standard_normal(M + 1)
    grad = v[1:] @ spectral.gradient_matrix(M, Q)
    h = 1e-6
    theta = spectral.nodes(Q)
    k = np.arange(M + 1)[:, None]

    def field(t):
        basis = np.where(k == 0, 1.0, math.sqrt(2) * np.cos(k * math.pi * t[None, :]))
        return v @ basis

    fd = (field(theta + h) - field(theta - h)) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-4


def test_mode_vector_validation():
    with pytest.raises(ValueError):
        ModeVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ModeVector(np.array([[1.0, 2.0]]))

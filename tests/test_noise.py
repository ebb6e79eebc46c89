import math

import numpy as np
import pytest
import scipy.stats

from chcsim import noise, spectral
from chcsim.noise import CovarianceSpec
from chcsim.spectral import ModeVector

from conftest import band_cov, standard_cov


def test_covariance_validation():
    with pytest.raises(ValueError, match="mean conservation"):
        CovarianceSpec(np.array([0.5, 1.0]), 1)
    with pytest.raises(ValueError, match="elliptic"):
        CovarianceSpec(np.array([0.0, 1.0, 0.0, 0.0]), 2)
    with pytest.raises(ValueError):
        CovarianceSpec(np.array([0.0, -1.0]), 1)
    cov = band_cov(4, [(1, 1.0), (3, 0.5)], 1)
    assert list(cov.active_modes) == [1, 3]


def test_covariance_pairs_roundtrip():
    cov = band_cov(8, [(1, 1.0), (2, 0.25)], 2)
    back = CovarianceSpec.from_pairs(cov.to_pairs(), band=2, M=8)
    assert back == cov


def test_paper_band_condition():
    cov = standard_cov(8)
    assert cov.paper_band_condition(1.0)  # (2+1)^2/2 - 1 > 0
    assert not cov.paper_band_condition(5.0)


def test_trace_values():
    M = 8
    assert noise.trace_gamma(band_cov(M, [(1, 1.0)], 1), -1.0) == pytest.approx(
        0.10132118364233778, abs=1e-12
    )
    assert noise.trace_gamma(
        band_cov(M, [(1, 1.0), (2, 0.5)], 2), -1.0
    ) == pytest.approx(0.11398633159763, abs=1e-10)
    cov = band_cov(M, [(1, 0.7), (2, 0.5), (5, 0.1)], 2)
    assert noise.trace_gamma(cov, 0.0) == pytest.approx(1.3)


def test_trace_linear_and_monotone():
    M = 8
    a = band_cov(M, [(1, 1.0), (2, 0.5)], 2)
    b = band_cov(M, [(1, 2.0), (2, 1.0)], 2)
    assert noise.trace_gamma(b, -1.0) == pytest.approx(2 * noise.trace_gamma(a, -1.0))
    # alpha_k >= 1 for k >= 1, so the trace grows with gamma
    assert noise.trace_gamma(a, 1.0) >= noise.trace_gamma(a, 0.0) >= noise.trace_gamma(a, -1.0)


def test_wiener_increment_basics():
    cov = standard_cov(8)
    rng = noise.stream(7, 0)
    dw = noise.wiener_increment(cov, 1e-3, rng)
    assert dw.coeffs[0] == 0.0
    assert np.all(dw.coeffs[3:] == 0.0)  # b_k = 0 there
    with pytest.raises(ValueError):
        noise.wiener_increment(cov, 0.0, rng)


def test_wiener_increment_deterministic():
    cov = standard_cov(8)
    a = noise.wiener_increment(cov, 1e-3, noise.stream(42, 5))
    b = noise.wiener_increment(cov, 1e-3, noise.stream(42, 5))
    assert np.array_equal(a.coeffs, b.coeffs)
    c = noise.wiener_increment(cov, 1e-3, noise.stream(42, 6))
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_wiener_increment_variance():
    cov = standard_cov(8)
    rng = noise.stream(99, 0)
    dt = 0.01
    draws = np.array(
        [noise.wiener_increment(cov, dt, rng).coeffs[1] for _ in range(100_000)]
    )
    var = draws.var(ddof=1)
    target = cov.b[1] * dt
    tol = 3.0 * target * math.sqrt(2.0 / (draws.size - 1))
    assert abs(var - target) <= tol


def test_linear_law_trivia():
    cov = standard_cov(8)
    x = ModeVector(np.linspace(-0.4, 0.4, 9) * np.array([0, 1, 1, 1, 1, 1, 1, 1, 1.0]))
    law0 = noise.linear_law(x, 0.0, cov)
    assert np.array_equal(law0.mean, x.coeffs)
    assert np.all(law0.var == 0.0)
    with pytest.raises(ValueError):
        noise.linear_law(x, -1.0, cov)


def test_linear_law_values_and_limit():
    cov = standard_cov(8)
    x = ModeVector.unit(1, 8, amplitude=0.3)
    law = noise.linear_law(x, 1.0, cov)
    assert law.var[1] == pytest.approx(0.010265982254684335, abs=1e-14)
    assert law.mean[1] == pytest.approx(0.3 * math.exp(-math.pi**4 / 2.0), rel=1e-12)
    late = noise.linear_law(x, 1e3, cov)
    stat = noise.stationary_variances(cov)
    assert np.allclose(late.var, stat, rtol=1e-12)
    assert np.allclose(late.mean[1:], 0.0)
    assert late.mean[0] == x.coeffs[0]


def test_linear_law_semigroup_composition():
    # law at t+s from x == propagate(law at t) by s, mode by mode
    cov = standard_cov(8)
    x = ModeVector(0.1 * np.arange(9.0) * (np.arange(9) > 0))
    t, s = 0.02, 0.035
    law_ts = noise.linear_law(x, t + s, cov)
    law_t = noise.linear_law(x, t, cov)
    alpha = spectral.eigenvalues(8)
    decay = np.exp(-0.5 * alpha**2 * s)
    mean_comp = law_t.mean * decay
    mean_comp[0] = law_t.mean[0]
    var_comp = law_t.var * decay**2 + noise.linear_law(x, s, cov).var
    assert np.allclose(law_ts.mean, mean_comp, rtol=1e-12)
    assert np.allclose(law_ts.var, var_comp, rtol=1e-12)


def test_stationary_sampler_moments():
    cov = standard_cov(8)
    rng = noise.stream(3, 0)
    samples = np.array(
        [noise.sample_stationary_gaussian(0.25, cov, rng).coeffs for _ in range(100_000)]
    )
    assert np.all(samples[:, 0] == 0.25)
    target = cov.b[1] / spectral.eigenvalue(1) ** 2
    var = samples[:, 1].var(ddof=1)
    assert abs(var - target) <= 3.0 * target * math.sqrt(2.0 / (samples.shape[0] - 1))
    assert np.all(samples[:, 3:] == 0.0)


def test_zero_covariance_sampler():
    cov = CovarianceSpec.zero(6)
    out = noise.sample_stationary_gaussian(0.5, cov, noise.stream(1, 0))
    expected = np.zeros(7)
    expected[0] = 0.5
    assert np.array_equal(out.coeffs, expected)


def test_sampler_matches_linear_law_at_moderate_time():
    # OU mixing: by t = 2 the transition law is the stationary law
    cov = standard_cov(8)
    x = ModeVector.unit(1, 8, amplitude=0.4)
    law = noise.linear_law(x, 2.0, cov)
    rng = noise.stream(11, 0)
    draws = np.array(
        [noise.sample_stationary_gaussian(0.0, cov, rng).coeffs[1] for _ in range(10_000)]
    )
    ks = scipy.stats.kstest(
        draws, scipy.stats.norm(law.mean[1], math.sqrt(law.var[1])).cdf
    ).statistic
    assert ks < 0.02


def test_aux_streams_disjoint():
    cov = standard_cov(8)
    a = noise.wiener_increment(cov, 1.0, noise.aux_stream(5, 0))
    b = noise.wiener_increment(cov, 1.0, noise.stream(5, 0))
    assert not np.array_equal(a.coeffs, b.coeffs)


def test_bridge_streams_have_their_own_key_range():
    def key(gen):
        return tuple(int(k) for k in gen.bit_generator.state["state"]["key"])

    bridges = {key(noise.bridge_stream(5, r)) for r in range(3)}
    others = {key(noise.stream(5, r)) for r in range(3)}
    others |= {key(noise.aux_stream(5, slot)) for slot in range(3)}
    assert len(bridges) == 3 and not bridges & others
    # replica indices and auxiliary slots both stay below 2**48
    assert noise.BRIDGE_STREAM_BASE >= 2 * noise.AUX_STREAM_BASE

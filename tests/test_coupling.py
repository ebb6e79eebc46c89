import math

import numpy as np
import pytest

from chcsim import coupling, dynamics, observables, spectral
from chcsim.coupling import BandTooSmallError
from chcsim.errors import CheckFailure
from chcsim.noise import CovarianceSpec
from chcsim.spectral import ModeVector

from conftest import band_cov, make_cfg, perturbed_state, standard_cov

PI = math.pi


def test_contraction_rate_values():
    rate = coupling.contraction_rate(1, 1.0)
    assert rate.nominal == pytest.approx(2 * PI)
    assert rate.operational == pytest.approx(PI**4 / 2.0, rel=1e-12)
    assert rate.operational == pytest.approx(48.7045455, abs=1e-6)


def test_contraction_rate_positive_without_lambda():
    for N in range(4):
        rate = coupling.contraction_rate(N, 0.0)
        assert rate.nominal > 0 and rate.operational > 0


def test_contraction_rate_band_too_small():
    with pytest.raises(BandTooSmallError):
        coupling.contraction_rate(0, 50.0)  # alpha_1 < 50


def test_control_values():
    cov = standard_cov(8)
    zero = coupling.control(ModeVector.zeros(8), cov, 2.0, N=2)
    assert np.all(zero.coeffs == 0.0)
    nolam = coupling.control(ModeVector.unit(1, 8), cov, 0.0, N=2)
    assert np.all(nolam.coeffs == 0.0)
    w = coupling.control(ModeVector.unit(1, 8), cov, 2.0, N=2)
    assert w.coeffs[1] == pytest.approx(-(PI**2), rel=1e-12)
    assert np.all(w.coeffs[2:] == 0.0) and w.coeffs[0] == 0.0


def test_control_requires_band_noise():
    cov = band_cov(8, [(1, 1.0)], 1)  # b_2 = 0
    with pytest.raises(BandTooSmallError):
        coupling.control(ModeVector.unit(1, 8), cov, 1.0, N=2)


def test_control_gains():
    cov = standard_cov(8)
    lam = 1.0
    a1, a2 = spectral.eigenvalue(1), spectral.eigenvalue(2)
    assert coupling.control_gain(cov, lam, 2) == pytest.approx(0.5 * a2**1.5)
    assert coupling.control_gain_low(cov, lam, 2) == pytest.approx(0.5 * a2)
    assert coupling.control_gain(cov, 0.0, 2) == 0.0
    # control size against the gain, mode by mode
    y = ModeVector(np.array([0.0, 0.3, -0.2, 0.5, 0.0, 0, 0, 0, 0]))
    w = coupling.control(y, cov, lam, N=2)
    assert np.linalg.norm(w.coeffs) <= coupling.control_gain(cov, lam, 2) * spectral.seminorm(
        y, -1.0
    ) * (1 + 1e-12)


def test_coupled_identical_starts():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), seed=23)
    x0 = perturbed_state(cfg, 0.4)
    rec = coupling.simulate_coupled(x0, x0, cfg, N=2)
    assert np.all(rec.dist_m1 == 0.0)
    assert np.all(rec.control_sq_integral == 0.0)
    assert np.all(rec.log_weight == 0.0)
    assert rec.terminal_weight == 1.0


def test_coupled_contraction_invariants():
    cfg = make_cfg(
        M=32, dt=1e-4, T=0.1, cov=standard_cov(32), n=4, lam=1.0, seed=29, save_every=10
    )
    x0 = perturbed_state(cfg, 0.6, slot=0)
    y0 = perturbed_state(cfg, 0.6, slot=1)
    rec = coupling.simulate_coupled(x0, y0, cfg, N=2)  # check=True asserts decay
    d0 = rec.dist_m1[0]
    delta = rec.rate.operational
    envelope = d0 * np.exp(-delta * rec.times) * 1.05
    assert np.all(rec.dist_m1 <= envelope)
    # control magnitude and its tail integral, with discretization slack
    assert np.all(
        rec.control_norm <= rec.kappa * d0 * np.exp(-delta * rec.times) * 1.05 + 1e-14
    )
    assert rec.control_sq_integral[-1] <= rec.kappa**2 * d0**2 / (2 * delta) * 1.05
    assert rec.fitted_rate() >= 0.9 * delta


def test_coupled_no_lambda_means_no_control():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=0.0, seed=31)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    rec = coupling.simulate_coupled(x0, y0, cfg, N=2)
    assert np.all(rec.control_norm == 0.0)
    assert np.all(rec.log_weight == 0.0)
    assert rec.dist_m1[-1] < rec.dist_m1[0]


def test_coupled_check_raises_on_violation():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=37)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    with pytest.raises(CheckFailure):
        coupling.simulate_coupled(x0, y0, cfg, N=2, tol=-0.9999)


def test_coupled_ensemble_matches_single():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=41,
                   save_every=10)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    rec = coupling.simulate_coupled(x0, y0, cfg, N=2)
    ens = coupling.coupled_ensemble(x0, y0, cfg, 2, replicas=1, record_dist_path=True)
    assert ens.log_weight[0] == pytest.approx(rec.log_weight[-1], rel=1e-12, abs=1e-14)
    assert ens.int_w_sq[0] == pytest.approx(rec.control_sq_integral[-1], rel=1e-12, abs=1e-14)
    assert np.allclose(np.sqrt(ens.dist_sq_path[0]), rec.dist_m1, rtol=1e-10, atol=1e-14)


def test_girsanov_gap_trivia():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=43)
    x0 = perturbed_state(cfg, 0.4)
    gg = coupling.girsanov_gap(x0, x0, cfg, 2, replicas=16)
    assert gg.estimate == 0.0
    assert gg.martingale_mean == 1.0
    assert gg.bound == 0.0


def test_girsanov_gap_statistics():
    cfg = make_cfg(M=16, dt=2e-4, T=0.08, cov=standard_cov(16), n=4, lam=1.0, seed=47)
    x0 = ModeVector.constant(0.0, 16)
    y0 = ModeVector(x0.coeffs + 0.01 * PI * np.eye(17)[1])  # |x-y|_{-1} = 0.01
    gg = coupling.girsanov_gap(x0, y0, cfg, 2, replicas=2000)
    assert gg.dist0 == pytest.approx(0.01, rel=1e-12)
    assert abs(gg.martingale_mean - 1.0) <= 4.0 * gg.martingale_se
    assert gg.estimate <= gg.bound
    assert gg.estimate > 0.0


def test_girsanov_bound_formula():
    v = 0.3**2 * 4.0 / (2.0 * 50.0)
    assert coupling.girsanov_bound(0.3, 2.0, 50.0) == pytest.approx(
        math.exp(0.5 * v) * math.sqrt(v)
    )


def test_asf_trivia_and_floor():
    cfg = make_cfg(M=16, dt=1e-3, T=0.2, cov=standard_cov(16), n=4, lam=1.0, seed=53)
    x0 = perturbed_state(cfg, 0.3)
    phi = observables.tanh_mode(1)
    rows = coupling.asf_estimate(phi, x0, x0, [0.05, 0.2], cfg, 2, replicas=8)
    assert all(r.lhs == 0.0 for r in rows)
    # the bound decreases to the Girsanov floor as t grows
    y0 = perturbed_state(cfg, 0.3, slot=5)
    rows2 = coupling.asf_estimate(phi, x0, y0, [0.02, 0.1, 0.2], cfg, 2, replicas=8)
    bounds = [r.bound for r in rows2]
    assert bounds[0] > bounds[1] > bounds[2]
    d0 = spectral.seminorm(x0 - y0, -1.0)
    floor = coupling.girsanov_bound(
        d0, coupling.control_gain(cfg.cov, 1.0, 2), coupling.contraction_rate(2, 1.0).operational
    )
    assert bounds[2] >= floor


def test_asf_statistics_respect_bound():
    cfg = make_cfg(M=16, dt=5e-4, T=0.2, cov=standard_cov(16), n=4, lam=1.0, seed=61)
    x0 = ModeVector.constant(0.0, 16)
    y0 = ModeVector(x0.coeffs + 0.05 * PI * np.eye(17)[1])
    phi = observables.tanh_mode(1)
    rows = coupling.asf_estimate(phi, x0, y0, [0.05, 0.1, 0.2], cfg, 2, replicas=400)
    for r in rows:
        assert r.lhs <= r.bound + 3.0 * r.se
    # common random numbers make the early-time estimate informative
    assert rows[0].lhs > 0.0


def test_asf_requires_bounded_lipschitz():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), seed=59)
    x0 = perturbed_state(cfg, 0.3)
    with pytest.raises(ValueError, match="sup_bound"):
        coupling.asf_estimate(observables.mean(), x0, x0, [0.05], cfg, 2, replicas=4)


def test_rejected_step_books_no_control(monkeypatch):
    # reject the first candidate once: only the two accepted half-steps may
    # enter the control integral, and together they cover the horizon
    cfg = make_cfg(M=32, dt=1e-3, T=1e-3, cov=standard_cov(32))
    x0, y0 = ModeVector.unit(1, 32, amplitude=0.2), ModeVector.zeros(32)
    plain = coupling.simulate_coupled(x0, y0, cfg, N=2, check=False)
    assert plain.control_sq_integral[-1] == pytest.approx(0.974e-3, rel=1e-3)

    sup_ok, advance = dynamics._Kernel.sup_ok, dynamics.Engine.advance
    checks, dts = [], []

    def reject_first_candidate(self, grids):
        checks.append(len(checks))
        return sup_ok(self, grids) & (len(checks) != 2)  # check 1 tests the start

    def logged_advance(self, states, eta, dt, nl):
        dts.append(dt)
        return advance(self, states, eta, dt, nl)

    monkeypatch.setattr(dynamics._Kernel, "sup_ok", reject_first_candidate)
    monkeypatch.setattr(dynamics.Engine, "advance", logged_advance)
    rec = coupling.simulate_coupled(x0, y0, cfg, N=2, check=False)
    assert dts == [cfg.dt, cfg.dt / 2, cfg.dt / 2] and sum(dts[1:]) == cfg.T
    assert rec.control_sq_integral[-1] == pytest.approx(plain.control_sq_integral[-1], rel=0.05)

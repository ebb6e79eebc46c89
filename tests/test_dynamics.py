import math

import numpy as np
import pytest

from chcsim import dynamics, noise, potential, spectral
from chcsim.dynamics import StiffEventError
from chcsim.noise import CovarianceSpec
from chcsim.spectral import ModeVector

from conftest import band_cov, make_cfg, perturbed_state, standard_cov

PI4 = math.pi**4


def test_step_linear_implicit_euler():
    cfg = make_cfg(M=8, dt=1e-3, T=1.0, cov=CovarianceSpec.zero(8), potential_mode="off")
    v = ModeVector.unit(1, 8, amplitude=0.7)
    out = dynamics.step(v, ModeVector.zeros(8), cfg)
    assert out.coeffs[1] == 0.7 / (1.0 + 0.5 * cfg.dt * PI4)
    assert np.all(out.coeffs[2:] == 0.0)


def test_step_constant_is_equilibrium():
    cfg = make_cfg(M=8, dt=1e-3, c=0.3, cov=band_cov(8, [(1, 1.0)], 1), n=4, lam=1.0)
    v = ModeVector.constant(0.3, 8)
    out = dynamics.step(v, ModeVector.zeros(8), cfg)
    assert out.coeffs[0] == 0.3
    assert np.max(np.abs(out.coeffs[1:])) < 1e-15


def test_step_guard_signal():
    cfg = make_cfg(M=8, dt=1e-3, cov=CovarianceSpec.zero(8), n=4, lam=0.0, sup_guard=0.5)
    with pytest.raises(StiffEventError):
        dynamics.step(ModeVector.unit(1, 8, amplitude=0.9), ModeVector.zeros(8), cfg)


def test_simulate_linear_decay():
    cfg = make_cfg(
        M=8, dt=1e-4, T=0.05, cov=CovarianceSpec.zero(8), potential_mode="off", save_every=50
    )
    traj = dynamics.simulate(ModeVector.unit(1, 8), cfg)
    exact = math.exp(-PI4 * 0.05 / 2.0) / math.pi
    got = traj.observables["norm_m1"][-1]
    # the implicit scheme lags the exponential by exp(steps * (dt a/2)^2 / 2)
    assert abs(got - exact) / exact < cfg.dt * PI4
    assert traj.stiff_retries == 0


def test_simulate_deterministic_and_mass_exact():
    cfg = make_cfg(M=16, dt=1e-3, T=0.2, c=0.2, cov=standard_cov(16), seed=77)
    x0 = perturbed_state(cfg, 0.5)
    a = dynamics.simulate(x0, cfg)
    b = dynamics.simulate(x0, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.all(a.observables["mean"] == 0.2)


def test_simulate_rejects_wrong_mean():
    cfg = make_cfg(M=8, dt=1e-3, T=0.01, c=0.0, cov=standard_cov(8))
    with pytest.raises(ValueError, match="mean"):
        dynamics.simulate(ModeVector.constant(0.5, 8), cfg)


def test_simulate_matches_ensemble_member_zero():
    cfg = make_cfg(M=16, dt=1e-3, T=0.1, cov=standard_cov(16), seed=31, save_every=10)
    x0 = perturbed_state(cfg, 0.4)
    traj = dynamics.simulate(x0, cfg)
    res = dynamics.run_ensemble(x0, cfg, replicas=3)
    assert np.array_equal(res.final[0], traj.states[-1])


def test_ensemble_thread_count_is_invisible():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), seed=5)
    x0 = perturbed_state(cfg, 0.3)
    one = dynamics.run_ensemble(x0, cfg, 8, record_budgets=True, threads=1)
    three = dynamics.run_ensemble(x0, cfg, 8, record_budgets=True, threads=3)
    assert np.array_equal(one.final, three.final)
    for key in one.budgets:
        assert np.array_equal(one.budgets[key], three.budgets[key])


def test_ar1_stationary_variance_approaches_linear_law():
    # per-mode AR(1) fixpoint b dt a^2/(1-a^2) vs the exact b/alpha^2
    def ar1_var(b, alpha, dt):
        a = 1.0 / (1.0 + 0.5 * dt * alpha**2)
        return b * dt * a * a / (1.0 - a * a)

    alpha1 = spectral.eigenvalue(1)
    exact = 1.0 / alpha1**2
    assert abs(ar1_var(1.0, alpha1, 1e-4) - exact) / exact < 0.02
    errs = [abs(ar1_var(1.0, alpha1, dt) - exact) / exact for dt in (1e-3, 1e-4, 1e-5)]
    assert errs[0] > errs[1] > errs[2]
    alpha2 = spectral.eigenvalue(2)
    exact2 = 1.0 / alpha2**2
    errs2 = [abs(ar1_var(1.0, alpha2, dt) - exact2) / exact2 for dt in (1e-3, 1e-4, 1e-5)]
    assert errs2[0] > errs2[1] > errs2[2]


def test_linear_ensemble_matches_ou_law():
    cfg = make_cfg(
        M=8, dt=2.5e-4, T=0.5, cov=standard_cov(8), potential_mode="off", seed=9,
        save_every=200,
    )
    x0 = ModeVector(np.array([0.0, 0.4, -0.2, 0.1, 0, 0, 0, 0, 0.0]))
    res = dynamics.run_ensemble(x0, cfg, 4000)
    law = noise.linear_law(x0, cfg.horizon, cfg.cov)
    R = 4000
    for k in range(1, 9):
        tol_mean = 4.0 * math.sqrt(max(law.var[k], 1e-30) / R) + 1e-9
        assert abs(res.final[:, k].mean() - law.mean[k]) <= tol_mean
        if law.var[k] > 0:
            emp = res.final[:, k].var(ddof=1)
            # 4 sigma plus the O(dt alpha_k^2/4) implicit-scheme bias
            bias = law.var[k] * 0.25 * cfg.dt * spectral.eigenvalue(k) ** 2
            tol = 4.0 * law.var[k] * math.sqrt(2.0 / (R - 1)) + bias
            assert abs(emp - law.var[k]) <= tol


def test_budget_identity_deterministic_linear():
    cfg = make_cfg(
        M=8, dt=1e-4, T=0.2, cov=CovarianceSpec.zero(8), potential_mode="off"
    )
    x0 = ModeVector.unit(1, 8, amplitude=0.5)
    traj = dynamics.simulate(x0, cfg)
    budget = dynamics.ito_budget_m1(traj, cfg)
    scale = budget.initial_seminorm_sq
    assert abs(budget.lhs) <= cfg.dt * PI4 * scale
    assert budget.martingale == 0.0


def test_budget_identity_with_noise():
    cfg = make_cfg(
        M=8, dt=1e-4, T=0.5, cov=standard_cov(8), potential_mode="off", seed=21
    )
    x0 = ModeVector.zeros(8)
    traj = dynamics.simulate(x0, cfg)
    m1 = dynamics.ito_budget_m1(traj, cfg)
    trace = noise.trace_gamma(cfg.cov, -1.0)
    residual = m1.lhs - m1.martingale - cfg.horizon * trace
    assert abs(residual) <= 0.05 * cfg.horizon * trace
    m0 = dynamics.ito_budget_0(traj, cfg)
    trace0 = noise.trace_gamma(cfg.cov, 0.0)
    residual0 = m0.lhs - m0.martingale - cfg.horizon * trace0
    assert abs(residual0) <= 0.05 * cfg.horizon * trace0
    assert m0.gradient_functional == 0.0  # no truncated potential


def test_budget_bound_fields():
    cfg = make_cfg(M=8, dt=1e-3, T=0.2, c=0.25, cov=standard_cov(8), n=3, lam=0.8)
    x0 = perturbed_state(cfg, 0.2)
    traj = dynamics.simulate(x0, cfg)
    m1 = dynamics.ito_budget_m1(traj, cfg)
    q = potential.budget_rate(0.8, 0.25, noise.trace_gamma(cfg.cov, -1.0))
    assert m1.bound == pytest.approx(m1.initial_seminorm_sq + cfg.horizon * q)
    m0 = dynamics.ito_budget_0(traj, cfg)
    assert m0.gradient_functional >= 0.0
    assert m0.bound == pytest.approx(
        m0.initial_seminorm_sq + cfg.horizon * noise.trace_gamma(cfg.cov, 0.0)
    )


def test_stiff_event_deterministic_blowup():
    # lam large makes low modes grow deterministically; halving cannot help
    cfg = make_cfg(
        M=4, dt=1e-2, T=0.1, cov=CovarianceSpec.zero(4), n=0, lam=60.0, sup_guard=1.0
    )
    with pytest.raises(StiffEventError):
        dynamics.simulate(ModeVector.unit(1, 4, amplitude=0.5), cfg)


def test_stiff_initial_state():
    cfg = make_cfg(M=4, dt=1e-3, T=0.01, cov=CovarianceSpec.zero(4), n=2, sup_guard=0.2)
    with pytest.raises(StiffEventError, match="initial"):
        dynamics.simulate(ModeVector.unit(1, 4, amplitude=0.5), cfg)


def test_stiff_retry_can_recover():
    # the explicit high-degree term overshoots the guard at full dt but the
    # halved substeps relax instead (deterministic: no noise at all)
    cfg = make_cfg(
        M=8, dt=2e-3, T=0.04, cov=CovarianceSpec.zero(8), n=20, lam=0.0,
        sup_guard=1.5, save_every=1,
    )
    traj = dynamics.simulate(ModeVector.unit(2, 8, amplitude=0.85), cfg)
    assert traj.stiff_retries > 0
    assert np.max(traj.observables["sup"]) <= cfg.sup_guard


def test_ensemble_surfaces_stiff_replicas():
    cfg = make_cfg(
        M=4, dt=1e-2, T=0.1, cov=CovarianceSpec.zero(4), n=0, lam=60.0, sup_guard=1.0
    )
    x0 = ModeVector.unit(1, 4, amplitude=0.5)
    with pytest.raises(StiffEventError):
        dynamics.run_ensemble(x0, cfg, 4)
    res = dynamics.run_ensemble(x0, cfg, 4, strict=False)
    assert res.n_failed == 4
    assert np.all(res.failed_step >= 0)


def test_pair_identical_starts():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), seed=13)
    x0 = perturbed_state(cfg, 0.3)
    _, _, dist = dynamics.simulate_pair(x0, x0, cfg)
    assert np.all(dist == 0.0)


def test_pair_distance_non_increasing_without_lambda():
    cfg = make_cfg(M=16, dt=1e-3, T=0.3, cov=standard_cov(16), n=4, lam=0.0, seed=17,
                   save_every=10)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    _, _, dist = dynamics.simulate_pair(x0, y0, cfg)
    assert np.all(dist[1:] <= dist[:-1] * 1.01)


def test_free_energy_decays_along_deterministic_flow():
    # the equation is the H^{-1} gradient flow of the free energy
    cfg = make_cfg(
        M=16, dt=1e-5, T=0.005, cov=CovarianceSpec.zero(16), n=4, lam=1.0,
        save_every=10,
    )
    x0 = ModeVector(np.concatenate([[0.0, 0.3, -0.2, 0.1], np.zeros(13)]))
    traj = dynamics.simulate(x0, cfg)
    energy = traj.observables["energy"]
    scale = max(1.0, float(np.max(np.abs(energy))))
    assert np.all(np.diff(energy) <= 1e-9 * scale)


def test_save_grid_includes_last_step():
    cfg = make_cfg(M=8, dt=1e-3, T=0.0157, cov=standard_cov(8), save_every=5)
    marks = dynamics.save_steps(cfg)
    assert marks[0] == 0
    assert marks[-1] == cfg.steps
    traj = dynamics.simulate(ModeVector.zeros(8), cfg)
    assert traj.times[-1] == pytest.approx(cfg.horizon)


def test_snapshots_and_norm_path():
    cfg = make_cfg(M=8, dt=1e-3, T=0.05, cov=standard_cov(8), save_every=10, seed=2)
    res = dynamics.run_ensemble(
        ModeVector.zeros(8), cfg, 5, record_norm_path=True, snap_steps=[25, 50]
    )
    assert res.norm_m1_sq.shape == (5, len(res.times))
    assert set(res.snapshots) == {25, 50}
    assert np.array_equal(res.snapshots[50], res.final)


def test_sim_config_validation():
    cov = standard_cov(8)
    with pytest.raises(ValueError):
        make_cfg(M=8, dt=-1.0, cov=cov)
    with pytest.raises(ValueError):
        make_cfg(M=8, dt=1e-3, T=1e-4, cov=cov)
    with pytest.raises(ValueError):
        make_cfg(M=8, c=1.0, cov=cov)
    with pytest.raises(ValueError):
        make_cfg(M=16, cov=cov)  # covariance order mismatch


def test_batched_path_equals_simulate_through_retries():
    # row 0 retries on bridged substeps, row 1 never does; each row must equal
    # its own single run, and row 1 also member 1 of an ensemble
    cfg = make_cfg(
        M=8, dt=2e-3, T=0.04, cov=band_cov(8, [(1, 0.01), (2, 0.01)], 2), n=20, lam=0.0,
        sup_guard=1.5, seed=5,
    )
    stiff, calm = ModeVector.unit(2, 8, amplitude=0.85), ModeVector.zeros(8)
    batch = dynamics.simulate_many([stiff, calm], cfg)
    alone = dynamics.simulate(stiff, cfg)
    assert alone.stiff_retries > 0 and batch[1].stiff_retries == 0
    budgets = ("diss_h1", "diss_h2", "grad_functional", "mart_m1", "mart_0")
    for name in ("stiff_retries",) + budgets:
        assert getattr(batch[0], name) == getattr(alone, name)
    assert np.array_equal(batch[0].times, alone.times)
    assert np.array_equal(batch[0].states, alone.states)
    for name, values in alone.observables.items():
        assert np.array_equal(batch[0].observables[name], values)
    ens = dynamics.run_ensemble(calm, cfg, 2, record_budgets=True)
    assert np.array_equal(ens.final[1], batch[1].states[-1])
    for name in budgets:
        assert ens.budgets[name][1] == getattr(batch[1], name)

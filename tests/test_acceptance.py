"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything is desk scale (M <= 64, dt >= 1e-5, <= 1e4 replicas).
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from chcsim import coupling, dynamics, ergodics, noise, observables, potential, spectral
from chcsim.potential import PotentialSpec
from chcsim.spectral import ModeVector

import algebra
from conftest import band_cov, make_cfg, standard_cov

PI = math.pi
PI4 = PI**4


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def stationary_batch(cfg, replicas, scale, slot):
    """(R, M+1) mean-c starts: scaled stationary-shaped perturbations."""
    rng = noise.aux_stream(cfg.seed, slot)
    var = noise.stationary_variances(cfg.cov)
    out = np.zeros((replicas, cfg.M + 1))
    out[:, 0] = cfg.c
    hot = np.flatnonzero(var > 0)
    out[:, hot] += scale * rng.standard_normal((replicas, hot.size)) * np.sqrt(var[hot])
    return out


# ---------------------------------------------------------------------------
# shared nonlinear budget ensembles for criteria 6 and 7
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def budget_runs():
    runs = {}
    for c in (0.0, 0.5):
        for lam in (0.0, 1.0):
            cfg = make_cfg(
                M=32, dt=1e-3, T=1.0, c=c, lam=lam, n=4, cov=standard_cov(32),
                seed=2026, save_every=10,
            )
            res = dynamics.run_ensemble(
                ModeVector.constant(c, 32), cfg, 800,
                record_budgets=True,
            )
            runs[(c, lam)] = (cfg, res)
    return runs


def test_criterion_01_linear_oracle():
    with criterion(1, "linear oracle vs exact OU law"):
        cfg = make_cfg(
            M=8, dt=2e-5, T=1.0, cov=standard_cov(8), potential_mode="off",
            seed=4101, save_every=5000,
        )
        x0 = ModeVector(np.array([0.0, 0.4, -0.2, 0.1, 0.05, 0, 0, 0, 0.0]))
        R = 10_000
        res = dynamics.run_ensemble(x0, cfg, R)
        law = noise.linear_law(x0, cfg.horizon, cfg.cov)
        for k in range(1, cfg.M + 1):
            tol_mean = 3.0 * math.sqrt(law.var[k] / R) + 1e-12
            assert abs(res.final[:, k].mean() - law.mean[k]) <= tol_mean
            if law.var[k] > 0:
                emp = res.final[:, k].var(ddof=1)
                assert abs(emp - law.var[k]) <= 3.0 * law.var[k] * math.sqrt(2.0 / (R - 1))
        ks = scipy.stats.kstest(
            res.final[:, 1], scipy.stats.norm(law.mean[1], math.sqrt(law.var[1])).cdf
        ).statistic
        assert ks < 0.02


def test_criterion_02_mass_conservation(budget_runs):
    with criterion(2, "exact mass conservation"):
        cfg = make_cfg(
            M=32, dt=1e-3, T=1.0, c=0.3, lam=1.0, n=4, cov=standard_cov(32), seed=4202
        )
        traj = dynamics.simulate(
            ModeVector(np.concatenate([[0.3, 0.2, -0.1], np.zeros(30)])), cfg
        )
        assert np.max(np.abs(traj.states[:, 0] - 0.3)) <= 1e-12
        for (c, _), (_, res) in budget_runs.items():
            assert np.max(np.abs(res.final[:, 0] - c)) <= 1e-12


def test_criterion_03_lipschitz_growth_bound():
    with criterion(3, "pathwise growth bound exp(lam t)"):
        cfg = make_cfg(
            M=32, dt=1e-3, T=1.0, lam=1.0, n=4, cov=standard_cov(32), seed=4303,
            save_every=10,
        )
        R = 100
        x0s = stationary_batch(cfg, R, scale=0.6, slot=0)
        y0s = stationary_batch(cfg, R, scale=0.6, slot=1)
        # band 0 disables the control: both rows run the plain dynamics
        cfg = replace(cfg, cov=band_cov(32, [(1, 1.0), (2, 1.0)], 0))
        ens = coupling.coupled_ensemble(x0s, y0s, cfg, replicas=R)
        dist = np.sqrt(ens.dist_sq_path)
        envelope = dist[:, :1] * np.exp(1.0 * ens.times)[None, :] * 1.05
        assert np.all(dist <= envelope + 1e-300)


def test_criterion_04_coupling_decay():
    with criterion(4, "coupling decay at the operational rate"):
        cfg = make_cfg(
            M=32, dt=1e-4, T=0.12, lam=1.0, n=4, cov=standard_cov(32), seed=4404,
            save_every=20,
        )
        R = 50
        rate = coupling.contraction_rate(2, 1.0)
        x0s = stationary_batch(cfg, R, scale=0.6, slot=0)
        y0s = stationary_batch(cfg, R, scale=0.6, slot=1)
        ens = coupling.coupled_ensemble(x0s, y0s, cfg, replicas=R)
        dist = np.sqrt(ens.dist_sq_path)
        envelope = dist[:, :1] * np.exp(-rate * ens.times)[None, :]
        assert np.all(dist <= envelope * 1.05 + 1e-300)
        for r in range(R):
            slope = np.polyfit(ens.times, np.log(dist[r]), 1)[0]
            assert -slope >= 0.9 * rate


def test_criterion_05_girsanov_weight():
    with criterion(5, "Girsanov martingale and weight-gap bound"):
        cfg = make_cfg(
            M=32, dt=1e-4, T=0.08, lam=1.0, n=4, cov=standard_cov(32), seed=4505
        )
        x0 = ModeVector.constant(0.0, 32)
        direction = np.zeros(33)
        direction[1] = PI / math.sqrt(2.0)
        direction[2] = 2.0 * PI / math.sqrt(2.0)  # unit |.|_{-1} vector
        for d in (1e-3, 1e-2):
            y0 = ModeVector(x0.coeffs + d * direction)
            gg = coupling.girsanov_gap(x0, y0, replace(cfg, threads=2), replicas=10_000)
            assert gg.dist0 == pytest.approx(d, rel=1e-10)
            assert abs(gg.martingale_mean - 1.0) <= 3.0 * gg.martingale_se
            assert gg.estimate <= gg.bound


def test_criterion_06_dissipation_budget_m1(budget_runs):
    with criterion(6, "level -1 dissipation budget and decay envelope"):
        for (c, lam), (cfg, res) in budget_runs.items():
            R = res.final.shape[0]
            q = noise.trace_gamma(cfg.cov, -1.0) + potential.budget_rate_polynomial(lam, c)
            lhs = (
                spectral.seminorm_sq_many(res.final, -1.0)
                - 0.0
                + res.budgets["diss_h1"]
            )
            se = lhs.std(ddof=1) / math.sqrt(R)
            assert lhs.mean() <= cfg.horizon * q + 3.0 * se
            mean_curve = res.norm_m1_sq.mean(axis=0)
            se_curve = res.norm_m1_sq.std(axis=0, ddof=1) / math.sqrt(R)
            envelope = (0.0 - q / PI4) * np.exp(-PI4 * res.times) + q / PI4
            assert np.all(mean_curve <= envelope + 3.0 * se_curve + 1e-15)


def test_criterion_07_dissipation_budget_0(budget_runs):
    with criterion(7, "level 0 budget and nonnegative gradient functional"):
        for (c, lam), (cfg, res) in budget_runs.items():
            R = res.final.shape[0]
            trace0 = noise.trace_gamma(cfg.cov, 0.0)
            diss = res.budgets["diss_h2"]
            se = diss.std(ddof=1) / math.sqrt(R)
            assert diss.mean() <= 0.0 + cfg.horizon * trace0 + 3.0 * se
            assert np.all(res.budgets["grad_functional"] >= -1e-12)


def test_criterion_08_potential_algebra():
    with criterion(8, "rate polynomial, discriminant, minimizer, tails"):
        lams = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        for c in (0.0, 0.5, -0.5, 0.9, -0.9):
            assert algebra.budget_rate_discriminant(c) <= 0.0
            assert min(potential.budget_rate_polynomial(float(l), c) for l in lams) >= -1e-12
        for c in (0.0, 0.5, 0.9):
            lam_star, val = algebra.budget_rate_minimizer(c)
            grid = np.linspace(lam_star - 0.2, lam_star + 0.2, 40_001)
            grid_min = min(potential.budget_rate_polynomial(float(l), c) for l in grid)
            assert val <= grid_min + 1e-10
        u = np.linspace(-0.9, 0.9, 3001)
        exact = potential.nonlinearity_grid(u, PotentialSpec.exact(0.0))
        for n in (2, 4, 8, 16, 32):
            approx = potential.nonlinearity_poly(u, PotentialSpec.truncated(n, 0.0))
            assert np.max(np.abs(approx - exact)) <= algebra.tail_bound(n, 0.9) + 1e-12


def test_criterion_09_ergodic_uniqueness_evidence():
    with criterion(9, "start-independent long-run averages"):
        cfg = make_cfg(
            M=32, dt=1e-3, T=50.0, lam=1.0, n=4, cov=standard_cov(32), seed=4909,
            save_every=10,
        )
        far = stationary_batch(cfg, 1, scale=0.9 * 3.0, slot=7)[0]
        starts = [ModeVector.constant(0.0, 32), ModeVector(far)]
        phis = [
            observables.seminorm_sq(-1.0),
            observables.mode_moment(1, 2),
            observables.energy(),
        ]
        report = ergodics.uniqueness_evidence(starts, phis, cfg)
        assert report.consistent is True

        # linear regime: averages against the exact stationary moments
        lin_cfg = make_cfg(
            M=8, dt=2.5e-4, T=50.0, cov=standard_cov(8), potential_mode="off",
            seed=4910, save_every=20,
        )
        traj = dynamics.simulate(ModeVector.zeros(8), lin_cfg)
        var1 = 1.0 / PI4
        targets = {
            "mode1_sq": (observables.mode_moment(1, 2), var1),
            "mode1_quart": (observables.mode_moment(1, 4), 3.0 * var1**2),
            "m1_norm_sq": (
                observables.seminorm_sq(-1.0),
                sum(
                    lin_cfg.cov.b[k] / spectral.eigenvalue(k) ** 3
                    for k in (1, 2)
                ),
            ),
        }
        for phi, target in targets.values():
            ta = ergodics.time_average(traj, phi, burn_in=5.0)
            assert abs(ta.mean - target) <= ta.ci


def test_criterion_10_irreducibility_probe():
    with criterion(10, "reachability of the flat state's ball"):
        cfg = make_cfg(
            M=32, dt=1e-3, T=2.0, lam=1.0, n=4, cov=standard_cov(32), seed=5010
        )
        far = stationary_batch(cfg, 1, scale=3.0, slot=3)[0]
        modes = np.zeros(33)
        modes[1], modes[2] = 0.5, -0.3
        for x0 in (ModeVector.constant(0.0, 32), ModeVector(far), ModeVector(modes)):
            probe = ergodics.exit_probability(x0, 0.1, cfg, replicas=1000)
            assert probe.lower95 > 0.0


def test_criterion_11_truncation_limit_proxy():
    with criterion(11, "Cauchy decay of the truncation sweep"):
        cfg = make_cfg(
            M=32, dt=1e-3, T=1.0, lam=1.0, n=4, cov=standard_cov(32), seed=5111
        )
        sweep = ergodics.truncation_sweep(
            ModeVector.constant(0.0, 32),
            [2, 4, 8, 16],
            [observables.seminorm(-1.0)],
            cfg,
            replicas=1000,
        )
        name = "seminorm[-1]"
        diffs = sweep.diffs(name)
        assert np.all(np.diff(diffs) <= 0.0)
        assert sweep.last_within_se(name)
        assert all(r.failed == 0 for r in sweep.rows[name])


def test_criterion_12_transforms():
    with criterion(12, "transform round trip and Parseval"):
        rng = np.random.default_rng(5212)
        for M in (32, 64, 256):
            v = rng.standard_normal(M + 1)
            Q = spectral.default_grid_size(M)
            back = spectral.analyze_many(spectral.synthesize_many(v, Q), M)
            assert np.max(np.abs(back - v)) < 1e-10
        M, Q = 64, 260
        v = rng.standard_normal(M + 1)
        coeffs = spectral.analyze_many(spectral.synthesize_many(v, Q), M)
        theta = np.linspace(0.0, 1.0, 4 * Q + 1)
        k = np.arange(M + 1)[:, None]
        basis = np.where(k == 0, 1.0, math.sqrt(2) * np.cos(k * PI * theta[None, :]))
        dense = coeffs @ basis
        integral = np.trapezoid(dense**2, theta)
        assert integral == pytest.approx(
            float(spectral.seminorm_sq_many(coeffs, 0.0) + coeffs[0] ** 2), abs=1e-6
        )

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from chcsim import coupling, dynamics, ergodics, noise, observables, spectral
from chcsim.ergodics import InsufficientDataError
from chcsim.noise import CovarianceSpec
from chcsim.spectral import ModeVector

from conftest import make_cfg, perturbed_state, six_stiff_starts, standard_cov


def _ou_cfg(T, seed=61, dt=5e-4, save_every=10):
    return make_cfg(
        M=8, dt=dt, T=T, cov=standard_cov(8), potential_mode="off", seed=seed,
        save_every=save_every,
    )


def test_time_average_conserved_mean():
    cfg = make_cfg(M=8, dt=1e-3, T=0.5, c=0.3, cov=standard_cov(8), n=2, lam=0.5)
    traj = dynamics.simulate(ModeVector.constant(0.3, 8), cfg)
    ta = ergodics.time_average(traj, observables.mean(), burn_in=0.1)
    assert ta.ci == 0.0
    assert abs(ta.mean - 0.3) < 1e-14


def test_time_average_insufficient_data():
    cfg = make_cfg(M=8, dt=1e-3, T=0.5, cov=standard_cov(8), potential_mode="off")
    traj = dynamics.simulate(ModeVector.zeros(8), cfg)
    with pytest.raises(InsufficientDataError):
        ergodics.time_average(traj, observables.mean(), burn_in=0.499)
    with pytest.raises(InsufficientDataError):
        ergodics.time_average(traj, observables.mean(), burn_in=1.0)


def test_time_average_matches_ou_stationary_moment():
    cfg = _ou_cfg(T=50.0)
    traj = dynamics.simulate(ModeVector.zeros(8), cfg)
    ta = ergodics.time_average(traj, observables.mode_moment(1, 2), burn_in=5.0)
    target = cfg.cov.b[1] / spectral.eigenvalue(1) ** 2
    assert abs(ta.mean - target) <= ta.ci


def test_ci_width_follows_clt_scaling():
    # doubling the horizon shrinks the batch-means CI like 1/sqrt(T)
    horizons = [12.5, 25.0, 50.0, 100.0]
    phis = [observables.mode_moment(1, 2), observables.seminorm_sq(-1.0)]
    log_ci = []
    for T in horizons:
        cfg = _ou_cfg(T=T, seed=67, dt=1e-3, save_every=10)
        traj = dynamics.simulate(ModeVector.zeros(8), cfg)
        cis = [ergodics.time_average(traj, phi, burn_in=2.5).ci for phi in phis]
        log_ci.append(math.log(float(np.mean(cis))))
    slope = np.polyfit(np.log(horizons), log_ci, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_exit_probability_trivia():
    cfg = make_cfg(M=8, dt=1e-3, T=0.05, cov=standard_cov(8), n=4, lam=1.0, seed=71)
    x0 = perturbed_state(cfg, 0.5)
    big = spectral.seminorm(x0, -1.0) + 10.0
    probe = ergodics.exit_probability(x0, big, cfg, replicas=64)
    assert probe.estimate == 1.0
    assert probe.lower95 > 0.9
    with pytest.raises(ValueError):
        ergodics.exit_probability(x0, -1.0, cfg, replicas=8)


def test_exit_probability_monotone_in_radius():
    cfg = make_cfg(M=8, dt=1e-3, T=0.5, cov=standard_cov(8), n=4, lam=1.0, seed=73)
    x0 = perturbed_state(cfg, 0.5)
    # determinism makes the underlying ensemble identical across calls
    estimates = [
        ergodics.exit_probability(x0, r, cfg, replicas=300).estimate
        for r in (0.01, 0.03, 0.1, 0.3)
    ]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))


def _linear_ball_probability(x0, t, cov, radius, samples, rng, batch=100_000):
    """Mode-space oracle for the linear dynamics: sample the exact Gaussian
    law at time t and count the ball hits.  Returns (estimate, se)."""
    law = noise.linear_law(x0, t, cov)
    hot = np.flatnonzero(law.var > 0.0)
    hits = 0
    done = 0
    r_sq = radius * radius
    while done < samples:
        m = min(batch, samples - done)
        z = np.tile(law.mean, (m, 1))
        if hot.size:
            z[:, hot] += rng.standard_normal((m, hot.size)) * np.sqrt(law.var[hot])
        z[:, 0] -= x0.mean
        hits += int(np.sum(spectral.seminorm_sq_many(z, -1.0) <= r_sq))
        done += m
    p = hits / samples
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / samples)


def test_exit_probability_against_gaussian_oracle():
    cfg = _ou_cfg(T=0.3, seed=79, dt=2e-4, save_every=100)
    x0 = ModeVector.unit(1, 8, amplitude=0.2)
    radius = 0.035
    probe = ergodics.exit_probability(x0, radius, cfg, replicas=4000)
    p_oracle, se_oracle = _linear_ball_probability(
        x0, 0.3, cfg.cov, radius, samples=200_000, rng=noise.aux_stream(79, 9)
    )
    assert 0.05 < p_oracle < 0.95  # the radius actually discriminates
    combined = 3.0 * math.hypot(probe.se, se_oracle)
    assert abs(probe.estimate - p_oracle) <= combined + 0.01


def test_clopper_pearson():
    assert ergodics.clopper_pearson_lower(0, 100) == 0.0
    assert ergodics.clopper_pearson_lower(100, 100) == pytest.approx(0.025 ** (1 / 100))
    vals = [ergodics.clopper_pearson_lower(h, 50) for h in (1, 5, 25, 50)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert ergodics.clopper_pearson_lower(1, 1000) > 0.0
    with pytest.raises(ValueError):
        ergodics.clopper_pearson_lower(5, 4)


def test_special_quantiles_equal_scipy_stats():
    # the package writes out its t quantile and takes its beta quantiles from
    # scipy.special to keep scipy.stats off the import path; the values must not move
    q = scipy.special.stdtrit(ergodics.N_BATCHES - 1, 0.975)
    assert q == scipy.stats.t.ppf(0.975, ergodics.N_BATCHES - 1)
    assert ergodics.T_QUANTILE == q
    tail = (1.0 - 0.95) / 2.0  # the lower tail of a 95 % interval
    for n in (1, 7, 50, 1000, 5000):
        for hits in sorted({h for h in (1, 2, n // 3, n // 2, n - 1, n) if 1 <= h <= n}):
            want = scipy.stats.beta.ppf(tail, hits, n - hits + 1)
            assert scipy.special.betaincinv(hits, n - hits + 1, tail) == want
            assert ergodics.clopper_pearson_lower(hits, n) == float(want)


def test_truncation_sweep_identical_orders():
    cfg = make_cfg(M=16, dt=1e-3, T=0.2, cov=standard_cov(16), n=4, lam=1.0, seed=83)
    x0 = ModeVector.constant(0.0, 16)
    sweep = ergodics.truncation_sweep(x0, [4, 4], [observables.seminorm(-1.0)], cfg, replicas=32)
    assert sweep.diffs("seminorm[-1]")[0] == 0.0


def test_truncation_sweep_decreasing_differences():
    cfg = make_cfg(M=16, dt=1e-3, T=0.5, cov=standard_cov(16), n=4, lam=1.0, seed=89)
    x0 = ModeVector.constant(0.0, 16)
    sweep = ergodics.truncation_sweep(
        x0, [2, 4, 8], [observables.seminorm(-1.0)], cfg, replicas=300
    )
    name = "seminorm[-1]"
    assert sweep.monotone_decreasing(name)
    assert all(r.failed == 0 for r in sweep.rows[name])


def test_truncation_sweep_counts_parked_rows_and_needs_two_survivors():
    # of the six starts, failing at steps [4, 4, 2, 1, 1, 1], two steps leave
    # rows 0 and 1 and ten steps leave none
    full, x0 = six_stiff_starts()
    cfg = replace(full, T=0.02)
    phi = observables.seminorm(-1.0)
    (row,) = ergodics.truncation_sweep(x0, [0], [phi], cfg, replicas=6).rows[phi.name]
    res = dynamics.run_ensemble(x0, cfg, 6)
    assert res.failed_step.tolist() == [-1, -1, 2, 1, 1, 1]
    assert row.failed == 4
    assert row.mean == float(np.mean(observables.evaluate(phi, res.final[:2], cfg)))
    with pytest.raises(dynamics.StiffEventError, match="6 of 6") as err:
        ergodics.truncation_sweep(x0, [0], [phi], full, replicas=6)
    assert err.value.failed_replicas.tolist() == [0, 1, 2, 3, 4, 5]


def test_truncation_sweep_rejects_decreasing_orders():
    cfg = make_cfg(M=8, dt=1e-3, T=0.1, cov=standard_cov(8), n=4, lam=1.0)
    with pytest.raises(ValueError):
        ergodics.truncation_sweep(
            ModeVector.zeros(8), [4, 2], [observables.mean()], cfg, replicas=8
        )


def test_uniqueness_evidence_consistency():
    cfg = make_cfg(
        M=16, dt=1e-3, T=4.0, cov=standard_cov(16), n=4, lam=1.0, seed=97, save_every=5
    )
    starts = [ModeVector.constant(0.0, 16), perturbed_state(cfg, 0.9, slot=1)]
    phis = [observables.seminorm_sq(-1.0), observables.mode_moment(1, 2)]
    report = ergodics.uniqueness_evidence(starts, phis, cfg)
    assert report.elliptic_ok
    assert report.consistent is True
    assert "unique invariant measure" in report.verdict()
    # report survives serialization and rendering
    d = report.to_dict()
    assert d["verdict"] == report.verdict()
    text = report.render_text()
    assert "start0" in text and "seminorm_sq[-1]" in text


def test_uniqueness_evidence_marks_no_noise():
    cfg = make_cfg(
        M=8, dt=1e-3, T=2.0, cov=CovarianceSpec.zero(8), n=4, lam=1.0, seed=101,
        save_every=5,
    )
    starts = [ModeVector.constant(0.0, 8), ModeVector.unit(1, 8, amplitude=0.4)]
    report = ergodics.uniqueness_evidence(
        starts, [observables.seminorm_sq(-1.0)], cfg, burn_in=0.2
    )
    assert not report.elliptic_ok
    assert report.consistent is None
    assert "unmet" in report.verdict()
    assert not report.violations


def test_uniqueness_needs_two_starts():
    cfg = make_cfg(M=8, dt=1e-3, T=1.0, cov=standard_cov(8))
    with pytest.raises(ValueError):
        ergodics.uniqueness_evidence([ModeVector.zeros(8)], [observables.mean()], cfg)


def test_default_burn_in():
    cfg = make_cfg(M=8, dt=1e-3, T=50.0, cov=standard_cov(8), n=4, lam=1.0)
    burn = ergodics.default_burn_in(cfg)
    assert burn == pytest.approx(10.0 / (math.pi**4 / 2.0))
    cfg_off = make_cfg(M=8, dt=1e-3, T=50.0, cov=standard_cov(8), potential_mode="off")
    assert ergodics.default_burn_in(cfg_off) == pytest.approx(5.0)


def test_girsanov_and_ergodic_results_ignore_thread_count():
    cfg = make_cfg(M=16, dt=1e-3, T=0.1, cov=standard_cov(16), seed=89)
    starts = [perturbed_state(cfg, 0.4, slot=s) for s in range(3)]
    gaps = [coupling.girsanov_gap(*starts[:2], replace(cfg, threads=t), replicas=6)
            for t in (1, 3)]
    assert gaps[0] == gaps[1]
    phis = [observables.seminorm_sq(-1.0), observables.energy()]
    reports = [
        ergodics.uniqueness_evidence(starts, phis, replace(cfg, threads=t), burn_in=0.02).to_dict()
        for t in (1, 3)
    ]
    assert reports[0] == reports[1]

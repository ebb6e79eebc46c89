import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from chcsim import coupling, dynamics, ergodics, kinds, noise, observables, runner, spectral
from chcsim.config import parse_config_text
from chcsim.dynamics import StiffEventError
from chcsim.noise import CovarianceSpec
from chcsim.spectral import ModeVector

from conftest import band_cov, make_cfg, perturbed_state, six_stiff_starts, standard_cov

PI4 = math.pi**4


def test_step_linear_implicit_euler():
    cfg = make_cfg(M=8, dt=1e-3, T=1e-3, cov=CovarianceSpec.zero(8), potential_mode="off")
    out = dynamics.simulate(ModeVector.unit(1, 8, amplitude=0.7), cfg).states[-1]
    assert out[1] == 0.7 / (1.0 + 0.5 * cfg.dt * PI4)
    assert np.all(out[2:] == 0.0)


def test_step_constant_is_equilibrium():
    cfg = make_cfg(M=8, dt=1e-3, T=1e-3, c=0.3, cov=CovarianceSpec.zero(8), n=4, lam=1.0)
    out = dynamics.simulate(ModeVector.constant(0.3, 8), cfg).states[-1]
    assert out[0] == 0.3
    assert np.max(np.abs(out[1:])) < 1e-15


def test_simulate_linear_decay():
    cfg = make_cfg(
        M=8, dt=1e-4, T=0.05, cov=CovarianceSpec.zero(8), potential_mode="off", save_every=50
    )
    traj = dynamics.simulate(ModeVector.unit(1, 8), cfg)
    exact = math.exp(-PI4 * 0.05 / 2.0) / math.pi
    got = observables.evaluate(observables.seminorm(-1.0), traj.states[-1], cfg)
    # the implicit scheme lags the exponential by exp(steps * (dt a/2)^2 / 2)
    assert abs(got - exact) / exact < cfg.dt * PI4
    assert traj.stiff_retries == 0


def test_simulate_deterministic_and_mass_exact():
    cfg = make_cfg(M=16, dt=1e-3, T=0.2, c=0.2, cov=standard_cov(16), seed=77)
    x0 = perturbed_state(cfg, 0.5)
    a = dynamics.simulate(x0, cfg)
    b = dynamics.simulate(x0, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.all(a.states[:, 0] == 0.2)


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
    one = dynamics.run_ensemble(x0, dataclasses.replace(cfg, threads=1), 8, record_budgets=True)
    three = dynamics.run_ensemble(x0, dataclasses.replace(cfg, threads=3), 8, record_budgets=True)
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
    res = dynamics.run_ensemble(x0, cfg, 1, record_budgets=True)
    scale = spectral.seminorm_sq_many(x0.coeffs, -1.0)
    lhs = spectral.seminorm_sq_many(res.final[0], -1.0) - scale + res.budgets["diss_h1"][0]
    assert abs(lhs) <= cfg.dt * PI4 * scale
    assert res.budgets["mart_m1"][0] == 0.0


def test_budget_identity_with_noise():
    cfg = make_cfg(
        M=8, dt=1e-4, T=0.5, cov=standard_cov(8), potential_mode="off", seed=21
    )
    x0 = ModeVector.zeros(8)
    res = dynamics.run_ensemble(x0, cfg, 1, record_budgets=True)
    sums = {name: value[0] for name, value in res.budgets.items()}
    for gamma, diss, mart in ((-1.0, "diss_h1", "mart_m1"), (0.0, "diss_h2", "mart_0")):
        lhs = (
            spectral.seminorm_sq_many(res.final[0], gamma)
            - spectral.seminorm_sq_many(x0.coeffs, gamma)
            + sums[diss]
        )
        trace = noise.trace_gamma(cfg.cov, gamma)
        residual = lhs - sums[mart] - cfg.horizon * trace
        assert abs(residual) <= 0.05 * cfg.horizon * trace
    assert sums["grad_functional"] == 0.0  # no truncated potential


def test_budget_bound_fields():
    cfg = make_cfg(M=8, dt=1e-3, T=0.2, c=0.25, cov=standard_cov(8), n=3, lam=0.8)
    x0 = perturbed_state(cfg, 0.2)
    res = dynamics.run_ensemble(x0, cfg, 1, record_budgets=True)
    # both bounds grow with the realized horizon, the last save time
    assert res.times[-1] == pytest.approx(cfg.horizon)
    assert res.budgets["grad_functional"][0] >= 0.0


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
    sup = observables.evaluate(observables.sup_norm(), traj.states, cfg)
    assert np.max(sup) <= cfg.sup_guard


def test_ensemble_member_equals_path_through_stiff_retries():
    # the config of test_stiff_retry_can_recover: every row retries, as the path does
    cfg = make_cfg(
        M=8, dt=2e-3, T=0.04, cov=CovarianceSpec.zero(8), n=20, lam=0.0,
        sup_guard=1.5, save_every=1,
    )
    x0 = ModeVector.unit(2, 8, amplitude=0.85)
    traj = dynamics.simulate(x0, cfg)
    res = dynamics.run_ensemble(x0, cfg, 3)
    assert res.failed_step.tolist() == [-1, -1, -1]
    assert np.array_equal(res.final[0], traj.states[-1])
    # no halvings: a row fails at its first rejection
    res = dynamics.run_ensemble(x0, dataclasses.replace(cfg, max_halvings=0), 3)
    assert res.failed_step.tolist() == [2, 2, 2]


def _one_stiff_row():
    """lam = 60 at n = 0 over 2 steps: the start 0.5 e_1 runs out of halvings
    at step 1, the starts 0 and 0.05 e_1 finish."""
    cfg = make_cfg(M=8, dt=1e-2, T=0.02, c=0.1, cov=standard_cov(8), n=0, lam=60.0,
                   sup_guard=1.0, seed=3)
    starts = np.zeros((3, cfg.M + 1))
    starts[:, 0] = cfg.c
    starts[:, 1] = [0.0, 0.5, 0.05]
    return cfg, starts


@pytest.mark.parametrize("threads", [1, 3])
def test_exit_probability_raises_naming_the_row_out_of_halvings(threads):
    # the ensemble marks the row and runs on; the probe needs every replica
    cfg, starts = _one_stiff_row()
    cfg = dataclasses.replace(cfg, threads=threads)
    assert dynamics.run_ensemble(starts, cfg, 3).failed_step.tolist() == [-1, 1, -1]
    with pytest.raises(StiffEventError, match="at step 1") as err:
        ergodics.exit_probability(starts, 0.1, cfg, 3)
    assert err.value.failed_replicas.tolist() == [1]


@pytest.mark.parametrize("threads", [1, 3])
def test_parked_row_keeps_c_e0_while_the_others_finish(threads):
    cfg, starts = _one_stiff_row()
    cfg = dataclasses.replace(cfg, threads=threads)
    res = dynamics.run_ensemble(starts, cfg, 3)
    assert res.failed_step.tolist() == [-1, 1, -1]
    assert np.array_equal(res.final[1], ModeVector.constant(cfg.c, cfg.M).coeffs)
    assert np.all(res.norm_m1_sq[1, 1:] == 0.0)
    # the finished rows equal their paths (streams 0 and 2) bit for bit
    paths = dynamics.simulate_many(list(starts[[0, 0, 2]]), cfg)
    for r in (0, 2):
        assert np.array_equal(res.final[r], paths[r].states[-1])


def test_ensemble_surfaces_stiff_replicas():
    x0 = ModeVector.unit(1, 4, amplitude=0.5)
    for threads in (1, 3):
        cfg = make_cfg(M=4, dt=1e-2, T=0.1, cov=CovarianceSpec.zero(4), n=0, lam=60.0,
                       sup_guard=1.0, threads=threads)
        res = dynamics.run_ensemble(x0, cfg, 4)
        assert res.n_failed == 4
        assert np.all(res.failed_step >= 0)
        with pytest.raises(StiffEventError, match=f"at step {res.failed_step.min()}") as err:
            ergodics.exit_probability(x0, 0.1, cfg, 4)
        assert err.value.failed_replicas.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "run",
    [lambda x0, cfg: dynamics.simulate_many(list(x0), cfg),
     lambda x0, cfg: coupling.coupled_ensemble(x0[0], x0, cfg, len(x0))],
    ids=["simulate_many", "coupled_ensemble"],
)
def test_stiff_event_names_every_failed_row_for_any_thread_count(run, threads):
    # a failed row is parked and the run goes on, so every span reports its rows
    cfg, x0 = six_stiff_starts()
    with pytest.raises(StiffEventError, match="at step 1") as err:
        run(x0, dataclasses.replace(cfg, threads=threads))
    assert err.value.failed_replicas.tolist() == [0, 1, 2, 3, 4, 5]


def test_a_span_whose_rows_all_failed_stops_stepping(monkeypatch, tmp_path):
    # configs/ergodic.cfg at lam = 60, n = 0, sup_guard = 1: the paths run out of
    # halvings at steps 19 and 9 of 50,000, and the run stops stepping at step 19
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "ergodic.cfg")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("lambda = 1\n", "lambda = 60\n").replace("n = 4\n", "n = 0\n")
    cfg = parse_config_text(text + "sup_guard = 1\n")
    assert cfg.sim.steps == 50_000
    steps = []
    substep = dynamics.Engine.substep

    def counted(self, rows, states, grids, eta, dt, step, depth=0):
        steps.append(step)
        return substep(self, rows, states, grids, eta, dt, step, depth)

    monkeypatch.setattr(dynamics.Engine, "substep", counted)
    with pytest.raises(StiffEventError, match="at step 9 ") as err:
        runner.run(cfg, override_out=str(tmp_path))
    assert err.value.failed_replicas.tolist() == [0, 1]
    assert max(steps) == 19
    assert len(steps) < 100  # 19 steps and their retries


@pytest.mark.parametrize("threads", [1, 2])
def test_bad_starts_are_all_named_before_any_step(threads):
    cfg = make_cfg(M=4, dt=1e-3, T=0.01, cov=CovarianceSpec.zero(4), n=2, sup_guard=0.2,
                   threads=threads)
    x0 = np.zeros((6, cfg.M + 1))
    x0[[1, 4], 1] = 0.5
    with pytest.raises(StiffEventError, match="initial state") as err:
        dynamics.simulate_many(list(x0), cfg)
    assert err.value.failed_replicas.tolist() == [1, 4]


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
    energy = observables.evaluate(observables.energy(), traj.states, cfg)
    scale = max(1.0, float(np.max(np.abs(energy))))
    assert np.all(np.diff(energy) <= 1e-9 * scale)


def test_save_grid_includes_last_step():
    cfg = make_cfg(M=8, dt=1e-3, T=0.0157, cov=standard_cov(8), save_every=5)
    marks = dynamics.save_steps(cfg)
    assert marks[0] == 0
    assert marks[-1] == cfg.steps
    traj = dynamics.simulate(ModeVector.zeros(8), cfg)
    assert traj.times[-1] == pytest.approx(cfg.horizon)


@pytest.mark.parametrize("steps, bad", [([0, -1], -1), ([5, 41], 41), ([3, 7, 3], 3)])
def test_run_paths_rejects_steps_out_of_range_or_repeated(steps, bad):
    # such a step would leave rows of the saved array uninitialised
    cfg = make_cfg(M=8, dt=1e-3, T=0.04)
    starts = np.zeros((1, 1, cfg.M + 1))
    with pytest.raises(ValueError, match=rf"step {bad} is repeated or outside 0\.\.40"):
        dynamics.run_paths(cfg, starts, steps)


def test_run_paths_at_chosen_steps_equal_the_ensemble_and_the_paths():
    # row 0 retries on bridged substeps (the config of
    # test_batched_path_equals_simulate_through_retries)
    cfg = make_cfg(
        M=8, dt=2e-3, T=0.04, cov=band_cov(8, [(1, 0.01), (2, 0.01)], 2), n=20, lam=0.0,
        sup_guard=1.5, seed=5,
    )
    x0 = [ModeVector.unit(2, 8, amplitude=0.85), ModeVector.zeros(8),
          ModeVector.unit(1, 8, amplitude=0.3)]
    starts = np.array([v.coeffs for v in x0])
    steps = [3, 11, cfg.steps]
    kern, saved, sums = dynamics.run_paths(cfg, starts[None], steps)
    assert kern.retries[0] > 0 and saved.shape == (1, 3, len(steps), cfg.M + 1)
    assert sums == {}  # the engine books no sums without the control
    res = dynamics.run_ensemble(starts, cfg, 3)
    assert res.norm_m1_sq.shape == (3, len(res.times))
    assert np.array_equal(saved[0, :, -1], res.final)
    marks = dynamics.save_steps(cfg).tolist()
    for r, traj in enumerate(dynamics.simulate_many(x0, cfg)):
        assert np.array_equal(saved[0, r], traj.states[[marks.index(s) for s in steps]])


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # Philox keys take seed mod 2**64: -1 and 2**64 would alias seeds 2**64 - 1 and 0
    with pytest.raises(ValueError) as err:
        make_cfg(M=8, cov=standard_cov(8), seed=seed)
    assert str(err.value) == f"seed: must fit in 64 bits, got {seed}"


@pytest.mark.parametrize(
    "run",
    [lambda x0, cfg: dynamics.run_ensemble(x0, cfg, 0),
     lambda x0, cfg: coupling.coupled_ensemble(x0, x0, cfg, 0)],
    ids=["run_ensemble", "coupled_ensemble"],
)
def test_zero_replicas_rejected_by_name(run):
    # zero rows once reached the thread pool and failed there without a key
    with pytest.raises(ValueError) as err:
        run(ModeVector.zeros(8), make_cfg(M=8, dt=1e-3, T=0.01, cov=standard_cov(8)))
    assert str(err.value) == "replicas: must be >= 1, got 0"


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
    assert batch[0].stiff_retries == alone.stiff_retries
    assert np.array_equal(batch[0].times, alone.times)
    assert np.array_equal(batch[0].states, alone.states)
    for _, phi in kinds.TRAJECTORY_COLUMNS:
        assert np.array_equal(observables.evaluate(phi, batch[0].states, cfg),
                              observables.evaluate(phi, alone.states, cfg))
    ens = dynamics.run_ensemble(calm, cfg, 2)
    assert np.array_equal(ens.final[1], batch[1].states[-1])


# 5000 rows x 1700 steps x 2 modes: four time blocks of 420 steps (2^22
# normals rounded up to whole steps) and one of 20
NOISE_ROWS, NOISE_STEPS, NOISE_MODES = 5000, 1700, 2


def test_noise_blocks_rows_equal_their_streams():
    # each row's steps equal direct draws from its stream, in chunks of 100
    # steps that cross the block boundaries at steps 420, 840, 1260 and 1680
    refs = [noise.stream(3, r) for r in range(NOISE_ROWS)]
    views = dynamics._noise_blocks(3, range(NOISE_ROWS), NOISE_MODES, NOISE_STEPS)
    count = 0
    for i, xi in enumerate(views):
        if i % 100 == 0:
            expect = np.stack([g.standard_normal((100, NOISE_MODES)) for g in refs], axis=1)
        assert xi.shape == (NOISE_ROWS, NOISE_MODES) and xi.flags.c_contiguous
        assert np.array_equal(xi, expect[i % 100])
        count += 1
    assert count == NOISE_STEPS


def test_noise_blocks_refill_one_buffer():
    tracemalloc.start()
    try:
        views = dynamics._noise_blocks(3, range(NOISE_ROWS), NOISE_MODES, NOISE_STEPS)
        first = next(views)
        for last in views:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.base is last.base
    assert peak < 1.2 * first.base.nbytes


@pytest.mark.parametrize("ids, n_active", [
    (range(37), 1),  # two 16-row tiles and a partial one
    (range(37), 3),
    (range(5, 42), 2),  # a span that starts at row 5 draws streams 5..41
    (range(37), 0),
])
def test_noise_blocks_tiles_keep_rows_on_their_streams(ids, n_active):
    steps = 30
    expect = np.stack([noise.stream(3, r).standard_normal((steps, n_active)) for r in ids],
                      axis=1)
    views = list(dynamics._noise_blocks(3, ids, n_active, steps))
    assert all(xi.shape == (len(ids), n_active) and xi.flags.c_contiguous for xi in views)
    assert np.array_equal(np.array([xi.copy() for xi in views]), expect)


def broadcast_step(cfg, states, eta, dt, nl):
    """The semi-implicit step with its (M+1,) coefficient rows broadcast."""
    alpha = spectral.eigenvalues(cfg.M)
    num = states + eta
    if nl is not None:
        num = num + nl * ((0.5 * dt) * alpha)
    return num / (1.0 + 0.5 * dt * alpha**2)


def test_tiled_coefficients_equal_the_broadcast_step(rng):
    cfg = make_cfg(M=8)
    eng = dynamics.Engine(cfg, 5)
    states, eta, nl = (rng.standard_normal((3, cfg.M + 1)) for _ in range(3))
    # a prefix batch: 3 of the 5 rows the tiles hold
    assert np.array_equal(eng.advance(states, eta, cfg.dt, nl.copy()),
                          broadcast_step(cfg, states, eta, cfg.dt, nl))
    assert np.array_equal(eng.advance(states, eta, cfg.dt, None),
                          broadcast_step(cfg, states, eta, cfg.dt, None))
    xi = rng.standard_normal((3, eng.active.size))
    assert np.array_equal(eng.scatter_noise(xi, cfg.dt, np.zeros((3, cfg.M + 1)))[:, eng.active],
                          xi * (eng.sqrt_b_active * math.sqrt(cfg.dt)))
    # copies = 2: two noise rows hold four state rows
    pair = dynamics.Engine(cfg, 2, copies=2)
    states, eta, nl = (rng.standard_normal((4, cfg.M + 1)) for _ in range(3))
    assert np.array_equal(pair.advance(states, eta, cfg.dt, nl.copy()),
                          broadcast_step(cfg, states, eta, cfg.dt, nl))


def test_retried_substeps_equal_the_broadcast_step(monkeypatch):
    # reject row 1 of 3 at its first candidate: it reruns on two dt/2 substeps
    cfg = make_cfg(M=8, dt=1e-3, T=3e-3, seed=17)
    x0 = [perturbed_state(cfg, 0.3, slot=s) for s in range(3)]
    rejected_rows, advance = dynamics.Engine.rejected_rows, dynamics.Engine.advance
    checks, calls = [], []

    def reject_row_1_once(self, grids):
        checks.append(grids.shape[0])
        bad = rejected_rows(self, grids)
        if len(checks) == 2:  # check 1 tests the starts
            bad = np.union1d(bad, [1])
        return bad

    def checked_advance(self, states, eta, dt, nl):
        expect = broadcast_step(self.cfg, states, eta, dt, nl)
        out = advance(self, states, eta, dt, nl)
        calls.append((states.shape[0], dt))
        assert np.array_equal(out, expect)
        return out

    monkeypatch.setattr(dynamics.Engine, "rejected_rows", reject_row_1_once)
    monkeypatch.setattr(dynamics.Engine, "advance", checked_advance)
    paths = dynamics.simulate_many(x0, cfg)
    assert calls[:3] == [(3, cfg.dt), (1, cfg.dt / 2), (1, cfg.dt / 2)]
    assert [p.stiff_retries for p in paths] == [0, 1, 0]


def test_engine_tiles_do_not_grow_with_halving_depth():
    # lam = 60 at n = 0: row 1, started at 0.5 e_1, runs out of halvings at step 1
    shapes = {}
    for halvings in (1, 8):
        cfg = make_cfg(M=8, dt=1e-2, T=0.02, cov=standard_cov(8), n=0, lam=60.0,
                       sup_guard=1.0, seed=3, max_halvings=halvings)
        eng = dynamics.Engine(cfg, 3)
        starts = np.zeros((1, 3, cfg.M + 1))
        starts[0, 1, 1] = 0.5
        eng.run(starts, lambda *args: None)
        assert eng.failed.tolist() == [-1, 1, -1]
        # cfg.dt, each dt/2^k down to the last halving, and the bridge's dt = 1
        assert len(eng._per_dt) == halvings + 2
        shapes[halvings] = sorted(a.shape for coef in eng._per_dt.values() for a in coef
                                  if a.ndim == 2 and a.shape[0] > 1)
    assert shapes[1] == shapes[8] == [(3, 2), (3, cfg.M + 1)]


def test_rejected_rows_match_abs_max_and_reject_nan(rng):
    cfg = make_cfg(M=8, sup_guard=1.0)
    kern = dynamics.Engine(cfg, 4)
    grids = rng.uniform(-1.2, 1.2, size=(4, cfg.grid_size))
    grids[2] = rng.uniform(-0.5, 0.5, size=cfg.grid_size)
    grids[2, 7] = -0.99
    grids[3, 5] = np.nan
    ok = np.max(np.abs(grids), axis=-1) <= cfg.sup_guard
    bad = kern.rejected_rows(grids)
    assert bad.dtype == np.int64 and np.array_equal(bad, np.flatnonzero(~ok))
    assert ok[2] and 3 in bad
    # two copies: noise row r is state rows r and r + 2
    pair = dynamics.Engine(cfg, 2, copies=2)
    assert np.array_equal(pair.rejected_rows(grids), np.flatnonzero([not (ok[0] and ok[2]), True]))
    # the whole-batch test and the per-row fallback against a per-row reference
    guard = cfg.sup_guard
    edges = [np.nan, np.inf, -np.inf, guard, -guard, np.nextafter(guard, np.inf),
             -np.nextafter(guard, np.inf)]
    for edge in [None] + edges:
        grids = rng.uniform(-guard, guard, size=(4, cfg.grid_size))
        if edge is not None:
            grids[1, 3] = edge
        want = np.array([bool(np.all(np.abs(g) <= guard)) for g in grids])
        assert np.array_equal(kern.rejected_rows(grids), np.flatnonzero(~want))
        assert np.array_equal(pair.rejected_rows(grids), np.flatnonzero(~(want[:2] & want[2:])))
        assert want.tolist() == [True, edge is None or abs(edge) <= guard, True, True]
        if want.all():  # a passing batch returns the one shared empty array
            assert kern.rejected_rows(grids) is dynamics.NONE_REJECTED


def test_scatter_noise_overwrites_band_columns_only(rng):
    cfg = make_cfg(M=8, cov=band_cov(8, [(1, 1.0), (3, 0.5)], 1))
    eng = dynamics.Engine(cfg, 4)
    assert eng.active.tolist() == [1, 3]
    out = np.zeros((4, cfg.M + 1))
    for _ in range(2):
        xi = rng.standard_normal((4, 2))
        fresh = np.zeros((4, cfg.M + 1))
        fresh[..., eng.active] = xi * (eng.sqrt_b_active * math.sqrt(cfg.dt))
        assert eng.scatter_noise(xi, cfg.dt, out) is out
        assert np.array_equal(out, fresh)


def test_gapped_band_ensemble_ignores_threads_and_matches_simulate():
    # noise on modes 1 and 3 only: the band columns are not a contiguous slice
    cfg = make_cfg(M=8, dt=1e-3, T=0.05, cov=band_cov(8, [(1, 1.0), (3, 0.5)], 1), seed=23)
    x0 = perturbed_state(cfg, 0.3)
    runs = [dynamics.run_ensemble(x0, dataclasses.replace(cfg, threads=t), 5, record_budgets=True)
            for t in (1, 3)]
    assert np.array_equal(runs[0].final, runs[1].final)
    path = dynamics.simulate(x0, cfg)
    assert np.array_equal(runs[0].final[0], path.states[-1])
    for name in dynamics.BUDGET_KEYS:
        assert np.array_equal(runs[0].budgets[name], runs[1].budgets[name])


@pytest.mark.parametrize("threads", [1, 3])
def test_failed_replica_books_only_its_completed_steps(threads):
    cfg, x0 = six_stiff_starts()

    def budgets(cfg):
        res = dynamics.run_ensemble(x0, dataclasses.replace(cfg, threads=threads), 6,
                                    record_budgets=True)
        return res.failed_step, res.budgets

    failed, booked = budgets(cfg)
    assert failed.tolist() == [4, 4, 2, 1, 1, 1]
    for r, s in enumerate(failed):
        if s == 1:
            expected = {name: 0.0 for name in dynamics.BUDGET_KEYS}
        else:  # the same run stopped at the last step the replica completed
            _, short = budgets(dataclasses.replace(cfg, T=(s - 1) * cfg.dt))
            expected = {name: short[name][r] for name in dynamics.BUDGET_KEYS}
        for name in dynamics.BUDGET_KEYS:
            assert np.array_equal(booked[name][r], expected[name]), (r, name)


@pytest.mark.parametrize("n", [1, 4])
def test_h_integrands_equal_seminorms_and_the_plain_formula(rng, n):
    cfg = make_cfg(M=16, n=n)
    eng = dynamics.Engine(cfg, 5)
    states = 0.1 * rng.standard_normal((5, cfg.M + 1))
    grids = eng.grid(states)
    h1, h2, gg = eng.h_integrands(states, grids)
    assert np.array_equal(h1, spectral.seminorm_sq_many(states, 1.0))
    assert np.array_equal(h2, spectral.seminorm_sq_many(states, 2.0))
    u2 = grids * grids
    power_sum = np.ones_like(u2)
    for _ in range(n):
        power_sum = 1.0 + u2 * power_sum
    grad = spectral._tiled_matmul(states[..., 1:], eng.grad_mat)
    assert np.array_equal(gg, 2.0 * np.mean(grad * grad * power_sum, axis=-1))
    # against the untiled product, the gradient's rounding moves gg by < 1e-12 relative
    grad = np.einsum("...k,kq->...q", states[..., 1:], eng.grad_mat)
    plain = 2.0 * np.mean(grad * grad * power_sum, axis=-1)
    assert np.all(np.abs(gg - plain) <= 1e-12 * plain)


def test_h_integrands_rows_do_not_depend_on_the_batch(rng):
    # 37 rows: whole tiles and a padded partial one (37 is no multiple of TILE)
    cfg = make_cfg(M=32, n=4)
    eng = dynamics.Engine(cfg, 37)
    states = 0.1 * rng.standard_normal((37, cfg.M + 1))
    grids = eng.grid(states)
    gg = eng.h_integrands(states, grids)[2]
    for rows in (slice(0, 1), slice(36, 37), slice(0, 5), slice(30, 35)):
        assert np.array_equal(eng.h_integrands(states[rows], grids[rows])[2], gg[rows])

import dataclasses
import math

import numpy as np
import pytest

from chcsim import coupling, dynamics, observables, spectral
from chcsim.coupling import BandTooSmallError
from chcsim.spectral import ModeVector

from conftest import band_cov, make_cfg, perturbed_state, standard_cov

PI = math.pi


def test_contraction_rate_values():
    rate = coupling.contraction_rate(1, 1.0)
    assert rate == pytest.approx(PI**4 / 2.0, rel=1e-12)
    assert rate == pytest.approx(48.7045455, abs=1e-6)


def test_contraction_rate_positive_without_lambda():
    for N in range(4):
        assert coupling.contraction_rate(N, 0.0) > 0


def test_contraction_rate_band_too_small():
    with pytest.raises(BandTooSmallError):
        coupling.contraction_rate(0, 50.0)  # alpha_1 < 50


def engine_control(cov, lam, y):
    """The control the coupled runs integrate, w_k = w_gain_k y_k / sqrt(b_k)
    on the band modes 1..N."""
    eng = dynamics.Engine(make_cfg(M=cov.order, cov=cov, lam=lam), 1, copies=2, control=True)
    return eng.w_gain * y.coeffs[eng.band] / eng.sqrt_b_band


def test_control_values():
    cov = standard_cov(8)
    assert np.all(engine_control(cov, 2.0, ModeVector.zeros(8)) == 0.0)
    assert np.all(engine_control(cov, 0.0, ModeVector.unit(1, 8)) == 0.0)
    w = engine_control(cov, 2.0, ModeVector.unit(1, 8))
    assert w.shape == (cov.band,)  # modes 1..N only
    assert w[0] == pytest.approx(-(PI**2), rel=1e-12)
    assert w[1] == 0.0


def test_control_gains():
    cov = standard_cov(8)
    lam = 1.0
    a1, a2 = spectral.eigenvalue(1), spectral.eigenvalue(2)
    assert coupling.control_gain(cov, lam) == pytest.approx(0.5 * a2**1.5)
    assert coupling.control_gain(cov, 0.0) == 0.0
    # control size against the gain, mode by mode
    y = ModeVector(np.array([0.0, 0.3, -0.2, 0.5, 0.0, 0, 0, 0, 0]))
    w = engine_control(cov, lam, y)
    assert np.linalg.norm(w) <= coupling.control_gain(cov, lam) * spectral.seminorm(
        y, -1.0
    ) * (1 + 1e-12)


def test_coupled_identical_starts():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), seed=23)
    x0 = perturbed_state(cfg, 0.4)
    ens = coupling.coupled_ensemble(x0, x0, cfg, 1)
    assert np.all(ens.dist_sq_path == 0.0)
    assert np.all(ens.int_w_sq == 0.0)
    assert np.all(ens.log_weight == 0.0)


def test_coupled_contraction_invariants():
    cfg = make_cfg(
        M=32, dt=1e-4, T=0.1, cov=standard_cov(32), n=4, lam=1.0, seed=29, save_every=10
    )
    x0 = perturbed_state(cfg, 0.6, slot=0)
    y0 = perturbed_state(cfg, 0.6, slot=1)
    ens = coupling.coupled_ensemble(x0, y0, cfg, 1)
    dist = np.sqrt(ens.dist_sq_path[0])
    d0 = dist[0]
    delta = ens.rate
    envelope = d0 * np.exp(-delta * ens.times) * 1.05
    assert np.all(dist <= envelope)
    # the control's tail integral, with discretization slack
    assert ens.int_w_sq[0, -1] <= ens.kappa**2 * d0**2 / (2 * delta) * 1.05
    assert ens.fitted_rates()[0] >= 0.9 * delta


def test_coupled_no_lambda_means_no_control():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=0.0, seed=31)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    ens = coupling.coupled_ensemble(x0, y0, cfg, 1)
    assert np.all(ens.int_w_sq == 0.0)
    assert np.all(ens.log_weight == 0.0)
    assert ens.dist_sq_path[0, -1] < ens.dist_sq_path[0, 0]
    assert np.array_equal(ens.states[0, 0], dynamics.simulate(x0, cfg).states)


def test_coupled_check_raises_on_violation():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=37)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    # an envelope shrunk to 1e-4 of the proven one must be violated
    ens = coupling.coupled_ensemble(x0, y0, cfg, 1)
    dist = np.sqrt(ens.dist_sq_path)
    assert np.any(dist > ens.decay_envelope(-0.9999) + 1e-300)
    assert np.all(dist <= ens.decay_envelope() + 1e-300)


def test_envelope_and_fitted_rates_are_the_per_pair_formulas():
    # each row equals the single-pair formulas: d(0) exp(-delta t) (1 + tol),
    # and minus the least-squares slope of log d over the positive distances
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=43,
                   save_every=5)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = np.stack([perturbed_state(cfg, 0.5, slot=1).coeffs, perturbed_state(cfg, 0.4).coeffs,
                   x0.coeffs])  # pair 2 starts together: no positive distance
    ens = coupling.coupled_ensemble(x0, y0, cfg, 3)
    envelope, fitted = ens.decay_envelope(0.1), ens.fitted_rates()
    assert envelope.shape == ens.dist_sq_path.shape and fitted.shape == (3,)
    for r in range(3):
        dist = np.sqrt(ens.dist_sq_path[r])
        want = dist[0] * np.exp(-ens.rate * ens.times) * (1.0 + 0.1)
        assert np.array_equal(envelope[r], want)
        good = dist > 0
        if np.sum(good) < 2:
            assert r == 2 and fitted[r] == math.inf
        else:
            slope = np.polyfit(ens.times[good], np.log(dist[good]), 1)[0]
            assert np.array_equal(fitted[r], -float(slope))


def test_coupled_ensemble_matches_single():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=41,
                   save_every=10)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    one = coupling.coupled_ensemble(x0, y0, cfg, 1)
    ens = coupling.coupled_ensemble(x0, y0, cfg, replicas=3)
    # a single coupled path is pair 0 of any ensemble, bit for bit
    for name in ("log_weight", "int_w_sq", "dist_sq_path"):
        assert np.array_equal(getattr(ens, name)[0], getattr(one, name)[0])


def test_coupled_ensemble_member_equals_the_path_through_stiff_retries():
    # n = 20 overshoots the guard from 0.85 e_2 at full dt; halved substeps relax
    cfg = make_cfg(M=8, dt=2e-3, T=0.04, cov=band_cov(8, [(1, 1e-2), (2, 1e-2)], 2), n=20,
                   lam=0.5, sup_guard=1.5)
    x0 = ModeVector.unit(2, 8, amplitude=0.85)
    y0 = ModeVector.unit(2, 8, amplitude=0.8)
    with pytest.raises(dynamics.StiffEventError):  # the path needs its retries
        coupling.coupled_ensemble(x0, y0, dataclasses.replace(cfg, max_halvings=0), 1)
    one = coupling.coupled_ensemble(x0, y0, cfg, 1)
    ens = coupling.coupled_ensemble(x0, y0, cfg, replicas=3)
    for name in ("log_weight", "int_w_sq", "dist_sq_path"):
        assert np.array_equal(getattr(ens, name)[0], getattr(one, name)[0])


def test_coupled_ensemble_raises_naming_the_pair_out_of_halvings():
    # lam = 60 at n = 0: the target started at 0.5 e_1 runs out of halvings at step 1
    cfg = make_cfg(M=8, dt=1e-2, T=0.02, c=0.1, cov=standard_cov(8), n=0, lam=60.0,
                   sup_guard=1.0, seed=3)
    y0 = np.tile(ModeVector.constant(cfg.c, cfg.M).coeffs, (3, 1))
    x0 = y0.copy()
    y0[:, 1] = [0.0, 0.5, 0.05]
    with pytest.raises(dynamics.StiffEventError, match="at step 1") as err:
        coupling.coupled_ensemble(x0, y0, cfg, replicas=3)
    assert err.value.failed_replicas.tolist() == [1]


def test_band_zero_turns_the_control_off():
    # the same noise with band 0: no control, so both rows run the plain dynamics
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=band_cov(16, [(1, 1.0), (2, 1.0)], 0), n=4,
                   lam=1.0, seed=41, save_every=10)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    ens = coupling.coupled_ensemble(x0, y0, cfg, replicas=3)
    assert np.all(ens.log_weight == 0.0) and np.all(ens.int_w_sq == 0.0)
    _, _, dist = dynamics.simulate_pair(x0, y0, cfg)
    assert np.array_equal(np.sqrt(ens.dist_sq_path[0]), dist)
    assert np.array_equal(ens.states[0, 0], dynamics.simulate(x0, cfg).states)


def test_coupled_target_copy_is_the_plain_path():
    # the control acts on copy 0 only: copy 1 runs the plain dynamics from y0
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=41,
                   save_every=10)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = perturbed_state(cfg, 0.5, slot=1)
    ens = coupling.coupled_ensemble(x0, y0, cfg, 1)
    assert np.any(ens.log_weight != 0.0)
    path = dynamics.simulate(y0, cfg)
    assert np.array_equal(ens.times, path.times)
    assert np.array_equal(ens.states[1, 0], path.states)


def test_coupled_ensemble_at_chosen_steps_equals_the_full_grid():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=47)
    x0 = perturbed_state(cfg, 0.5, slot=0)
    y0 = np.stack([perturbed_state(cfg, 0.5, slot=1).coeffs, perturbed_state(cfg, 0.4).coeffs])
    steps = (0, 17, cfg.steps)
    full = coupling.coupled_ensemble(x0, y0, cfg, 2)
    some = coupling.coupled_ensemble(x0, y0, cfg, 2, steps)
    assert full.times.size == cfg.steps + 1 and some.states.shape == (2, 2, 3, cfg.M + 1)
    assert np.array_equal(some.times, full.times[list(steps)])
    assert np.array_equal(some.states, full.states[:, :, list(steps)])
    for name in ("dist_sq_path", "log_weight", "int_w_sq"):
        assert np.array_equal(getattr(some, name), getattr(full, name)[:, list(steps)]), name


def test_girsanov_gap_trivia():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=43)
    x0 = perturbed_state(cfg, 0.4)
    gg = coupling.girsanov_gap(x0, x0, cfg, replicas=16)
    assert gg.estimate == 0.0
    assert gg.martingale_mean == 1.0
    assert gg.bound == 0.0


def test_girsanov_gap_statistics():
    cfg = make_cfg(M=16, dt=2e-4, T=0.08, cov=standard_cov(16), n=4, lam=1.0, seed=47)
    x0 = ModeVector.constant(0.0, 16)
    y0 = ModeVector(x0.coeffs + 0.01 * PI * np.eye(17)[1])  # |x-y|_{-1} = 0.01
    gg = coupling.girsanov_gap(x0, y0, cfg, replicas=2000)
    assert gg.dist0 == pytest.approx(0.01, rel=1e-12)
    assert abs(gg.martingale_mean - 1.0) <= 4.0 * gg.martingale_se
    assert gg.estimate <= gg.bound
    assert gg.estimate > 0.0


def test_girsanov_gap_ignores_the_save_grid():
    # the gap reads t = 0 and t = T only, so the config's save grid changes nothing
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), n=4, lam=1.0, seed=43)
    x0, y0 = perturbed_state(cfg, 0.4, slot=0), perturbed_state(cfg, 0.4, slot=1)
    gaps = [coupling.girsanov_gap(x0, y0, dataclasses.replace(cfg, save_every=k), replicas=8)
            for k in (1, 7, 50)]
    assert gaps[0] == gaps[1] == gaps[2]


@pytest.mark.parametrize(
    "estimate",
    [lambda x0, y0, cfg: coupling.girsanov_gap(x0, y0, cfg, replicas=4),
     lambda x0, y0, cfg: coupling.asf_estimate(observables.tanh_mode(1), x0, y0, [0.01], cfg,
                                               replicas=4)],
    ids=["girsanov_gap", "asf_estimate"],
)
def test_bounds_take_one_start_pair(estimate):
    # one |x0 - y0|_{-1} enters the bound, so per-pair start batches are refused
    cfg = make_cfg(M=16, dt=1e-3, T=0.01, cov=standard_cov(16), n=4, lam=1.0, seed=47)
    x0 = np.zeros((4, 17))
    y0 = x0.copy()
    y0[:, 1] = [0.001, 0.01, 0.02, 0.05]
    with pytest.raises(ValueError, match=r"x0, y0: .*one start pair"):
        estimate(x0, y0, cfg)


def test_girsanov_bound_formula():
    v = 0.3**2 * 4.0 / (2.0 * 50.0)
    assert coupling.girsanov_bound(0.3, 2.0, 50.0) == pytest.approx(
        math.exp(0.5 * v) * math.sqrt(v)
    )


def test_asf_trivia_and_floor():
    cfg = make_cfg(M=16, dt=1e-3, T=0.2, cov=standard_cov(16), n=4, lam=1.0, seed=53)
    x0 = perturbed_state(cfg, 0.3)
    phi = observables.tanh_mode(1)
    rows = coupling.asf_estimate(phi, x0, x0, [0.05, 0.2], cfg, replicas=8)
    assert all(r.lhs == 0.0 for r in rows)
    # the bound decreases to the Girsanov floor as t grows
    y0 = perturbed_state(cfg, 0.3, slot=5)
    rows2 = coupling.asf_estimate(phi, x0, y0, [0.02, 0.1, 0.2], cfg, replicas=8)
    bounds = [r.bound for r in rows2]
    assert bounds[0] > bounds[1] > bounds[2]
    d0 = spectral.seminorm(x0 - y0, -1.0)
    floor = coupling.girsanov_bound(
        d0, coupling.control_gain(cfg.cov, 1.0), coupling.contraction_rate(2, 1.0)
    )
    assert bounds[2] >= floor


def test_asf_statistics_respect_bound():
    cfg = make_cfg(M=16, dt=5e-4, T=0.2, cov=standard_cov(16), n=4, lam=1.0, seed=61)
    x0 = ModeVector.constant(0.0, 16)
    y0 = ModeVector(x0.coeffs + 0.05 * PI * np.eye(17)[1])
    phi = observables.tanh_mode(1)
    rows = coupling.asf_estimate(phi, x0, y0, [0.05, 0.1, 0.2], cfg, replicas=400)
    for r in rows:
        assert r.lhs <= r.bound + 3.0 * r.se
    # common random numbers make the early-time estimate informative
    assert rows[0].lhs > 0.0


def test_asf_requires_bounded_lipschitz():
    cfg = make_cfg(M=16, dt=1e-3, T=0.05, cov=standard_cov(16), seed=59)
    x0 = perturbed_state(cfg, 0.3)
    with pytest.raises(ValueError, match="sup_bound"):
        coupling.asf_estimate(observables.mean(), x0, x0, [0.05], cfg, replicas=4)


def test_rejected_step_books_no_control(monkeypatch):
    # reject the first candidate once: only the two accepted half-steps may
    # enter the control integral, and together they cover the horizon
    cfg = make_cfg(M=32, dt=1e-3, T=1e-3, cov=standard_cov(32))
    x0, y0 = ModeVector.unit(1, 32, amplitude=0.2), ModeVector.zeros(32)
    plain = coupling.coupled_ensemble(x0, y0, cfg, 1)
    assert plain.int_w_sq[0, -1] == pytest.approx(0.974e-3, rel=1e-3)

    rejected_rows, advance = dynamics.Engine.rejected_rows, dynamics.Engine.advance
    checks, dts = [], []

    def reject_first_candidate(self, grids):
        checks.append(len(checks))
        bad = rejected_rows(self, grids)  # check 1 tests the start
        return np.union1d(bad, [0]) if len(checks) == 2 else bad

    def logged_advance(self, states, eta, dt, nl):
        dts.append(dt)
        return advance(self, states, eta, dt, nl)

    monkeypatch.setattr(dynamics.Engine, "rejected_rows", reject_first_candidate)
    monkeypatch.setattr(dynamics.Engine, "advance", logged_advance)
    ens = coupling.coupled_ensemble(x0, y0, cfg, 1)
    assert dts == [cfg.dt, cfg.dt / 2, cfg.dt / 2] and sum(dts[1:]) == cfg.T
    assert ens.int_w_sq[0, -1] == pytest.approx(plain.int_w_sq[0, -1], rel=0.05)

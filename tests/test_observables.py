import numpy as np
import pytest

from chcsim import dynamics, kinds, observables, potential, spectral
from chcsim.config import build_observable
from conftest import make_cfg, perturbed_state

# spec -> (name it produces, the formula evaluated before observables were functions)
FORMULAS = {
    "mean": ("mean", lambda s, cfg: s[..., 0]),
    "sup": (
        "sup",
        lambda s, cfg: np.max(np.abs(spectral.synthesize_many(s, cfg.grid_size)), axis=-1),
    ),
    "energy": (
        "energy",
        lambda s, cfg: potential.free_energy_many(s, cfg.potential, cfg.grid_size),
    ),
    "seminorm:-1": ("seminorm[-1]", lambda s, cfg: np.sqrt(spectral.seminorm_sq_many(s, -1.0))),
    "seminorm_sq:0.5": ("seminorm_sq[0.5]", lambda s, cfg: spectral.seminorm_sq_many(s, 0.5)),
    "mode:3:4": ("mode[3]^4", lambda s, cfg: s[..., 3] ** 4),
    "mode:0:2": ("mode[0]^2", lambda s, cfg: s[..., 0] ** 2),
    "tanh:2": ("tanh_mode[2]", lambda s, cfg: np.tanh(s[..., 2] / spectral.eigenvalue(2))),
}


def test_formulas_cover_every_head():
    assert {spec.split(":")[0] for spec in FORMULAS} == set(observables.HEADS)


@pytest.mark.parametrize("M", [8, 32])
@pytest.mark.parametrize("spec", sorted(FORMULAS))
def test_every_head_equals_its_formula(spec, M):
    cfg = make_cfg(M=M, c=0.1)
    rng = np.random.default_rng(M)
    states = np.zeros((6, M + 1))
    states[:, 0] = cfg.c
    states[:, 1:] = 0.05 * rng.standard_normal((6, M))
    name, formula = FORMULAS[spec]
    phi = build_observable(spec, M)
    assert phi.name == name
    want = formula(states, cfg)
    assert np.array_equal(observables.evaluate(phi, states, cfg), want)
    assert np.array_equal(observables.evaluate(phi, states[2], cfg), want[2])


def test_trajectory_columns_equal_their_formulas():
    cfg = make_cfg(M=16, dt=1e-3, T=0.02, c=0.1, save_every=5)
    traj = dynamics.simulate(perturbed_state(cfg, 0.5), cfg)
    s = traj.states
    want = {
        "mean": s[:, 0],
        "norm_m1": np.sqrt(spectral.seminorm_sq_many(s, -1.0)),
        "norm_1": np.sqrt(spectral.seminorm_sq_many(s, 1.0)),
        "sup": np.max(np.abs(spectral.synthesize_many(s, cfg.grid_size)), axis=-1),
        "energy": potential.free_energy_many(s, cfg.potential, cfg.grid_size),
    }
    assert [name for name, _ in kinds.TRAJECTORY_COLUMNS] == list(want)
    for name, phi in kinds.TRAJECTORY_COLUMNS:
        assert np.array_equal(observables.evaluate(phi, s, cfg), want[name])


@pytest.mark.parametrize("constants", [{"sup_bound": -1.0, "lip": 1.0},
                                       {"sup_bound": 1.0, "lip": -1.0}])
def test_bounded_lipschitz_constants_are_nonnegative(constants):
    # a negative constant would make the smoothing bound negative
    phi = observables.ObservableSpec("phi", lambda s, cfg: s[..., 0], **constants)
    with pytest.raises(ValueError, match="negative constants"):
        phi.require_bounded_lipschitz()

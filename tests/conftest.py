import numpy as np
import pytest

from chcsim import noise, potential
from chcsim.dynamics import SimConfig
from chcsim.spectral import ModeVector


def band_cov(M, pairs, band):
    b = np.zeros(M + 1)
    for k, v in pairs:
        b[k] = v
    return noise.CovarianceSpec(b, band)


def standard_cov(M=32):
    """b_1 = b_2 = 1 with band N = 2, the workhorse noise of the suite."""
    return band_cov(M, [(1, 1.0), (2, 1.0)], 2)


def make_cfg(
    M=32,
    dt=1e-3,
    T=1.0,
    c=0.0,
    lam=1.0,
    n=4,
    cov=None,
    seed=1234,
    potential_mode="poly",
    **kw,
):
    if cov is None:
        cov = standard_cov(M)
    if potential_mode == "poly":
        pot = potential.PotentialSpec.truncated(n, lam)
    elif potential_mode == "exact":
        pot = potential.PotentialSpec.exact(lam)
    else:
        pot = potential.PotentialSpec.off()
    return SimConfig(M=M, dt=dt, T=T, c=c, potential=pot, cov=cov, seed=seed, **kw)


def perturbed_state(cfg, scale, slot=0):
    """Mean-c start: c e_0 plus a scaled stationary-shaped perturbation."""
    rng = noise.aux_stream(cfg.seed, slot)
    base = ModeVector.constant(cfg.c, cfg.M).coeffs
    sample = noise.sample_stationary_gaussian(cfg.c, cfg.cov, rng)
    base[1:] += scale * sample.coeffs[1:]
    return ModeVector(base)


def six_stiff_starts():
    """lam = 60 at n = 0 grows mode 1 deterministically: over T = 0.1 the starts
    0..0.5 e_1 run out of halvings at steps [4, 4, 2, 1, 1, 1], larger ones first."""
    cfg = make_cfg(M=8, dt=1e-2, T=0.1, cov=standard_cov(8), n=0, lam=60.0, sup_guard=1.0,
                   seed=3)
    x0 = np.zeros((6, cfg.M + 1))
    x0[:, 1] = np.linspace(0.0, 0.5, 6)
    return cfg, x0


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

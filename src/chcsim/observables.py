"""Observables of mode-coefficient states: plain functions, one table of spec heads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import potential, spectral


@dataclass(frozen=True)
class ObservableSpec:
    """A named functional of the state.

    fn(states, sim_cfg) evaluates it on states of shape (..., M+1).  For
    bounded-Lipschitz uses (the smoothing estimates) sup_bound and lip must
    be finite and >= 0: |phi| <= sup_bound and |phi(x)-phi(y)| <= lip |x-y|_{-1}.
    """

    name: str
    fn: Callable[[np.ndarray, object], np.ndarray]
    sup_bound: float | None = None
    lip: float | None = None

    def require_bounded_lipschitz(self):
        if self.sup_bound is None or self.lip is None:
            raise ValueError(f"observable {self.name!r} needs sup_bound and lip")
        if not (np.isfinite(self.sup_bound) and np.isfinite(self.lip)):
            raise ValueError(f"observable {self.name!r} has non-finite constants")
        if self.sup_bound < 0 or self.lip < 0:
            raise ValueError(f"observable {self.name!r} has negative constants")


def evaluate(spec: ObservableSpec, states: np.ndarray, sim_cfg) -> np.ndarray:
    """Evaluate an observable on states of shape (..., M+1)."""
    return spec.fn(np.asarray(states, dtype=np.float64), sim_cfg)


def mean() -> ObservableSpec:
    return ObservableSpec("mean", lambda s, cfg: s[..., 0])


def seminorm(gamma: float) -> ObservableSpec:
    return ObservableSpec(
        f"seminorm[{gamma:g}]", lambda s, cfg: np.sqrt(spectral.seminorm_sq_many(s, gamma))
    )


def seminorm_sq(gamma: float) -> ObservableSpec:
    return ObservableSpec(
        f"seminorm_sq[{gamma:g}]", lambda s, cfg: spectral.seminorm_sq_many(s, gamma)
    )


def sup_norm() -> ObservableSpec:
    return ObservableSpec(
        "sup",
        lambda s, cfg: np.max(np.abs(spectral.synthesize_many(s, cfg.grid_size)), axis=-1),
    )


def energy() -> ObservableSpec:
    return ObservableSpec(
        "energy", lambda s, cfg: potential.free_energy_many(s, cfg.potential, cfg.grid_size)
    )


def mode_moment(k: int, p: int) -> ObservableSpec:
    return ObservableSpec(f"mode[{k}]^{p}", lambda s, cfg: s[..., k] ** p)


def tanh_mode(k: int) -> ObservableSpec:
    """tanh of the (-1)-pairing with e_k: bounded by 1, Lipschitz alpha_k^(-1/2)."""
    alpha_k = spectral.eigenvalue(k)
    return ObservableSpec(
        f"tanh_mode[{k}]",
        lambda s, cfg: np.tanh(s[..., k] / alpha_k),
        sup_bound=1.0,
        lip=alpha_k**-0.5,
    )


class Mode(NamedTuple):
    """A mode-index argument of a spec: an integer in first..M."""

    first: int


# spec head -> (factory, argument types): "mode:1:2" is mode_moment(1, 2);
# a spec gives exactly one ':'-separated field per argument
HEADS = {
    "mean": (mean, ()),
    "sup": (sup_norm, ()),
    "energy": (energy, ()),
    "seminorm": (seminorm, (float,)),
    "seminorm_sq": (seminorm_sq, (float,)),
    "mode": (mode_moment, (Mode(0), int)),
    "tanh": (tanh_mode, (Mode(1),)),
}

"""Spectral Galerkin simulator and ergodicity test-bench for the conserved
stochastic Cahn-Hilliard equation on (0,1) with degenerate trace-class noise."""

__version__ = "0.1.0"

from .spectral import ModeVector  # noqa: F401
from .potential import PotentialSpec, SingularInputError  # noqa: F401
from .noise import CovarianceSpec, LinearLaw  # noqa: F401
from .dynamics import (  # noqa: F401
    SimConfig,
    StiffEventError,
    Trajectory,
    simulate,
    simulate_pair,
)
from .coupling import (  # noqa: F401
    AsfEstimate,
    BandTooSmallError,
    contraction_rate,
)
from .ergodics import ErgodicReport, ObservableSpec, TimeAverage  # noqa: F401

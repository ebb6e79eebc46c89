"""Semi-implicit spectral integration of the approximated conserved equation.

The state evolves in mode space by

    x_k^+ = (x_k + (dt/2) alpha_k [f(X)]_k + dW_k) / (1 + (dt/2) alpha_k^2)

for k >= 1, where [f(X)]_k is the cosine analysis of the nonlinearity
evaluated pointwise on the dealiased midpoint grid and dW_k ~ N(0, b_k dt).
The stiff bi-Laplacian is inverted exactly per mode, so the linear part is
unconditionally stable; mode 0 is untouched and mass conservation is exact
in floating point.

Every integration runs one step kernel over a (rows, M+1) batch in which each
noise stream drives one row (paths, ensembles) or two stacked rows (pairs,
coupled pairs).  A step tests the grid sup-norm against the guard per noise
row and books the budget sums (trapezoid / left-point rule, as the
energy-budget checks consume them) and control sums for accepted substeps
only.  Callers pick an optional band drift shift with its Girsanov sums
(``coupling``), a save-grid recorder, and a stiff-step policy:

* paths and pairs (``simulate``, ``simulate_many``, ``simulate_pair``,
  ``coupling.simulate_coupled``) retry a rejected row on halved substeps by
  Brownian-bridge refinement of its increment, up to ``max_halvings`` deep,
  then fail loudly;
* ensembles (``run_ensemble``, ``coupling.coupled_ensemble``) mark the row
  failed at that step, park it at c e_0 and surface it, never silently NaN'd.

Noise row r draws its step normals in time blocks from stream (seed, r) and
its bridge normals from ``noise.bridge_stream(seed, r)``, created at its
first retry, so a row's numbers do not depend on the rows or threads it
shares a batch with: a path equals its batch member even when it retries.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from . import noise, potential, spectral
from .noise import CovarianceSpec
from .potential import PotentialSpec
from .spectral import ModeVector

MEAN_TOL = 1e-9
# per-row sums a kernel books; BUDGET_KEYS are also Trajectory fields
BUDGET_KEYS = ("diss_h1", "diss_h2", "grad_functional", "mart_m1", "mart_0")
CONTROL_KEYS = ("log_weight", "int_w_sq")


class StiffEventError(RuntimeError):
    """The grid sup-norm exceeded the guard and retries were exhausted."""

    def __init__(self, message: str, failed_replicas: np.ndarray | None = None):
        super().__init__(message)
        self.failed_replicas = failed_replicas


@dataclass(frozen=True)
class SimConfig:
    """Everything one integration needs; immutable and hashable by content."""

    M: int
    dt: float
    T: float
    c: float
    potential: PotentialSpec
    cov: CovarianceSpec
    seed: int
    Q: int | None = None
    oversample: int = 4
    sup_guard: float = 1.5
    save_every: int = 1
    max_halvings: int = 10

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T < self.dt:
            raise ValueError(f"horizon T={self.T} shorter than one step dt={self.dt}")
        if abs(self.c) >= 1.0:
            raise ValueError(f"conserved mean must lie in (-1, 1), got {self.c}")
        if self.cov.order != self.M:
            raise ValueError(
                f"covariance order {self.cov.order} does not match M={self.M}"
            )
        if self.Q is not None and self.Q < self.M + 1:
            raise ValueError(f"grid size Q={self.Q} must be at least M+1")
        if self.oversample < 1:
            raise ValueError("oversample factor must be >= 1")
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")
        if self.sup_guard <= 0:
            raise ValueError("sup_guard must be positive")

    @property
    def grid_size(self) -> int:
        if self.Q is not None:
            return self.Q
        return spectral.default_grid_size(self.M, self.oversample)

    @property
    def steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def horizon(self) -> float:
        """Realized horizon steps * dt (T rounded to a whole step count)."""
        return self.steps * self.dt


@dataclass
class Trajectory:
    """A saved path: states at the save grid plus step-resolution integrals."""

    times: np.ndarray
    states: np.ndarray  # (S, M+1) coefficients
    observables: dict[str, np.ndarray]
    diss_h1: float  # integral of |X|_1^2 dt
    diss_h2: float  # integral of |X|_2^2 dt
    grad_functional: float  # 2 * integral of (grad X)^2 sum_k X^{2k}
    mart_m1: float  # 2 * integral of (X, sqrt(B) dW)_{-1}
    mart_0: float  # 2 * integral of <X, sqrt(B) dW>
    config: SimConfig
    stiff_retries: int = 0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class EnergyBudget:
    """Assembled pieces of one dissipation budget inequality."""

    terminal_seminorm_sq: float
    initial_seminorm_sq: float
    dissipation: float
    bound: float
    martingale: float
    gradient_functional: float = float("nan")

    def __post_init__(self):
        vals = (
            self.terminal_seminorm_sq,
            self.initial_seminorm_sq,
            self.dissipation,
            self.bound,
            self.martingale,
        )
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("budget entries must be finite")
        if self.dissipation < 0:
            raise ValueError("dissipation integral cannot be negative")

    @property
    def lhs(self) -> float:
        """terminal - initial + dissipation, the quantity the bound controls."""
        return self.terminal_seminorm_sq - self.initial_seminorm_sq + self.dissipation


class Engine:
    """Precomputed arrays for stepping states of shape (..., M+1)."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.Q = cfg.grid_size
        self.alpha = spectral.eigenvalues(cfg.M)
        self.alpha_sq = self.alpha**2
        self.active = cfg.cov.active_modes
        self.sqrt_b_active = np.sqrt(cfg.cov.b[self.active])
        self.inv_alpha = np.zeros(cfg.M + 1)
        self.inv_alpha[1:] = 1.0 / self.alpha[1:]
        self._denoms: dict[float, np.ndarray] = {}
        spec = cfg.potential
        self.guard = cfg.sup_guard
        if spec.is_exact:
            self.guard = min(self.guard, 1.0 - 1e-12)
        self.needs_grid = spec.active
        self.grad_mat = (
            spectral.gradient_matrix(cfg.M, self.Q) if spec.is_truncated else None
        )

    def denom(self, dt: float) -> np.ndarray:
        d = self._denoms.get(dt)
        if d is None:
            d = 1.0 + 0.5 * dt * self.alpha_sq
            self._denoms[dt] = d
        return d

    def grid(self, states: np.ndarray) -> np.ndarray:
        return spectral.synthesize_many(states, self.Q)

    def nonlin_modes(self, grids: np.ndarray) -> np.ndarray:
        return spectral.analyze_many(
            potential.nonlinearity_grid(grids, self.cfg.potential), self.cfg.M
        )

    def scatter_noise(self, xi: np.ndarray, dt: float, out_shape) -> np.ndarray:
        """Scaled increments (variance b_k dt) from standard normals on the band."""
        out = np.zeros(out_shape)
        if self.active.size:
            out[..., self.active] = xi * (self.sqrt_b_active * math.sqrt(dt))
        return out

    def advance(
        self, states: np.ndarray, eta: np.ndarray, dt: float, nl: np.ndarray | None
    ) -> np.ndarray:
        num = states + eta
        if nl is not None:
            num += nl * ((0.5 * dt) * self.alpha)
        num /= self.denom(dt)
        return num

    # -- budget integrands ------------------------------------------------

    def h_integrands(self, states: np.ndarray, grids: np.ndarray | None):
        """(|X|_1^2, |X|_2^2, gradient functional integrand) for each row."""
        h1 = spectral.seminorm_sq_many(states, 1.0)
        h2 = spectral.seminorm_sq_many(states, 2.0)
        if self.grad_mat is None or grids is None:
            gg = np.zeros_like(np.asarray(h1))
        else:
            # einsum, not BLAS: a row's value must not depend on its batch size
            grad = np.einsum("...k,kq->...q", states[..., 1:], self.grad_mat)
            u2 = grids * grids
            n = self.cfg.potential.n
            power_sum = np.ones_like(u2)
            for _ in range(n):
                power_sum = 1.0 + u2 * power_sum
            gg = 2.0 * np.mean(grad * grad * power_sum, axis=-1)
        return h1, h2, gg

    def mart_weights(self, states: np.ndarray, eta: np.ndarray):
        """Left-point martingale increments (2(X, dW)_{-1}, 2<X, dW>)."""
        m1 = 2.0 * np.einsum("...k,...k->...", states * self.inv_alpha, eta)
        m0 = 2.0 * np.einsum("...k,...k->...", states, eta)
        return m1, m0


def _as_state_array(x0, M: int) -> np.ndarray:
    if isinstance(x0, ModeVector):
        arr = x0.coeffs
    else:
        arr = np.asarray(x0, dtype=np.float64)
    if arr.shape[-1] != M + 1:
        raise ValueError(f"state has {arr.shape[-1]} coefficients, expected {M + 1}")
    return arr.copy()


def _check_mean(arr: np.ndarray, c: float):
    if np.any(np.abs(arr[..., 0] - c) > MEAN_TOL):
        raise ValueError(f"initial mean differs from configured c={c}")


def save_steps(cfg: SimConfig) -> np.ndarray:
    """Step indices recorded on a trajectory: every save_every-th plus the end."""
    idx = list(range(0, cfg.steps + 1, cfg.save_every))
    if idx[-1] != cfg.steps:
        idx.append(cfg.steps)
    return np.asarray(idx, dtype=np.int64)


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------


def _noise_blocks(seed: int, ids, n_active: int, steps: int):
    """Each step's (rows, n_active) standard normals, drawn in time blocks of
    about 64 MB; per row the sequence equals per-step draws from its stream."""
    gens = [noise.stream(seed, r) for r in ids]
    block = max(1, min(steps, 8_000_000 // max(1, len(gens) * n_active)))
    for lo in range(0, steps, block):
        buf = np.empty((len(gens), min(block, steps - lo), n_active))
        for r, gen in enumerate(gens):
            buf[r] = gen.standard_normal(buf.shape[1:])
        yield from buf.transpose(1, 0, 2)  # per-step views, no copy


class _Kernel:
    """The one semi-implicit step (see the module docstring).

    A span of n noise rows holds `copies` stacked blocks of n state rows;
    noise row r drives state rows r, r + n, ...  The parts: band =
    (lam, alpha_band, sqrt_b) shifts the band drift of copy 0 to copy 1 and
    books the Girsanov sums; retry selects the bridge policy over marking
    failures; budgets books the budget sums (one copy only).  sums, failed
    and retries are per noise row; row r uses stream first_stream + r.
    """

    def __init__(self, cfg: SimConfig, rows: int, *, copies: int = 1, retry: bool = False,
                 band=None, budgets: bool = False, first_stream: int = 0):
        self.cfg = cfg
        self.eng = Engine(cfg)
        self.copies = copies
        self.retry = retry
        self.band = band
        self.budgets = budgets
        self.first_stream = first_stream
        keys = (BUDGET_KEYS if budgets else ()) + (CONTROL_KEYS if band is not None else ())
        self.sums = {k: np.zeros(rows) for k in keys}
        self.failed = np.full(rows, -1, dtype=np.int64)
        self.retries = np.zeros(rows, dtype=np.int64)
        self.alive = np.ones(rows, dtype=bool)
        self._bridges: dict[int, np.random.Generator] = {}

    def run(self, starts: np.ndarray, record, threads: int = 1) -> np.ndarray:
        """Integrate starts (copies, rows, M+1) over cfg.steps, the rows split
        into one span per thread; returns the final states.

        record(span, step, states) sees each span's batch at the start and
        after every step.  Results do not depend on the thread count.
        """
        cfg, eng = self.cfg, self.eng
        final = np.empty_like(starts)

        def span_run(lo, hi):
            span = slice(lo, hi)
            ids = range(self.first_stream + lo, self.first_stream + hi)
            normals = _noise_blocks(cfg.seed, ids, eng.active.size, cfg.steps)
            states = starts[:, span].reshape(-1, cfg.M + 1)
            grids = self.start(states, lo)
            h = eng.h_integrands(states, grids) if self.budgets else None
            record(span, 0, states)
            for step, xi in enumerate(normals, 1):
                eta = eng.scatter_noise(xi, cfg.dt, (hi - lo, cfg.M + 1))
                states, grids, h = self.substep(span, states, grids, h, eta, cfg.dt, step)
                record(span, step, states)
            final[:, span] = states.reshape(self.copies, hi - lo, -1)

        n = min(max(1, int(threads)), starts.shape[1])
        bounds = [int(b) for b in np.linspace(0, starts.shape[1], n + 1)]
        if n == 1:
            span_run(*bounds)
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
                list(pool.map(span_run, bounds[:-1], bounds[1:]))
        return final

    def sup_ok(self, grids: np.ndarray) -> np.ndarray:
        """Per noise row: every copy's grid stays within the guard (NaN fails)."""
        sup = np.max(np.abs(grids), axis=-1).reshape(self.copies, -1)
        return np.all(sup <= self.eng.guard, axis=0)

    def start(self, states: np.ndarray, lo: int = 0):
        """Grids of a starting span; raises when a row starts beyond the guard."""
        if not self.eng.needs_grid:
            return None
        grids = self.eng.grid(states)
        ok = self.sup_ok(grids)
        if not ok.all():
            raise StiffEventError(
                "initial state exceeds the sup-norm guard",
                failed_replicas=np.flatnonzero(~ok) + lo,
            )
        return grids

    def substep(self, rows, states, grids, h, eta, dt, step, depth=0):
        """Advance noise rows `rows` (a span slice or an index array) by dt
        with increments eta; returns the new states, grids and budget
        integrands (None unless budgets are booked)."""
        eng = self.eng
        k = eta.shape[0]
        nl = eng.nonlin_modes(grids) if eng.needs_grid else None
        if self.band is not None:
            lam, alpha_band, sqrt_b = self.band
            band = slice(1, alpha_band.size + 1)
            y_band = states[:k, band] - states[k:, band]
            w = -(0.5 * lam) * alpha_band * y_band / sqrt_b
            if lam != 0.0:
                if nl is None:
                    nl = np.zeros_like(states)
                nl[:k, band] -= lam * y_band
        eta_rows = eta if self.copies == 1 else np.concatenate([eta] * self.copies)
        cand = eng.advance(states, eta_rows, dt, nl)
        cand_grids = eng.grid(cand) if eng.needs_grid else None

        ok = None
        if cand_grids is not None:
            ok = self.sup_ok(cand_grids)
            if not self.retry:
                ok &= self.alive[rows]
            if ok.all():
                ok = None
        if ok is not None:
            rejected = np.flatnonzero(~ok)
            sub = np.concatenate([rejected + c * k for c in range(self.copies)])
            if self.retry:
                cand[sub], cand_grids[sub], _ = self._bisect(
                    np.arange(self.failed.size)[rows][rejected], sub,
                    states, grids, h, eta[rejected], dt, step, depth,
                )
            else:
                self.failed[rows][~ok & self.alive[rows]] = step
                self.alive[rows] &= ok
                cand[sub] = 0.0
                cand[sub, 0] = self.cfg.c
                cand_grids[sub] = self.cfg.c

        hn = eng.h_integrands(cand, cand_grids) if self.budgets else None
        booked = {}
        if self.budgets:  # trapezoid integrals, then left-point martingales
            booked = {key: (a + b) * (0.5 * dt) for key, a, b in zip(BUDGET_KEYS, h, hn)}
            booked["mart_m1"], booked["mart_0"] = eng.mart_weights(states, eta)
        if self.band is not None:
            w_sq = np.einsum("rk,rk->r", w, w)
            dW_band = eta[:, band] / sqrt_b
            booked["log_weight"] = np.einsum("rk,rk->r", w, dW_band) - 0.5 * w_sq * dt
            booked["int_w_sq"] = w_sq * dt
        for key, value in booked.items():
            self.sums[key][rows] += value if ok is None else np.where(ok, value, 0.0)
        return cand, cand_grids, hn

    def _bisect(self, rows, sub, states, grids, h, eta, dt, step, depth):
        """Re-run noise rows `rows` (state rows `sub` of the batch) on two
        halved substeps whose increments bridge the rejected eta."""
        if depth >= self.cfg.max_halvings:
            raise StiffEventError(
                f"grid sup-norm exceeded guard {self.eng.guard} after "
                f"{self.cfg.max_halvings} halvings of dt={self.cfg.dt}"
            )
        self.retries[rows] += 1
        xi = np.array([self._bridge(int(r)).standard_normal(self.eng.active.size) for r in rows])
        half = 0.5 * eta + 0.5 * math.sqrt(dt) * self.eng.scatter_noise(xi, 1.0, eta.shape)
        sub_h = None if h is None else tuple(a[sub] for a in h)
        mid = self.substep(rows, states[sub], grids[sub], sub_h, half, 0.5 * dt, step, depth + 1)
        return self.substep(rows, *mid, eta - half, 0.5 * dt, step, depth + 1)

    def _bridge(self, r: int) -> np.random.Generator:
        if r not in self._bridges:
            self._bridges[r] = noise.bridge_stream(self.cfg.seed, self.first_stream + r)
        return self._bridges[r]

    def raise_failures(self, what: str):
        """StiffEventError naming the failed rows, if there are any."""
        bad = np.flatnonzero(self.failed >= 0)
        if bad.size:
            raise StiffEventError(
                f"{bad.size} {what} exceeded the sup-norm guard "
                f"(first: {bad[0]} at step {self.failed[bad[0]]})",
                failed_replicas=bad,
            )


def _run_paths(cfg: SimConfig, starts: np.ndarray, *, threads: int = 1, **parts):
    """Integrate starts (copies, R, M+1) with stiff retries, saving every state
    row on the save grid.

    Returns the kernel, the saved states (copies, R, S, M+1) and, with a band
    shift, the running Girsanov sums on the save grid, name -> (R, S).
    """
    marks = save_steps(cfg)
    pos = {int(s): j for j, s in enumerate(marks)}
    copies, R, K = starts.shape
    saved = np.empty((copies, R, marks.size, K))
    running = {k: np.empty((R, marks.size)) for k in CONTROL_KEYS} if parts.get("band") else {}
    kern = _Kernel(cfg, R, copies=copies, retry=True, **parts)

    def record(span, step, states):
        j = pos.get(step)
        if j is not None:
            saved[:, span, j] = states.reshape(copies, -1, K)
            for key, acc in running.items():
                acc[span, j] = kern.sums[key][span]

    kern.run(starts, record, threads)
    return kern, saved, running


def _trajectory(cfg: SimConfig, states: np.ndarray, sums: dict, retries: int) -> Trajectory:
    observables = {
        "mean": states[:, 0].copy(),
        "norm_m1": np.sqrt(spectral.seminorm_sq_many(states, -1.0)),
        "norm_1": np.sqrt(spectral.seminorm_sq_many(states, 1.0)),
        "sup": np.max(np.abs(spectral.synthesize_many(states, cfg.grid_size)), axis=-1),
        "energy": potential.free_energy_many(states, cfg.potential, cfg.grid_size),
    }
    if np.max(np.abs(observables["mean"] - cfg.c)) > 1e-12:
        raise RuntimeError("mass conservation broken: mean drifted beyond 1e-12")
    return Trajectory(
        times=save_steps(cfg) * cfg.dt,
        states=states,
        observables=observables,
        config=cfg,
        stiff_retries=int(retries),
        **{key: float(sums.get(key, "nan")) for key in BUDGET_KEYS},
    )


def simulate_many(x_list, cfg: SimConfig, *, threads: int = 1) -> list[Trajectory]:
    """Integrate several starts as one batch; start i draws from stream (seed, i).

    Trajectory i equals ``simulate`` of start i on stream i bit for bit,
    stiff retries included, for any thread count.
    """
    starts = _tile_starts(np.stack([_as_state_array(x, cfg.M) for x in x_list]), cfg, len(x_list))
    kern, saved, _ = _run_paths(cfg, starts[None], threads=threads, budgets=True)
    return [
        _trajectory(cfg, saved[0, r], {k: v[r] for k, v in kern.sums.items()}, kern.retries[r])
        for r in range(starts.shape[0])
    ]


def simulate(x0: ModeVector, cfg: SimConfig) -> Trajectory:
    """Integrate one trajectory and record observables on the save grid.

    The noise stream is the replica-0 stream of cfg.seed, so a single run
    reproduces member 0 of an ensemble with the same config.
    """
    return simulate_many([x0], cfg)[0]


def step(v: ModeVector, dW: ModeVector, cfg: SimConfig) -> ModeVector:
    """One semi-implicit transition with increment dW (variance b_k dt).

    Raises StiffEventError when the input or updated state exceeds the
    sup-norm guard; callers may halve dt and retry with bridged noise.
    """
    kern = _Kernel(cfg, 1)
    state = _as_state_array(v, cfg.M)[None, :]
    grids = kern.start(state)
    out, _, _ = kern.substep(slice(0, 1), state, grids, None, dW.coeffs[None, :], cfg.dt, 1)
    if kern.failed[0] >= 0:
        raise StiffEventError("updated state exceeds the sup-norm guard")
    return ModeVector(out[0])


def simulate_pair(
    x0: ModeVector, y0: ModeVector, cfg: SimConfig
) -> tuple[Trajectory, Trajectory, np.ndarray]:
    """Integrate two starts under the identical noise realization.

    Returns both trajectories and the path of |X(t,x) - X(t,y)|_{-1} on the
    save grid.
    """
    kern, saved, _ = _run_paths(cfg, np.stack([_tile_starts(v, cfg, 1) for v in (x0, y0)]))
    tx, ty = (_trajectory(cfg, saved[c, 0], {}, kern.retries[0]) for c in (0, 1))
    return tx, ty, np.sqrt(spectral.seminorm_sq_many(tx.states - ty.states, -1.0))


def ito_budget_m1(traj: Trajectory, cfg: SimConfig) -> EnergyBudget:
    """Assemble the level -1 dissipation budget of a recorded trajectory.

    bound = |x|_{-1}^2 + T * (Tr_{-1} + P_c(lam)); the dissipation integral
    and martingale were accumulated at every step during integration.
    """
    lam = cfg.potential.lam if cfg.potential.active else 0.0
    q = potential.budget_rate(lam, cfg.c, noise.trace_gamma(cfg.cov, -1.0))
    initial = float(spectral.seminorm_sq_many(traj.states[0], -1.0))
    terminal = float(spectral.seminorm_sq_many(traj.states[-1], -1.0))
    return EnergyBudget(
        terminal_seminorm_sq=terminal,
        initial_seminorm_sq=initial,
        dissipation=traj.diss_h1,
        bound=initial + traj.horizon * q,
        martingale=traj.mart_m1,
    )


def ito_budget_0(traj: Trajectory, cfg: SimConfig) -> EnergyBudget:
    """Assemble the level 0 budget: E int |X|_2^2 <= |x|_0^2 + T Tr_0.

    Also carries the accumulated gradient functional
    2 int (grad X)^2 sum_{k<=n} X^{2k}, which is nonnegative pathwise.
    """
    initial = float(spectral.seminorm_sq_many(traj.states[0], 0.0))
    terminal = float(spectral.seminorm_sq_many(traj.states[-1], 0.0))
    return EnergyBudget(
        terminal_seminorm_sq=terminal,
        initial_seminorm_sq=initial,
        dissipation=traj.diss_h2,
        bound=initial + traj.horizon * noise.trace_gamma(cfg.cov, 0.0),
        martingale=traj.mart_0,
        gradient_functional=traj.grad_functional,
    )


# ---------------------------------------------------------------------------
# batched ensembles
# ---------------------------------------------------------------------------


def _tile_starts(x0, cfg: SimConfig, replicas: int) -> np.ndarray:
    """One start for every replica, or an (R, M+1) batch of per-replica starts."""
    arr = _as_state_array(x0, cfg.M)
    if arr.ndim == 1:
        arr = np.tile(arr, (replicas, 1))
    if arr.shape != (replicas, cfg.M + 1):
        raise ValueError(f"starts must have shape ({replicas}, {cfg.M + 1})")
    _check_mean(arr, cfg.c)
    return arr


@dataclass
class EnsembleResult:
    """Per-replica outputs of a batched run."""

    times: np.ndarray  # save-time grid (S,)
    final: np.ndarray  # (R, M+1)
    failed_step: np.ndarray  # (R,), -1 where the replica completed
    norm_m1_sq: np.ndarray | None = None  # (R, S)
    budgets: dict = field(default_factory=dict)  # name -> (R,)
    snapshots: dict = field(default_factory=dict)  # step index -> (R, M+1)

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.failed_step >= 0))


def run_ensemble(
    x0,
    cfg: SimConfig,
    replicas: int,
    *,
    record_norm_path: bool = False,
    record_budgets: bool = False,
    snap_steps=(),
    threads: int = 1,
    replica_base: int = 0,
    strict: bool = True,
) -> EnsembleResult:
    """Integrate `replicas` independent copies with per-replica noise streams.

    x0 is one ModeVector shared by all replicas or an (R, M+1) array of
    per-replica starts.  Stream r is keyed by (cfg.seed, replica_base + r),
    so results are bit-identical for any thread count.  With strict=True a
    stiff replica aborts the run; otherwise it is surfaced in failed_step.
    """
    starts = _tile_starts(x0, cfg, replicas)
    marks = save_steps(cfg)
    pos = {int(s): j for j, s in enumerate(marks)}
    snapshots = {s: np.empty((replicas, cfg.M + 1)) for s in sorted(set(map(int, snap_steps)))}
    for s in snapshots:
        if not 0 <= s <= cfg.steps:
            raise ValueError(f"snapshot step {s} outside 0..{cfg.steps}")
    norm_m1_sq = np.empty((replicas, marks.size)) if record_norm_path else None

    def record(span, step, states):
        if norm_m1_sq is not None and step in pos:
            norm_m1_sq[span, pos[step]] = spectral.seminorm_sq_many(states, -1.0)
        if step in snapshots:
            snapshots[step][span] = states

    kern = _Kernel(cfg, replicas, budgets=record_budgets, first_stream=replica_base)
    final = kern.run(starts[None], record, threads)
    if strict:
        kern.raise_failures("replica(s)")
    return EnsembleResult(
        times=marks * cfg.dt,
        final=final[0],
        failed_step=kern.failed,
        norm_m1_sq=norm_m1_sq,
        budgets=kern.sums,
        snapshots=snapshots,
    )

"""Semi-implicit spectral integration of the approximated conserved equation.

The state evolves in mode space by

    x_k^+ = (x_k + (dt/2) alpha_k [f(X)]_k + dW_k) / (1 + (dt/2) alpha_k^2)

for k >= 1, where [f(X)]_k is the cosine analysis of the nonlinearity
evaluated pointwise on the dealiased midpoint grid and dW_k ~ N(0, b_k dt).
The stiff bi-Laplacian is inverted exactly per mode, so the linear part is
unconditionally stable; mode 0 is untouched and mass conservation is exact
in floating point.

Every integration runs one step engine (``Engine``) over a (rows, M+1)
batch in which each noise stream drives one row (paths, ensembles) or two
stacked rows (pairs, coupled pairs).  A step tests the grid sup-norm against
the guard per noise row and retries a rejected row on halved substeps by
Brownian-bridge refinement of its increment, up to ``max_halvings`` deep.  A
row out of halvings is parked at c e_0, where it stays, and the others run
on; a span whose rows have all failed stops.  ``run_paths`` then raises
``StiffEventError`` naming every failed row; ``run_ensemble`` reports them.

The engine books only the Girsanov sums of the band control, and only with
``control=True``, for accepted substeps only.  ``run_paths`` is the one
recorder of paths and pairs: it tiles the starts its callers hold, and its
hook keeps the states and the engine's sums at any chosen steps.
``simulate``, ``simulate_many`` and ``simulate_pair`` run it on the save grid
(a ``Trajectory`` holds only the states and its stiff-retry count),
``coupling`` on its coupled pairs and smoothing starts and
``ergodics.exit_probability`` at the horizon.  ``run_ensemble`` parks and
goes on: it keeps final states and H^-1 norms; with
``record_budgets=True`` it alone books the Ito budget sums (trapezoid /
left-point rule, as the energy-budget checks consume them) in its hook, for
the steps a replica completed.  They never feed back into the step, so
states are the same either way.

Noise row r draws its step normals in time blocks from stream (seed, r) and
its bridge normals from ``noise.bridge_stream(seed, r)``, created at its
first retry, so a row's numbers do not depend on the rows or threads it
shares a batch with: a path equals its member of a path batch or an
ensemble, retries and failures included.
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
# per-row sums: run_ensemble's budgets, the engine's coupling controls
BUDGET_KEYS = ("diss_h1", "diss_h2", "grad_functional", "mart_m1", "mart_0")
CONTROL_KEYS = ("log_weight", "int_w_sq")
NONE_REJECTED = np.empty(0, dtype=np.int64)  # the guard's answer when every row passes


class StiffEventError(RuntimeError):
    """Rows failed_replicas left the sup-norm guard at the start or out of halvings."""

    def __init__(self, message: str, failed_replicas: np.ndarray):
        super().__init__(message)
        self.failed_replicas = failed_replicas


@dataclass(frozen=True)
class SimConfig:
    """Everything one integration needs; immutable and compared by content."""

    M: int
    dt: float
    T: float
    c: float
    potential: PotentialSpec
    cov: CovarianceSpec
    seed: int
    Q: int | None = None  # None: spectral.default_grid_size(M)
    sup_guard: float = 1.5
    save_every: int = 1
    max_halvings: int = 10
    threads: int = 1  # worker threads; results do not depend on it

    def __post_init__(self):
        if self.Q is None:
            object.__setattr__(self, "Q", spectral.default_grid_size(self.M))
        # each message leads with its config key, as every config error does
        for key, ok, rule in (
            ("M", self.M >= 1, "must be >= 1"),
            ("dt", self.dt > 0, "must be positive"),
            ("T", self.T >= self.dt, f"horizon shorter than one step dt={self.dt}"),
            ("c", abs(self.c) < 1.0, "conserved mean must lie in (-1, 1)"),
            ("Q", self.Q >= self.M + 1, f"grid size must be at least M+1 = {self.M + 1}"),
            ("seed", 0 <= self.seed < 2**64, "must fit in 64 bits"),
            ("save_every", self.save_every >= 1, "must be >= 1"),
            ("sup_guard", self.sup_guard > 0, "must be positive"),
            ("max_halvings", self.max_halvings >= 0, "must be >= 0"),
            ("threads", self.threads >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ValueError(f"{key}: {rule}, got {getattr(self, key)}")
        if self.cov.order != self.M:
            raise ValueError(f"b: covariance order {self.cov.order} does not match M={self.M}")

    @property
    def grid_size(self) -> int:
        return self.Q

    @property
    def steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def horizon(self) -> float:
        """Realized horizon steps * dt (T rounded to a whole step count)."""
        return self.steps * self.dt


@dataclass
class Trajectory:
    """A saved path: its states on the save grid."""

    times: np.ndarray
    states: np.ndarray  # (S, M+1) coefficients
    config: SimConfig
    stiff_retries: int = 0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def save_steps(cfg: SimConfig) -> np.ndarray:
    """Step indices recorded on a trajectory: every save_every-th plus the end."""
    idx = list(range(0, cfg.steps + 1, cfg.save_every))
    if idx[-1] != cfg.steps:
        idx.append(cfg.steps)
    return np.asarray(idx, dtype=np.int64)


def _tile_starts(x0, cfg: SimConfig, replicas: int) -> np.ndarray:
    """The (R, M+1) starts: x0 is one start (a ModeVector or coefficients)
    for every replica, or R per-replica starts; each must have mean c."""
    if replicas < 1:
        raise ValueError(f"replicas: must be >= 1, got {replicas}")
    arr = np.asarray(getattr(x0, "coeffs", x0), dtype=np.float64)
    if arr.ndim == 1:
        arr = np.tile(arr, (replicas, 1))
    if arr.shape != (replicas, cfg.M + 1):
        raise ValueError(f"starts must have shape ({replicas}, {cfg.M + 1}), got {arr.shape}")
    if np.any(np.abs(arr[:, 0] - cfg.c) > MEAN_TOL):
        raise ValueError(f"initial mean differs from configured c={cfg.c}")
    return arr


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------


def _noise_blocks(seed: int, ids, n_active: int, steps: int):
    """Each step's (rows, n_active) standard normals; per row the sequence
    equals per-step draws from its stream.

    One step-major (block, rows, n_active) buffer of about 32 MiB is allocated
    once and refilled in place for each time block.  Rows draw their blocks
    into a row-major tile of 16 rows, which one transposing copy moves into
    the buffer, each row's n_active normals moved as one item.  A yielded
    step is a contiguous view of the buffer that stays valid until the next
    refill, so a caller must be done with it when it asks for the next step.
    """
    gens = [noise.stream(seed, r) for r in ids]
    rows = len(gens)
    # 2^22 normals (32 MiB) rounded up to whole steps: glibc's malloc maps a block
    # that large on its own at any threshold and unmaps it when freed, so a run
    # repeated in one process never leaves a second buffer resident on its heap
    block = max(1, min(steps, -(-(1 << 22) // max(1, rows * n_active))))
    buf = np.empty((block, rows, n_active))
    tile = np.empty((min(16, rows), block, n_active))
    if n_active:  # one item: a row's n_active normals at one step
        item = np.dtype((np.void, 8 * n_active))
        dst, src = buf.view(item)[..., 0], tile.view(item)[..., 0]
    for lo in range(0, steps, block):
        nb = min(block, steps - lo)
        for t0 in range(0, rows if n_active else 0, len(tile)):
            part = gens[t0 : t0 + len(tile)]
            for i, gen in enumerate(part):
                gen.standard_normal(out=tile[i, :nb])
            dst[:nb, t0 : t0 + len(part)] = src[: len(part), :nb].T
        yield from buf[:nb]


class Engine:
    """The one semi-implicit step (see the module docstring) over `rows` noise
    rows, with its precomputed arrays.

    A span of n noise rows holds `copies` stacked blocks of n state rows;
    noise row r drives state rows r, r + n, ... and draws from stream r.
    control=True (two copies) takes copy 0's lambda-term on the band of
    cfg.cov at copy 1 and books that control's Girsanov sums, the engine's
    only sums.  A row out of halvings is marked in failed at its step and
    parked.  sums, failed and retries are per row.
    """

    def __init__(self, cfg: SimConfig, rows: int, *, copies: int = 1, control: bool = False):
        self.cfg = cfg
        self.Q = cfg.grid_size
        self.alpha = spectral.eigenvalues(cfg.M)
        self.alpha_sq = self.alpha**2
        self.active = cfg.cov.active_modes
        self.sqrt_b_active = np.sqrt(cfg.cov.b[self.active])
        self.inv_alpha = np.zeros(cfg.M + 1)
        self.inv_alpha[1:] = 1.0 / self.alpha[1:]
        self._per_dt: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        spec = cfg.potential
        self.guard = cfg.sup_guard
        if spec.is_exact:
            self.guard = min(self.guard, 1.0 - 1e-12)
        self.needs_grid = spec.active
        self.grad_mat = (
            spectral.gradient_matrix(cfg.M, self.Q) if spec.is_truncated else None
        )
        self.rows = rows
        self.copies = copies
        self.control = control
        self.band = slice(1, cfg.cov.band + 1)  # the control's modes 1..N
        self.w_gain = -(0.5 * spec.lam) * self.alpha[self.band]
        self.sqrt_b_band = np.sqrt(cfg.cov.b[self.band])
        self.sums = {k: np.zeros(rows) for k in CONTROL_KEYS} if control else {}
        self.failed = np.full(rows, -1, dtype=np.int64)
        self.parked = False  # any row failed: only then does a step look for them
        self.retries = np.zeros(rows, dtype=np.int64)
        self._bridges: dict[int, np.random.Generator] = {}

    def per_dt(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(1 + (dt/2) alpha^2, (dt/2) alpha, sqrt(b dt) on the active modes):
        the step's divisor, the nonlinearity's scale and the noise scale,
        computed once per step size.  At cfg.dt the divisor is tiled to every
        state row and the noise scale to every noise row, so a batch, a row
        prefix, divides and scales in one contiguous loop rather than one
        broadcast loop per row.  A retry's dt/2^k keeps one broadcast row, so
        the cache does not grow with rows times halving depth."""
        coef = self._per_dt.get(dt)
        if coef is None:
            n, n_states = (self.rows, self.rows * self.copies) if dt == self.cfg.dt else (1, 1)
            coef = self._per_dt[dt] = (
                np.tile(1.0 + 0.5 * dt * self.alpha_sq, (n_states, 1)),
                (0.5 * dt) * self.alpha,
                np.tile(self.sqrt_b_active * math.sqrt(dt), (n, 1)),
            )
        return coef

    def grid(self, states: np.ndarray) -> np.ndarray:
        return spectral.synthesize_many(states, self.Q)

    def nonlin_modes(self, grids: np.ndarray) -> np.ndarray:
        return spectral.analyze_many(
            potential.nonlinearity_grid(grids, self.cfg.potential), self.cfg.M
        )

    def scatter_noise(self, xi: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
        """Scaled increments (variance b_k dt) from standard normals on the band,
        written into the active columns of out; its other columns must be zero."""
        if self.active.size:
            out[..., self.active] = xi * self.per_dt(dt)[2][: len(xi)]
        return out

    def advance(
        self, states: np.ndarray, eta: np.ndarray, dt: float, nl: np.ndarray | None
    ) -> np.ndarray:
        """The semi-implicit step; nl, the step's own analysed nonlinearity,
        is scaled in place."""
        denom, scale, _ = self.per_dt(dt)
        num = states + eta
        if nl is not None:
            nl *= scale
            num += nl
        num /= denom[: len(num)]
        return num

    # -- budget integrands, read by run_ensemble's hook -------------------

    def h_integrands(self, states: np.ndarray, grids: np.ndarray | None):
        """(|X|_1^2, |X|_2^2, gradient functional integrand) for each row."""
        h1, h2 = (spectral.seminorm_sq_many(states, gamma) for gamma in (1.0, 2.0))
        if self.grad_mat is None or grids is None:
            gg = np.zeros_like(h1)
        else:
            grad = spectral._tiled_matmul(states[..., 1:], self.grad_mat)
            u2 = grids * grids
            power_sum = np.ones_like(u2)
            for _ in range(self.cfg.potential.n):  # 1 + u2 * power_sum
                power_sum *= u2
                power_sum += 1.0
            grad *= grad
            grad *= power_sum
            gg = 2.0 * np.mean(grad, axis=-1)
        return h1, h2, gg

    def mart_weights(self, states: np.ndarray, eta: np.ndarray):
        """Left-point martingale increments (2(X, dW)_{-1}, 2<X, dW>)."""
        m1 = 2.0 * np.einsum("...k,...k->...", states * self.inv_alpha, eta)
        m0 = 2.0 * np.einsum("...k,...k->...", states, eta)
        return m1, m0

    def run(self, starts: np.ndarray, record) -> np.ndarray:
        """Integrate starts (copies, rows, M+1) over cfg.steps, the rows split
        into one span per thread of cfg.threads; returns the final states.

        record(span, step, states, grids, eta) sees each span's batch, its
        grids (None without a potential) and the step's increments per noise
        row (None at step 0), at the start and after every step; eta is
        overwritten by the next step.  Starts outside the guard raise before
        any step, all named; each span slices its start grids from that one
        check.  Once every row of a span is parked, the span draws, steps and
        records no more.  Results do not depend on the thread count.
        """
        cfg = self.cfg
        n = min(cfg.threads, starts.shape[1])
        bounds = [int(b) for b in np.linspace(0, starts.shape[1], n + 1)]
        start_grids = dict.fromkeys(bounds[:-1])  # span start -> its start grids
        if self.needs_grid:
            checked = self.grid(starts)
            if (bad := self.rejected_rows(checked)).size:
                raise StiffEventError(f"initial state of {bad.size} row(s) (first: {bad[0]}) "
                                      f"exceeds the sup-norm guard {self.guard}",
                                      failed_replicas=bad)
            start_grids = {lo: checked[:, lo:hi].reshape(-1, self.Q)
                           for lo, hi in zip(bounds[:-1], bounds[1:])}
            del checked  # each span's slice alone holds it, until that span's first step
        final = np.empty_like(starts)

        def span_run(lo, hi):
            span = slice(lo, hi)
            normals = _noise_blocks(cfg.seed, range(lo, hi), self.active.size, cfg.steps)
            states = starts[:, span].reshape(-1, cfg.M + 1)
            grids = start_grids.pop(lo)
            record(span, 0, states, grids, None)
            eta = np.zeros((hi - lo, cfg.M + 1))  # only the band columns change
            for step, xi in enumerate(normals, 1):
                self.scatter_noise(xi, cfg.dt, eta)
                states, grids = self.substep(span, states, grids, eta, cfg.dt, step)
                record(span, step, states, grids, eta)
                if self.parked and np.all(self.failed[span] >= 0):
                    break
            final[:, span] = states.reshape(self.copies, hi - lo, -1)

        if n == 1:
            span_run(*bounds)
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
                list(pool.map(span_run, bounds[:-1], bounds[1:]))
        return final

    def _state_rows(self, idx: np.ndarray, n: int) -> np.ndarray:
        """The state rows of noise rows idx (of a span of n) in every copy."""
        return np.concatenate([idx + c * n for c in range(self.copies)])

    def _park(self, states: np.ndarray, grids: np.ndarray, sub):
        """Put state rows sub at c e_0, whose grid is c, in place (only a row
        with a grid is ever rejected, so only such rows fail)."""
        states[sub] = 0.0
        states[sub, 0] = self.cfg.c
        grids[sub] = self.cfg.c

    def rejected_rows(self, grids: np.ndarray) -> np.ndarray:
        """The noise rows, in order, at which some copy's grid leaves the guard
        (NaN does).  One max/min pair tests the whole batch and, if it passes,
        returns the shared NONE_REJECTED; only a batch that fails goes row by row."""
        if grids.max() <= self.guard and grids.min() >= -self.guard:
            return NONE_REJECTED
        sup = np.maximum(grids.max(axis=-1), -grids.min(axis=-1)).reshape(self.copies, -1)
        return np.flatnonzero(~np.all(sup <= self.guard, axis=0))

    def substep(self, rows, states, grids, eta, dt, step, depth=0):
        """Advance noise rows `rows` (a span slice or an index array) by dt
        with increments eta; returns the new states and grids."""
        k = eta.shape[0]
        nl = self.nonlin_modes(grids) if self.needs_grid else None
        if self.control:
            lam, band, sqrt_b = self.cfg.potential.lam, self.band, self.sqrt_b_band
            y_band = states[:k, band] - states[k:, band]
            w = self.w_gain * y_band / sqrt_b
            if lam != 0.0:
                if nl is None:
                    nl = np.zeros_like(states)
                nl[:k, band] -= lam * y_band
        eta_rows = eta if self.copies == 1 else np.concatenate([eta] * self.copies)
        cand = self.advance(states, eta_rows, dt, nl)
        cand_grids = self.grid(cand) if self.needs_grid else None
        if self.parked:  # failed rows stay at c e_0
            down = np.flatnonzero(self.failed[rows] >= 0)
            self._park(cand, cand_grids, self._state_rows(down, k))

        rejected = NONE_REJECTED if cand_grids is None else self.rejected_rows(cand_grids)
        if rejected.size:
            sub = self._state_rows(rejected, k)
            cand[sub], cand_grids[sub] = self._bisect(
                np.arange(self.failed.size)[rows][rejected], sub,
                states, grids, eta[rejected], dt, step, depth,
            )

        if self.control:  # the Girsanov sums of accepted substeps
            w_sq = np.einsum("rk,rk->r", w, w)
            dW_band = eta[:, band] / sqrt_b
            booked = {"log_weight": np.einsum("rk,rk->r", w, dW_band) - 0.5 * w_sq * dt,
                      "int_w_sq": w_sq * dt}
            for key, value in booked.items():
                value[rejected] = 0.0
                self.sums[key][rows] += value
        return cand, cand_grids

    def _bisect(self, rows, sub, states, grids, eta, dt, step, depth):
        """Re-run noise rows `rows` (state rows `sub` of the batch) on two
        halved substeps whose increments bridge the rejected eta; rows out of
        halvings fail at this step."""
        if depth >= self.cfg.max_halvings:
            self.failed[rows] = step
            self.parked = True
            out = states[sub], grids[sub]
            self._park(*out, slice(None))
            return out
        self.retries[rows] += 1
        xi = np.array([self._bridge(int(r)).standard_normal(self.active.size) for r in rows])
        bridge = self.scatter_noise(xi, 1.0, np.zeros(eta.shape))
        half = 0.5 * eta + 0.5 * math.sqrt(dt) * bridge
        mid = self.substep(rows, states[sub], grids[sub], half, 0.5 * dt, step, depth + 1)
        return self.substep(rows, *mid, eta - half, 0.5 * dt, step, depth + 1)

    def _bridge(self, r: int) -> np.random.Generator:
        if r not in self._bridges:
            self._bridges[r] = noise.bridge_stream(self.cfg.seed, r)
        return self._bridges[r]


def run_paths(cfg: SimConfig, starts, replicas: int, steps, *, control: bool = False):
    """The one recorder of paths and pairs: integrate `replicas` rows of each
    copy with stiff retries, the band control on with control=True (see
    Engine).  starts holds one entry per copy, one start for every row or
    `replicas` per-row starts (as ``_tile_starts`` takes them).  Rows out of
    halvings raise StiffEventError after the run, naming them all.  Returns
    the engine, every state row at the distinct step indices `steps`, each in
    0..cfg.steps (else ValueError), as (copies, R, len(steps), M+1) in order,
    and {key: (R, len(steps)) running path} of the engine's sums."""
    pos = {}
    for j, s in enumerate(map(int, steps)):
        if s in pos or not 0 <= s <= cfg.steps:
            raise ValueError(f"steps: step {s} is repeated or outside 0..{cfg.steps}")
        pos[s] = j
    starts = np.stack([_tile_starts(v, cfg, replicas) for v in starts])
    copies, R, K = starts.shape
    saved = np.empty((copies, R, len(pos), K))
    kern = Engine(cfg, R, copies=copies, control=control)
    sums = {key: np.empty((R, len(pos))) for key in kern.sums}

    def record(span, step, states, *_):
        j = pos.get(step)
        if j is not None:
            saved[:, span, j] = states.reshape(copies, -1, K)
            for key, path in sums.items():
                path[span, j] = kern.sums[key][span]

    kern.run(starts, record)
    if (rows := np.flatnonzero(kern.failed >= 0)).size:
        raise StiffEventError(f"{rows.size} row(s) (first: {rows[0]}) exceeded the sup-norm "
                              f"guard at step {kern.failed[rows].min()} after {cfg.max_halvings} "
                              f"halvings of dt={cfg.dt}", failed_replicas=rows)
    return kern, saved, sums


def _trajectory(cfg: SimConfig, states: np.ndarray, retries: int) -> Trajectory:
    return Trajectory(save_steps(cfg) * cfg.dt, states, cfg, int(retries))


def simulate_many(x_list, cfg: SimConfig) -> list[Trajectory]:
    """Integrate several starts as one batch; start i draws from stream (seed, i).

    Trajectory i equals ``simulate`` of start i on stream i bit for bit,
    stiff retries included, for any thread count.
    """
    starts = [getattr(x, "coeffs", x) for x in x_list]
    kern, saved, _ = run_paths(cfg, (starts,), len(starts), save_steps(cfg))
    return [_trajectory(cfg, states, retries) for states, retries in zip(saved[0], kern.retries)]


def simulate(x0: ModeVector, cfg: SimConfig) -> Trajectory:
    """Integrate one trajectory and save its states on the save grid.

    The noise stream is the replica-0 stream of cfg.seed, so a single run
    reproduces member 0 of an ensemble with the same config.
    """
    return simulate_many([x0], cfg)[0]


def simulate_pair(
    x0: ModeVector, y0: ModeVector, cfg: SimConfig
) -> tuple[Trajectory, Trajectory, np.ndarray]:
    """Integrate two starts under the identical noise realization.

    Returns both trajectories and the path of |X(t,x) - X(t,y)|_{-1} on the
    save grid.
    """
    kern, saved, _ = run_paths(cfg, (x0, y0), 1, save_steps(cfg))
    tx, ty = (_trajectory(cfg, saved[c, 0], kern.retries[0]) for c in (0, 1))
    return tx, ty, np.sqrt(spectral.seminorm_sq_many(tx.states - ty.states, -1.0))


# ---------------------------------------------------------------------------
# batched ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Per-replica outputs of a batched run."""

    times: np.ndarray  # save-time grid (S,)
    final: np.ndarray  # (R, M+1)
    failed_step: np.ndarray  # (R,), -1 where the replica completed
    norm_m1_sq: np.ndarray  # (R, S) squared H^-1 norms on the save grid
    budgets: dict = field(default_factory=dict)  # name -> (R,)

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.failed_step >= 0))


def run_ensemble(
    x0,
    cfg: SimConfig,
    replicas: int,
    *,
    record_budgets: bool = False,
) -> EnsembleResult:
    """Integrate `replicas` independent copies with per-replica noise streams.

    x0 is one ModeVector shared by all replicas or an (R, M+1) array of
    per-replica starts.  Stream r is keyed by (cfg.seed, r),
    so results are bit-identical for any thread count, and member r equals
    ``simulate_many``'s path r.  A replica out of halvings is parked at c e_0
    and surfaced in failed_step, and the run goes on (where ``run_paths`` raises).
    Only final states are kept (``run_paths`` saves states at chosen steps).
    Each replica's squared H^-1 norm is recorded on the save grid, 0 where a
    parked replica's span has stopped (its c e_0 has norm 0);
    record_budgets books the five budget sums over the steps each replica
    completed (see the module docstring).
    """
    starts = _tile_starts(x0, cfg, replicas)
    pos = {int(s): j for j, s in enumerate(save_steps(cfg))}
    norm_m1_sq = np.zeros((replicas, len(pos)))
    kern = Engine(cfg, replicas)
    budgets = {k: np.zeros(replicas) for k in BUDGET_KEYS} if record_budgets else {}
    last = {}  # span start -> (states, integrands) of the step before

    def record(span, step, states, grids, eta):
        if step in pos:
            norm_m1_sq[span, pos[step]] = spectral.seminorm_sq_many(states, -1.0)
        if budgets:
            h = kern.h_integrands(states, grids)
            if eta is not None:  # trapezoid integrals, then left-point martingales
                prev, h_prev = last[span.start]
                booked = {k: (a + b) * (0.5 * cfg.dt) for k, a, b in zip(BUDGET_KEYS, h_prev, h)}
                booked["mart_m1"], booked["mart_0"] = kern.mart_weights(prev, eta)
                for key, value in booked.items():  # not the step a replica fails at, nor later
                    budgets[key][span] += np.where(kern.failed[span] < 0, value, 0.0)
            last[span.start] = states, h

    final = kern.run(starts[None], record)
    return EnsembleResult(
        times=save_steps(cfg) * cfg.dt,
        final=final[0],
        failed_step=kern.failed,
        norm_m1_sq=norm_m1_sq,
        budgets=budgets,
    )

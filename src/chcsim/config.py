"""Flat key=value experiment configuration: parsing, validation, emission.

The format is one `key = value` pair per line, `#` comments, and repeated
keys for lists (`b`, `t`, `x0`, `observable`, `sweep_n`).  Flat text was
chosen over nested formats so experiment sweeps diff line by line.

parse_config resolves every default and validates invariants with
field-path diagnostics, the kind's own requirements taken from its entry in
``kinds.KINDS``; emit_config writes the resolved form back, and
parse(emit(cfg)) == cfg holds exactly.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from . import observables as obs_mod
from .dynamics import SimConfig
from .errors import ConfigError
from .kinds import KINDS
from .noise import CovarianceSpec
from .observables import ObservableSpec
from .potential import PotentialSpec
from .spectral import ModeVector

THREADS_ENV = "CHC_SIM_THREADS"

_LIST_KEYS = {"b", "t", "x0", "observable", "sweep_n"}
_KNOWN_KEYS = _LIST_KEYS | {
    "kind",
    "M",
    "Q",
    "oversample",
    "dt",
    "T",
    "c",
    "lambda",
    "potential",
    "n",
    "N",
    "seed",
    "sup_guard",
    "save_every",
    "max_halvings",
    "replicas",
    "y0",
    "burn_in",
    "radius",
    "out",
    "threads",
    "save_states",
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    sim: SimConfig
    replicas: int = 1
    times: tuple = ()
    observables: tuple = ()
    x0: tuple = ("const",)
    y0: str | None = None
    burn_in: float | None = None
    radius: float = 0.1
    sweep_n: tuple = ()
    out: str = "runs"
    threads: int = 1
    save_states: bool = False


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _to_int(field, raw):
    try:
        return int(raw)
    except ValueError:
        _fail(field, f"expected an integer, got {raw!r}")


def _to_float(field, raw):
    try:
        value = float(raw)
    except ValueError:
        _fail(field, f"expected a number, got {raw!r}")
    if not math.isfinite(value):
        _fail(field, f"expected a finite number, got {raw!r}")
    return value


def _to_mode(field, raw, first, M):
    k = _to_int(field, raw)
    if not first <= k <= M:
        _fail(field, f"mode index {k} outside {first}..{M}")
    return k


def _to_bool(field, raw):
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    _fail(field, f"expected true/false, got {raw!r}")


def read_pairs(text: str):
    """Raw (key, value) pairs from config text, in file order."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_config_text(text: str) -> ExperimentConfig:
    pairs = read_pairs(text)
    single: dict[str, str] = {}
    lists: dict[str, list[str]] = {k: [] for k in _LIST_KEYS}
    for key, value in pairs:
        if key not in _KNOWN_KEYS:
            _fail(key, "unknown configuration key")
        if key in _LIST_KEYS:
            lists[key].append(value)
        else:
            if key in single:
                _fail(key, "repeated key (only list keys may repeat)")
            single[key] = value

    def need(key):
        if key not in single:
            _fail(key, "required key missing")
        return single[key]

    kind = need("kind")
    if kind not in KINDS:
        _fail("kind", f"unknown experiment kind {kind!r}; choose from {', '.join(KINDS)}")

    M = _to_int("M", need("M"))
    dt = _to_float("dt", need("dt"))
    T = _to_float("T", need("T"))
    c = _to_float("c", need("c"))
    seed = _to_int("seed", need("seed"))
    if not 0 <= seed < 2**64:
        _fail("seed", "must fit in 64 bits")

    lam = _to_float("lambda", single.get("lambda", "0"))
    pot_kind = single.get("potential", "poly")
    if pot_kind == "poly":
        n = _to_int("n", need("n"))
        potential = PotentialSpec.truncated(n, lam)
    elif pot_kind == "exact":
        potential = PotentialSpec.exact(lam)
    elif pot_kind == "off":
        if lam != 0.0:
            _fail("lambda", "must be 0 when the potential is off")
        potential = PotentialSpec.off()
    else:
        _fail("potential", f"expected poly/exact/off, got {pot_kind!r}")

    band = _to_int("N", single.get("N", "0"))
    b = np.zeros(M + 1)
    for i, entry in enumerate(lists["b"]):
        field = f"b[{i}]"
        if ":" not in entry:
            _fail(field, f"expected 'mode:value', got {entry!r}")
        k_raw, _, v_raw = entry.partition(":")
        k = _to_mode(field, k_raw, 0, M)
        v = _to_float(field, v_raw)
        if k == 0 and v != 0.0:
            _fail(field, "mean-conservation violated: b_0 must be 0")
        if v < 0:
            _fail(field, "noise coefficients must be nonnegative")
        b[k] = v
    if not 0 <= band <= M:
        _fail("N", f"band must lie in 0..{M}")
    zero_in_band = np.flatnonzero(b[1 : band + 1] == 0.0)
    if zero_in_band.size:
        _fail(
            f"b[{int(zero_in_band[0]) + 1}]",
            f"the elliptic band assumption needs b_k > 0 for k = 1..{band}",
        )
    cov = CovarianceSpec(b, band)

    oversample = _to_int("oversample", single.get("oversample", "4"))
    if "Q" in single:
        Q = _to_int("Q", single["Q"])
    else:
        # resolve the default now so the emitted config echoes every choice
        Q = (M + 1) * max(1, oversample)
    try:
        sim = SimConfig(
            M=M,
            dt=dt,
            T=T,
            c=c,
            potential=potential,
            cov=cov,
            seed=seed,
            Q=Q,
            oversample=oversample,
            sup_guard=_to_float("sup_guard", single.get("sup_guard", "1.5")),
            save_every=_to_int("save_every", single.get("save_every", "1")),
            max_halvings=_to_int("max_halvings", single.get("max_halvings", "10")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    times = tuple(_to_float(f"t[{i}]", v) for i, v in enumerate(lists["t"]))
    sweep_n = tuple(_to_int(f"sweep_n[{i}]", v) for i, v in enumerate(lists["sweep_n"]))
    x0 = tuple(lists["x0"]) or ("const",)
    for i, spec in enumerate(x0):
        parse_state(spec, M, f"x0[{i}]")
    y0 = single.get("y0")
    if y0 is not None:
        parse_state(y0, M, "y0")
    observable = tuple(lists["observable"])
    for i, spec in enumerate(observable):
        build_observable(spec, M, f"observable[{i}]")

    threads_default = os.environ.get(THREADS_ENV, "1")
    cfg = ExperimentConfig(
        kind=kind,
        sim=sim,
        replicas=_to_int("replicas", single.get("replicas", "1")),
        times=times,
        observables=observable,
        x0=x0,
        y0=y0,
        burn_in=_to_float("burn_in", single["burn_in"]) if "burn_in" in single else None,
        radius=_to_float("radius", single.get("radius", "0.1")),
        sweep_n=sweep_n,
        out=single.get("out", "runs"),
        threads=_to_int("threads", single.get("threads", threads_default)),
        save_states=_to_bool("save_states", single.get("save_states", "false")),
    )
    for need in KINDS[kind].needs:
        if not need.ok(cfg):
            _fail(need.field, f"kind {kind} {need.message}")
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; defaults resolved."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return parse_config_text(text)


def parse_state(spec: str, M: int, field: str = "x0"):
    """Read an initial-state spec: const, gaussian:S or modes:k=v,... (1 <= k <= M).

    Returns (scale, kicks): the scale of a stationary Gaussian draw added to
    c e_0 (None for no draw) and the (k, v) amounts added to modes k.
    """
    head, colon, rest = spec.partition(":")
    if head == "const" and not colon:
        return None, ()
    if head == "gaussian":
        return _to_float(field, rest or "1"), ()
    if head == "modes":
        if not rest:
            _fail(field, "modes spec needs entries like modes:1=0.1,2=-0.05")
        kicks = []
        for item in rest.split(","):
            if "=" not in item:
                _fail(field, f"bad mode entry {item!r}")
            k_raw, _, v_raw = item.partition("=")
            kicks.append((_to_mode(field, k_raw, 1, M), _to_float(field, v_raw)))
        return None, tuple(kicks)
    _fail(field, f"unknown initial-state spec {spec!r} (const, gaussian:S, modes:k=v,...)")


def build_state(spec: str, sim: SimConfig, slot: int) -> ModeVector:
    """Materialize an initial-condition spec; random draws use an auxiliary
    stream keyed by (seed, slot) disjoint from all replica streams."""
    scale, kicks = parse_state(spec, sim.M)
    coeffs = ModeVector.constant(sim.c, sim.M).coeffs
    if scale is not None:
        rng = noise_mod.aux_stream(sim.seed, slot)
        sample = noise_mod.sample_stationary_gaussian(sim.c, sim.cov, rng)
        coeffs[1:] += scale * sample.coeffs[1:]
    for k, v in kicks:
        coeffs[k] += v
    return ModeVector(coeffs)


def build_observable(spec: str, M: int, field: str = "observable") -> ObservableSpec:
    """The observable a spec names, looked up in ``observables.HEADS``."""
    head, *raw = spec.split(":")
    if head not in obs_mod.HEADS:
        _fail(field, f"unknown observable {spec!r}; heads: {', '.join(obs_mod.HEADS)}")
    factory, types = obs_mod.HEADS[head]
    if len(raw) != len(types):
        _fail(field, f"observable {head} takes {len(types)} ':' field(s), got {spec!r}")
    args = []
    for t, value in zip(types, raw):
        if isinstance(t, obs_mod.Mode):
            args.append(_to_mode(field, value, t.first, M))
        else:
            args.append(_to_int(field, value) if t is int else _to_float(field, value))
    return factory(*args)


def emit_config(cfg: ExperimentConfig) -> str:
    """Resolved config as canonical flat text; parse(emit(cfg)) == cfg."""
    sim = cfg.sim
    lines = [
        f"kind = {cfg.kind}",
        f"M = {sim.M}",
        f"Q = {sim.grid_size}",
        f"oversample = {sim.oversample}",
        f"dt = {sim.dt!r}",
        f"T = {sim.T!r}",
        f"c = {sim.c!r}",
    ]
    pot = sim.potential
    if not pot.active:
        lines.append("potential = off")
        lines.append("lambda = 0")
    elif pot.is_truncated:
        lines.append("potential = poly")
        lines.append(f"lambda = {pot.lam!r}")
        lines.append(f"n = {pot.n}")
    else:
        lines.append("potential = exact")
        lines.append(f"lambda = {pot.lam!r}")
    for k, bk in sim.cov.to_pairs():
        lines.append(f"b = {k}:{bk!r}")
    lines.append(f"N = {sim.cov.band}")
    lines.append(f"seed = {sim.seed}")
    lines.append(f"sup_guard = {sim.sup_guard!r}")
    lines.append(f"save_every = {sim.save_every}")
    lines.append(f"max_halvings = {sim.max_halvings}")
    lines.append(f"replicas = {cfg.replicas}")
    for t in cfg.times:
        lines.append(f"t = {t!r}")
    for s in cfg.observables:
        lines.append(f"observable = {s}")
    for s in cfg.x0:
        lines.append(f"x0 = {s}")
    if cfg.y0 is not None:
        lines.append(f"y0 = {cfg.y0}")
    if cfg.burn_in is not None:
        lines.append(f"burn_in = {cfg.burn_in!r}")
    lines.append(f"radius = {cfg.radius!r}")
    for n in cfg.sweep_n:
        lines.append(f"sweep_n = {n}")
    lines.append(f"out = {cfg.out}")
    lines.append(f"threads = {cfg.threads}")
    lines.append(f"save_states = {str(cfg.save_states).lower()}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()[:12]

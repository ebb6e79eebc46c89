"""Flat key=value experiment configuration: parsing, validation, emission.

One `key = value` pair per line, `#` comments, and repeated keys for lists
(`b`, `t`, `x0`, `observable`, `sweep_n`): flat text diffs line by line.
``KEYS`` is the one table of keys, in emitted order.  A key left out of the
text is not passed on, so its default lives in its dataclass field alone;
potential, lambda and N, which no field holds, default to poly, 0 and 0.
parse_config_text checks the text: key syntax, mode ranges, the keys the
kind reads and the requirements of ``kinds.KINDS``.  The value rules are the
specs' (``CovarianceSpec``, ``PotentialSpec``, ``SimConfig``), whose
messages lead with their key; parse(emit(cfg)) == cfg exactly.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import noise as noise_mod
from . import observables as obs_mod
from .dynamics import SimConfig
from .kinds import KEY_RULES, KINDS
from .noise import CovarianceSpec
from .observables import ObservableSpec
from .potential import PotentialSpec
from .spectral import ModeVector


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


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


def _plain(convert):
    """A reader that needs no M."""
    return lambda field, raw, M: convert(field, raw)


_INT, _FLOAT, _BOOL = _plain(_to_int), _plain(_to_float), _plain(_to_bool)
_TEXT = _plain(lambda field, raw: raw)


def _kind(field, raw, M):
    if raw not in KINDS:
        _fail(field, f"unknown experiment kind {raw!r}; choose from {', '.join(KINDS)}")
    return raw


def _int_from(lo, message):
    """A reader of integers k >= lo."""
    def read(field, raw, M):
        k = _to_int(field, raw)
        if k < lo:
            _fail(field, message)
        return k
    return read


def _potential(field, raw, M):
    if raw not in ("poly", "exact", "off"):
        _fail(field, f"expected poly/exact/off, got {raw!r}")
    return raw


def _noise_entry(field, raw, M):
    """A `b = mode:value` line as (k, b_k)."""
    if ":" not in raw:
        _fail(field, f"expected 'mode:value', got {raw!r}")
    k_raw, _, v_raw = raw.partition(":")
    return _to_mode(field, k_raw, 0, M), _to_float(field, v_raw)


def _state(field, raw, M):
    parse_state(raw, M, field)
    return raw


def _observable(field, raw, M):
    build_observable(raw, M, field)
    return raw


class Key(NamedTuple):
    """One config key: ``read(field, raw, M)`` reads one raw value (M is read
    before the keys that need it); ``attr`` is the ExperimentConfig attribute
    (``sim.<field>`` for SimConfig) the value goes to and emit_config writes
    back, unless ``emit(cfg)`` gives what is written.  A list key (``many``)
    writes one line per value; a written None writes no line."""

    read: Callable
    attr: str | None = None
    emit: Callable | None = None
    many: bool = False
    required: bool = False

    def written(self, cfg) -> tuple:
        value = self.emit(cfg) if self.emit else operator.attrgetter(self.attr)(cfg)
        return tuple(value) if self.many else () if value is None else (value,)


KEYS = {
    "kind": Key(_kind, "kind", required=True),
    "M": Key(_int_from(1, "must be >= 1"), "sim.M", required=True),
    "Q": Key(_INT, "sim.Q"),
    "dt": Key(_FLOAT, "sim.dt", required=True),
    "T": Key(_FLOAT, "sim.T", required=True),
    "c": Key(_FLOAT, "sim.c", required=True),
    # potential, lambda, n, b and N are folded into the potential and the
    # covariance by parse_config_text
    "potential": Key(_potential, emit=lambda cfg: "poly" if cfg.sim.potential.is_truncated
                     else "exact" if cfg.sim.potential.active else "off"),
    "lambda": Key(_FLOAT, emit=lambda cfg: cfg.sim.potential.lam if cfg.sim.potential.active
                  else 0),
    "n": Key(_INT, "sim.potential.n"),
    "b": Key(_noise_entry, emit=lambda cfg: [f"{k}:{v!r}" for k, v in cfg.sim.cov.to_pairs()],
             many=True),
    "N": Key(_INT, "sim.cov.band"),
    "seed": Key(_INT, "sim.seed", required=True),
    "sup_guard": Key(_FLOAT, "sim.sup_guard"),
    "save_every": Key(_INT, "sim.save_every"),
    "max_halvings": Key(_INT, "sim.max_halvings"),
    "replicas": Key(_INT, "replicas"),
    "t": Key(_FLOAT, "times", many=True),
    "observable": Key(_observable, "observables", many=True),
    "x0": Key(_state, "x0", many=True),
    "y0": Key(_state, "y0"),
    "burn_in": Key(_FLOAT, "burn_in"),
    "radius": Key(_FLOAT, "radius"),
    "sweep_n": Key(_int_from(0, "truncation order must be >= 0"), "sweep_n", many=True),
    "out": Key(_TEXT, "out"),
    "threads": Key(_INT, "sim.threads"),
    "save_states": Key(_BOOL, "save_states", emit=lambda cfg: str(cfg.save_states).lower()),
}


# keys a kind may set only if its KindSpec.reads names them; every SimConfig
# key, x0 and out stay legal for every kind
KIND_KEYS = tuple(KEY_RULES)
UNREAD = "does not read this key; leave it out"
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KEYS:
            _fail(key, "unknown configuration key")
        if key in raw and not KEYS[key].many:
            _fail(key, "repeated key (only list keys may repeat)")
        raw.setdefault(key, []).append(value)

    values = {}
    for name, key in KEYS.items():
        if name in raw:
            read = [key.read(f"{name}[{i}]" if key.many else name, r, values.get("M"))
                    for i, r in enumerate(raw[name])]
            values[name] = tuple(read) if key.many else read[0]
        elif key.required:
            _fail(name, "required key missing")

    pot_kind, lam = values.pop("potential", "poly"), values.pop("lambda", 0.0)
    n = values.pop("n", None)
    if pot_kind == "poly" and n is None:
        _fail("n", "required key missing")
    b, band = np.zeros(values["M"] + 1), values.pop("N", 0)
    for k, v in values.pop("b", ()):
        b[k] = v

    sim_kw, exp_kw = {}, {}
    for name, value in values.items():
        owner, _, field = KEYS[name].attr.rpartition(".")
        (sim_kw if owner else exp_kw)[field] = value
    try:
        potential = PotentialSpec(lam, n if pot_kind == "poly" else None, active=pot_kind != "off")
        sim = SimConfig(potential=potential, cov=CovarianceSpec(b, band), **sim_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg = ExperimentConfig(sim=sim, **exp_kw)
    for name in KIND_KEYS:
        attr = KEYS[name].attr
        if name not in KINDS[cfg.kind].reads and getattr(cfg, attr) != _DEFAULTS[attr]:
            _fail(name, f"kind {cfg.kind} {UNREAD}")
    for need in KINDS[cfg.kind].needs:
        if not need.ok(cfg):
            _fail(need.field, f"kind {cfg.kind} {need.message}")
    # after the kind's needs, so a kind that needs poly names potential, not n
    if pot_kind != "poly" and n is not None:
        _fail("n", f"a truncation order needs potential = poly, not {pot_kind}")
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


def with_overrides(cfg: ExperimentConfig, **raw: str | None) -> ExperimentConfig:
    """cfg with the keys whose raw text is not None set to it, read and
    validated as config lines are (the command line's --seed and --threads)."""
    raw = {k: v for k, v in raw.items() if v is not None}
    kept = [line for line in emit_config(cfg).splitlines() if line.split(" = ")[0] not in raw]
    return parse_config_text("\n".join(kept + [f"{k} = {v}" for k, v in raw.items()]))


def emit_config(cfg: ExperimentConfig) -> str:
    """Resolved config as canonical flat text; parse(emit(cfg)) == cfg."""
    lines = [f"{name} = {v}" for name, key in KEYS.items() for v in key.written(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()[:12]

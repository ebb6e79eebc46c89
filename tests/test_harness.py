import ast
import dataclasses
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from chcsim import cli, config, dynamics, kinds, runner
from chcsim.config import (
    KEYS,
    ConfigError,
    build_observable,
    build_state,
    config_hash,
    emit_config,
    parse_config_text,
)
from chcsim.kinds import BAND, KINDS
from chcsim.potential import PotentialSpec

from conftest import band_cov

MINIMAL = """
kind = simulate
M = 32
dt = 1e-4
T = 1
c = 0
lambda = 1
potential = poly
n = 4
b = 1:1.0
b = 2:1.0
N = 2
seed = 7
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_accepted():
    cfg = parse_config_text(MINIMAL)
    assert cfg.kind == "simulate"
    assert cfg.sim.M == 32 and cfg.sim.seed == 7
    assert cfg.sim.grid_size == 4 * 33
    assert cfg.sim.cov.band == 2
    assert cfg.sim.cov.b[1] == 1.0 and cfg.sim.cov.b[2] == 1.0


def test_mean_conservation_rejected():
    bad = MINIMAL.replace("b = 1:1.0", "b = 0:0.5")
    with pytest.raises(ConfigError, match="mean-conservation violated"):
        parse_config_text(bad)


def test_zero_inside_band_rejected():
    bad = MINIMAL.replace("b = 2:1.0", "b = 3:1.0")
    with pytest.raises(ConfigError, match="b_k > 0 for k = 1..2"):
        parse_config_text(bad)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config_text(MINIMAL + "wibble = 3\n")


def test_missing_required_rejected():
    # n has no default while potential = poly, the default potential
    for key in ("kind", "M", "dt", "T", "c", "seed", "n"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(_drop(MINIMAL, key))
        assert str(err.value) == f"{key}: required key missing"


def test_repeated_scalar_key_rejected():
    with pytest.raises(ConfigError, match="seed: repeated key"):
        parse_config_text(MINIMAL + "seed = 8\n")


def test_negative_truncation_order_is_config_error():
    with pytest.raises(ConfigError, match="truncation order must be >= 0"):
        parse_config_text(MINIMAL.replace("n = 4", "n = -1"))


@pytest.mark.parametrize("pot, lam", [("exact", "1"), ("off", "0")])
def test_truncation_order_without_poly_rejected(tmp_path, capsys, pot, lam):
    text = MINIMAL.replace("potential = poly", f"potential = {pot}").replace(
        "lambda = 1", f"lambda = {lam}"
    )
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == f"n: a truncation order needs potential = poly, not {pot}"
    _cli_exits_2_without_run_directory(tmp_path, capsys, "simulate", text, "n")


def test_threads_default_ignores_environment(monkeypatch):
    # the config hash names the run directory, so it depends on the text alone
    hash_before = config_hash(parse_config_text(MINIMAL))
    monkeypatch.setenv("CHC_SIM_THREADS", "2")
    assert parse_config_text(MINIMAL).sim.threads == 1
    assert config_hash(parse_config_text(MINIMAL)) == hash_before


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + f"threads = {threads}\n")
    assert str(err.value) == f"threads: must be >= 1, got {threads}"


def test_kind_specific_validation():
    with pytest.raises(ConfigError, match="y0"):
        parse_config_text(MINIMAL.replace("kind = simulate", "kind = couple"))
    with pytest.raises(ConfigError, match="potential"):
        parse_config_text(MINIMAL.replace("kind = simulate", "kind = lintest") + "replicas = 10\n")
    with pytest.raises(ConfigError, match="x0"):
        parse_config_text(MINIMAL.replace("kind = simulate", "kind = ergodic"))


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def example_text(kind):
    with open(os.path.join(CONFIGS, f"{kind}.cfg"), encoding="utf-8") as fh:
        return fh.read()


def _drop(text, *keys):
    return "".join(
        line for line in text.splitlines(keepends=True) if line.split("=")[0].strip() not in keys
    )


def _keep_first(text, key):
    lines = text.splitlines(keepends=True)
    later = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key][1:]
    return "".join(line for i, line in enumerate(lines) if i not in later)


def _set(text, key, value):
    return _drop(text, key) + f"{key} = {value}\n"


# one edit per requirement that breaks that requirement alone
BREAK = {
    kinds.Y0: lambda text: _drop(text, "y0"),
    kinds.BAND: lambda text: _set(_set(text, "lambda", "60"), "N", "0"),
    kinds.REPLICAS: lambda text: _set(text, "replicas", "1"),
    kinds.HORIZON_TIMES: lambda text: _drop(text, "t"),
    kinds.STARTS: lambda text: _keep_first(text, "x0"),
    kinds.ORDERS: lambda text: _keep_first(text, "sweep_n"),
    kinds.POLY: lambda text: _set(text, "potential", "exact"),
    kinds.OFF: lambda text: _set(text, "potential", "exact"),
    kinds.RADIUS: lambda text: _set(text, "radius", "-0.1"),
    kinds.SAMPLES: lambda text: _set(text, "T", "0.5"),
    kinds.ONE_START: lambda text: _set(text, "x0", "const") + "x0 = gaussian:0.5\n",
    kinds.ONE_OBSERVABLE: lambda text: _set(text, "observable", "tanh:1") + "observable = mean\n",
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_example_config_per_kind_round_trips(kind):
    # every kind has an example, so scripts/artifact_digests.py covers it
    cfg = parse_config_text(example_text(kind))
    assert cfg.kind == kind
    assert parse_config_text(emit_config(cfg)) == cfg


@pytest.mark.parametrize(
    "kind, need",
    [
        pytest.param(kind, need, id=f"{kind}-{need.field}")
        for kind in sorted(KINDS)
        for need in KINDS[kind].needs
    ],
)
def test_kind_requirement_rejected_with_field(kind, need):
    text = example_text(kind)
    parse_config_text(text)
    with pytest.raises(ConfigError) as err:
        parse_config_text(BREAK[need](text))
    assert str(err.value) == f"{need.field}: kind {kind} {need.message}"


@pytest.mark.parametrize("kind, t", [("asf", "0"), ("asf", "0.2"), ("irreducibility", "5e-4"),
                                     ("nsweep", "0")])
def test_evaluation_time_outside_range_rejected(kind, t):
    # asf takes its t lines in dt..T; irreducibility and nsweep evaluate at T
    # and read none
    message = kinds.HORIZON_TIMES.message if "t" in KINDS[kind].reads else config.UNREAD
    with pytest.raises(ConfigError) as err:
        parse_config_text(_set(example_text(kind), "t", t))
    assert str(err.value) == f"t: kind {kind} {message}"


@pytest.mark.parametrize("kind", ["irreducibility", "nsweep"])
def test_second_evaluation_time_rejected(kind):
    # both kinds evaluate at T, so a t line would go unread
    with pytest.raises(ConfigError) as err:
        parse_config_text(example_text(kind) + "t = 0.25\n")
    assert str(err.value).startswith(f"t: kind {kind} ")


# a value away from its default for each key a kind may leave unread
UNREAD_VALUES = {
    "replicas": "9", "t": "0.05", "observable": "mean", "y0": "const", "burn_in": "2",
    "radius": "0.7", "sweep_n": "3", "save_states": "true",
}


@pytest.mark.parametrize(
    "kind, key",
    [
        pytest.param(kind, key, id=f"{kind}-{key}")
        for kind in sorted(KINDS)
        for key in config.KIND_KEYS
        if key not in KINDS[kind].reads
    ],
)
def test_unread_key_rejected(kind, key):
    # such a key would change the config hash and nothing the run does
    text = example_text(kind)
    with pytest.raises(ConfigError) as err:
        parse_config_text(_set(text, key, UNREAD_VALUES[key]))
    assert str(err.value) == f"{key}: kind {kind} {config.UNREAD}"
    # written at its default it changes nothing, so it parses (emit_config writes it)
    default = config.KEYS[key].written(parse_config_text(MINIMAL))
    if default:
        assert parse_config_text(_set(text, key, default[0])) == parse_config_text(text)


def test_every_kind_key_is_read_by_some_kind():
    assert set(config.KIND_KEYS) == {key for spec in KINDS.values() for key in spec.reads}
    for spec in KINDS.values():
        assert set(spec.reads) <= set(config.KIND_KEYS)


def _cli_exits_2_without_run_directory(tmp_path, capsys, kind, text, field):
    path = write_cfg(tmp_path, text)
    runs = tmp_path / "runs"
    assert cli.main([kind, "--config", path, "--out", str(runs)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not runs.exists()


@pytest.mark.parametrize("kind", sorted(k for k in KINDS if BAND in KINDS[k].needs))
def test_cli_band_too_small_exits_2_without_run_directory(tmp_path, capsys, kind):
    # alpha_1 = pi^2 < lambda = 60: the coupling cannot contract
    _cli_exits_2_without_run_directory(
        tmp_path, capsys, kind, BREAK[BAND](example_text(kind)), "N"
    )


@pytest.mark.parametrize("M, noise", [("-3", False), ("-3", True), ("0", True)])
def test_cli_nonpositive_M_exits_2_without_run_directory(tmp_path, capsys, M, noise):
    # M is read before the b lines, which check their modes against it
    text = _set(MINIMAL if noise else _drop(MINIMAL, "b", "N"), "M", M)
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == "M: must be >= 1"
    _cli_exits_2_without_run_directory(tmp_path, capsys, "simulate", text, "M")


@pytest.mark.parametrize("kind, key, value", [("simulate", "radius", "0.7"),
                                             ("irreducibility", "t", "0.5")])
def test_cli_unread_key_exits_2_without_run_directory(tmp_path, capsys, kind, key, value):
    text = _set(example_text(kind), key, value)
    _cli_exits_2_without_run_directory(tmp_path, capsys, kind, text, key)


@pytest.mark.parametrize(
    "kind, need",
    [
        pytest.param(kind, need, id=f"{kind}-{need.field}")
        for kind in sorted(KINDS)
        for need in (kinds.ONE_START, kinds.ONE_OBSERVABLE)
        if need in KINDS[kind].needs
    ],
)
def test_cli_second_start_or_observable_exits_2_without_run_directory(
    tmp_path, capsys, kind, need
):
    # the kind runs only the first, so a second would change the hash alone
    text = BREAK[need](example_text(kind))
    _cli_exits_2_without_run_directory(tmp_path, capsys, kind, text, need.field)


@pytest.mark.parametrize(
    "option, value, field",
    [("--seed", "-1", "seed"), ("--seed", str(2**64 + 5), "seed"), ("--threads", "0", "threads")],
)
def test_cli_bad_override_exits_2_without_run_directory(tmp_path, capsys, option, value, field):
    # overrides are read as config lines are: parse(emit(c)) == c must hold for the manifest
    runs = tmp_path / "runs"
    path = write_cfg(tmp_path, example_text("pair"))
    assert cli.main(["pair", "--config", path, "--out", str(runs), option, value]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not runs.exists()


def test_cli_overrides_enter_the_config_text(tmp_path, capsys):
    path = write_cfg(tmp_path, example_text("pair"))
    argv = ["pair", "--config", path, "--out", str(tmp_path), "--seed", "5", "--threads", "2"]
    assert cli.main(argv) == 0
    with open(capsys.readouterr().out.strip().splitlines()[-1]) as fh:
        manifest = json.load(fh)
    cfg = parse_config_text(manifest["config"])
    assert (cfg.sim.seed, cfg.sim.threads) == (5, 2) and manifest["seed"] == 5


def _sim(**change):
    return dataclasses.replace(parse_config_text(MINIMAL).sim, **change)


# (config text, the spec built from the same values, the message both raise):
# each value rule is the spec's, and the parser passes its message on
VALUE_RULES = [
    pytest.param(MINIMAL.replace("b = 1:1.0", "b = 0:0.5"),
                 lambda: band_cov(32, [(0, 0.5), (2, 1.0)], 2),
                 "b[0]: mean-conservation violated: noise on mode 0 would break mean "
                 "conservation, got 0.5", id="b0"),
    pytest.param(MINIMAL + "b = 5:-0.25\n",
                 lambda: band_cov(32, [(1, 1.0), (2, 1.0), (5, -0.25)], 2),
                 "b[5]: noise coefficients must be finite and nonnegative, got -0.25",
                 id="b-negative"),
    pytest.param(_set(MINIMAL, "N", "33"), lambda: band_cov(32, [(1, 1.0), (2, 1.0)], 33),
                 "N: band must lie in 0..32, got 33", id="N-above-M"),
    pytest.param(_set(MINIMAL, "N", "-1"), lambda: band_cov(32, [(1, 1.0), (2, 1.0)], -1),
                 "N: band must lie in 0..32, got -1", id="N-negative"),
    pytest.param(MINIMAL.replace("b = 2:1.0", "b = 3:1.0"),
                 lambda: band_cov(32, [(1, 1.0), (3, 1.0)], 2),
                 "b[2]: the elliptic band assumption needs b_k > 0 for k = 1..2",
                 id="b-zero-in-band"),
    pytest.param(_drop(MINIMAL, "n").replace("potential = poly", "potential = off"),
                 lambda: PotentialSpec(lam=1.0, active=False),
                 "lambda: an inactive potential (potential = off) has lambda = 0, got 1.0",
                 id="lambda-off"),
    pytest.param(_set(MINIMAL, "seed", "-1"), lambda: _sim(seed=-1),
                 "seed: must fit in 64 bits, got -1", id="seed-negative"),
    pytest.param(_set(MINIMAL, "seed", str(2**64)), lambda: _sim(seed=2**64),
                 f"seed: must fit in 64 bits, got {2**64}", id="seed-2^64"),
]


@pytest.mark.parametrize("text, build, message", VALUE_RULES)
def test_value_rule_has_one_message(tmp_path, capsys, text, build, message):
    with pytest.raises(ConfigError) as from_text:
        parse_config_text(text)
    with pytest.raises(ValueError) as from_spec:
        build()
    assert str(from_text.value) == str(from_spec.value) == message
    _cli_exits_2_without_run_directory(tmp_path, capsys, "simulate", text, message.split(":")[0])


# (kind, key, value, field): each parsed cleanly and then failed inside the run,
# or, for the repeated and the out-of-order t, ran with the extra line ignored,
# or, from dt on, was rejected without its field (max_halvings = -2 ran as 0)
BAD_FIELDS = [
    ("couple", "x0", "modes:40=0.2", "x0[0]"),
    ("ergodic", "observable", "mode:40:2", "observable[0]"),
    ("asf", "observable", "tanh:0", "observable[0]"),
    ("irreducibility", "radius", "-0.1", "radius"),
    ("asf", "t", "0.2", "t"),
    ("asf", "t", "0.05\nt = 0.05", "t"),
    ("asf", "t", "0.1\nt = 0.05", "t"),
    ("nsweep", "t", "0", "t"),
    ("nsweep", "sweep_n", "4\nsweep_n = 2", "sweep_n"),
    ("nsweep", "sweep_n", "-1\nsweep_n = 4", "sweep_n[0]"),
    ("ergodic", "T", "0.5", "T"),
    ("simulate", "dt", "-1", "dt"),
    ("simulate", "T", "0", "T"),
    ("simulate", "c", "1.5", "c"),
    ("simulate", "Q", "5", "Q"),
    ("simulate", "save_every", "0", "save_every"),
    ("simulate", "sup_guard", "0", "sup_guard"),
    ("simulate", "n", "-1", "n"),
    ("simulate", "max_halvings", "-2", "max_halvings"),
]


@pytest.mark.parametrize("kind, key, value, field", BAD_FIELDS)
def test_cli_bad_field_exits_2_without_run_directory(tmp_path, capsys, kind, key, value, field):
    text = _set(example_text(kind), key, value)
    _cli_exits_2_without_run_directory(tmp_path, capsys, kind, text, field)


def test_config_round_trip():
    text = MINIMAL + "replicas = 4\ny0 = gaussian:0.5\nt = 0.1\nt = 0.2\nobservable = mode:1:2\n"
    cfg = parse_config_text(text.replace("kind = simulate", "kind = asf"))
    again = parse_config_text(emit_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


# every key of the table, in emitted order, each away from its default; each
# kind keeps the keys of config.KIND_KEYS it reads
EVERY_KEY = """kind = pair
M = 16
Q = 40
dt = 0.002
T = 0.5
c = 0.25
potential = poly
lambda = 2.5
n = 3
b = 1:0.5
b = 3:0.25
N = 1
seed = 12345678901234567890
sup_guard = 1.75
save_every = 5
max_halvings = 4
replicas = 6
t = 0.1
t = 0.4
observable = mode:2:3
observable = tanh:1
x0 = gaussian:0.3
x0 = modes:1=0.1,2=-0.05
y0 = modes:3=0.2
burn_in = 0.1
radius = 0.05
sweep_n = 1
sweep_n = 5
out = elsewhere
threads = 3
save_states = true
"""


@pytest.mark.parametrize("potential", ["poly", "exact", "off"])
def test_every_key_round_trips(potential):
    text = EVERY_KEY.replace("potential = poly", f"potential = {potential}")
    if potential != "poly":
        text = _drop(text, "n")
    if potential == "off":
        text = text.replace("lambda = 2.5", "lambda = 0")
    # the kinds whose potential need this potential meets
    ran = [kind for kind, spec in KINDS.items()
           if (kinds.POLY not in spec.needs or potential == "poly")
           and (kinds.OFF not in spec.needs or potential == "off")]
    parsed, written = [], set()
    for kind in ran:
        unread = set(config.KIND_KEYS) - set(KINDS[kind].reads)
        kind_text = _drop(text.replace("kind = pair", f"kind = {kind}"), *unread)
        for need in (kinds.ONE_START, kinds.ONE_OBSERVABLE):  # a kind that runs the first only
            if need in KINDS[kind].needs:
                kind_text = _keep_first(kind_text, need.field)
        cfg = parse_config_text(kind_text)
        # a reader and its emitter that disagree change the text or the config;
        # emit_config also writes the unread keys, at their defaults
        assert _drop(emit_config(cfg), *unread) == kind_text
        assert parse_config_text(emit_config(cfg)) == cfg
        parsed.append(cfg)
        written |= {line.split(" = ")[0] for line in kind_text.splitlines()}
    assert {line.split(" = ")[0] for line in EVERY_KEY.splitlines()} == set(KEYS)
    # without poly there is no n, and nsweep, the one kind to read sweep_n, needs poly
    uncarried = set() if potential == "poly" else {"n", "sweep_n"}
    assert written == set(KEYS) - uncarried
    for objs in (parsed, [cfg.sim for cfg in parsed]):
        for f in dataclasses.fields(objs[0]):
            if f.default is not dataclasses.MISSING and f.name not in uncarried:
                assert any(getattr(obj, f.name) != f.default for obj in objs), f.name


def test_build_state_variants():
    cfg = parse_config_text(MINIMAL).sim
    const = build_state("const", cfg, 0)
    assert const.mean == 0.0 and np.all(const.coeffs[1:] == 0.0)
    gauss = build_state("gaussian:0.5", cfg, 0)
    assert gauss.mean == 0.0 and np.any(gauss.coeffs[1:] != 0.0)
    assert np.array_equal(gauss.coeffs, build_state("gaussian:0.5", cfg, 0).coeffs)
    modes = build_state("modes:1=0.2,3=-0.1", cfg, 0)
    assert modes.coeffs[1] == 0.2 and modes.coeffs[3] == -0.1
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "x0 = modes:0=0.5\n")


def test_build_observable_variants():
    assert build_observable("seminorm:-1", 32).name == "seminorm[-1]"
    assert build_observable("mode:2:4", 32).name == "mode[2]^4"
    assert build_observable("tanh:1", 32).sup_bound == 1.0
    with pytest.raises(ConfigError):
        build_observable("volume", 32)


# (key, spec, field, message): one case per way a spec can break the grammar
GRAMMAR_ERRORS = [
    ("observable", "volume", "observable[0]", "unknown observable"),
    ("observable", "mean:3", "observable[0]", "takes 0"),
    ("observable", "seminorm:1:2", "observable[0]", "takes 1"),
    ("observable", "mode:1", "observable[0]", "takes 2"),
    ("observable", "mode:33:2", "observable[0]", "mode index 33 outside 0..32"),
    ("observable", "mode:-1:2", "observable[0]", "mode index -1 outside 0..32"),
    ("observable", "tanh:33", "observable[0]", "mode index 33 outside 1..32"),
    ("observable", "tanh:0", "observable[0]", "mode index 0 outside 1..32"),
    ("observable", "seminorm:x", "observable[0]", "expected a number"),
    ("x0", "modes:33=0.1", "x0[0]", "mode index 33 outside 1..32"),
    ("x0", "modes:0=0.5", "x0[0]", "mode index 0 outside 1..32"),
    ("y0", "modes:1=0.1,40=0.2", "y0", "mode index 40 outside 1..32"),
    ("x0", "modes:1=inf", "x0[0]", "finite"),
    ("x0", "gaussian:nan", "x0[0]", "finite"),
    ("x0", "const:1", "x0[0]", "unknown initial-state spec"),
    ("x0", "flat", "x0[0]", "unknown initial-state spec"),
]


@pytest.mark.parametrize("key, spec, field, message", GRAMMAR_ERRORS)
def test_spec_grammar_error_names_field(key, spec, field, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + f"{key} = {spec}\n")
    assert str(err.value).startswith(f"{field}: ")
    assert message in str(err.value)


def run_kind(tmp_path, text, kind=None, extra=""):
    if kind is None:
        kind = text.split("kind = ")[1].split()[0]
    cfg_path = write_cfg(tmp_path, text + extra, name=f"{kind}.cfg")
    return cli.main([kind, "--config", cfg_path, "--out", str(tmp_path / "runs")])


def test_cli_simulate_and_plot(tmp_path, capsys):
    text = MINIMAL.replace("T = 1", "T = 0.05") + "save_every = 10\nsave_states = true\n"
    code = run_kind(tmp_path, text, "simulate")
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS mass_conservation" in out
    manifest_path = out.strip().splitlines()[-1]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["passed"] is True
    assert "snapshots.json" in manifest["outputs"]
    snap = json.load(open(os.path.join(os.path.dirname(manifest_path), "snapshots.json")))
    assert snap["M"] == 32
    assert len(snap["coeffs"][0]) == 33

    assert cli.main(["plot", "--manifest", manifest_path, "--series", "norm_1"]) == 0
    plotted = capsys.readouterr().out.strip()
    header = open(plotted).readline().strip().split(",")
    assert header[0] == "t" and "norm_1" in header
    assert cli.main(["plot", "--manifest", manifest_path, "--series", "nope"]) == 2


def test_cli_kind_mismatch(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    assert cli.main(["pair", "--config", path]) == 2


def test_cli_config_error_exit(tmp_path):
    path = write_cfg(tmp_path, MINIMAL.replace("b = 1:1.0", "b = 0:1.0"))
    assert cli.main(["simulate", "--config", path]) == 2


def test_cli_mass_drift_fails_check(tmp_path, capsys, monkeypatch):
    # a step that moves mode 0 must surface as a failed check, exit 4
    advance = dynamics.Engine.advance

    def drifting(self, states, eta, dt, nl):
        out = advance(self, states, eta, dt, nl)
        out[..., 0] += 1e-9
        return out

    monkeypatch.setattr(dynamics.Engine, "advance", drifting)
    text = MINIMAL.replace("T = 1", "T = 0.01") + "save_every = 10\n"
    assert run_kind(tmp_path, text) == 4
    assert "FAIL mass_conservation" in capsys.readouterr().out


def test_cli_stiff_exit(tmp_path):
    text = (
        MINIMAL.replace("T = 1", "T = 0.1")
        .replace("lambda = 1", "lambda = 60")
        .replace("n = 4", "n = 0")
        + "sup_guard = 1.0\nx0 = modes:1=0.5\n"
    )
    assert run_kind(tmp_path, text, "simulate") == 3


def test_cli_pair_and_couple(tmp_path, capsys):
    base = MINIMAL.replace("T = 1", "T = 0.05") + "save_every = 10\ny0 = gaussian:0.4\n"
    assert run_kind(tmp_path, base.replace("kind = simulate", "kind = pair")) == 0
    capsys.readouterr()
    assert (
        run_kind(
            tmp_path,
            base.replace("kind = simulate", "kind = couple"),
            "couple",
            extra="x0 = modes:1=0.2\n",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "PASS contraction_pathwise" in out
    assert "PASS fitted_rate" in out


def test_cli_girsanov(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = girsanov").replace("T = 1", "T = 0.05")
        + "y0 = modes:1=0.02\nreplicas = 400\nsave_every = 10\n"
    )
    assert run_kind(tmp_path, text) == 0
    out = capsys.readouterr().out
    assert "PASS martingale_unit_mean" in out
    assert "PASS gap_below_bound" in out


def test_cli_asf(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = asf").replace("T = 1", "T = 0.1")
        + "y0 = modes:1=0.05\nreplicas = 64\nt = 0.05\nt = 0.1\nobservable = tanh:1\nsave_every = 10\n"
    )
    assert run_kind(tmp_path, text) == 0
    assert "PASS smoothing_bound" in capsys.readouterr().out


def test_cli_ergodic(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = ergodic")
        .replace("T = 1", "T = 4")
        .replace("dt = 1e-4", "dt = 1e-3")
        + "x0 = const\nx0 = gaussian:0.9\nsave_every = 5\n"
    )
    code = run_kind(tmp_path, text)
    out = capsys.readouterr().out
    assert "start_independence" in out
    assert code == 0
    run_dir = os.path.dirname(out.strip().splitlines()[-1])
    report = json.load(open(os.path.join(run_dir, "ergodic.json")))
    assert report["elliptic_ok"] is True
    assert os.path.exists(os.path.join(run_dir, "ergodic.txt"))
    # one stream per start, although replicas keeps its default of 1
    streams = json.load(open(os.path.join(run_dir, "manifest.json")))["replica_streams"]
    assert (streams["first"], streams["count"]) == (0, 2)


def test_cli_irreducibility(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = irreducibility")
        .replace("T = 1", "T = 0.5")
        .replace("dt = 1e-4", "dt = 1e-3")
        + "x0 = const\nx0 = gaussian:0.7\nradius = 0.3\nreplicas = 100\nsave_every = 10\n"
    )
    assert run_kind(tmp_path, text) == 0
    assert "PASS reachable_from_all_starts" in capsys.readouterr().out


def test_cli_nsweep(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = nsweep")
        .replace("T = 1", "T = 0.5")
        .replace("dt = 1e-4", "dt = 1e-3")
        + "sweep_n = 2\nsweep_n = 4\nsweep_n = 8\nreplicas = 300\n"
        + "observable = seminorm:-1\nsave_every = 100\n"
    )
    assert run_kind(tmp_path, text) == 0
    out = capsys.readouterr().out
    assert "PASS cauchy_decreasing" in out


def test_cli_lintest(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = lintest")
        .replace("T = 1", "T = 0.25")
        .replace("potential = poly", "potential = off")
        .replace("lambda = 1", "lambda = 0")
        .replace("n = 4", "")
        .replace("M = 32", "M = 8")
        + "replicas = 4000\nx0 = modes:1=0.3,2=-0.2\nsave_every = 250\n"
    )
    assert run_kind(tmp_path, text) == 0
    out = capsys.readouterr().out
    assert "PASS per_mode_means" in out
    assert "PASS per_mode_variances" in out
    assert "PASS ks_mode_distribution" in out
    assert "PASS gronwall_envelope" in out
    streams = json.load(open(out.strip().splitlines()[-1]))["replica_streams"]
    assert (streams["first"], streams["count"]) == (0, 4000)


@pytest.mark.parametrize("R", [1000, 5000])
def test_ks_normal_equals_kstest(R):
    rng = np.random.default_rng(R)
    sample = 0.3 + 0.7 * rng.standard_normal(R)
    sample[: R // 10] = sample[R // 10 : R // 5]  # ties
    want = scipy.stats.kstest(sample, scipy.stats.norm(0.25, 0.7).cdf).statistic
    assert kinds.ks_normal(sample, 0.25, 0.7) == want


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a cold start; the package must not import it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, chcsim.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


COLD_START_PROBE = """
import glob, os, sys
import numpy as np
from chcsim import cli, config, dynamics, ergodics, observables

configs, out = sys.argv[1:]
for path in sorted(glob.glob(os.path.join(configs, "*.cfg"))):
    config.parse_config(path)
pair = os.path.join(configs, "pair.cfg")
assert cli.main(["pair", "--config", pair, "--out", out]) == 0
sim = config.parse_config(pair).sim
states = np.random.default_rng(5).standard_normal((64, sim.M + 1))
traj = dynamics.Trajectory(np.linspace(0.0, 1.0, 64), states, sim)
assert ergodics.time_average(traj, observables.mode_moment(1, 2), burn_in=0.0).ci > 0.0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # only the lintest KS distance and the irreducibility bound may load scipy
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, CONFIGS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_run_directory_takes_the_next_free_suffix(tmp_path):
    cfg = parse_config_text(MINIMAL)
    stem = f"simulate-{config_hash(cfg)}"
    for name in (stem, f"{stem}-r2"):
        os.makedirs(tmp_path / name)
    assert runner._run_directory(cfg, str(tmp_path)) == str(tmp_path / f"{stem}-r3")


def test_run_directory_claimed_by_another_run_meanwhile(tmp_path, monkeypatch):
    cfg = parse_config_text(MINIMAL.replace("T = 1", "T = 0.02"))
    stem = f"simulate-{config_hash(cfg)}"
    real_makedirs = os.makedirs

    def racing_makedirs(path, *args, **kwargs):
        if os.path.basename(path) == stem and not os.path.isdir(path):
            real_makedirs(path)  # another run creates the chosen name first
        return real_makedirs(path, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", racing_makedirs)
    manifest = runner.run(cfg, override_out=str(tmp_path))
    assert manifest.directory == str(tmp_path / f"{stem}-r2")
    assert os.listdir(tmp_path / stem) == []


def _example_manifest(tmp_path, capsys, kind):
    assert run_kind(tmp_path, example_text(kind), kind) == 0
    return capsys.readouterr().out.strip().splitlines()[-1]


def test_plot_takes_the_first_csv_with_t_and_the_series(tmp_path, capsys):
    manifest_path = _example_manifest(tmp_path, capsys, "pair")
    run_dir = os.path.dirname(manifest_path)
    x, y = (np.loadtxt(os.path.join(run_dir, f"trajectory_{s}.csv"), delimiter=",",
                       skiprows=1) for s in "xy")
    columns = [n for n, _ in kinds.TRAJECTORY_COLUMNS]
    for series in ("mean", "energy"):  # distance.csv, listed first, has neither
        assert cli.main(["plot", "--manifest", manifest_path, "--series", series]) == 0
        plotted = np.loadtxt(capsys.readouterr().out.strip(), delimiter=",", skiprows=1)
        j = 1 + columns.index(series)
        assert np.array_equal(plotted[:, 1], x[:, j])
    assert not np.array_equal(x[:, j], y[:, j])
    for series in ("nope", "t"):
        assert cli.main(["plot", "--manifest", manifest_path, "--series", series]) == 2


def test_plot_skips_a_csv_without_t(tmp_path, capsys):
    # nsweep.csv has a mean column but no t column
    manifest_path = _example_manifest(tmp_path, capsys, "nsweep")
    assert cli.main(["plot", "--manifest", manifest_path, "--series", "mean"]) == 2


@pytest.mark.parametrize(
    "kind, count",
    [("simulate", 1), ("pair", 1), ("couple", 1), ("girsanov", 2000), ("asf", 200),
     ("ergodic", 2), ("irreducibility", 200), ("nsweep", 300), ("lintest", 5000)],
)
def test_example_manifest_stream_count(tmp_path, monkeypatch, kind, count):
    # the count depends on the config alone, so a run that writes nothing shows it
    stub = dataclasses.replace(KINDS[kind], run=lambda *args: ({}, {}))
    monkeypatch.setitem(KINDS, kind, stub)
    manifest = runner.run(parse_config_text(example_text(kind)), override_out=str(tmp_path))
    streams = json.load(open(manifest.path))["replica_streams"]
    assert (streams["first"], streams["count"]) == (0, count)


def test_plot_log_column_reproduces_decay_rate(tmp_path, capsys):
    text = (
        MINIMAL.replace("kind = simulate", "kind = couple").replace("T = 1", "T = 0.08")
        + "y0 = gaussian:0.4\nx0 = modes:1=0.2\nsave_every = 20\n"
    )
    assert run_kind(tmp_path, text) == 0
    manifest_path = capsys.readouterr().out.strip().splitlines()[-1]
    assert cli.main(["plot", "--manifest", manifest_path, "--series", "dist_m1"]) == 0
    plotted = capsys.readouterr().out.strip()
    data = np.loadtxt(plotted, delimiter=",", skiprows=1)
    header = open(plotted).readline().strip().split(",")
    t = data[:, header.index("t")]
    log10_dist = data[:, header.index("log10_dist_m1")]
    slope = np.polyfit(t, log10_dist, 1)[0] * np.log(10.0)
    from chcsim.coupling import contraction_rate

    assert -slope >= 0.9 * contraction_rate(2, 1.0)


def test_run_outputs_bit_exact(tmp_path):
    text = MINIMAL.replace("T = 1", "T = 0.02")
    cfg = parse_config_text(text)
    m1 = runner.run(cfg, override_out=str(tmp_path / "a"))
    m2 = runner.run(cfg, override_out=str(tmp_path / "b"))
    f1 = open(os.path.join(m1.directory, "trajectory.csv"), "rb").read()
    f2 = open(os.path.join(m2.directory, "trajectory.csv"), "rb").read()
    assert f1 == f2
    # same base dir never overwrites
    m3 = runner.run(cfg, override_out=str(tmp_path / "a"))
    assert m3.directory != m1.directory


def test_manifest_contents(tmp_path):
    cfg = parse_config_text(MINIMAL.replace("T = 1", "T = 0.02"))
    manifest = runner.run(cfg, override_out=str(tmp_path))
    data = json.load(open(manifest.path))
    assert data["config_hash"] == config_hash(cfg)
    assert data["replica_streams"] == {
        "scheme": "philox, key = [seed, replica]", "seed": 7, "first": 0, "count": 1,
    }
    assert data["outputs"] == ["trajectory.csv"]
    assert "created_utc" in data
    parsed_back = parse_config_text(data["config"])
    assert parsed_back == cfg


def test_no_unused_imports():
    # no linter is installed: a module-level import that no name reads is dead
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    unused = []
    for pattern in ("src/chcsim/*.py", "scripts/*.py", "tests/*.py", "bench/*.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            if path.endswith(os.path.join("chcsim", "__init__.py")):
                continue  # the package's re-exports
            with open(path) as fh:
                tree = ast.parse(fh.read())
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))
                       and getattr(n, "module", None) != "__future__"]
            unused += [f"{os.path.relpath(path, root)}: {a.asname or a.name}"
                       for node in imports for a in node.names
                       if (a.asname or a.name).split(".")[0] not in read]
    assert unused == [], unused


def test_only_dynamics_constructs_an_engine():
    # run_paths (which tiles the starts and raises for a failed row) and
    # run_ensemble (which parks it) are the recorders: a driver elsewhere that
    # built its own Engine would grow a second save-grid hook
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "chcsim")
    builders = []
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        builders += [os.path.basename(path) for n in ast.walk(tree) if isinstance(n, ast.Call)
                     and getattr(n.func, "id", getattr(n.func, "attr", None)) == "Engine"]
    assert sorted(set(builders)) == ["dynamics.py"], builders


# definitions that only the tests read: the exact dealiasing size
TEST_ONLY = ("spectral.exact_dealias_size",)


def test_no_unused_definitions():
    # a module-level function, class or constant that no code reads by name,
    # attribute or import is dead; strings (tracing labels) do not count
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    trees = {}
    for pattern in ("src/chcsim/*.py", "scripts/*.py", "bench/*.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path) as fh:
                trees[path] = ast.parse(fh.read())
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    unused = []
    for path, tree in trees.items():
        module = os.path.relpath(path, os.path.join(root, "src", "chcsim"))
        if module.startswith(os.pardir) or module == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            unused += [f"{module[:-3]}.{name}" for name in names if name not in read]
    assert sorted(unused) == sorted(TEST_ONLY), sorted(unused)


# (reading file, module._name) reads allowed across modules: the budget's
# gradient products must use the transforms' fixed tiles, which keep a row's
# bits independent of the rows it shares a batch with
PRIVATE_READS = (("dynamics.py", "spectral._tiled_matmul"),)


def test_private_names_stay_in_their_module():
    # a _-prefixed chcsim name is read only in its own module, whether through
    # an imported module (dynamics._x) or imported itself (from .dynamics import _x)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    modules = {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(root, "src/chcsim/*.py"))}
    found = set()
    for path in sorted(glob.glob(os.path.join(root, "src/chcsim/*.py"))
                       + glob.glob(os.path.join(root, "scripts/*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        name, alias = os.path.basename(path), {}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.level or n.module.startswith("chcsim")):
                mod = (n.module or "chcsim").rpartition(".")[2]  # "chcsim": the package
                for a in n.names:
                    if mod == "chcsim" and a.name in modules:
                        alias[a.asname or a.name] = a.name
                    elif a.name.startswith("_") and mod in modules and mod != name[:-3]:
                        found.add((name, f"{mod}.{a.name}"))
        found |= {(name, f"{alias[n.value.id]}.{n.attr}") for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr.startswith("_")
                  and not n.attr.startswith("__") and getattr(n.value, "id", None) in alias
                  and alias[n.value.id] != name[:-3]}
    assert sorted(found) == sorted(PRIVATE_READS), sorted(found)


def test_coupling_decay_script_reports():
    # the script reads the ensemble's own rate, fitted rates and envelope
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "coupling_decay.py"),
         "--pairs", "3", "--T", "0.01"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0].strip() for line in lines] == [
        "operational rate", "fitted rates", "pathwise envelope",
    ]
    assert lines[-1] == "pathwise envelope : OK"

"""Every benchmark check passes on an exact output and fails on a wrong one.

    python3 -m pytest bench
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
from checks import Z

M32 = 32
B32 = np.zeros(M32 + 1)
B32[1:3] = 1.0


# -- coupled_batch ------------------------------------------------------------


def girsanov_case():
    x0 = np.zeros(M32 + 1)
    y0 = x0.copy()
    y0[1] = 0.01
    kap, dlt, d0 = checks.kappa(B32, 1.0, 2), checks.delta(2, 1.0), checks.norm_m1(x0 - y0)
    bound = checks.weight_gap_bound(d0, kap, dlt)
    report = {
        "kappa": kap, "delta": dlt, "dist0": d0, "bound": bound, "replicas": 500,
        "martingale_mean": 1.0 + 2.0e-4, "martingale_se": 2.0e-4,
        "estimate": 0.1 * bound, "se": 1.0e-4,
    }
    return report, (x0, y0, B32, 1.0, 2, 500)


def test_girsanov_closed_forms_match_chcsim_values():
    # values written by chcsim for configs/girsanov.cfg (y0 = 0.01 e_1)
    report, args = girsanov_case()
    assert report["kappa"] == pytest.approx(124.02510672119926, rel=1e-14)
    assert report["delta"] == pytest.approx(48.704545517001215, rel=1e-14)
    assert report["dist0"] == pytest.approx(0.0031830988618379067, rel=1e-14)
    assert report["bound"] == pytest.approx(0.04003201280341401, rel=1e-14)
    assert checks.check_girsanov(report, *args) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("martingale_mean", 1.0 + 5 * 2.0e-4),  # E[e^G] off by 5 SE
        ("martingale_mean", 1.0 - 5 * 2.0e-4),
        ("kappa", None),
        ("dist0", None),
        ("martingale_se", 1.0),  # an SE too wide to be true makes the test vacuous
        ("se", 0.0),
        ("replicas", 499),
    ],
)
def test_girsanov_wrong_output_fails(field, value):
    report, args = girsanov_case()
    report[field] = report[field] * (1 + 1e-10) if value is None else value
    assert checks.check_girsanov(report, *args)


def test_girsanov_gap_above_bound_fails():
    report, args = girsanov_case()
    report["estimate"] = report["bound"] + 5 * report["se"]
    assert checks.check_girsanov(report, *args)


# -- linear_ensemble ----------------------------------------------------------

M8, R, DT, STEPS, EVERY = 8, 5000, 5e-5, 2000, 100
B8 = np.zeros(M8 + 1)
B8[1:3] = 1.0
X8 = np.zeros(M8 + 1)
X8[1:3] = (0.4, -0.2)


def lintest_case():
    ou_mean, ou_var = checks.ou_law(X8, B8, STEPS * DT)
    d_mean, d_var = checks.discrete_law(X8, B8, DT, STEPS)
    report = {
        "law_var": ou_var.tolist(),
        "mode_mean_abs_err": np.abs(d_mean - ou_mean).tolist(),
        "mode_var": d_var.tolist(),
    }
    alpha = checks.eigenvalues(M8)[1:]
    steps = np.arange(0, STEPS + 1, EVERY)
    values = []
    for n in steps:
        m, v = checks.discrete_law(X8, B8, DT, int(n))
        values.append(float(np.sum((m[1:] ** 2 + v[1:]) / alpha)))
    curve = {"t": steps * DT, "mean_norm_m1_sq": np.array(values)}
    return report, curve, (X8, B8, DT, STEPS, EVERY, R)


def test_discrete_law_matches_the_recursion():
    rng = np.random.default_rng(5)
    x = np.tile(X8, (20000, 1))
    denom = 1.0 + 0.5 * DT * checks.eigenvalues(M8) ** 2
    for _ in range(200):
        x = (x + np.sqrt(B8 * DT) * rng.standard_normal(x.shape)) / denom
    mean, var = checks.discrete_law(X8, B8, DT, 200)
    assert np.allclose(x.mean(axis=0), mean, atol=4 * np.sqrt(var / 20000).max() + 1e-15)
    assert np.allclose(x.var(axis=0), var, rtol=0.05)


def test_lintest_exact_output_passes():
    report, curve, args = lintest_case()
    assert checks.check_lintest(report, curve, *args) == []


def test_lintest_variance_off_by_ten_percent_fails():
    report, curve, args = lintest_case()
    for k in (1, 2):
        wrong = dict(report, mode_var=list(report["mode_var"]))
        wrong["mode_var"][k] *= 1.10
        assert checks.check_lintest(wrong, curve, *args)


def test_lintest_mean_off_fails():
    report, curve, args = lintest_case()
    _, d_var = checks.discrete_law(X8, B8, DT, STEPS)
    report["mode_mean_abs_err"][1] += 5 * math.sqrt(d_var[1] / R)
    assert checks.check_lintest(report, curve, *args)


def test_lintest_noiseless_mode_must_be_exact():
    report, curve, args = lintest_case()
    report["mode_mean_abs_err"][5] = 1e-9
    assert checks.check_lintest(report, curve, *args)


def test_lintest_oracle_and_curve_faults_fail():
    report, curve, args = lintest_case()
    report["law_var"][2] *= 1 + 1e-9
    assert checks.check_lintest(report, curve, *args)
    report, curve, args = lintest_case()
    curve["mean_norm_m1_sq"][0] *= 1 + 1e-9  # t = 0 is exact
    assert checks.check_lintest(report, curve, *args)
    report, curve, args = lintest_case()
    curve["mean_norm_m1_sq"][-1] *= 1.10
    assert checks.check_lintest(report, curve, *args)


# -- ergodic_paths ------------------------------------------------------------

C = 0.1


def ergodic_case():
    bound = checks.trace_m1(B32) + checks.rate_polynomial(1.0, C)
    report = {
        "observables": ["mean", "seminorm_sq[1]", "seminorm_sq[-1]", "energy"],
        "averages": [[C, 0.8 * bound, 0.01, 0.05], [C, 0.82 * bound, 0.0102, 0.051]],
        "cis": [[0.0, 0.01, 0.001, 0.004], [0.0, 0.011, 0.001, 0.004]],
    }
    return report, (C, 1.0, B32)


def test_t_quantile():
    from scipy.special import stdtrit

    assert checks.T_975_15 == pytest.approx(stdtrit(15, 0.975), rel=1e-14)


def test_rate_polynomial_values():
    assert checks.rate_polynomial(1.0, 0.0) == 0.0
    assert checks.rate_polynomial(0.0, 0.0) == 1.5
    assert checks.rate_polynomial(1.0, 0.3) > 0.0
    assert checks.trace_m1(B32) == pytest.approx(1.25 / math.pi**2, rel=1e-15)


def test_ergodic_exact_output_passes():
    report, args = ergodic_case()
    assert checks.check_ergodic(report, *args) == []


def test_ergodic_mean_drift_fails():
    report, args = ergodic_case()
    report["averages"][1][0] = C + 1e-9
    assert checks.check_ergodic(report, *args)
    report, args = ergodic_case()
    report["cis"][0][0] = 1e-15
    assert checks.check_ergodic(report, *args)


def test_ergodic_budget_average_above_bound_fails():
    report, args = ergodic_case()
    bound = checks.trace_m1(B32) + checks.rate_polynomial(1.0, C)
    se = report["cis"][0][1] / checks.T_975_15
    report["averages"][0][1] = bound + (Z + 0.5) * se
    report["averages"][1][1] = report["averages"][0][1]  # starts still agree
    assert any("above" in msg for msg in checks.check_ergodic(report, *args))


def test_ergodic_start_disagreement_and_empty_interval_fail():
    report, args = ergodic_case()
    report["averages"][1][3] = 0.05 + 0.05
    assert checks.check_ergodic(report, *args)
    report, args = ergodic_case()
    report["cis"][1][2] = 0.0
    assert checks.check_ergodic(report, *args)


# -- traced counts ------------------------------------------------------------


def traced_op(**override):
    layers = dict.fromkeys(run.COUNTS, 0)
    layers.update({"noise.normals": 4 * 10 * 2, "noise.streams": 4, "dynamics.row_steps": 8 * 10})
    layers.update(override)
    return {"layers": layers}


WL = SimpleNamespace(kind="girsanov", replicas=4, rows=8, steps=10)


def test_count_checks():
    assert run.count_problems(WL, [traced_op(), traced_op()]) == []
    assert run.count_problems(WL, [traced_op(), traced_op(**{"spectral.analyze_rows": 1})])
    assert run.count_problems(WL, [traced_op(**{"dynamics.retries": 1})] * 2)
    assert run.count_problems(WL, [traced_op(**{"dynamics.failed_rows": 1})] * 2)
    assert run.count_problems(WL, [traced_op(**{"noise.normals": 79})] * 2)
    lin = SimpleNamespace(kind="lintest", replicas=4, rows=4, steps=10)
    ok = traced_op(**{"dynamics.row_steps": 40})
    assert run.count_problems(lin, [ok, ok]) == []
    grid = traced_op(**{"dynamics.row_steps": 40, "potential.nonlinearity_points": 1})
    assert run.count_problems(lin, [grid, grid])


# -- tracing ------------------------------------------------------------------


def test_self_time_excludes_traced_children():
    import time

    import tracing

    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), "inner", None)

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer._wrap(body, "outer", None)
    t0 = time.perf_counter()
    outer()
    total = time.perf_counter() - t0
    assert tracer.self_s["inner"] >= 0.02
    assert 0.01 <= tracer.self_s["outer"] < total - 0.02
    assert tracer.self_s["inner"] + tracer.self_s["outer"] <= total


def test_tracer_counts_a_simulation_and_restores_the_package():
    import sys
    from pathlib import Path

    import tracing

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from chcsim import dynamics, noise, spectral
    from chcsim.dynamics import SimConfig
    from chcsim.potential import PotentialSpec
    from chcsim.spectral import ModeVector

    originals = (spectral.synthesize_many, dynamics.Engine.advance, noise.stream)
    cfg = SimConfig(M=4, dt=1e-3, T=0.01, c=0.0, potential=PotentialSpec.truncated(2, 1.0),
                    cov=noise.CovarianceSpec(B32[:5], 2), seed=3, save_every=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dynamics.simulate(ModeVector.zeros(4), cfg)
    finally:
        tracer.uninstall()
    assert (spectral.synthesize_many, dynamics.Engine.advance, noise.stream) == originals
    counts = tracer.snapshot()
    assert counts["dynamics.row_steps"] == 10
    assert counts["noise.normals"] == 10 * 2 and counts["noise.streams"] == 1
    assert counts["spectral.analyze_rows"] == 10
    assert counts["potential.nonlinearity_points"] == 10 * cfg.grid_size
    assert counts["dynamics.retries"] == 0
    assert counts["dynamics.self_s"] > 0 and counts["spectral.synthesize_s"] > 0

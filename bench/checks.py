"""Reference values and output checks for the benchmark, computed apart from chcsim.

Nothing here imports the package under test: every closed form is written
out again from its definition, so a fault in the program cannot hide by
also sitting in the reference.  Each check returns a list of failure
messages; an empty list means the output passed.

Statistical checks use one threshold, Z standard errors.  A benchmark
campaign makes about a hundred seeded runs with up to 25 such comparisons
each; at Z = 4.5 a correct program trips one of them with probability below
2 % over the whole campaign (Bonferroni), where 3 SE would trip one in about
every other campaign.  The README gives the numbers.
"""

from __future__ import annotations

import math

import numpy as np

Z = 4.5
# 0.975 quantile of Student's t with 15 degrees of freedom: chcsim's 95 %
# batch-means half-widths (16 batches) are this many standard errors
T_975_15 = 2.131449545559323
REL_EXACT = 1e-12


def eigenvalues(M: int) -> np.ndarray:
    """alpha_k = (k pi)^2, k = 0..M."""
    return (np.arange(M + 1) * math.pi) ** 2


def ou_law(x0: np.ndarray, b: np.ndarray, t: float):
    """Exact Ornstein-Uhlenbeck law per mode of the linear equation at time t."""
    alpha_sq = eigenvalues(x0.size - 1) ** 2
    mean = x0 * np.exp(-0.5 * alpha_sq * t)
    var = np.zeros_like(x0)
    var[1:] = b[1:] * -np.expm1(-alpha_sq[1:] * t) / alpha_sq[1:]
    return mean, var


def discrete_law(x0: np.ndarray, b: np.ndarray, dt: float, steps: int):
    """Exact law of the semi-implicit recursion x+ = (x + dW) / (1 + dt alpha^2 / 2).

    With r = 1 / (1 + dt alpha^2 / 2) the mean is r^n x0 and the variance
    b dt r^2 (1 - r^(2n)) / (1 - r^2).
    """
    alpha_sq = eigenvalues(x0.size - 1) ** 2
    r = 1.0 / (1.0 + 0.5 * dt * alpha_sq)
    mean = x0 * r**steps
    var = np.zeros_like(x0)
    r2 = r[1:] ** 2
    var[1:] = b[1:] * dt * r2 * -np.expm1(steps * np.log(r2)) / (1.0 - r2)
    return mean, var


def trace_m1(b: np.ndarray) -> float:
    """Tr_{-1} = sum_{k>=1} b_k / alpha_k."""
    return float(np.sum(b[1:] / eigenvalues(b.size - 1)[1:]))


def rate_polynomial(lam: float, c: float) -> float:
    """P_c(lam) = (3/2)(1 - lam)^2 - c^2 lam + (1+c)ln(1+c) + (1-c)ln(1-c)."""
    return 1.5 * (1.0 - lam) ** 2 - c * c * lam + (1 + c) * math.log1p(c) + (1 - c) * math.log1p(-c)


def kappa(b: np.ndarray, lam: float, N: int) -> float:
    """Control gain (lam/2) max_{k<=N} alpha_k^(3/2) / sqrt(b_k)."""
    alpha = eigenvalues(b.size - 1)[1 : N + 1]
    return 0.5 * abs(lam) * float(np.max(alpha**1.5 / np.sqrt(b[1 : N + 1])))


def delta(N: int, lam: float) -> float:
    """Operational contraction rate (alpha_1/2) min(alpha_1, alpha_{N+1} - lam)."""
    a1 = math.pi**2
    return 0.5 * a1 * min(a1, ((N + 1) * math.pi) ** 2 - lam)


def control_budget(dist0: float, kap: float, dlt: float) -> float:
    """v = kappa^2 d^2 / (2 delta), a pathwise bound on the control integral."""
    return kap * kap * dist0 * dist0 / (2.0 * dlt)


def weight_gap_bound(dist0: float, kap: float, dlt: float) -> float:
    """e^(v/2) sqrt(v), the bound on E|1 - e^G|."""
    v = control_budget(dist0, kap, dlt)
    return math.exp(0.5 * v) * math.sqrt(v)


def norm_m1(x: np.ndarray) -> float:
    """|x|_{-1} = (sum_{k>=1} x_k^2 / alpha_k)^(1/2)."""
    return math.sqrt(float(np.sum(x[1:] ** 2 / eigenvalues(x.size - 1)[1:])))


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_EXACT * abs(want)


def check_girsanov(report: dict, x0: np.ndarray, y0: np.ndarray, b: np.ndarray,
                   lam: float, N: int, replicas: int) -> list[str]:
    """Checks on girsanov.json: closed forms to 1e-12, E[e^G] = 1, gap below bound."""
    bad = []
    kap, dlt, d0 = kappa(b, lam, N), delta(N, lam), norm_m1(x0 - y0)
    bound = weight_gap_bound(d0, kap, dlt)
    for name, want in (("kappa", kap), ("delta", dlt), ("dist0", d0), ("bound", bound)):
        if not _rel_close(report[name], want):
            bad.append(f"{name} = {report[name]!r}, closed form {want!r}")
    if report["replicas"] != replicas:
        bad.append(f"replicas = {report['replicas']}, expected {replicas}")
    # e^(2G) = (exponential martingale of 2w) * e^(int |w|^2) and int |w|^2 <= v,
    # so Var e^G <= e^v - 1: a reported SE above that would make the checks vacuous
    se_cap = math.sqrt(math.expm1(control_budget(d0, kap, dlt)) / (replicas - 1))
    for name in ("martingale_se", "se"):
        if not 0.0 < report[name] <= se_cap:
            bad.append(f"{name} = {report[name]!r} outside (0, {se_cap!r}]")
    if abs(report["martingale_mean"] - 1.0) > Z * report["martingale_se"]:
        bad.append(
            f"E[e^G] = {report['martingale_mean']!r} is more than {Z} SE "
            f"({report['martingale_se']!r}) from 1"
        )
    if report["estimate"] > bound + Z * report["se"]:
        bad.append(f"gap {report['estimate']!r} above bound {bound!r} + {Z} SE")
    return bad


def check_lintest(report: dict, curve: dict, x0: np.ndarray, b: np.ndarray,
                  dt: float, steps: int, save_every: int, replicas: int) -> list[str]:
    """Checks on lintest.json and ensemble_norm.csv against the exact laws.

    Means: |empirical - OU mean| within Z sigma plus the scheme's exact mean
    bias |OU mean - recursion mean|.  Variances and the E|X|_{-1}^2 curve:
    against the exact law of the recursion itself, so no bias slack enters.
    """
    bad = []
    t_end = steps * dt
    ou_mean, ou_var = ou_law(x0, b, t_end)
    d_mean, d_var = discrete_law(x0, b, dt, steps)

    law_var = np.asarray(report["law_var"])
    if not np.all(np.abs(law_var - ou_var) <= REL_EXACT * ou_var):
        bad.append(f"law_var {law_var.tolist()} differs from the OU law {ou_var.tolist()}")

    mean_err = np.asarray(report["mode_mean_abs_err"])
    mean_tol = Z * np.sqrt(d_var / replicas) + np.abs(ou_mean - d_mean) + 1e-12
    for k in np.flatnonzero(mean_err > mean_tol):
        bad.append(f"mode {k} mean error {mean_err[k]!r} above {mean_tol[k]!r}")

    emp_var = np.asarray(report["mode_var"])
    var_tol = Z * d_var * math.sqrt(2.0 / (replicas - 1)) + 1e-300
    for k in np.flatnonzero(np.abs(emp_var - d_var) > var_tol):
        bad.append(f"mode {k} variance {emp_var[k]!r}, recursion law {d_var[k]!r}")

    alpha = eigenvalues(x0.size - 1)
    times, got = curve["t"], curve["mean_norm_m1_sq"]
    expected_steps = list(range(0, steps + 1, save_every))
    if expected_steps[-1] != steps:
        expected_steps.append(steps)
    if len(times) != len(expected_steps):
        bad.append(f"{len(times)} saved times, expected {len(expected_steps)}")
        return bad
    for t, value, n in zip(times, got, expected_steps):
        if abs(t - n * dt) > 1e-12:
            bad.append(f"saved time {t!r} is not step {n}")
            continue
        m, v = discrete_law(x0, b, dt, n)
        want = float(np.sum((m[1:] ** 2 + v[1:]) / alpha[1:]))
        # Var x^2 = 2 v^2 + 4 m^2 v for a Gaussian mode
        se = math.sqrt(float(np.sum((2 * v[1:] ** 2 + 4 * m[1:] ** 2 * v[1:]) / alpha[1:] ** 2)) / replicas)
        if abs(value - want) > Z * se + REL_EXACT * want:
            bad.append(f"E|X|_-1^2 at t={t!r}: {value!r}, exact {want!r} (se {se!r})")
    return bad


def check_ergodic(report: dict, c: float, lam: float, b: np.ndarray) -> list[str]:
    """Checks on ergodic.json: exact mass, the budget bound, start agreement."""
    bad = []
    names = report["observables"]
    avg = np.asarray(report["averages"])
    ci = np.asarray(report["cis"])
    j_mean, j_h1 = names.index("mean"), names.index("seminorm_sq[1]")
    for i in range(avg.shape[0]):
        if abs(avg[i, j_mean] - c) > REL_EXACT or ci[i, j_mean] != 0.0:
            bad.append(f"start {i}: mean average {avg[i, j_mean]!r} +- {ci[i, j_mean]!r}, c = {c!r}")
    stochastic = [j for j in range(len(names)) if j != j_mean]
    if np.any(ci[:, stochastic] <= 0.0):
        bad.append(f"zero-width interval on a stochastic observable: {ci.tolist()}")
    bound = trace_m1(b) + rate_polynomial(lam, c)
    se = ci / T_975_15
    for i in range(avg.shape[0]):
        if avg[i, j_h1] > bound + Z * se[i, j_h1]:
            bad.append(f"start {i}: average |X|_1^2 {avg[i, j_h1]!r} above Tr_-1 + P_c = {bound!r}")
    for j in stochastic:
        for p in range(avg.shape[0]):
            for q in range(p + 1, avg.shape[0]):
                tol = Z * math.hypot(se[p, j], se[q, j])
                if abs(avg[p, j] - avg[q, j]) > tol:
                    bad.append(f"{names[j]}: starts {p} and {q} differ by more than {tol!r}")
    return bad

#!/usr/bin/env python3
"""Drive the integrator with the nonlinearity off and compare against the
exact per-mode Gaussian law: means, variances, and a KS check on mode 1."""

import argparse
import math

import numpy as np

from chcsim import dynamics, kinds, noise
from chcsim.noise import CovarianceSpec
from chcsim.potential import PotentialSpec
from chcsim.dynamics import SimConfig
from chcsim.spectral import ModeVector


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicas", type=int, default=5000)
    ap.add_argument("--dt", type=float, default=5e-5)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    M = 8
    b = np.zeros(M + 1)
    b[1] = b[2] = 1.0
    cfg = SimConfig(
        M=M, dt=args.dt, T=args.T, c=0.0,
        potential=PotentialSpec.off(),
        cov=CovarianceSpec(b, 2),
        seed=args.seed, save_every=10_000,
    )
    x0 = ModeVector(np.array([0.0, 0.4, -0.2, 0.1, 0.05, 0, 0, 0, 0.0]))

    print(f"integrating {args.replicas} replicas to T={cfg.horizon} at dt={cfg.dt} ...")
    res = dynamics.run_ensemble(x0, cfg, args.replicas)
    law = noise.linear_law(x0, cfg.horizon, cfg.cov)

    print(f"{'mode':>4} {'emp mean':>12} {'law mean':>12} {'emp var':>12} {'law var':>12} {'z(var)':>8}")
    R = args.replicas
    for k in range(1, M + 1):
        em = res.final[:, k].mean()
        ev = res.final[:, k].var(ddof=1)
        z = (
            (ev - law.var[k]) / (law.var[k] * math.sqrt(2.0 / (R - 1)))
            if law.var[k] > 0
            else 0.0
        )
        print(f"{k:>4} {em:>12.3e} {law.mean[k]:>12.3e} {ev:>12.3e} {law.var[k]:>12.3e} {z:>8.2f}")

    ks = kinds.ks_normal(res.final[:, 1], law.mean[1], math.sqrt(law.var[1]))
    print(f"KS(mode 1 vs exact Gaussian) = {ks:.4f}  (target < 0.02)")


if __name__ == "__main__":
    main()

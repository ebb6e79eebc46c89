#!/usr/bin/env python3
"""Couple pairs of starts through the band control and report the measured
contraction rates against the operational rate the coupling argument proves."""

import argparse

import numpy as np

from chcsim import coupling, noise
from chcsim.noise import CovarianceSpec
from chcsim.potential import PotentialSpec
from chcsim.dynamics import SimConfig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--band", type=int, default=2)
    ap.add_argument("--T", type=float, default=0.12)
    ap.add_argument("--dt", type=float, default=1e-4)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--csv", default=None, help="optional path for the distance paths")
    args = ap.parse_args()

    M = 32
    b = np.zeros(M + 1)
    b[1] = b[2] = 1.0
    cfg = SimConfig(
        M=M, dt=args.dt, T=args.T, c=0.0,
        potential=PotentialSpec.truncated(4, args.lam),
        cov=CovarianceSpec(b, args.band),
        seed=args.seed, save_every=20,
    )

    rng = noise.aux_stream(args.seed, 0)
    var = noise.stationary_variances(cfg.cov)
    hot = np.flatnonzero(var > 0)

    def starts(r):
        out = np.zeros((args.pairs, M + 1))
        out[:, hot] = 0.6 * r.standard_normal((args.pairs, hot.size)) * np.sqrt(var[hot])
        return out

    ens = coupling.coupled_ensemble(starts(rng), starts(rng), cfg, args.pairs)
    dist = np.sqrt(ens.dist_sq_path)
    fitted = ens.fitted_rates()
    print(f"operational rate  : {ens.rate:10.4f}")
    print(f"fitted rates      : min {fitted.min():.4f}  median {np.median(fitted):.4f}  max {fitted.max():.4f}")
    print(f"pathwise envelope : {'OK' if np.all(dist <= ens.decay_envelope() + 1e-300) else 'VIOLATED'}")

    if args.csv:
        header = "t," + ",".join(f"pair{r}" for r in range(args.pairs))
        np.savetxt(
            args.csv,
            np.column_stack([ens.times, dist.T]),
            delimiter=",",
            header=header,
            comments="",
        )
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Robust vs classical estimation under a single substituted outlier.

Sweeps the magnitude of a substituted observation (in units of the residual
scale of the contaminated unit) and reports population-level MSE of the
clipped estimator at several c values against the classical estimator.
"""

import argparse

import numpy as np

from robust_fps import Contamination, FrameTemplate, SimConfig, empirical_risk


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=20)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--reps", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--c-grid", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--magnitudes", type=float, nargs="+",
                    default=[0.0, 2.0, 5.0, 10.0, 20.0])
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    a = rng.uniform(0.5, 2.0, args.N)
    sigma2 = rng.uniform(0.5, 2.0, args.N)
    sampled = np.array([True] * args.n + [False] * (args.N - args.n))
    template = FrameTemplate(tuple(f"u{i}" for i in range(args.N)), a, sigma2, sampled)
    v0 = template.v[0]  # residual scale of u0, the first sampled unit
    theta = 1.0

    print(f"{'outlier (v units)':>18} {'classical':>12} " +
          " ".join(f"{'c=' + format(c, 'g'):>12}" for c in args.c_grid))
    for mag in args.magnitudes:
        if mag == 0.0:
            contamination = Contamination()
        else:
            value = theta * a[0] + mag * v0 * a[0]
            contamination = Contamination("substitution", units=("u0",), value=value)
        config = SimConfig(
            template=template, theta_true=theta, contamination=contamination,
            c_grid=tuple(args.c_grid), reps=args.reps, seed=args.seed,
        )
        result = empirical_risk(config)
        cells = " ".join(f"{row.emp_mse_pop:12.6g}" for row in result.rows)
        print(f"{mag:18.1f} {result.rows[0].classical_mse:12.6g} {cells}")


if __name__ == "__main__":
    main()

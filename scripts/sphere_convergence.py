#!/usr/bin/env python3
"""Sphere convergence experiment: error table and fitted rate.

Runs the curvature pipeline over a schedule of sphere samples with exact
tangent planes and unit masses, prints per-row error statistics and the
log-log slope of the orthogonal-tensor error against the realized radius.
"""

import argparse

from varicurv import ConvergenceSchedule, ScheduleRow, Sphere, run_convergence
from varicurv.estimator import NeighborQuery


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[4000, 16000, 64000])
    ap.add_argument("--k", type=int, default=40)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--tangent-mode", choices=["exact", "estimated"],
                    default="exact")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    schedule = ConvergenceSchedule(
        Sphere(1.0),
        tuple(ScheduleRow(n, NeighborQuery.knn(args.k)) for n in args.sizes),
        noise_sigma=args.noise,
        tangent_mode=args.tangent_mode,
        seed=args.seed,
    )
    result = run_convergence(schedule)
    print(result.table())
    print(f"orthogonal-tensor error rate (log-log slope): "
          f"{result.aperp_slope():.3f}")


if __name__ == "__main__":
    main()

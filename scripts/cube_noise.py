#!/usr/bin/env python3
"""Cube noise experiment: edge detection under position noise.

Samples the cube surface, perturbs positions with Gaussian noise, estimates
tangent planes from the noisy cloud, and reports how well the summed
absolute principal curvatures separate edge ribbons from face interiors.
Optionally writes a colorized ply for external viewers.
"""

import argparse

import numpy as np

from varicurv import Cube, NeighborIndex, validate_cloud
from varicurv.estimator import (
    NeighborQuery,
    curvature_report,
    estimate_tangent_planes,
)
from varicurv.io import colorize, write_ply


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-points", type=int, default=21602)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--k", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ply", help="write a ply colored by |k1|+|k2|")
    args = ap.parse_args()

    sample = Cube(1.0).sample(args.n_points, noise_sigma=args.noise,
                              seed=args.seed)
    # one neighbor resolution serves the tangent estimate and the report
    neighbors = NeighborIndex(sample.cloud.positions).resolve_all(
        NeighborQuery.knn(args.k)
    )
    est = estimate_tangent_planes(sample.cloud.positions, neighbors, 2)
    cloud = validate_cloud(sample.cloud.positions, est.planes,
                           sample.cloud.masses, 2)
    rep = curvature_report(cloud, neighbors, ambiguous=est.ambiguous)

    eps_med = float(np.median(rep.eps))
    ribbon = sample.edge_distance <= eps_med
    interior = sample.edge_distance > 3.0 * eps_med
    threshold = np.nanpercentile(rep.abs_sum[ribbon], 25)
    frac = np.nanmean(rep.abs_sum[interior] < threshold)
    print(f"N={args.n_points} noise={args.noise} k={args.k} "
          f"median eps={eps_med:.3f}")
    print(f"edge-ribbon points: {ribbon.sum()}, interior points: "
          f"{interior.sum()}")
    print(f"interior fraction below ribbon 25th percentile: {frac:.4f}")
    print(f"flagged points: {rep.n_warnings}")

    if args.ply:
        colors = colorize(rep.abs_sum, diverging=False)
        write_ply(args.ply, cloud.positions, colors=colors,
                  quality=rep.abs_sum)
        print(f"wrote {args.ply}")


if __name__ == "__main__":
    main()

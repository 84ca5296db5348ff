#!/usr/bin/env python3
"""Half-line junction demo.

Prints the coefficient tensor of planar half-line junctions and compares the
smoothed variation magnitude at the origin for a curvature-free junction
(regular 9) against one with a genuine point singularity (regular 3).
"""

import argparse

import numpy as np

from varicurv import (
    JunctionSpec,
    NeighborIndex,
    NeighborQuery,
    bump_profile,
    junction_coefficients,
    junction_is_curvature_free,
    natural_kernel_pair,
    sample_junction,
    variation_tensor,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rays", type=int, nargs="+", default=[2, 3, 5, 9])
    ap.add_argument("--spacing", type=float, default=1e-3)
    ap.add_argument("--eps", type=float, default=0.05)
    args = ap.parse_args()

    kernels = natural_kernel_pair(bump_profile(), 1, 2)
    for n_rays in args.rays:
        spec = JunctionSpec.regular(n_rays)
        t = junction_coefficients(spec)
        cloud = sample_junction(spec, int(2 * args.eps / args.spacing) + 10,
                                args.spacing)
        indices, _ = NeighborIndex(cloud.positions).resolve_all(
            NeighborQuery.radius(args.eps)
        )
        # one-row call of the chunk function: point 0, its neighbor list
        beta = variation_tensor(cloud, [0], kernels, args.eps, idx=indices[0],
                                counts=[indices[0].size])[0]
        print(f"regular {n_rays}-junction: curvature-free="
              f"{junction_is_curvature_free(spec)}, "
              f"|t|_inf={np.max(np.abs(t)):.6f}, "
              f"smoothed |b(0)|_inf={np.max(np.abs(beta)):.4f}")


if __name__ == "__main__":
    main()

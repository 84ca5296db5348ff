"""Command-line front end.

Two subcommands:

* ``run``    ingest a cloud (file or synthesized shape), run the curvature
             pipeline, and write a CSV report and/or a colorized ply;
* ``sample`` synthesize a shape sample and write the bare cloud.

Exit codes: 0 success (per-point numeric failures downgrade to status flags
and a warning count), 1 input/validation error, 2 numeric fatal error.
The per-point pipeline runs serially, so output bytes depend only on the
inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as vio
from .errors import (
    CloudValidationError,
    FileFormatError,
    InvalidInputError,
    VaricurvError,
)
from .estimator import NeighborQuery, curvature_report, estimate_masses, \
    estimate_tangent_planes
from .kernels import kernel_pair_by_name
from .shapes import shape_by_name
from .varifold import validate_cloud

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

QUANTITIES = ("gauss", "abs-sum", "mean-norm", "k1", "k2")


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", choices=["sphere", "circle", "torus", "cylinder",
                                       "plane", "cube"])
    p.add_argument("--n-points", type=int, default=10000)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--r-major", type=float, default=2.0)
    p.add_argument("--r-minor", type=float, default=0.5)
    p.add_argument("--height", type=float, default=2.0)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)


def _build_shape(args):
    name = args.shape
    if name in ("sphere", "circle"):
        return shape_by_name(name, radius=args.radius)
    if name == "torus":
        return shape_by_name(name, r_major=args.r_major, r_minor=args.r_minor)
    if name == "cylinder":
        return shape_by_name(name, radius=args.radius, height=args.height)
    return shape_by_name(name, side=args.side)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="varicurv",
                                 description="point-cloud curvature estimation")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="estimate curvatures and write reports")
    run.add_argument("--input", help="input cloud path")
    run.add_argument("--format", choices=["xyz", "ply"], default="xyz")
    _add_shape_args(run)
    run.add_argument("--d", type=int, default=2, help="intrinsic dimension")
    run.add_argument("--n", type=int, help="ambient dimension (default: infer)")
    grp = run.add_mutually_exclusive_group()
    grp.add_argument("--k", type=int, default=None,
                     help="neighbors per point (default 40)")
    grp.add_argument("--epsilon", type=float, default=None,
                     help="fixed smoothing radius")
    run.add_argument("--kernel", default="bump", help="bump (default), tent, box")
    run.add_argument("--mass-mode", choices=["uniform", "nmass", "rd"],
                     default="uniform")
    run.add_argument("--n-mass", type=int, default=8)
    run.add_argument("--tangent-mode", choices=["auto", "exact", "estimated"],
                     default="auto")
    run.add_argument("--quantity", choices=QUANTITIES, default="gauss",
                     help="scalar mapped to ply colors")
    run.add_argument("--csv", help="CSV report output path")
    run.add_argument("--ply", help="colorized ply output path")

    sample = sub.add_parser("sample", help="synthesize a shape point cloud")
    _add_shape_args(sample)
    sample.add_argument("--xyz", help="xyz output path")
    sample.add_argument("--ply", help="ply output path (positions + normals)")
    return ap


def _load_cloud(args):
    """Returns (positions, planes-or-None, query, d)."""
    if (args.input is None) == (args.shape is None):
        raise InvalidInputError("provide exactly one of --input or --shape")
    if args.k is None and args.epsilon is None:
        query = NeighborQuery.knn(40)
    elif args.epsilon is not None:
        query = NeighborQuery.radius(args.epsilon)
    else:
        query = NeighborQuery.knn(args.k)

    if args.shape is not None:
        shape = _build_shape(args)
        sample = shape.sample(args.n_points, noise_sigma=args.noise,
                              seed=args.seed)
        d = shape.dim_d
        if args.d != d:
            raise InvalidInputError(
                f"--d {args.d} does not match shape dimension {d}"
            )
        positions = sample.cloud.positions
        planes = None if args.tangent_mode == "estimated" else sample.cloud.planes
        return positions, planes, query, d

    d = args.d
    normals = None
    if args.format == "xyz":
        positions = vio.read_xyz(args.input, ambient_n=args.n)
    else:
        positions, normals = vio.read_ply(args.input)
    n = positions.shape[1]
    if args.n is not None and args.n != n:
        raise InvalidInputError(f"--n {args.n} but data has {n} columns")
    if not 1 <= d <= n <= 10:
        raise InvalidInputError(f"need 1 <= d <= n <= 10, got d={d}, n={n}")
    planes = None
    if normals is not None and d == n - 1 and args.tangent_mode != "estimated":
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        planes = np.eye(n)[None] - np.einsum("li,lj->lij", unit, unit)
    return positions, planes, query, d


def _run(args) -> int:
    positions, planes, query, d = _load_cloud(args)
    n = positions.shape[1]
    if args.quantity == "k2" and d < 2:
        raise InvalidInputError("quantity k2 needs d >= 2")
    if d != n - 1:
        raise InvalidInputError(
            "the scalar curvature pipeline needs codimension 1 (d = n-1)"
        )
    ambiguous = None
    if planes is None:
        if args.tangent_mode == "exact":
            raise InvalidInputError(
                "--tangent-mode exact needs a shape input or ply normals"
            )
        est = estimate_tangent_planes(positions, query, d)
        planes = est.planes
        ambiguous = est.ambiguous
    masses = estimate_masses(positions, args.n_mass, d, mode=args.mass_mode)
    cloud = validate_cloud(positions, planes, masses, d)
    kernels = kernel_pair_by_name(args.kernel, d, n)
    report = curvature_report(cloud, query, kernels=kernels, ambiguous=ambiguous)
    if report.n_warnings:
        print(f"warning: {report.n_warnings} points flagged "
              f"(isolated or ambiguous tangent)", file=sys.stderr)
    if args.csv:
        vio.write_report_csv(args.csv, positions, report)
    if args.ply:
        if n != 3:
            raise InvalidInputError("ply output needs 3-dimensional positions")
        values = {
            "gauss": report.gauss,
            "abs-sum": report.abs_sum,
            "mean-norm": report.mean_norm,
            "k1": report.kappas[:, 0],
            "k2": report.kappas[:, 1] if d >= 2 else None,
        }[args.quantity]
        colors = vio.colorize(values, diverging=args.quantity == "gauss")
        vio.write_ply(args.ply, positions, colors=colors, quality=values)
    if not args.csv and not args.ply:
        print("no output path given (--csv/--ply); computed "
              f"{positions.shape[0]} points", file=sys.stderr)
    return EXIT_OK


def _sample(args) -> int:
    if args.shape is None:
        raise InvalidInputError("sample requires --shape")
    shape = _build_shape(args)
    result = shape.sample(args.n_points, noise_sigma=args.noise, seed=args.seed)
    if not args.xyz and not args.ply:
        raise InvalidInputError("sample requires --xyz or --ply output path")
    if args.xyz:
        vio.write_xyz(args.xyz, result.cloud.positions)
    if args.ply:
        if shape.ambient_n != 3:
            raise InvalidInputError("ply output needs 3-dimensional shapes")
        vio.write_ply(args.ply, result.cloud.positions, normals=result.normals)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _sample(args)
    except (FileFormatError, CloudValidationError, InvalidInputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except VaricurvError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

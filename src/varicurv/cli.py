"""Command-line front end.

Two subcommands:

* ``run``    ingest a cloud (file or synthesized shape), run the curvature
             pipeline, and write a CSV report and/or a colorized ply;
* ``sample`` synthesize a shape sample and write the bare cloud.

``run --input`` reads the file with ``io.read_cloud``: ply when its first
line is ``ply``, else xyz with as many dimensions as columns; ply vertex
lines follow the xyz field rule, with NaN allowed in the fields not read,
so a ``--ply`` output reads back.  ``--d`` defaults to the input's own
dimension, the shape's or the file's columns minus one.  ``--tangent-mode
auto`` takes the planes ``I - n n^T`` of the unit normals, a shape's exact
ones or those ``io`` returns from a ply, and estimates them otherwise.

Masses are all ones (``--mass-mode uniform``, the default) or
omega_d r^d / n_mass from each point's ``--n-mass``-point ball (``nmass``);
``--kernel`` names a profile of ``kernels.PROFILES`` (bump by default) and
``--shape`` one of ``shapes.SHAPES``, each parameter its own option.
``--n-points``, ``--noise`` and ``--seed`` default to 10000, 0 and 42
where a shape is sampled, ``--n-mass`` to 8 under ``--mass-mode nmass``
and ``--quantity`` to gauss with ``--ply``.  An option the run would not
use is bad input: a parameter of another shape, any shape option given
with ``--input``, ``--n-mass`` without ``--mass-mode nmass`` and
``--quantity`` without ``--ply``.

Exit codes: 0 success (``--help`` included), 1 bad input, 2 broken numeric
invariant.  A badly sampled point does not stop a run: a point whose kernel
ball holds no mass, or whose radius is zero, is reported ``isolated``, and
a point whose neighbors do not determine a d-plane (too few of them,
duplicates, collinear or flat in fewer than d dimensions) is reported
``ambiguous_tangent``; stderr counts the flagged points.  Exit 1 covers
bad options or values (argparse's usage errors included), unreadable,
non-text or malformed files, clouds that fail validation and a zero mass
radius (``--n-mass`` or more coincident points under ``--mass-mode
nmass``).  The options are checked against the cloud's dimensions before
any estimation runs, so a rejected run writes nothing.  Exit 2 means an
invariant the estimator guarantees failed: the trace identity, the
direction-matrix PSD check or a tensor symmetry check.

The pipeline runs in fixed chunks of points on every CPU the process may
use; each chunk writes only its own rows, so output bytes depend only on
the inputs, not on the thread count or the schedule.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from . import io as vio
from .errors import InvalidInputError, VaricurvError
from .estimator import NeighborIndex, NeighborQuery, curvature_report, \
    estimate_masses, estimate_tangent_planes
from .kernels import PROFILES, bump_profile, kernel_pair_by_name
from .shapes import SHAPES
from .varifold import normal_planes, validate_cloud

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

QUANTITIES = ("gauss", "abs-sum", "mean-norm", "k1", "k2")


# The shape constructors' parameters, one option each, and the sampling
# options with the values a sampled shape takes when they are not given.
SHAPE_PARAMETERS = sorted({name for cls in SHAPES.values()
                           for name in inspect.signature(cls).parameters})
SAMPLING = {"n_points": 10000, "noise": 0.0, "seed": 42}
# Options of ``run`` that only one output or mass mode uses, with the value
# that mode takes when they are not given.
RUN_DEFAULTS = {"n_mass": 8, "quantity": "gauss"}


def _option(name):
    return "--" + name.replace("_", "-")


def _given(args, names):
    """The options among ``names`` that the command line sets, with their
    values, as one string; empty when it sets none."""
    return ", ".join(f"{_option(name)} {value}" for name in names
                     if (value := getattr(args, name)) is not None)


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", choices=sorted(SHAPES))
    p.add_argument("--n-points", type=int,
                   help=f"sample size (default {SAMPLING['n_points']})")
    for name in SHAPE_PARAMETERS:
        p.add_argument(_option(name), type=float,
                       help="shape parameter (default: the shape's own)")
    p.add_argument("--noise", type=float,
                   help=f"sample noise sigma (default {SAMPLING['noise']:g})")
    p.add_argument("--seed", type=int,
                   help=f"sample seed (default {SAMPLING['seed']})")


def _build_shape(args):
    """The ``--shape`` from the options named as its constructor's
    parameters; an option of another shape's parameter is bad input."""
    cls = SHAPES[args.shape]
    own = inspect.signature(cls).parameters
    foreign = _given(args, (name for name in SHAPE_PARAMETERS if name not in own))
    if foreign:
        raise InvalidInputError(f"shape {args.shape} takes no {foreign}")
    return cls(**{name: value for name in own
                  if (value := getattr(args, name)) is not None})


def _sampling(args):
    """(n_points, noise, seed) for ``AnalyticShape.sample``: the sampling
    options, each its default when not given."""
    return [SAMPLING[name] if (value := getattr(args, name)) is None else value
            for name in SAMPLING]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="varicurv",
                                 description="point-cloud curvature estimation")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="estimate curvatures and write reports")
    run.add_argument("--input", help="input cloud path (xyz or ply)")
    _add_shape_args(run)
    run.add_argument("--d", type=int, help="intrinsic dimension (default: the input's)")
    grp = run.add_mutually_exclusive_group()
    grp.add_argument("--k", type=int, default=None,
                     help="neighbors per point (default 40)")
    grp.add_argument("--epsilon", type=float, default=None,
                     help="fixed smoothing radius")
    run.add_argument("--kernel", choices=sorted(PROFILES),
                     default=bump_profile().name)
    run.add_argument("--mass-mode", choices=["uniform", "nmass"],
                     default="uniform")
    run.add_argument("--n-mass", type=int,
                     help=f"points per mass ball under --mass-mode nmass "
                          f"(default {RUN_DEFAULTS['n_mass']})")
    run.add_argument("--tangent-mode", choices=["auto", "estimated"],
                     default="auto")
    run.add_argument("--quantity", choices=QUANTITIES,
                     help=f"scalar mapped to --ply colors "
                          f"(default {RUN_DEFAULTS['quantity']})")
    run.add_argument("--csv", help="CSV report output path")
    run.add_argument("--ply", help="colorized ply output path")

    sample = sub.add_parser("sample", help="synthesize a shape point cloud")
    _add_shape_args(sample)
    sample.add_argument("--xyz", help="xyz output path")
    sample.add_argument("--ply", help="ply output path (positions + normals)")
    return ap


def _load_cloud(args):
    """Returns (positions, unit normals or None, query, d)."""
    if (args.input is None) == (args.shape is None):
        raise InvalidInputError("provide exactly one of --input or --shape")
    if args.input is not None:
        given = _given(args, (*SAMPLING, *SHAPE_PARAMETERS))
        if given:
            raise InvalidInputError(f"--input takes no shape options, got {given}")
    if args.epsilon is not None:
        query = NeighborQuery.radius(args.epsilon)
    else:
        query = NeighborQuery.knn(40 if args.k is None else args.k)

    if args.shape is not None:
        shape = _build_shape(args)
        sample = shape.sample(*_sampling(args))
        d = shape.dim_d
        if args.d not in (None, d):
            raise InvalidInputError(f"--d {args.d} does not match shape dimension {d}")
        return sample.cloud.positions, sample.normals, query, d

    positions, normals = vio.read_cloud(args.input)
    n = positions.shape[1]
    if args.d is None and n < 2:
        raise InvalidInputError("a 1-column file holds no curve or surface of "
                                "codimension 1")
    d = n - 1 if args.d is None else args.d
    if not 1 <= d <= n <= 10:
        raise InvalidInputError(f"need 1 <= d <= n <= 10, got d={d}, n={n}")
    return positions, normals, query, d


def _run(args) -> int:
    if args.n_mass is not None and args.mass_mode != "nmass":
        raise InvalidInputError(f"--n-mass {args.n_mass} needs --mass-mode nmass")
    if args.quantity is not None and not args.ply:
        raise InvalidInputError(f"--quantity {args.quantity} needs --ply")
    n_mass = RUN_DEFAULTS["n_mass"] if args.n_mass is None else args.n_mass
    quantity = args.quantity or RUN_DEFAULTS["quantity"]
    positions, normals, query, d = _load_cloud(args)
    n = positions.shape[1]
    if quantity == "k2" and d < 2:
        raise InvalidInputError("quantity k2 needs d >= 2")
    if d != n - 1:
        raise InvalidInputError(
            "the scalar curvature pipeline needs codimension 1 (d = n-1)"
        )
    if args.ply and n != 3:
        raise InvalidInputError("ply output needs 3-dimensional positions")
    kernels = kernel_pair_by_name(args.kernel, d, n)
    # one tree and one resolution serve the tangent estimate, the masses
    # and the report
    index = NeighborIndex(positions)
    neighbors = index.resolve_all(query)
    ambiguous = None
    if normals is not None and args.tangent_mode == "auto":
        planes = normal_planes(normals)
    else:
        est = estimate_tangent_planes(positions, neighbors, d)
        planes, ambiguous = est.planes, est.ambiguous
    if args.mass_mode == "uniform":
        masses = np.ones(len(positions))
    else:
        masses = estimate_masses(index, n_mass, d)
    cloud = validate_cloud(positions, planes, masses, d)
    report = curvature_report(cloud, neighbors, kernels=kernels,
                              ambiguous=ambiguous)
    if report.n_warnings:
        print(f"warning: {report.n_warnings} points flagged "
              f"(isolated or ambiguous tangent)", file=sys.stderr)
    if args.csv:
        vio.write_report_csv(args.csv, positions, report)
    if args.ply:
        values = {
            "gauss": report.gauss,
            "abs-sum": report.abs_sum,
            "mean-norm": report.mean_norm,
            "k1": report.kappas[:, 0],
            "k2": report.kappas[:, 1] if d >= 2 else None,
        }[quantity]
        colors = vio.colorize(values, diverging=quantity == "gauss")
        vio.write_ply(args.ply, positions, colors=colors, quality=values)
    if not args.csv and not args.ply:
        print("no output path given (--csv/--ply); computed "
              f"{positions.shape[0]} points", file=sys.stderr)
    return EXIT_OK


def _sample(args) -> int:
    if args.shape is None:
        raise InvalidInputError("sample requires --shape")
    if not args.xyz and not args.ply:
        raise InvalidInputError("sample requires --xyz or --ply output path")
    shape = _build_shape(args)
    if args.ply and shape.ambient_n != 3:
        raise InvalidInputError("ply output needs 3-dimensional shapes")
    result = shape.sample(*_sampling(args))
    if args.xyz:
        vio.write_xyz(args.xyz, result.cloud.positions)
    if args.ply:
        vio.write_ply(args.ply, result.cloud.positions, normals=result.normals)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    try:
        if args.command == "run":
            return _run(args)
        return _sample(args)
    except (InvalidInputError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except VaricurvError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

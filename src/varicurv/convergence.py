"""Convergence harness: run the estimator over shape schedules and fit rates.

A schedule is a list of (sample size, neighbor query) rows over one analytic
shape.  For each row the harness samples the shape, resolves the neighbor
query once, optionally re-estimates tangent planes from the (noisy)
positions, runs the curvature report, and compares against the shape's
exact curvatures, and ``a_perp`` against its ``gradient_tensor`` if it has
one.  Principal-curvature errors are computed after aligning the arbitrary
per-point sign of the estimate with the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .estimator import (
    STATUS_ISOLATED,
    NeighborIndex,
    NeighborQuery,
    curvature_report,
    estimate_tangent_planes,
)
from .kernels import KernelPair
from .shapes import AnalyticShape
from .varifold import validate_cloud


@dataclass(frozen=True)
class ScheduleRow:
    n_points: int
    query: NeighborQuery


@dataclass(frozen=True)
class ConvergenceSchedule:
    """Shape, rows, and sampling knobs for a convergence run.

    Rows must have strictly increasing sample sizes; fixed-radius rows must
    have strictly decreasing radii (k-mode radii shrink automatically).
    """

    shape: AnalyticShape
    rows: tuple[ScheduleRow, ...]
    noise_sigma: float = 0.0
    tangent_mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        sizes = [row.n_points for row in self.rows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidInputError("sample sizes must increase strictly")
        radii = [row.query.epsilon for row in self.rows if row.query.mode == "radius"]
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise InvalidInputError("fixed radii must decrease strictly")
        if self.tangent_mode not in ("exact", "estimated"):
            raise InvalidInputError(f"unknown tangent mode {self.tangent_mode!r}")


def relative_errors(estimated: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """|est - exact| / |exact|, falling back to absolute error near zero."""
    exact = np.asarray(exact, dtype=float)
    denom = np.where(np.abs(exact) > 1e-8, np.abs(exact), 1.0)
    return np.abs(np.asarray(estimated, dtype=float) - exact) / denom


def aligned_kappa_errors(k_est: np.ndarray, k_exact: np.ndarray) -> np.ndarray:
    """Per-point, per-component principal curvature errors.

    The estimator's normal orientation is arbitrary, so each point's
    estimate is flipped to whichever global sign better matches the exact
    trace before sorting both descending and comparing componentwise.
    """
    k_est = np.sort(np.asarray(k_est, dtype=float), axis=1)[:, ::-1]
    k_exact = np.sort(np.asarray(k_exact, dtype=float), axis=1)[:, ::-1]
    flip = (k_est.sum(axis=1) * k_exact.sum(axis=1)) < 0.0
    k_aligned = np.where(flip[:, None], -k_est[:, ::-1], k_est)
    return relative_errors(k_aligned, k_exact)


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = (x > 0) & (y > 0)
    if good.sum() < 2:
        raise ValueError("need at least two positive samples to fit a slope")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


@dataclass
class RowResult:
    """Error statistics of one schedule row (medians, and the 90th
    percentile of the kappa errors)."""

    n_points: int
    eps_median: float
    kappa_median: np.ndarray
    kappa_p90: np.ndarray
    mean_norm_median: float
    gauss_median: float
    n_warnings: int
    aperp_median: float | None = None
    kappa_median_averaged: np.ndarray | None = None


@dataclass
class ConvergenceResult:
    rows: list[RowResult] = field(default_factory=list)

    def eps_values(self) -> np.ndarray:
        return np.array([r.eps_median for r in self.rows])

    def aperp_slope(self) -> float:
        if all(r.aperp_median is None for r in self.rows):
            raise InvalidInputError("no row holds an a_perp error (no gradient_tensor)")
        errs = np.array([r.aperp_median for r in self.rows], dtype=float)
        return fit_loglog_slope(self.eps_values(), errs)

    def table(self) -> str:
        lines = ["     N    eps_med   kappa_med            |H|_med    gauss_med  warn"]
        for r in self.rows:
            kstr = " ".join(f"{v:.3e}" for v in r.kappa_median)
            lines.append(
                f"{r.n_points:>6d}  {r.eps_median:.4f}  {kstr:<20s} "
                f"{r.mean_norm_median:.3e}  {r.gauss_median:.3e}  {r.n_warnings}"
            )
        return "\n".join(lines)


def _row_cloud(schedule: ConvergenceSchedule, row: ScheduleRow, row_id: int):
    """The row's cloud, its sample, its tangent ambiguity flags and the
    ``(indices, eps)`` resolution of the row's query that every pipeline
    run of the row shares."""
    sample = schedule.shape.sample(
        row.n_points, noise_sigma=schedule.noise_sigma,
        seed=schedule.seed + 1000 * row_id,
    )
    cloud = sample.cloud
    neighbors = NeighborIndex(cloud.positions).resolve_all(row.query)
    ambiguous = None
    if schedule.tangent_mode == "estimated":
        est = estimate_tangent_planes(cloud.positions, neighbors, cloud.dim_d)
        cloud = validate_cloud(
            cloud.positions, est.planes, cloud.masses, cloud.dim_d
        )
        ambiguous = est.ambiguous
    return cloud, sample, ambiguous, neighbors


def run_convergence(
    schedule: ConvergenceSchedule,
    kernels: KernelPair | None = None,
    compare_variants: bool = False,
) -> ConvergenceResult:
    """Execute a schedule and collect error statistics per row.

    When the shape has an exact gradient-form tensor, each row also holds
    the orthogonal tensor's error against it, for
    :meth:`ConvergenceResult.aperp_slope`.  ``compare_variants`` also
    runs the averaged-direction pipeline for a paired comparison; both
    variants come from one :func:`curvature_report` call per row, which sums
    each chunk's pairs once for the two.  ``kernels`` of None takes the
    report's default pair for each row's cloud.
    """
    result = ConvergenceResult()
    for row_id, row in enumerate(schedule.rows):
        # one call per row: nothing of a row stays alive while the next runs
        result.rows.append(
            _row_result(schedule, row, row_id, kernels, compare_variants))
    return result


def _row_result(
    schedule: ConvergenceSchedule, row: ScheduleRow, row_id: int,
    kernels: KernelPair | None, compare_variants: bool,
) -> RowResult:
    cloud, sample, ambiguous, neighbors = _row_cloud(schedule, row, row_id)
    exact_tensor = getattr(schedule.shape, "gradient_tensor", None)
    report = curvature_report(
        cloud, neighbors, kernels=kernels, compare_variants=compare_variants,
        ambiguous=ambiguous, collect_a_perp=exact_tensor is not None,
    )
    if compare_variants:
        report, alt = report
    ok = report.status != STATUS_ISOLATED
    ok &= np.all(np.isfinite(report.kappas), axis=1)
    k_err = aligned_kappa_errors(report.kappas[ok], sample.kappas[ok])
    h_err = relative_errors(
        report.mean_norm[ok], np.linalg.norm(sample.mean_vectors[ok], axis=1)
    )
    g_err = relative_errors(report.gauss[ok], sample.gauss[ok])
    row_res = RowResult(
        n_points=row.n_points,
        eps_median=float(np.median(report.eps)),
        kappa_median=np.median(k_err, axis=0),
        kappa_p90=np.percentile(k_err, 90, axis=0),
        mean_norm_median=float(np.median(h_err)),
        gauss_median=float(np.median(g_err)),
        n_warnings=report.n_warnings,
    )
    if exact_tensor is not None:
        exact = exact_tensor(sample.base_points)
        # Frobenius norm: rotation-invariant, so the fitted rate does not
        # depend on the orientation of the sample
        diffs = np.linalg.norm((report.a_perp - exact).reshape(len(exact), -1),
                               axis=1)
        diffs = diffs[ok & np.isfinite(diffs)]
        row_res.aperp_median = float(np.median(diffs))
    if compare_variants:
        alt_ok = ok & np.all(np.isfinite(alt.kappas), axis=1)
        alt_err = aligned_kappa_errors(alt.kappas[alt_ok], sample.kappas[alt_ok])
        row_res.kappa_median_averaged = np.median(alt_err, axis=0)
    return row_res

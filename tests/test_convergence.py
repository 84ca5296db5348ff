import numpy as np
import pytest

import varicurv as vc
from varicurv import convergence
from varicurv.convergence import (
    ConvergenceSchedule,
    ScheduleRow,
    aligned_kappa_errors,
    fit_loglog_slope,
    relative_errors,
    run_convergence,
)
from varicurv.errors import InvalidInputError
from varicurv.estimator import NeighborIndex, NeighborQuery


def knn_rows(sizes, k=40):
    return tuple(ScheduleRow(n, NeighborQuery.knn(k)) for n in sizes)


class TestScheduleValidation:
    def test_sizes_must_increase(self):
        with pytest.raises(InvalidInputError, match="sample sizes must increase strictly"):
            ConvergenceSchedule(vc.Sphere(1.0), knn_rows([1000, 1000]))

    def test_radii_must_decrease(self):
        rows = (
            ScheduleRow(100, NeighborQuery.radius(0.1)),
            ScheduleRow(200, NeighborQuery.radius(0.2)),
        )
        with pytest.raises(InvalidInputError, match="fixed radii must decrease strictly"):
            ConvergenceSchedule(vc.Sphere(1.0), rows)

    def test_unknown_tangent_mode(self):
        with pytest.raises(InvalidInputError, match="unknown tangent mode 'guessed'"):
            ConvergenceSchedule(
                vc.Sphere(1.0), knn_rows([100, 200]), tangent_mode="guessed"
            )

    @pytest.mark.parametrize("knobs, message", [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"noise_sigma": float("nan")}, "noise must be finite and non-negative, got nan"),
    ])
    def test_sampling_knobs_follow_the_shape_rule(self, knobs, message):
        schedule = ConvergenceSchedule(vc.Sphere(1.0), knn_rows([100, 200]), **knobs)
        with pytest.raises(InvalidInputError, match=message):
            vc.run_convergence(schedule)


class TestErrorHelpers:
    def test_relative_errors_fall_back_to_absolute(self):
        err = relative_errors(np.array([0.1, 2.0]),
                              np.array([0.0, 1.0]))
        assert err[0] == pytest.approx(0.1)
        assert err[1] == pytest.approx(1.0)

    def test_sign_alignment(self):
        est = np.array([[-1.1, -0.9]])
        exact = np.array([[1.0, 1.0]])
        err = aligned_kappa_errors(est, exact)
        assert np.allclose(err, [[0.1, 0.1]])

    def test_slope_recovers_power_law(self):
        eps = np.array([0.4, 0.2, 0.1, 0.05])
        err = 3.0 * eps**1.5
        assert fit_loglog_slope(eps, err) == pytest.approx(1.5, abs=1e-12)

    def test_slope_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([0.1], [0.2])


class TestRunConvergence:
    def test_pair_of_other_dimensions_refused(self):
        sched = ConvergenceSchedule(vc.Circle(1.0), knn_rows([2000], k=20))
        pair = vc.natural_kernel_pair(vc.bump_profile(), 1, 2)
        assert run_convergence(sched, kernels=pair).rows[0].kappa_median[0] < 1e-3
        pair = vc.natural_kernel_pair(vc.bump_profile(), 2, 3)
        with pytest.raises(InvalidInputError, match=r"ratio 0.666667 .* = 0.5"):
            run_convergence(sched, kernels=pair)

    def test_plane_errors_are_tiny(self):
        # principal curvatures and gauss vanish identically with exact
        # tangents (the plane-difference factor is zero); the smoothed mean
        # curvature only picks up patch-boundary terms, so check it at
        # interior points
        sched = ConvergenceSchedule(
            vc.PlanePatch(1.0), knn_rows([400, 900], k=20)
        )
        res = run_convergence(sched)
        for row in res.rows:
            assert np.all(row.kappa_median == 0.0)
            assert row.gauss_median == 0.0
        # dense-grid interior: the smoothed mean curvature also vanishes
        m = 40
        xs = (np.arange(m) + 0.5) / m - 0.5
        xx, yy = np.meshgrid(xs, xs)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(m * m)])
        planes = np.broadcast_to(np.diag([1.0, 1.0, 0.0]), (m * m, 3, 3)).copy()
        cloud = vc.validate_cloud(pts, planes, np.ones(m * m), 2)
        rep = vc.curvature_report(
            cloud, vc.NeighborIndex(pts).resolve_all(NeighborQuery.radius(0.15))
        )
        interior = np.max(np.abs(pts[:, :2]), axis=1) < 0.5 - 0.15
        assert np.max(rep.mean_norm[interior]) < 1e-10

    def test_sphere_errors_decrease(self):
        sched = ConvergenceSchedule(vc.Sphere(1.0), knn_rows([1000, 4000, 16000]))
        res = run_convergence(sched)
        k2 = [row.kappa_median[1] for row in res.rows]
        assert k2[-1] < k2[0]
        assert res.rows[-1].kappa_median[1] < 0.05
        eps = res.eps_values()
        assert np.all(np.diff(eps) < 0)

    def test_aperp_slope_on_sphere(self):
        sched = ConvergenceSchedule(vc.Sphere(1.0), knn_rows([1000, 4000, 16000]))
        res = run_convergence(sched)
        assert res.rows[0].aperp_median is not None
        slope = res.aperp_slope()
        assert 0.4 < slope < 2.0

    def test_aperp_requires_tensor_oracle(self):
        # a torus has no exact gradient-form tensor: its rows hold no a_perp
        # error, and asking for the rate is bad input
        sched = ConvergenceSchedule(vc.Torus(2.0, 0.5), knn_rows([400, 900], k=20))
        res = run_convergence(sched)
        assert all(row.aperp_median is None for row in res.rows)
        with pytest.raises(InvalidInputError, match="no row holds an a_perp error"):
            res.aperp_slope()

    def test_estimated_tangents_run(self):
        sched = ConvergenceSchedule(
            vc.Sphere(1.0), knn_rows([500, 1200], k=20), tangent_mode="estimated",
        )
        res = run_convergence(sched)
        assert res.rows[-1].kappa_median[1] < 0.2

    def test_table_renders(self):
        sched = ConvergenceSchedule(vc.Sphere(1.0), knn_rows([400, 900], k=20))
        res = run_convergence(sched)
        text = res.table()
        assert "400" in text and "900" in text


class TestPairedVariants:
    def test_both_variants_share_one_resolution_per_row(self):
        sched = ConvergenceSchedule(vc.Sphere(1.0), knn_rows([300, 600], k=20))
        real_resolve = NeighborIndex.resolve_all
        real_report = convergence.curvature_report
        calls = []
        reports = []

        def counting_resolve(self, query):
            calls.append(query)
            return real_resolve(self, query)

        def counting_report(*args, **kwargs):
            reports.append(kwargs["compare_variants"])
            return real_report(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NeighborIndex, "resolve_all", counting_resolve)
            mp.setattr(convergence, "curvature_report", counting_report)
            res = run_convergence(sched, compare_variants=True)
        assert res.rows[-1].kappa_median_averaged is not None
        assert len(calls) == 2
        # one report call per row serves both variants
        assert reports == [True] * 2

    def test_orthogonal_beats_averaged_with_noise(self):
        # noisy positions + estimated tangents: the exact-plane variant's
        # difference structure suppresses the O(1) kernel noise that the
        # averaged-direction pipeline keeps
        sched = ConvergenceSchedule(
            vc.Sphere(1.0),
            knn_rows([1000, 2000, 4000, 8000, 16000]),
            noise_sigma=0.005,
            tangent_mode="estimated",
        )
        res = run_convergence(sched, compare_variants=True)
        wins = 0
        for row in res.rows:
            perp = float(np.mean(row.kappa_median))
            avg = float(np.mean(row.kappa_median_averaged))
            wins += perp <= avg
        assert wins / len(res.rows) >= 0.8

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varicurv as vc
from varicurv import estimator, tensors
from varicurv.errors import (
    CodimensionError,
    DegenerateNeighborhoodError,
    InvalidInputError,
    IsolatedPointError,
    ZeroRadiusError,
)
from varicurv.estimator import (
    STATUS_ISOLATED,
    NeighborIndex,
    NeighborQuery,
    curvature_report,
    estimate_masses,
    estimate_tangent_planes,
    mean_curvature_vector,
    plane_frames,
    point_curvature,
    principal_curvatures,
    restrict_to_tangent,
    smoothed_direction_matrix,
)
from varicurv.kernels import kernel_pair_by_name, paired_mass_profile
from varicurv.shapes import shape_by_name

from system_reference import ball, curvature_tensor, orthogonal_curvature_tensor


def pair_for(d, n):
    return vc.natural_kernel_pair(vc.bump_profile(), d, n)


def line_cloud(ts, n=2):
    """1-varifold along e1 with unit masses."""
    pts = np.zeros((len(ts), n))
    pts[:, 0] = ts
    plane = np.zeros((n, n))
    plane[0, 0] = 1.0
    planes = np.broadcast_to(plane, (len(ts), n, n)).copy()
    return vc.validate_cloud(pts, planes, np.ones(len(ts)), 1)


def circle_cloud(n_pts, radius=1.0):
    th = 2 * np.pi * np.arange(n_pts) / n_pts
    pts = radius * np.column_stack([np.cos(th), np.sin(th)])
    tang = np.column_stack([-np.sin(th), np.cos(th)])
    planes = np.einsum("li,lj->lij", tang, tang)
    return vc.validate_cloud(pts, planes, np.ones(n_pts), 1)


def random_cloud(rng, n_pts=200, n=3, d=2):
    pts = rng.uniform(-0.5, 0.5, size=(n_pts, n))
    planes = np.empty((n_pts, n, n))
    for i in range(n_pts):
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        planes[i] = q @ q.T
    masses = rng.uniform(0.5, 1.5, n_pts)
    return vc.validate_cloud(pts, planes, masses, d)


class TestNeighborQuery:
    def test_modes_are_exclusive(self):
        with pytest.raises(InvalidInputError):
            NeighborQuery(mode="radius", epsilon=0.1, k=5)
        with pytest.raises(InvalidInputError):
            NeighborQuery(mode="knn")
        with pytest.raises(InvalidInputError):
            NeighborQuery(mode="cube", epsilon=0.1)

    def test_knn_resolution_margin(self):
        cloud = line_cloud([0.0, 1.0, 2.0, 3.0])
        index = NeighborIndex(cloud.positions)
        query = NeighborQuery.knn(2)
        assert query.margin == 0.2
        indices, eps = index.resolve_all(query)
        # second neighbor (self excluded) at 2, 1, 1, 2; radius 1.2 times that
        assert eps == pytest.approx([2.4, 1.2, 1.2, 2.4])
        assert [set(ix) for ix in indices] == [
            {0, 1, 2}, {0, 1, 2}, {1, 2, 3}, {1, 2, 3}
        ]


class TestVariationTensor:
    def test_symmetric_pair_cancels(self):
        # neighbors in +/- pairs with equal masses and planes: odd symmetry
        cloud = line_cloud([-0.4, 0.0, 0.4])
        beta = vc.variation_tensor(cloud, 1, pair_for(1, 2), 1.0,
                                   idx=ball(cloud, cloud.positions[1], 1.0))
        assert np.max(np.abs(beta)) == 0.0

    def test_two_point_hand_evaluation(self):
        # single neighbor at distance t along e1, planes e1 x e1:
        # the only nonzero entry is (0,0,0); with the paired mass profile
        # the kernel ratio collapses and beta_000 = 1/t independent of eps
        t_dist, eps = 0.3, 0.8
        cloud = line_cloud([0.0, t_dist])
        kp = pair_for(1, 2)
        rho_d = float(kp.rho.deriv(t_dist / eps))
        xi_v = float(kp.xi.eval(t_dist / eps))
        by_hand = (1.0 / 2.0) * (1.0 / eps) * (-rho_d) / xi_v
        beta = vc.variation_tensor(cloud, 0, kp, eps,
                                   idx=ball(cloud, cloud.positions[0], eps))
        assert beta[0, 0, 0] == pytest.approx(by_hand, rel=1e-12)
        assert beta[0, 0, 0] == pytest.approx(1.0 / t_dist, rel=1e-12)
        others = beta.copy()
        others[0, 0, 0] = 0.0
        assert np.all(others == 0.0)

    def test_isolated_point_raises(self):
        cloud = line_cloud([0.0, 10.0])
        with pytest.raises(IsolatedPointError):
            vc.variation_tensor(cloud, 0, pair_for(1, 2), 0.5,
                                idx=ball(cloud, cloud.positions[0], 0.5))

    def test_exact_jk_symmetry(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng)
        beta = vc.variation_tensor(cloud, 0, pair_for(2, 3), 0.6,
                                   idx=ball(cloud, cloud.positions[0], 0.6))
        assert np.max(np.abs(beta - beta.transpose(0, 2, 1))) == 0.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, n_pts=150)
        kp = pair_for(2, 3)
        beta = vc.variation_tensor(cloud, 7, kp, 0.6,
                                   idx=ball(cloud, cloud.positions[7], 0.6))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        rot_planes = np.einsum("ab,lbc,dc->lad", q, cloud.planes, q)
        rot_cloud = vc.validate_cloud(
            cloud.positions @ q.T, rot_planes, cloud.masses, 2
        )
        beta_rot = vc.variation_tensor(rot_cloud, 7, kp, 0.6,
                                       idx=ball(rot_cloud, rot_cloud.positions[7], 0.6))
        expected = np.einsum("ai,bj,ck,ijk->abc", q, q, q, beta)
        assert np.allclose(beta_rot, expected, atol=1e-9)


class TestMeanCurvature:
    def test_zero_for_zero_tensor(self):
        h = mean_curvature_vector(np.zeros((3, 3, 3)))
        assert np.all(h == 0)

    def test_trace_identity_checked(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng)
        beta = vc.variation_tensor(cloud, 0, pair_for(2, 3), 0.7,
                                   idx=ball(cloud, cloud.positions[0], 0.7))
        h = mean_curvature_vector(beta, dim_d=2)
        assert np.allclose(np.einsum("iqq->i", beta), 2 * h, atol=1e-10)

    def test_dense_circle_mean_curvature(self):
        # dense regular circle: |H| -> 1/R pointing inward
        cloud = circle_cloud(4000, radius=2.0)
        kp = pair_for(1, 2)
        beta = vc.variation_tensor(cloud, 0, kp, 0.15,
                                   idx=ball(cloud, cloud.positions[0], 0.15))
        h = mean_curvature_vector(beta, dim_d=1)
        x0 = cloud.positions[0]
        inward = -x0 / np.linalg.norm(x0)
        assert np.linalg.norm(h) == pytest.approx(0.5, rel=0.01)
        assert h @ inward / np.linalg.norm(h) > 0.999


class TestDirectionMatrix:
    def test_constant_planes(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-0.5, 0.5, (50, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        p = q @ q.T
        planes = np.broadcast_to(p, (50, 3, 3)).copy()
        cloud = vc.validate_cloud(pts, planes, np.ones(50), 2)
        c = smoothed_direction_matrix(cloud, pts[0], pair_for(2, 3), 0.7,
                                      idx=ball(cloud, pts[0], 0.7))
        assert np.allclose(c, p, atol=1e-12)

    def test_two_point_average(self):
        pts = np.array([[0.2, 0.0], [-0.2, 0.0]])
        planes = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        cloud = vc.validate_cloud(pts, planes, [1.0, 1.0], 1)
        c = smoothed_direction_matrix(cloud, [0.0, 0.0], pair_for(1, 2), 1.0,
                                      idx=ball(cloud, [0.0, 0.0], 1.0))
        assert np.allclose(c, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_is_d(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng)
        x = cloud.positions[3]
        c = smoothed_direction_matrix(cloud, x, pair_for(2, 3), 0.8,
                                      idx=ball(cloud, x, 0.8))
        assert np.trace(c) == pytest.approx(2.0, abs=1e-10)


class TestCurvatureTensors:
    def test_zero_variations_give_zero(self):
        cloud = line_cloud([-0.4, 0.0, 0.4])
        kp = pair_for(1, 2)
        a = curvature_tensor(cloud, 1, kp, 1.0,
                             idx=ball(cloud, cloud.positions[1], 1.0))
        assert np.max(np.abs(a)) == 0.0

    def test_solver_trace_identity(self):
        rng = np.random.default_rng(19)
        cloud = random_cloud(rng)
        kp = pair_for(2, 3)
        idx = ball(cloud, cloud.positions[0], 0.8)
        a = curvature_tensor(cloud, 0, kp, 0.8, idx=idx)
        beta = vc.variation_tensor(cloud, 0, kp, 0.8, idx=idx)
        c = smoothed_direction_matrix(cloud, cloud.positions[0], kp, 0.8,
                                      idx=idx)
        h = mean_curvature_vector(beta)
        g = np.linalg.solve(np.eye(3) + c, h)
        assert np.allclose(np.einsum("qiq->i", a), g, atol=1e-10)

    def test_closed_form_agreement(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng)
        kp = pair_for(2, 3)
        idx = ball(cloud, cloud.positions[5], 0.8)
        a = curvature_tensor(cloud, 5, kp, 0.8, idx=idx)
        beta = vc.variation_tensor(cloud, 5, kp, 0.8, idx=idx)
        c = smoothed_direction_matrix(cloud, cloud.positions[5], kp, 0.8,
                                      idx=idx)
        h = np.einsum("qiq->i", beta)
        closed = beta - np.einsum("jk,i->ijk", c,
                                  np.linalg.solve(np.eye(3) + c, h))
        assert np.max(np.abs(a - closed)) < 1e-12

    def test_dense_circle_tensor_convergence(self):
        # averaged-direction tensor approaches the circle's classical
        # gradient-form tensor as the scale shrinks (dense regular sample)
        cloud = circle_cloud(20000)
        circ = vc.Circle(1.0)
        kp = pair_for(1, 2)
        exact = circ.gradient_tensor(cloud.positions[0])
        gaps = []
        for eps in (0.2, 0.1, 0.05):
            a = curvature_tensor(cloud, 0, kp, eps,
                                 idx=ball(cloud, cloud.positions[0], eps))
            gaps.append(np.max(np.abs(a - exact)))
        assert gaps[0] < 0.03
        assert gaps[2] < 0.002
        assert gaps[0] > 3.0 * gaps[1] > 9.0 * gaps[2]

    def test_orthogonal_identities(self):
        rng = np.random.default_rng(29)
        cloud = random_cloud(rng, n_pts=300)
        kp = pair_for(2, 3)
        for l0 in (0, 50, 100):
            idx = ball(cloud, cloud.positions[l0], 0.7)
            a_perp = orthogonal_curvature_tensor(cloud, l0, kp, 0.7, idx=idx)
            beta = vc.variation_tensor(cloud, l0, kp, 0.7, idx=idx)
            h = mean_curvature_vector(beta)
            p0 = cloud.planes[l0]
            scale = 1.0 + np.max(np.abs(beta))
            assert np.max(np.abs(np.einsum("iqq->i", a_perp))) <= 1e-10 * scale
            lhs = np.einsum("qiq->i", a_perp)
            rhs = (np.eye(3) - p0) @ h
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_equal_planes_make_orthogonal_sff_vanish(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(-0.5, 0.5, (60, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        p = q @ q.T
        planes = np.broadcast_to(p, (60, 3, 3)).copy()
        cloud = vc.validate_cloud(pts, planes, np.ones(60), 2)
        b = vc.orthogonal_sff(cloud, 0, pair_for(2, 3), 0.9,
                              idx=ball(cloud, pts[0], 0.9))
        assert np.max(np.abs(b)) == 0.0

    def test_two_path_equality(self):
        rng = np.random.default_rng(37)
        kp = pair_for(2, 3)
        for _ in range(10):
            cloud = random_cloud(rng, n_pts=120)
            idx = ball(cloud, cloud.positions[3], 0.8)
            direct = vc.orthogonal_sff(cloud, 3, kp, 0.8, idx=idx)
            a_perp = orthogonal_curvature_tensor(cloud, 3, kp, 0.8, idx=idx)
            converted = vc.to_bilinear_form(a_perp)
            assert np.max(np.abs(direct - converted)) < 1e-12


class TestRestriction:
    def test_codimension_guard(self):
        b = np.zeros((4, 4, 4))
        plane = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(CodimensionError):
            restrict_to_tangent(b, plane)

    def test_principal_curvature_values(self):
        bbar = np.diag([2.0, -1.0])
        basis = np.eye(3)[:, :2]
        normal = np.array([0.0, 0.0, 1.0])
        kappas, dirs, gauss, abs_sum = principal_curvatures(bbar, basis, normal)
        assert np.allclose(kappas, [2.0, -1.0])
        assert gauss == pytest.approx(-2.0)
        assert abs_sum == pytest.approx(3.0)
        assert np.allclose(np.abs(dirs), np.eye(3)[:2])

    def test_zero_matrix(self):
        kappas, _, gauss, abs_sum = principal_curvatures(
            np.zeros((2, 2)), np.eye(3)[:, :2], np.array([0.0, 0.0, 1.0])
        )
        assert np.all(kappas == 0)
        assert gauss == 0.0

    def test_gauss_invariant_under_normal_flip(self):
        rng = np.random.default_rng(41)
        sample = vc.Sphere(1.0).sample(800, seed=2)
        cloud = sample.cloud
        kp = pair_for(2, 3)
        b = vc.orthogonal_sff(cloud, 10, kp, 0.4,
                              idx=ball(cloud, cloud.positions[10], 0.4))
        plane = cloud.planes[10]
        bbar, basis, normal = restrict_to_tangent(b, plane)
        k1, _, g1, s1 = principal_curvatures(bbar, basis, normal)
        bbar2, _, _ = restrict_to_tangent(b, plane, normal=-normal, basis=basis)
        k2, _, g2, s2 = principal_curvatures(bbar2, basis, -normal)
        assert g1 == pytest.approx(g2, rel=1e-12)
        assert s1 == pytest.approx(s2, rel=1e-12)
        assert np.allclose(np.sort(k1), np.sort(-k2))


class TestPointPipeline:
    def test_sphere_point(self):
        sample = vc.Sphere(1.0).sample(4000, seed=5)
        indices, eps = NeighborIndex(sample.cloud.positions).resolve_all(
            NeighborQuery.knn(40)
        )
        pc = point_curvature(sample.cloud, 0, scale=eps[0], idx=indices[0])
        kappas = pc.kappas if pc.kappas.sum() > 0 else -pc.kappas[::-1]
        assert np.allclose(kappas, [1.0, 1.0], atol=0.12)

    def test_scaling_halves_curvatures(self):
        sample = vc.Sphere(1.0).sample(2000, seed=7)
        cloud = sample.cloud
        eps = 0.3
        pc1 = point_curvature(cloud, 0, scale=eps,
                              idx=ball(cloud, cloud.positions[0], eps))
        scaled = vc.validate_cloud(
            cloud.positions * 2.0, cloud.planes, cloud.masses, 2
        )
        pc2 = point_curvature(scaled, 0, scale=2 * eps,
                              idx=ball(scaled, scaled.positions[0], 2 * eps))
        assert np.allclose(pc2.kappas, 0.5 * pc1.kappas, atol=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(43)
        sample = vc.Sphere(1.0).sample(2000, seed=9)
        cloud = sample.cloud
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        shift = rng.standard_normal(3)
        moved = vc.validate_cloud(
            cloud.positions @ q.T + shift,
            np.einsum("ab,lbc,dc->lad", q, cloud.planes, q),
            cloud.masses, 2,
        )
        eps = 0.25
        for l0 in (0, 11, 500):
            k_a = point_curvature(cloud, l0, scale=eps,
                                  idx=ball(cloud, cloud.positions[l0], eps)).kappas
            k_b = point_curvature(moved, l0, scale=eps,
                                  idx=ball(moved, moved.positions[l0], eps)).kappas
            if k_a.sum() * k_b.sum() < 0:
                k_b = -k_b[::-1]
            assert np.allclose(k_a, k_b, atol=1e-9)


class TestContinuumOracle:
    def test_circle_matches_quadrature(self):
        # independent oracle: evaluate the smoothed restricted form for the
        # continuum unit circle by adaptive quadrature over arclength, then
        # compare with the dense regular-circle estimate at the same scale
        # (the periodic lattice sum matches the integral to machine noise)
        from scipy.integrate import quad

        eps = 0.15
        rho = vc.bump_profile()
        xi = paired_mass_profile(rho, 2)
        half = 2.0 * np.arcsin(eps / 2.0)

        def r_of(th):
            return 2.0 * np.sin(np.abs(th) / 2.0)

        def num_component(i, j, k):
            def f(th):
                r = r_of(th)
                if r <= 0.0 or r >= eps:
                    return 0.0
                y = np.array([np.cos(th), np.sin(th)])
                t = np.array([-np.sin(th), np.cos(th)])
                proj = np.outer(t, t)
                pu = proj @ ((np.array([1.0, 0.0]) - y) / r)
                return float(rho.deriv(r / eps)) * pu[i] * proj[j, k]

            val, _ = quad(f, -half, half, limit=200, epsabs=1e-13)
            return val

        den, _ = quad(lambda th: float(xi.eval(r_of(th) / eps)),
                      -half, half, limit=200, epsabs=1e-13)
        beta = np.array([[[num_component(i, j, k) for k in range(2)]
                          for j in range(2)] for i in range(2)])
        beta *= (1.0 / 2.0) / (eps * den)
        h = np.einsum("qiq->i", beta)
        p0 = np.diag([0.0, 1.0])
        a_perp = beta - np.einsum("jk,i->ijk", p0, h)
        b_form = vc.to_bilinear_form(a_perp)
        scalar = np.einsum("ijk,k->ij", b_form, np.array([1.0, 0.0]))
        kappa_cont = scalar[1, 1]

        cloud = circle_cloud(20000)
        pc = point_curvature(cloud, 0, scale=eps,
                             idx=ball(cloud, cloud.positions[0], eps))
        assert pc.kappas[0] == pytest.approx(kappa_cont, abs=1e-10)
        # the smoothed curvature of the unit circle carries the intrinsic
        # quadratic-in-eps shrinkage of the kernel average
        assert abs(kappa_cont) == pytest.approx(0.992027081, abs=1e-8)


def sphere_with_outlier():
    """300 sphere points plus one far point that has no neighbors at 0.5."""
    sample = vc.Sphere(1.0).sample(300, seed=1)
    positions = np.vstack([sample.cloud.positions, [[50.0, 0.0, 0.0]]])
    planes = np.vstack([sample.cloud.planes,
                        [np.diag([0.0, 1.0, 1.0])]])
    masses = np.append(sample.cloud.masses, 1.0)
    return vc.validate_cloud(positions, planes, masses, 2)


class TestReport:
    def test_isolated_point_flagged(self):
        cloud = sphere_with_outlier()
        rep = curvature_report(cloud, NeighborQuery.radius(0.5))
        assert rep.status[-1] == STATUS_ISOLATED
        assert np.all(np.isnan(rep.kappas[-1]))
        assert rep.n_warnings == 1

    def test_averaged_variant_checks_direction_matrix_once_per_point(self):
        # one PSD check per non-isolated point, inside solve_curvature_system
        cloud = sphere_with_outlier()
        real_check = tensors.direction_matrix
        calls = []

        def counting_check(mat):
            calls.append(mat)
            return real_check(mat)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensors, "direction_matrix", counting_check)
            rep = curvature_report(cloud, NeighborQuery.radius(0.5),
                                   variant="averaged")
        assert rep.status[-1] == STATUS_ISOLATED
        assert len(calls) == int(np.sum(rep.status != STATUS_ISOLATED)) == 300

    def test_deterministic_rerun(self):
        sample = vc.Sphere(1.0).sample(1000, seed=3)
        rep1 = curvature_report(sample.cloud, NeighborQuery.knn(20))
        rep2 = curvature_report(sample.cloud, NeighborQuery.knn(20))
        assert np.array_equal(rep1.kappas, rep2.kappas)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4, 6, 10]),
        eps=st.floats(0.35, 0.9),
        kernel=st.sampled_from(["bump", "tent"]),
    )
    def test_one_sum_per_point_matches_reference_sff(self, seed, n, eps, kernel):
        cloud = random_cloud(np.random.default_rng(seed), n_pts=80, n=n, d=n - 1)
        kp = kernel_pair_by_name(kernel, n - 1, n)
        # 80 uniform points in [-0.5, 0.5]^n drift apart as n grows, so the
        # radius grows with sqrt(n) past n = 4 to keep most points non-isolated
        radius = eps * np.sqrt(n / 2) if n > 4 else eps
        query = NeighborQuery.radius(radius)
        real_sums = estimator._local_sums
        reports = {}
        for variant in ("orthogonal", "averaged"):
            calls = []

            def counting_sums(cloud, l0, *args):
                calls.append(l0)
                return real_sums(cloud, l0, *args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "_local_sums", counting_sums)
                reports[variant] = curvature_report(cloud, query, kp, variant=variant)
            assert calls == list(range(cloud.n_points)), variant

        # reference: restrict the independently summed orthogonal_sff
        rep = reports["orthogonal"]
        indices, _ = NeighborIndex(cloud.positions).resolve_all(query)
        normals, bases = plane_frames(cloud.planes)
        rows = np.nonzero(rep.status != STATUS_ISOLATED)[0]
        assert rows.size > 0
        for l0 in rows:
            b = vc.orthogonal_sff(cloud, l0, kp, radius, idx=indices[l0])
            restricted, _, _ = restrict_to_tangent(
                b, cloud.planes[l0], normal=normals[l0], basis=bases[l0]
            )
            kappas, _, _, _ = principal_curvatures(
                restricted, bases[l0], normals[l0]
            )
            scale = 1.0 + np.max(np.abs(b))
            assert np.max(np.abs(rep.kappas[l0] - kappas)) <= 1e-12 * scale

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pts=st.integers(300, 600),
        shape=st.sampled_from(["sphere", "torus"]),
    )
    def test_point_order_permutes_rows(self, seed, n_pts, shape):
        cloud = shape_by_name(shape).sample(n_pts, seed=seed % 2**16).cloud
        perm = np.random.default_rng(seed).permutation(n_pts)
        shuffled = vc.validate_cloud(
            cloud.positions[perm], cloud.planes[perm], cloud.masses[perm], 2
        )
        query = NeighborQuery.knn(20)
        for variant in ("orthogonal", "averaged"):
            rep = curvature_report(cloud, query, variant=variant)
            moved = curvature_report(shuffled, query, variant=variant)
            assert np.array_equal(moved.status, rep.status[perm]), variant
            tol = 1e-12 * (1.0 + np.nanmax(np.abs(rep.kappas)))
            assert np.allclose(moved.kappas, rep.kappas[perm], rtol=0, atol=tol,
                               equal_nan=True), variant
            assert np.allclose(moved.mean_vectors, rep.mean_vectors[perm], rtol=0,
                               atol=tol, equal_nan=True), variant

    def test_codimension_guard(self):
        cloud = line_cloud([0.0, 0.1, 0.2], n=3)
        with pytest.raises(CodimensionError):
            curvature_report(cloud, NeighborQuery.knn(2))


class TestTangentEstimation:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        est = estimate_tangent_planes(pts, NeighborQuery.knn(2), 1)
        t = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(est.planes[0], np.outer(t, t), atol=1e-12)

    def test_coplanar_points(self):
        rng = np.random.default_rng(47)
        pts = np.column_stack([rng.uniform(-1, 1, (40, 2)), np.zeros(40)])
        est = estimate_tangent_planes(pts, NeighborQuery.knn(10), 2)
        assert np.allclose(est.planes, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_sphere_estimate_improves_with_density(self):
        errs = {}
        for n_pts in (2500, 10000):
            sample = vc.Sphere(1.0).sample(n_pts, seed=11)
            est = estimate_tangent_planes(
                sample.cloud.positions, NeighborQuery.knn(40), 2
            )
            diffs = np.linalg.norm(
                est.planes - sample.cloud.planes, ord=2, axis=(1, 2)
            )
            errs[n_pts] = np.median(diffs)
        assert errs[10000] <= 0.1
        assert errs[10000] < errs[2500]

    def test_degenerate_neighborhood(self):
        pts = np.zeros((5, 3))
        pts[:, 0] = np.arange(5.0)
        with pytest.raises(DegenerateNeighborhoodError) as err:
            estimate_tangent_planes(pts, NeighborQuery.knn(3), 2)
        assert err.value.index == 0

    def test_ambiguous_flag_on_isotropic_data(self):
        rng = np.random.default_rng(53)
        sample = vc.Sphere(1.0).sample(1500, seed=13)
        est = estimate_tangent_planes(
            sample.cloud.positions, NeighborQuery.knn(30), 2
        )
        assert not est.ambiguous.all()


class TestMassEstimation:
    def test_grid_masses(self):
        # interior points of a unit-spacing line: ball with 3 points has
        # radius h, mass = omega_1 h / 3 = 2h/3
        h = 0.25
        pts = np.arange(10.0)[:, None] * h
        masses = estimate_masses(pts, 3, 1)
        assert masses[5] == pytest.approx(2.0 * h / 3.0)

    def test_uniform_mode(self):
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        assert np.all(estimate_masses(pts, 3, 1, mode="uniform") == 1.0)

    def test_simplified_mode(self):
        h = 0.5
        pts = np.arange(6.0)[:, None] * h
        masses = estimate_masses(pts, 2, 1, mode="rd")
        assert masses[2] == pytest.approx(h)

    def test_nmass_one_zero_radius(self):
        pts = np.arange(5.0)[:, None]
        with pytest.raises(ZeroRadiusError):
            estimate_masses(pts, 1, 1)

    def test_duplicates_zero_radius(self):
        pts = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ZeroRadiusError):
            estimate_masses(pts, 2, 1)

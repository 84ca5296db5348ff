import copy
import dataclasses
import gc
import math
import re
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import varicurv as vc
from varicurv import estimator, tensors
from varicurv.errors import InvalidInputError, VaricurvError
from varicurv.estimator import (
    REPORT_BLOCK,
    REPORT_CALL,
    RESOLVE_CHUNK,
    STATUS_AMBIGUOUS,
    STATUS_ISOLATED,
    STATUS_OK,
    CurvatureReport,
    NeighborIndex,
    NeighborQuery,
    curvature_report,
    estimate_masses,
    estimate_tangent_planes,
    mean_curvature_vector,
    orthogonal_sff,
    point_curvature,
    smoothed_direction_matrix,
)
from varicurv.kernels import kernel_pair_by_name, paired_mass_profile, unit_ball_volume
from varicurv.shapes import SHAPES

from system_reference import (
    ball,
    curvature_tensor,
    one_row,
    orthogonal_curvature_tensor,
    plane_frames,
    reference_curvatures,
    reference_report,
    reference_tangent_planes,
    to_gradient_form,
)


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
        # the mode is the one of epsilon and k that is given
        with pytest.raises(InvalidInputError, match="exactly one of epsilon and k, "
                           "got epsilon=0.1 and k=5"):
            NeighborQuery(epsilon=0.1, k=5)
        with pytest.raises(InvalidInputError, match="exactly one of epsilon and k, "
                           "got epsilon=None and k=None"):
            NeighborQuery()
        assert NeighborQuery(epsilon=0.1).mode == "radius"
        assert NeighborQuery(k=5).mode == "knn"

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, 0.0, -0.1])
    def test_radius_must_be_positive_and_finite(self, epsilon):
        # a NaN passes an epsilon <= 0 test; it used to leave every point
        # isolated, and inf ran into an invalid multiply
        with pytest.raises(InvalidInputError,
                           match=f"0 < epsilon < inf and no k, got epsilon={epsilon}"):
            NeighborQuery.radius(epsilon)

    @pytest.mark.parametrize("make", [lambda k: NeighborQuery(k=k), NeighborQuery.knn])
    def test_k_must_be_an_integer(self, make):
        # k = 2.5 used to end in an IndexError inside resolve_all, and knn
        # truncated it to 2; a NumPy integer is an integer and is stored as
        # an int
        for k in (2.5, np.float64(40.0), "40"):
            with pytest.raises(InvalidInputError,
                               match=f"^k = {re.escape(repr(k))} is not an integer$"):
                make(k)
        query = make(np.int64(3))
        assert query.k == 3 and type(query.k) is int

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

    def test_knn_needs_fewer_neighbors_than_points(self):
        # a point of N has N - 1 others: k = N - 1 lists the whole cloud,
        # and k >= N is refused rather than read from the last column
        index = NeighborIndex(line_cloud([0.0, 1.0, 2.0, 3.0]).positions)
        indices, eps = index.resolve_all(NeighborQuery.knn(3))
        assert eps == pytest.approx([3.6, 2.4, 2.4, 3.6])
        assert [ix.tolist() for ix in indices] == [[0, 1, 2, 3]] * 4
        for k in (4, 500):
            with pytest.raises(InvalidInputError, match=f"^k = {k} is outside 1..3: "
                               "each of the 4 points has 3 others$"):
                index.resolve_all(NeighborQuery.knn(k))


def ball_lists(positions, eps):
    """Each point's sorted neighbor list: the tree's unsorted ball query,
    sorted here."""
    raw = cKDTree(positions).query_ball_point(positions, eps, return_sorted=False)
    return [np.sort(np.asarray(ix, dtype=np.intp)) for ix in raw]


def lattice(side, n, h):
    """The side^n grid of spacing h in R^n."""
    axes = np.meshgrid(*[np.arange(side) * h] * n, indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


def clustered_cloud(rng, n_pts, n):
    """Tight uniform clusters far apart.  The ball of (1 + margin) times the
    k-th neighbor distance holds about (1 + margin)^n (k + 1) points there on
    average, so many rows hold more than that and fill their k-nearest
    window."""
    centers = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 9)), n))
    pts = centers[rng.integers(0, len(centers), n_pts)]
    return pts + 0.01 * rng.uniform(-1.0, 1.0, pts.shape)


class CountingTree:
    """A kd-tree that records each query: ("query", rows) or
    ("ball", query points)."""

    def __init__(self, tree):
        self.tree = tree
        self.calls = []

    def query(self, x, **kwargs):
        self.calls.append(("query", len(x)))
        return self.tree.query(x, **kwargs)

    def query_ball_point(self, x, r, **kwargs):
        self.calls.append(("ball", np.array(x)))
        return self.tree.query_ball_point(x, r, **kwargs)


def counted_resolve(pts, query):
    index = NeighborIndex(pts)
    index.tree = tree = CountingTree(index.tree)
    return index.resolve_all(query), tree.calls


class TestResolveAll:
    @settings(max_examples=60, deadline=None)
    # neighbors a few ulps either side of eps: the ball test and the
    # rounded k-nearest distances disagree on 20 rows here
    @example(seed=0, n=2, kind="lattice", mode="knn", beyond_block=False,
             side=40, h=1.0, ratio=1.0, k=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        kind=st.sampled_from(["random", "lattice", "duplicates", "clustered"]),
        mode=st.sampled_from(["radius", "knn"]),
        beyond_block=st.booleans(),
        side=st.integers(2, 40),
        h=st.sampled_from([1.0, 0.5, 0.1, 0.3]),
        ratio=st.sampled_from([1.0, 2.0, np.sqrt(2.0)]),
        k=st.integers(1, 100),
    )
    def test_lists_match_ball_query(self, seed, n, kind, mode, beyond_block,
                                    side, h, ratio, k):
        rng = np.random.default_rng(seed)
        if kind == "lattice":
            # spacing h: neighbors sit exactly at radius h, 2h, h*sqrt(2), ...
            # at most 5000 points, past one query block at n = 3, 4
            pts = lattice(min(side, int(5000 ** (1 / n))), n, h)
            radius = h * ratio
        else:
            n_pts = RESOLVE_CHUNK + 300 if beyond_block else int(rng.integers(2, 300))
            radius = float(rng.uniform(0.05, 1.0))
            if kind == "clustered":
                pts = clustered_cloud(rng, n_pts, n)
                radius *= 0.02  # about a cluster's size
            else:
                # past one query block, at most the density of 300 points
                scale = max(1.0, n_pts / 300) ** (1 / n)
                pts = rng.uniform(-1.0, 1.0, (n_pts, n)) * scale
            if kind == "duplicates":
                pts = np.vstack([pts, pts[rng.integers(0, len(pts), len(pts) // 2)]])
        k = min(k, len(pts) - 1)
        if mode == "knn":
            query = NeighborQuery.knn(k)
        else:
            query = NeighborQuery.radius(radius)
        indices, eps = NeighborIndex(pts).resolve_all(query)
        expected = ball_lists(pts, eps)
        assert len(indices) == len(expected) == len(pts)
        for got, want in zip(indices, expected):
            assert got.dtype == np.intp
            assert np.array_equal(got, want)
        if mode == "knn":
            kth = cKDTree(pts).query(pts, k=k + 1)[0][:, -1]
            assert eps.tobytes() == (1.2 * kth).tobytes()

    def test_one_tree_walk_per_block(self):
        # a jittered grid sheet in R^3 past two blocks: every ball fits the
        # k-nearest window of its row
        rng = np.random.default_rng(4)
        pts = np.zeros((72 * 72, 3))
        pts[:, :2] = lattice(72, 2, 0.02)
        pts += 0.002 * rng.uniform(-1.0, 1.0, pts.shape)
        assert len(pts) > 2 * RESOLVE_CHUNK
        (indices, eps), calls = counted_resolve(pts, NeighborQuery.knn(40))
        blocks = [RESOLVE_CHUNK, RESOLVE_CHUNK, len(pts) - 2 * RESOLVE_CHUNK]
        assert calls == [("query", rows) for rows in blocks]
        assert all(np.array_equal(a, b) for a, b in zip(indices, ball_lists(pts, eps)))

    def test_ball_calls_only_for_rows_past_their_window(self):
        rng = np.random.default_rng(6)
        pts = clustered_cloud(rng, RESOLVE_CHUNK + 300, 3)
        k = 10
        (indices, eps), calls = counted_resolve(pts, NeighborQuery.knn(k))
        width = math.ceil(1.2**3 * (k + 1))
        dist = cKDTree(pts).query(pts, k=width)[0]
        full = dist[:, -1] <= eps
        assert 0 < full.sum() < len(pts) // 2
        balls = [x for name, x in calls if name == "ball"]
        assert len(balls) == 1 and np.array_equal(balls[0], pts[full])
        # one walk per block, then one ball query for the rows past their window
        assert [name for name, _ in calls] == ["query", "query", "ball"]
        assert all(np.array_equal(a, b) for a, b in zip(indices, ball_lists(pts, eps)))


class TestVariationTensor:
    def test_symmetric_pair_cancels(self):
        # neighbors in +/- pairs with equal masses and planes: odd symmetry
        cloud = line_cloud([-0.4, 0.0, 0.4])
        beta = one_row(vc.variation_tensor, cloud, 1, pair_for(1, 2), 1.0,
                       ball(cloud, cloud.positions[1], 1.0))
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
        beta = one_row(vc.variation_tensor, cloud, 0, kp, eps,
                       ball(cloud, cloud.positions[0], eps))
        assert beta[0, 0, 0] == pytest.approx(by_hand, rel=1e-12)
        assert beta[0, 0, 0] == pytest.approx(1.0 / t_dist, rel=1e-12)
        others = beta.copy()
        others[0, 0, 0] = 0.0
        assert np.all(others == 0.0)

    def test_isolated_point_raises(self):
        # an isolated point is a flagged NaN row, not an exception
        cloud = line_cloud([0.0, 10.0])
        idx = ball(cloud, cloud.positions[0], 0.5)
        beta = one_row(vc.variation_tensor, cloud, 0, pair_for(1, 2), 0.5, idx)
        assert np.all(np.isnan(beta))
        pc = point_curvature(cloud, [0], pair_for(1, 2), scale=0.5, idx=idx,
                             counts=[idx.size])
        assert pc.status.tolist() == [STATUS_ISOLATED]
        assert np.all(np.isnan(pc.kappas[0])) and np.all(np.isnan(pc.a_perp[0]))

    def test_exact_jk_symmetry(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng)
        beta = one_row(vc.variation_tensor, cloud, 0, pair_for(2, 3), 0.6,
                       ball(cloud, cloud.positions[0], 0.6))
        assert np.max(np.abs(beta - beta.transpose(0, 2, 1))) == 0.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, n_pts=150)
        kp = pair_for(2, 3)
        beta = one_row(vc.variation_tensor, cloud, 7, kp, 0.6,
                       ball(cloud, cloud.positions[7], 0.6))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        rot_planes = np.einsum("ab,lbc,dc->lad", q, cloud.planes, q)
        rot_cloud = vc.validate_cloud(
            cloud.positions @ q.T, rot_planes, cloud.masses, 2
        )
        beta_rot = one_row(vc.variation_tensor, rot_cloud, 7, kp, 0.6,
                           ball(rot_cloud, rot_cloud.positions[7], 0.6))
        expected = np.einsum("ai,bj,ck,ijk->abc", q, q, q, beta)
        assert np.allclose(beta_rot, expected, atol=1e-9)


class TestMeanCurvature:
    def test_zero_for_zero_tensor(self):
        h = mean_curvature_vector(np.zeros((3, 3, 3)))
        assert np.all(h == 0)

    def test_trace_identity_checked(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng)
        beta = one_row(vc.variation_tensor, cloud, 0, pair_for(2, 3), 0.7,
                       ball(cloud, cloud.positions[0], 0.7))
        h = mean_curvature_vector(beta, dim_d=2)
        assert np.allclose(np.einsum("iqq->i", beta), 2 * h, atol=1e-10)

    def test_dense_circle_mean_curvature(self):
        # dense regular circle: |H| -> 1/R pointing inward
        cloud = circle_cloud(4000, radius=2.0)
        kp = pair_for(1, 2)
        beta = one_row(vc.variation_tensor, cloud, 0, kp, 0.15,
                       ball(cloud, cloud.positions[0], 0.15))
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
        c = one_row(smoothed_direction_matrix, cloud, pts[0], pair_for(2, 3), 0.7,
                    ball(cloud, pts[0], 0.7))
        assert np.allclose(c, p, atol=1e-12)

    def test_two_point_average(self):
        pts = np.array([[0.2, 0.0], [-0.2, 0.0]])
        planes = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        cloud = vc.validate_cloud(pts, planes, [1.0, 1.0], 1)
        c = one_row(smoothed_direction_matrix, cloud, [0.0, 0.0], pair_for(1, 2), 1.0,
                    ball(cloud, [0.0, 0.0], 1.0))
        assert np.allclose(c, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_is_d(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng)
        x = cloud.positions[3]
        c = one_row(smoothed_direction_matrix, cloud, x, pair_for(2, 3), 0.8,
                    ball(cloud, x, 0.8))
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
        beta = one_row(vc.variation_tensor, cloud, 0, kp, 0.8, idx)
        c = one_row(smoothed_direction_matrix, cloud, cloud.positions[0], kp, 0.8, idx)
        h = mean_curvature_vector(beta)
        g = np.linalg.solve(np.eye(3) + c, h)
        assert np.allclose(np.einsum("qiq->i", a), g, atol=1e-10)

    def test_closed_form_agreement(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng)
        kp = pair_for(2, 3)
        idx = ball(cloud, cloud.positions[5], 0.8)
        a = curvature_tensor(cloud, 5, kp, 0.8, idx=idx)
        beta = one_row(vc.variation_tensor, cloud, 5, kp, 0.8, idx)
        c = one_row(smoothed_direction_matrix, cloud, cloud.positions[5], kp, 0.8, idx)
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
        exact = circ.gradient_tensor(cloud.positions[:1])[0]
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
            beta = one_row(vc.variation_tensor, cloud, l0, kp, 0.7, idx)
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
        b = one_row(orthogonal_sff, cloud, 0, pair_for(2, 3), 0.9,
                    ball(cloud, pts[0], 0.9))
        assert np.max(np.abs(b)) == 0.0

    def test_two_path_equality(self):
        rng = np.random.default_rng(37)
        kp = pair_for(2, 3)
        for _ in range(10):
            cloud = random_cloud(rng, n_pts=120)
            idx = ball(cloud, cloud.positions[3], 0.8)
            direct = one_row(orthogonal_sff, cloud, 3, kp, 0.8, idx)
            a_perp = orthogonal_curvature_tensor(cloud, 3, kp, 0.8, idx=idx)
            converted = vc.to_bilinear_form(a_perp)
            assert np.max(np.abs(direct - converted)) < 1e-12


def tails(b):
    """(kappas, directions) of the bilinear form ``b`` (3, 3, 3) at a point
    whose plane is z = 0, from the engine's tail and from the reference's."""
    cloud = vc.validate_cloud(np.zeros((1, 3)), np.diag([1.0, 1.0, 0.0])[None],
                              np.ones(1), 2)
    rep = estimator._variant_report(cloud, np.array([0]), np.ones(1),
                                    np.zeros((1, 3)), np.array([True]),
                                    to_gradient_form(b)[None])
    normal, basis = cloud.normals[0, :, 0], cloud.bases[0]
    return {"engine": (rep.kappas[0], rep.directions[0]),
            "reference": reference_curvatures(b, normal, basis)}


class TestRestriction:
    def test_codimension_guard(self):
        # the chunk engine refuses d != n - 1 before any sum, so its tail
        # needs no guard of its own (TestReport has curvature_report's)
        cloud = random_cloud(np.random.default_rng(3), n_pts=30, n=4, d=2)
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(5))
        with pytest.raises(InvalidInputError,
                           match="point_curvature needs codimension 1"):
            point_curvature(cloud, [0], scale=eps[:1], idx=indices[0],
                            counts=[indices[0].size])

    def test_principal_curvature_values(self):
        b = np.zeros((3, 3, 3))
        b[:, :, 2] = np.diag([2.0, -1.0, 0.0])  # B . e3 on the tangent plane
        for name, (kappas, dirs) in tails(b).items():
            assert np.allclose(kappas, [2.0, -1.0]), name
            assert np.prod(kappas) == pytest.approx(-2.0), name
            assert np.sum(np.abs(kappas)) == pytest.approx(3.0), name
            assert np.allclose(np.abs(dirs), np.eye(3)[:2]), name

    def test_zero_matrix(self):
        for name, (kappas, _) in tails(np.zeros((3, 3, 3))).items():
            assert np.all(kappas == 0), name
            assert np.prod(kappas) == 0.0, name

    def test_gauss_invariant_under_normal_flip(self):
        # a one-point report on the cloud's frames and on the same frames
        # with the normal negated
        sample = vc.Sphere(1.0).sample(800, seed=2)
        cloud = sample.cloud
        flipped = dataclasses.replace(cloud, normals=-cloud.normals)
        idx = ball(cloud, cloud.positions[10], 0.4)
        k1, k2 = (point_curvature(c, [10], scale=[0.4], idx=idx,
                                  counts=[idx.size]).kappas[0]
                  for c in (cloud, flipped))
        assert np.prod(k1) == pytest.approx(np.prod(k2), rel=1e-12)
        assert np.sum(np.abs(k1)) == pytest.approx(np.sum(np.abs(k2)), rel=1e-12)
        assert np.allclose(np.sort(k1), np.sort(-k2))


class TestPointPipeline:
    def test_sphere_point(self):
        sample = vc.Sphere(1.0).sample(4000, seed=5)
        indices, eps = NeighborIndex(sample.cloud.positions).resolve_all(
            NeighborQuery.knn(40)
        )
        pc = point_curvature(sample.cloud, [0], scale=eps[0], idx=indices[0],
                             counts=[indices[0].size])
        kappas = pc.kappas[0] if pc.kappas[0].sum() > 0 else -pc.kappas[0][::-1]
        assert np.allclose(kappas, [1.0, 1.0], atol=0.12)

    def test_scaling_halves_curvatures(self):
        sample = vc.Sphere(1.0).sample(2000, seed=7)
        cloud = sample.cloud
        eps = 0.3
        idx = ball(cloud, cloud.positions[0], eps)
        pc1 = point_curvature(cloud, [0], scale=eps, idx=idx, counts=[idx.size])
        scaled = vc.validate_cloud(
            cloud.positions * 2.0, cloud.planes, cloud.masses, 2
        )
        idx = ball(scaled, scaled.positions[0], 2 * eps)
        pc2 = point_curvature(scaled, [0], scale=2 * eps, idx=idx, counts=[idx.size])
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
            idx = ball(cloud, cloud.positions[l0], eps)
            k_a = point_curvature(cloud, [l0], scale=eps, idx=idx,
                                  counts=[idx.size]).kappas[0]
            idx = ball(moved, moved.positions[l0], eps)
            k_b = point_curvature(moved, [l0], scale=eps, idx=idx,
                                  counts=[idx.size]).kappas[0]
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
        idx = ball(cloud, cloud.positions[0], eps)
        pc = point_curvature(cloud, [0], scale=eps, idx=idx, counts=[idx.size])
        assert pc.kappas[0, 0] == pytest.approx(kappa_cont, abs=1e-10)
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
        rep = curvature_report(
            cloud, NeighborIndex(cloud.positions).resolve_all(NeighborQuery.radius(0.5))
        )
        assert rep.status[-1] == STATUS_ISOLATED
        assert np.all(np.isnan(rep.kappas[-1]))
        assert rep.n_warnings == 1

    def test_one_eigendecomposition_per_chunk(self):
        # the cloud carries its frames, so an orthogonal report decomposes
        # only the restricted forms for the principal curvatures: once per
        # engine call, over all the padded blocks of its points; the tangent
        # estimate likewise decomposes each call's covariances at once
        cloud = vc.Sphere(1.0).sample(REPORT_CALL + 300, seed=3).cloud
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(20))
        real_eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "WORKERS", 1)
            mp.setattr(np.linalg, "eigh", counting_eigh)
            curvature_report(cloud, neighbors)
            estimate_tangent_planes(cloud.positions, neighbors, 2)
        assert calls == [(REPORT_CALL, 2, 2), (300, 2, 2),
                         (REPORT_CALL, 3, 3), (300, 3, 3)]

    def test_averaged_variant_checks_direction_matrix_once_per_point(self):
        # one PSD check per non-isolated point, inside solve_curvature_system;
        # the points of a chunk arrive as one stack
        cloud = sphere_with_outlier()
        query = NeighborQuery.radius(0.5)
        neighbors = NeighborIndex(cloud.positions).resolve_all(query)
        real_check = tensors.direction_matrix
        calls = []

        def counting_check(mat):
            calls.extend(mat)
            return real_check(mat)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensors, "direction_matrix", counting_check)
            _, rep = curvature_report(cloud, neighbors, compare_variants=True)
        assert rep.status[-1] == STATUS_ISOLATED
        assert len(calls) == int(np.sum(rep.status != STATUS_ISOLATED)) == 300

    def test_deterministic_rerun(self):
        sample = vc.Sphere(1.0).sample(1000, seed=3)
        index = NeighborIndex(sample.cloud.positions)
        rep1 = curvature_report(sample.cloud, index.resolve_all(NeighborQuery.knn(20)))
        rep2 = curvature_report(sample.cloud, index.resolve_all(NeighborQuery.knn(20)))
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
        neighbors = NeighborIndex(cloud.positions).resolve_all(query)
        real_sums = estimator._local_sums
        reports = {}
        for compare in (False, True):
            calls = []

            def counting_sums(cloud, points, *args):
                calls.extend(points.tolist())
                return real_sums(cloud, points, *args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "_local_sums", counting_sums)
                reports[compare] = curvature_report(cloud, neighbors, kp,
                                                    compare_variants=compare)
            assert calls == list(range(cloud.n_points)), compare

        # reference: restrict the independently summed orthogonal_sff
        rep = reports[False]
        indices, _ = neighbors
        normals, bases = plane_frames(cloud.planes)
        rows = np.nonzero(rep.status != STATUS_ISOLATED)[0]
        assert rows.size > 0
        for l0 in rows:
            b = one_row(orthogonal_sff, cloud, l0, kp, radius, indices[l0])
            kappas, _ = reference_curvatures(b, normals[l0], bases[l0])
            scale = 1.0 + np.max(np.abs(b))
            assert np.max(np.abs(rep.kappas[l0] - kappas)) <= 1e-12 * scale

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pts=st.integers(300, 600),
        shape=st.sampled_from(["sphere", "torus"]),
    )
    def test_point_order_permutes_rows(self, seed, n_pts, shape):
        cloud = SHAPES[shape]().sample(n_pts, seed=seed % 2**16).cloud
        perm = np.random.default_rng(seed).permutation(n_pts)
        shuffled = vc.validate_cloud(
            cloud.positions[perm], cloud.planes[perm], cloud.masses[perm], 2
        )
        query = NeighborQuery.knn(20)
        neighbors = NeighborIndex(cloud.positions).resolve_all(query)
        moved_neighbors = NeighborIndex(shuffled.positions).resolve_all(query)
        reps = curvature_report(cloud, neighbors, compare_variants=True)
        movs = curvature_report(shuffled, moved_neighbors, compare_variants=True)
        for variant, rep, moved in zip(("orthogonal", "averaged"), reps, movs):
            assert np.array_equal(moved.status, rep.status[perm]), variant
            tol = 1e-12 * (1.0 + np.nanmax(np.abs(rep.kappas)))
            assert np.allclose(moved.kappas, rep.kappas[perm], rtol=0, atol=tol,
                               equal_nan=True), variant
            assert np.allclose(moved.mean_vectors, rep.mean_vectors[perm], rtol=0,
                               atol=tol, equal_nan=True), variant

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4, 6]),
        scale=st.floats(0.1, 10.0),
    )
    def test_similarity_equivariance(self, seed, n, scale):
        # x -> scale * Q x + b on the cloud, with the original's lists and
        # scale * eps, so that kd-tree ties cannot change a neighborhood:
        # kappas and H scale by 1/scale, H turns with Q, and a kappa row
        # flips to -kappa reversed where the normal's sign rule picked the
        # other orientation
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, n_pts=120, n=n, d=n - 1)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))
        moved = vc.validate_cloud(
            scale * cloud.positions @ q.T + rng.standard_normal(n),
            np.einsum("ab,lbc,dc->lad", q, cloud.planes, q), cloud.masses, n - 1,
        )
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        reps = curvature_report(cloud, (indices, eps), compare_variants=True)
        movs = curvature_report(moved, (indices, scale * eps), compare_variants=True)
        flip = np.einsum("la,la->l", cloud.normals[:, :, 0] @ q.T,
                         moved.normals[:, :, 0]) < 0.0
        for name, rep, mov in zip(("orthogonal", "averaged"), reps, movs):
            assert np.array_equal(mov.status, rep.status), name
            assert np.array_equal(mov.eps, scale * eps), name
            want = np.where(flip[:, None], -rep.kappas[:, ::-1], rep.kappas)
            tol = 1e-9 * (1.0 + np.nanmax(np.abs(rep.kappas), initial=0.0))
            assert np.allclose(scale * mov.kappas, want, rtol=0, atol=tol,
                               equal_nan=True), name
            assert np.allclose(scale * mov.abs_sum, rep.abs_sum, rtol=0,
                               atol=n * tol, equal_nan=True), name
            tol = 1e-9 * (1.0 + np.nanmax(np.abs(rep.mean_vectors), initial=0.0))
            assert np.allclose(scale * mov.mean_vectors, rep.mean_vectors @ q.T,
                               rtol=0, atol=tol, equal_nan=True), name
            assert np.allclose(scale * mov.mean_norm, rep.mean_norm, rtol=0,
                               atol=tol, equal_nan=True), name

    def test_neighbors_of_another_cloud_rejected(self):
        sample = vc.Sphere(1.0).sample(200, seed=2)
        neighbors = NeighborIndex(sample.cloud.positions[:150]).resolve_all(
            NeighborQuery.knn(10)
        )
        with pytest.raises(InvalidInputError, match="150 points, cloud has 200"):
            curvature_report(sample.cloud, neighbors)

    def test_codimension_guard(self):
        cloud = line_cloud([0.0, 0.1, 0.2], n=3)
        with pytest.raises(InvalidInputError,
                           match="curvature_report needs codimension 1"):
            curvature_report(
                cloud, NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(2))
            )


def report_bytes(rep):
    """The bytes of each array of a report, None for an a_perp it does not
    hold: two reports are bitwise equal when these are."""
    return {field: None if getattr(rep, field) is None
            else getattr(rep, field).tobytes()
            for field in ("kappas", "directions", "gauss", "abs_sum", "mean_norm",
                          "mean_vectors", "eps", "a_perp")}


def far_points(rows, n):
    """Points far from the unit cube and from each other: isolated."""
    return 100.0 * (1.0 + np.arange(rows))[:, None] * np.eye(n)[0]


class TestEngine:
    """The chunk engine behind ``curvature_report`` against the per-point
    reference in ``system_reference``."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4, 6, 10]),
        eps=st.floats(0.35, 0.9),
        kernel=st.sampled_from(["bump", "tent"]),
        compare=st.booleans(),
        layout=st.sampled_from(["small", "beyond_chunk"]),
    )
    # 15 copies of a sphere's point 0 give those 16 points a knn radius of 0
    @example(seed=0, n=3, eps=0.5, kernel="bump", compare=True,
             layout="zero_radius")
    def test_report_matches_per_point_reference(self, seed, n, eps, kernel,
                                                compare, layout):
        # compare_variants returns the (orthogonal, averaged) pair, each
        # checked against the reference of its own variant
        rng = np.random.default_rng(seed)
        beyond_chunk = layout == "beyond_chunk"
        if layout == "zero_radius":
            sphere = vc.Sphere(1.0).sample(300, seed=seed).cloud
            keep = np.r_[np.arange(300), np.zeros(15, dtype=int)]
            cloud = vc.validate_cloud(sphere.positions[keep], sphere.planes[keep],
                                      sphere.masses[keep], 2)
            n_pts, query = keep.size, NeighborQuery.knn(10)
        else:
            n_pts = REPORT_BLOCK + 60 if beyond_chunk else int(rng.integers(20, 120))
            cloud = random_cloud(rng, n_pts=n_pts, n=n, d=n - 1)
            # the same density as 80 points in the unit cube, and as in
            # test_one_sum_per_point_matches_reference_sff the radius grows
            # with sqrt(n) past n = 4
            positions = cloud.positions * (n_pts / 80) ** (1.0 / n)
            if beyond_chunk:
                # isolated points on both sides of the first block boundary
                positions[REPORT_BLOCK - 1:REPORT_BLOCK + 1] = far_points(2, n)
            cloud = vc.validate_cloud(positions, cloud.planes, cloud.masses, n - 1)
            query = NeighborQuery.radius(eps * np.sqrt(n / 2) if n > 4 else eps)
        kp = kernel_pair_by_name(kernel, n - 1, n)
        neighbors = NeighborIndex(cloud.positions).resolve_all(query)
        names = ("orthogonal", "averaged") if compare else ("orthogonal",)

        def reports(cloud, neighbors, **kwargs):
            got = curvature_report(cloud, neighbors, kp, compare_variants=compare,
                                   **kwargs)
            return got if compare else (got,)

        reps = reports(cloud, neighbors, collect_a_perp=True)
        assert len(reps) == len(names)
        for name, rep in zip(names, reps):
            ref = reference_report(cloud, neighbors, kp, variant=name)
            assert np.array_equal(rep.status, ref.status), name
            if beyond_chunk:
                assert np.all(rep.status[REPORT_BLOCK - 1:REPORT_BLOCK + 1]
                              == STATUS_ISOLATED)
            if layout == "zero_radius":
                assert np.flatnonzero(rep.status == STATUS_ISOLATED).tolist() == [
                    0, *range(300, 315)
                ]
            # a_perp is the orthogonal tensor, stored in that report alone
            fields = ("kappas", "mean_vectors", "gauss", "abs_sum", "mean_norm")
            if name == "orthogonal":
                fields += ("a_perp",)
            else:
                assert rep.a_perp is None
            for field in fields:
                got, want = getattr(rep, field), getattr(ref, field)
                assert np.array_equal(np.isnan(got), np.isnan(want)), (name, field)
                tol = 1e-12 * (1.0 + np.nanmax(np.abs(want), initial=0.0))
                assert np.allclose(got, want, rtol=0, atol=tol,
                                   equal_nan=True), (name, field)
            # the principal directions are orthonormal rows orthogonal to the
            # normal, and the reference's up to sign where their kappa is
            # apart from the others
            dirs, want = rep.directions, ref.directions
            assert np.array_equal(np.isnan(dirs), np.isnan(want)), name
            ok = rep.status != STATUS_ISOLATED
            dirs, want, kappas = dirs[ok], want[ok], rep.kappas[ok]
            assert np.allclose(dirs @ dirs.swapaxes(-1, -2), np.eye(n - 1),
                               rtol=0, atol=1e-12), name
            assert np.allclose(dirs @ cloud.normals[ok], 0.0, rtol=0, atol=1e-12), name
            gaps = np.pad(-np.diff(kappas, axis=1), ((0, 0), (1, 1)),
                          constant_values=np.inf)
            apart = np.minimum(gaps[:, :-1], gaps[:, 1:]) > 1e-6 * (
                1.0 + np.max(np.abs(kappas), initial=0.0))
            cosines = np.abs(np.einsum("mja,mja->mj", dirs, want))
            assert np.allclose(cosines[apart], 1.0, rtol=0, atol=1e-9), name

        perm = rng.permutation(n_pts)
        shuffled = vc.validate_cloud(cloud.positions[perm], cloud.planes[perm],
                                     cloud.masses[perm], n - 1)
        moved = reports(shuffled, NeighborIndex(shuffled.positions).resolve_all(query))
        for rep, mov in zip(reps, moved):
            assert np.array_equal(mov.status, rep.status[perm])
            tol = 1e-12 * (1.0 + np.nanmax(np.abs(rep.kappas), initial=0.0))
            assert np.allclose(mov.kappas, rep.kappas[perm], rtol=0, atol=tol,
                               equal_nan=True)

    def test_one_engine_call_per_chunk(self):
        # calls of REPORT_CALL points, or of fewer whole blocks when a pool
        # thread would otherwise get none: seven blocks over 1, 2, 4, 8 threads
        n_pts = REPORT_CALL + 2 * REPORT_BLOCK + 10
        sample = vc.Sphere(1.0).sample(n_pts, seed=4)
        neighbors = NeighborIndex(sample.cloud.positions).resolve_all(
            NeighborQuery.knn(20)
        )
        indices, _ = neighbors
        real = estimator.point_curvature
        expected = {1: [REPORT_CALL, 2 * REPORT_BLOCK + 10],
                    2: [REPORT_CALL, 2 * REPORT_BLOCK + 10],
                    4: 3 * [2 * REPORT_BLOCK] + [10],
                    8: 6 * [REPORT_BLOCK] + [10]}
        for workers, sizes in expected.items():
            chunks = []

            def counting(cloud, points, *args, **kwargs):
                chunks.append((points.tolist(), kwargs["idx"].size))
                return real(cloud, points, *args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "WORKERS", workers)
                mp.setattr(estimator, "point_curvature", counting)
                curvature_report(sample.cloud, neighbors)
            # the calls may run on several threads, so only the multisets are fixed
            chunks.sort()
            assert [len(p) for p, _ in chunks] == sizes, workers
            assert sum((p for p, _ in chunks), []) == list(range(n_pts))
            assert sum(size for _, size in chunks) == sum(len(ix) for ix in indices)

    def test_two_variants_sum_each_chunk_once(self):
        # one padded block per REPORT_BLOCK points and one trace check per
        # engine call serve both reports, and each variant runs one tail per
        # call on its own ok rows; the orthogonal one equals the report
        # without the comparison, and the averaged one is bitwise the public
        # chain solve_curvature_system(
        # smoothed_direction_matrix, variation_tensor) -> tail, block by
        # block, also past isolated rows on both sides of a block boundary
        sphere = vc.Sphere(1.0).sample(2 * REPORT_BLOCK + 10, seed=4).cloud
        rng = np.random.default_rng(15)
        n_pts = 2 * REPORT_BLOCK + 70
        loose = random_cloud(rng, n_pts=n_pts)
        positions = loose.positions * (n_pts / 80) ** (1.0 / 3)
        positions[REPORT_BLOCK - 1:REPORT_BLOCK + 1] = far_points(2, 3)
        loose = vc.validate_cloud(positions, loose.planes, loose.masses, 2)
        for cloud, query in ((sphere, NeighborQuery.knn(20)),
                             (loose, NeighborQuery.radius(0.5))):
            neighbors = NeighborIndex(cloud.positions).resolve_all(query)
            # three blocks: one call on one thread, calls of two blocks and
            # of one on two
            split, end = 2 * REPORT_BLOCK, cloud.n_points
            for workers, bounds in ((1, [(0, end)]), (2, [(0, split), (split, end)])):
                n_calls = len(bounds)
                calls = []

                def counting(name):
                    real = getattr(estimator, name)

                    def wrapped(*args, **kwargs):
                        calls.append((name, len(args[1] if name == "_local_sums"
                                                else args[0])))
                        return real(*args, **kwargs)

                    return wrapped

                names = ("_local_sums", "variation_tensor",
                         "smoothed_direction_matrix", "mean_curvature_vector",
                         "to_bilinear_form")
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(estimator, "WORKERS", workers)
                    for name in names:
                        mp.setattr(estimator, name, counting(name))
                    orthogonal, averaged = curvature_report(
                        cloud, neighbors, compare_variants=True, collect_a_perp=True)
                rows = {name: sorted(m for n, m in calls if n == name)
                        for name in {n for n, _ in calls}}
                assert rows.keys() == {"_local_sums", "mean_curvature_vector",
                                       "to_bilinear_form"}
                last = cloud.n_points - 2 * REPORT_BLOCK
                assert rows["_local_sums"] == [last, REPORT_BLOCK, REPORT_BLOCK]
                assert len(rows["mean_curvature_vector"]) == n_calls
                assert sum(rows["mean_curvature_vector"]) == cloud.n_points
                # a call converts each variant's ok rows in a tail of its own
                assert len(rows["to_bilinear_form"]) == 2 * n_calls
                assert sum(rows["to_bilinear_form"]) == sum(
                    int(np.sum(rep.status == STATUS_OK)) for rep in (orthogonal, averaged))
                assert rows["to_bilinear_form"] == sorted(
                    int(np.sum(rep.status[lo:hi] == STATUS_OK))
                    for lo, hi in bounds for rep in (orthogonal, averaged))
            alone = curvature_report(cloud, neighbors, collect_a_perp=True)
            for field in ("kappas", "directions", "gauss", "abs_sum", "mean_norm",
                          "mean_vectors", "a_perp", "status"):
                assert np.array_equal(getattr(orthogonal, field), getattr(alone, field),
                                      equal_nan=field != "status"), field
            assert averaged.a_perp is None

            kp = estimator.default_kernels(cloud)
            indices, eps = neighbors
            for lo in range(0, cloud.n_points, REPORT_BLOCK):
                points = np.arange(lo, min(lo + REPORT_BLOCK, cloud.n_points))
                chunk = {"idx": np.concatenate(indices[points[0]:points[-1] + 1]),
                         "counts": [len(indices[i]) for i in points]}
                beta = vc.variation_tensor(cloud, points, kp, eps[points], **chunk)
                c = smoothed_direction_matrix(cloud, cloud.positions[points], kp,
                                              eps[points], **chunk)
                ok = ~(np.isnan(beta).all(axis=(1, 2, 3))
                       | np.isnan(c).all(axis=(1, 2)))
                h = mean_curvature_vector(beta)
                want = estimator._variant_report(
                    cloud, points, eps[points], h, ok,
                    tensors.solve_curvature_system(c[ok], beta[ok]))
                for field in ("kappas", "directions", "mean_vectors"):
                    got = getattr(averaged, field)[points]
                    assert got.tobytes() == getattr(want, field).tobytes(), field
                    assert np.isnan(got[~ok]).all(), field
                assert np.all(averaged.status[points[~ok]] == STATUS_ISOLATED)
            if cloud is loose:
                assert np.all(averaged.status[REPORT_BLOCK - 1:REPORT_BLOCK + 1]
                              == STATUS_ISOLATED)

    def test_comparison_leaves_orthogonal_report_unchanged(self):
        # the averaged report rides along without changing a bit of the
        # orthogonal one, in the engine and in the whole-cloud report; the
        # orthogonal tensor a_perp is stored in the orthogonal report alone
        cloud = sphere_with_outlier()
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.radius(0.5))
        points = [0, 1, 300]
        lists = [neighbors[0][i] for i in points]
        chunk = dict(scale=neighbors[1][points], idx=np.concatenate(lists),
                     counts=[len(ix) for ix in lists])
        runs = [
            (point_curvature(cloud, points, **chunk),
             point_curvature(cloud, points, compare_variants=True, **chunk)),
            (curvature_report(cloud, neighbors, collect_a_perp=True),
             curvature_report(cloud, neighbors, compare_variants=True,
                              collect_a_perp=True)),
        ]
        for alone, (orthogonal, averaged) in runs:
            assert orthogonal.status[-1] == STATUS_ISOLATED
            assert np.array_equal(orthogonal.status, alone.status)
            for field in ("kappas", "directions", "mean_vectors", "eps", "a_perp"):
                assert (getattr(orthogonal, field).tobytes()
                        == getattr(alone, field).tobytes()), field
            assert averaged.a_perp is None

    @pytest.mark.parametrize("flags", [True, np.zeros(300, dtype=bool),
                                       np.zeros((301, 1), dtype=bool)])
    def test_ambiguous_checked_before_any_sum(self, flags):
        # flags that are not one per point are refused, naming their shape,
        # before any chunk is summed: a bare True would otherwise flag every
        # point, and a short array would fail in numpy after every chunk
        cloud = sphere_with_outlier()
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        sums = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_local_sums", lambda *args: sums.append(args))
            shape = re.escape(str(np.shape(flags)))
            with pytest.raises(InvalidInputError,
                               match=f"ambiguous flags of shape {shape} for 301 points"):
                curvature_report(cloud, neighbors, ambiguous=flags)
        assert sums == []

    def test_neighbor_pair_checked(self):
        # the lists and the radii must each be one per point, and the error
        # names the one that is not
        cloud = vc.Sphere(1.0).sample(200, seed=0).cloud
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        for fn in (lambda pair: curvature_report(cloud, pair),
                   lambda pair: estimate_tangent_planes(cloud.positions, pair, 2)):
            with pytest.raises(InvalidInputError,
                               match=r"^neighbor radii of shape \(199,\) for 200 "
                                     r"points; need shape \(200,\)$"):
                fn((indices, eps[:199]))
            with pytest.raises(InvalidInputError,
                               match="^neighbors resolved for 199 points, cloud has 200$"):
                fn((indices[:199], eps))

    def test_chunk_contract_checked(self):
        cloud = sphere_with_outlier()
        with pytest.raises(InvalidInputError, match="2 neighbor counts"):
            point_curvature(cloud, [0, 1, 2], scale=0.5, idx=np.arange(5),
                            counts=[2, 3])
        with pytest.raises(InvalidInputError, match="summing to 5 for 2 points and 4"):
            vc.variation_tensor(cloud, [0, 1], None, 0.5, idx=np.arange(4),
                                counts=[2, 3])
        with pytest.raises(InvalidInputError, match="index 301 is outside 0..300"):
            vc.variation_tensor(cloud, [0, 1], None, 0.5, idx=[0, 1, 301],
                                counts=[2, 1])
        with pytest.raises(InvalidInputError, match="index -1 is outside 0..300"):
            smoothed_direction_matrix(cloud, cloud.positions[:1], None, 0.5,
                                      idx=[-1], counts=[1])

    @staticmethod
    def chunk_function(name, cloud):
        """``fn(points, eps, idx, counts)`` running the chunk function
        ``name`` on ``cloud`` with the default kernels."""
        kernels = estimator.default_kernels(cloud)
        if name == "point_curvature":
            return lambda points, eps, idx, counts: point_curvature(
                cloud, points, kernels, scale=eps, idx=idx, counts=counts)
        return lambda points, eps, idx, counts: getattr(estimator, name)(
            cloud, points, kernels, eps, idx=idx, counts=counts)

    @pytest.mark.parametrize("points, message", [
        ([500], "point index 500 is outside 0..199"),
        ([-1], "point index -1 is outside 0..199"),
        ([0.5], "point indices must be integers, got dtype float64"),
        ([[0, 1]], "point indices must be an (m,) array, got shape (1, 2)"),
    ])
    @pytest.mark.parametrize("name", ["point_curvature", "variation_tensor",
                                      "orthogonal_sff"])
    def test_point_indices_checked(self, name, points, message):
        # an index past the cloud, a negative one, a non-integer one and a
        # 2-D index array are refused by name, not read by numpy's indexing
        # or broadcasting rules
        cloud = vc.Sphere(1.0).sample(200, seed=0).cloud
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        fn = self.chunk_function(name, cloud)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            fn(points, eps[:1], indices[0], [len(indices[0])])

    @pytest.mark.parametrize("which", ["idx", "counts"])
    @pytest.mark.parametrize("name", ["point_curvature", "variation_tensor",
                                      "orthogonal_sff", "smoothed_direction_matrix"])
    def test_neighbor_lists_must_be_integers(self, name, which):
        # floats used to be cast: a list plus 0.7 ran as the list, and a
        # count of its length plus 0.5 as its length; NumPy integers pass
        cloud = vc.Sphere(1.0).sample(200, seed=0).cloud
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        fn = self.chunk_function(name, cloud)
        points = cloud.positions[:1] if name == "smoothed_direction_matrix" else [0]
        chunk = [indices[0], np.array([indices[0].size])]
        what = 0 if which == "idx" else 1
        bad = list(chunk)
        bad[what] = chunk[what] + (0.7 if which == "idx" else 0.5)
        word = "indices" if which == "idx" else "counts"
        with pytest.raises(InvalidInputError, match=f"^neighbor {word} must be "
                                                    f"integers, got dtype float64$"):
            fn(points, eps[:1], *bad)
        narrow = list(chunk)
        narrow[what] = chunk[what].astype(np.int32)
        got, want = fn(points, eps[:1], *narrow), fn(points, eps[:1], *chunk)
        if name == "point_curvature":
            got, want = got.kappas, want.kappas
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["point_curvature", "variation_tensor",
                                      "orthogonal_sff"])
    def test_list_must_hold_its_point(self, name):
        # point 0 given another point's list used to return kappas with
        # status ok; a list shorter than the block's longest, whose padding
        # gathers row 0, is refused as well
        cloud = vc.Sphere(1.0).sample(200, seed=0).cloud
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        fn = self.chunk_function(name, cloud)
        message = "^the neighbor list of point 0 does not hold the point itself$"
        far = indices[int(np.argmax(cloud.positions @ -cloud.positions[0]))]
        with pytest.raises(InvalidInputError, match=message):
            fn([0], eps[:1], far, [far.size])
        short = indices[0][indices[0] != 0][:3]
        with pytest.raises(InvalidInputError, match=message):
            fn([5, 0], eps[[5, 0]], np.concatenate([indices[5], short]),
               [indices[5].size, short.size])
        # a list holding its point passes wherever the point sits in it
        fn([1, 0], eps[[1, 0]], np.concatenate([indices[1], indices[0]]),
           [indices[1].size, indices[0].size])

    def test_locations_take_any_list(self):
        # smoothed_direction_matrix averages around locations, not points
        cloud = vc.Sphere(1.0).sample(200, seed=0).cloud
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(10))
        c = self.chunk_function("smoothed_direction_matrix", cloud)(
            cloud.positions[:1], eps[:1], indices[1], [indices[1].size])
        assert np.isfinite(c).all()

    @pytest.mark.parametrize("name", ["point_curvature", "variation_tensor",
                                      "orthogonal_sff"])
    def test_empty_chunk_is_valid(self, name):
        # an empty index array has numpy's default dtype float64 and is no
        # error: it gives zero rows
        cloud = vc.Sphere(1.0).sample(200, seed=0).cloud
        out = self.chunk_function(name, cloud)(np.asarray([]), [], [], [])
        if name == "point_curvature":
            assert out.kappas.shape == (0, 2) and out.a_perp.shape == (0, 3, 3, 3)
        else:
            assert out.shape == (0, 3, 3, 3)

    def test_pair_of_other_dimensions_refused(self):
        # the pair's prefactor d/n scales every curvature: a (2, 3) pair on
        # a circle would report |k1| = 4/3 instead of 1
        cloud = vc.Circle(1.0).sample(2000, seed=0).cloud
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(20))
        rep = curvature_report(cloud, neighbors, pair_for(1, 2))
        assert np.median(np.abs(rep.kappas[:, 0])) == pytest.approx(1.0, abs=1e-3)
        with pytest.raises(InvalidInputError,
                           match=r"kernel pair ratio 0.666667 is not the cloud's "
                                 r"d/n = 1/2 = 0.5"):
            curvature_report(cloud, neighbors, pair_for(2, 3))


class TestThreadedChunks:
    """The chunk engines on ``WORKERS`` threads against one thread."""

    def runs(self, workers, fn):
        """``fn()`` with ``estimator.WORKERS`` set to ``workers``; the
        threads it starts are gone when it returns."""
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "WORKERS", workers)
            out = fn()
        assert threading.active_count() == before
        return out

    def test_threads_match_serial_bitwise(self):
        # over three chunks, with isolated rows on both sides of the first
        # chunk boundary; more threads than most hosts have cores
        rng = np.random.default_rng(11)
        n_pts = 2 * REPORT_BLOCK + 70
        cloud = random_cloud(rng, n_pts=n_pts)
        positions = cloud.positions * (n_pts / 80) ** (1.0 / 3)
        positions[REPORT_BLOCK - 1:REPORT_BLOCK + 1] = far_points(2, 3)
        cloud = vc.validate_cloud(positions, cloud.planes, cloud.masses, 2)
        neighbors = NeighborIndex(positions).resolve_all(NeighborQuery.radius(0.5))

        def report():
            return curvature_report(cloud, neighbors, collect_a_perp=True,
                                    compare_variants=True)

        serial, threaded = self.runs(1, report), self.runs(4, report)
        for one, many in zip(serial, threaded):
            boundary = one.status[REPORT_BLOCK - 1:REPORT_BLOCK + 1]
            assert np.all(boundary == STATUS_ISOLATED)
            assert np.array_equal(one.status, many.status)
            assert report_bytes(one) == report_bytes(many)

        sheet = plane_grid(2 * REPORT_BLOCK + 70)
        sheet[:, 2] = 0.003 * rng.standard_normal(len(sheet))
        sheet_neighbors = NeighborIndex(sheet).resolve_all(NeighborQuery.knn(12))

        def tangents():
            return estimate_tangent_planes(sheet, sheet_neighbors, 2)

        one, many = self.runs(1, tangents), self.runs(4, tangents)
        assert one.planes.tobytes() == many.planes.tobytes()
        assert np.array_equal(one.ambiguous, many.ambiguous)

    def test_call_size_changes_no_bit(self):
        # a call's blocks are the whole cloud's blocks, and its tail keeps
        # every row's operation order, so one-block calls give the same
        # bytes as the default calls, on one thread and on two; isolated
        # rows sit on both sides of the first call boundary
        rng = np.random.default_rng(16)
        n_pts = 2 * REPORT_CALL + 300
        cloud = random_cloud(rng, n_pts=n_pts)
        positions = cloud.positions * (n_pts / 80) ** (1.0 / 3)
        positions[REPORT_CALL - 1:REPORT_CALL + 1] = far_points(2, 3)
        neighbors = NeighborIndex(positions).resolve_all(NeighborQuery.radius(0.5))
        est = estimate_tangent_planes(positions, neighbors, 2)
        cloud = vc.validate_cloud(positions, cloud.planes, cloud.masses, 2)

        def stages():
            return (estimate_tangent_planes(positions, neighbors, 2),
                    curvature_report(cloud, neighbors, compare_variants=True,
                                     ambiguous=est.ambiguous, collect_a_perp=True))

        def one_block_calls():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "REPORT_CALL", REPORT_BLOCK)
                return stages()

        for workers in (1, 2):
            default, single = self.runs(workers, stages), self.runs(workers,
                                                                   one_block_calls)
            for tangents in (default[0], single[0]):
                assert tangents.planes.tobytes() == est.planes.tobytes()
                assert np.array_equal(tangents.ambiguous, est.ambiguous)
            for one, many in zip(default[1], single[1], strict=True):
                assert np.all(one.status[REPORT_CALL - 1:REPORT_CALL + 1]
                              == STATUS_ISOLATED)
                assert np.array_equal(one.status, many.status)
                assert report_bytes(one) == report_bytes(many)

    def test_chunk_results_survive_later_chunks(self):
        # the blocks and calls that one thread runs write into the same
        # scratch buffers, so nothing a block or call function returns may be
        # a view of them
        cloud = random_cloud(np.random.default_rng(12), n_pts=3 * REPORT_BLOCK + 5)
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(12))
        returned = []

        def keeping(name):
            real = getattr(estimator, name)

            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                returned.append((name, out, copy.deepcopy(out)))
                return out

            return wrapped

        def arrays(out):
            if isinstance(out, np.ndarray):
                return [out]
            if isinstance(out, CurvatureReport):
                return [v for v in vars(out).values() if v is not None]
            return [a for part in out for a in arrays(part)]

        def stages():
            names = ("point_curvature", "_variation_sums", "_direction_sums",
                     "_tangent_chunk", "_covariances")
            with pytest.MonkeyPatch.context() as mp:
                # two calls of two blocks each
                mp.setattr(estimator, "REPORT_CALL", 2 * REPORT_BLOCK)
                for name in names:
                    mp.setattr(estimator, name, keeping(name))
                curvature_report(cloud, neighbors, compare_variants=True)
                estimate_tangent_planes(cloud.positions, neighbors, 2)

        self.runs(1, stages)
        # two calls through each call function, four blocks through each block one
        assert sorted(name for name, _, _ in returned) == sorted(
            2 * ("point_curvature", "_tangent_chunk")
            + 4 * ("_variation_sums", "_direction_sums", "_covariances"))
        for name, out, snapshot in returned:
            for now, then in zip(arrays(out), arrays(snapshot), strict=True):
                if now.dtype == object:
                    assert np.array_equal(now, then), name
                else:
                    assert now.tobytes() == then.tobytes(), name

    def test_one_scratch_per_thread_reused_and_dropped(self):
        # every block a thread builds in a stage lies in that thread's one
        # scratch, sized up front for the stage's largest REPORT_BLOCK-point
        # block, not for its calls of several blocks; the scratch is gone
        # when the stage returns
        cloud = random_cloud(np.random.default_rng(13), n_pts=5 * REPORT_BLOCK + 9)
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(12))
        counts = np.array([len(ix) for ix in neighbors[0]])
        largest = max(len(c) * int(c.max())
                      for c in np.split(counts, range(REPORT_BLOCK, counts.size,
                                                      REPORT_BLOCK)))
        real = estimator._neighbor_block
        blocks = []
        sizes = []

        def recording(scratch, *args):
            out = real(scratch, *args)
            blocks.append((threading.get_ident(), id(scratch), weakref.ref(scratch),
                           out[2].base))
            sizes.append((scratch.slots, {name: buf.size for name, buf
                                          in scratch._buffers.items()}))
            return out

        for workers in (1, 2):
            blocks.clear()
            sizes.clear()

            def report():
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(estimator, "_neighbor_block", recording)
                    curvature_report(cloud, neighbors, compare_variants=True)

            self.runs(workers, report)
            # six blocks, each one for both variants, in one call of four
            # blocks and one of two on one thread, of three each on two
            assert len(blocks) == 6
            for slots, buffers in sizes:
                assert slots == largest
                # the call's lists end to end are the one buffer past the block
                assert all(size <= largest * 3 * 3 for name, size in buffers.items()
                           if name != "idx")
            scratch_of = {thread: sid for thread, sid, _, _ in blocks}
            assert 1 <= len(scratch_of) <= workers
            assert len(set(scratch_of.values())) == len(scratch_of)
            for thread, sid, _, base in blocks:
                first = next(b for t, _, _, b in blocks if t == thread)
                assert sid == scratch_of[thread] and base is first
            gc.collect()
            assert all(ref() is None for _, _, ref, _ in blocks)

    @pytest.mark.parametrize("n_pts, workers", [(3 * REPORT_BLOCK, 1),
                                                (REPORT_BLOCK // 2, 4)])
    def test_stage_runs_on_pool_threads(self, n_pts, workers):
        # one worker or one chunk takes the same pool as any other stage:
        # no chunk runs on the caller's thread, the caller holds no scratch
        # afterwards, and the stage's scratch ended with its threads
        cloud = random_cloud(np.random.default_rng(14), n_pts=n_pts)
        neighbors = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(12))
        real = estimator._neighbor_block
        blocks = []

        def recording(scratch, *args):
            blocks.append((threading.get_ident(), weakref.ref(scratch)))
            return real(scratch, *args)

        def stages():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "_neighbor_block", recording)
                curvature_report(cloud, neighbors)
                estimate_tangent_planes(cloud.positions, neighbors, 2)

        self.runs(workers, stages)
        assert blocks
        assert threading.get_ident() not in {thread for thread, _ in blocks}
        assert estimator._scratch() is not estimator._scratch()
        gc.collect()
        assert all(ref() is None for _, ref in blocks)

    def test_direct_calls_get_fresh_buffers(self):
        # outside a stage's pool every block gets buffers of its own
        cloud = random_cloud(np.random.default_rng(15), n_pts=60)
        indices, eps = NeighborIndex(cloud.positions).resolve_all(NeighborQuery.knn(8))
        points = np.arange(10)
        idx = np.concatenate(indices[:10])
        counts = [len(ix) for ix in indices[:10]]
        real = estimator._neighbor_block
        scratches = []

        def recording(scratch, *args):
            scratches.append(scratch)
            return real(scratch, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_neighbor_block", recording)
            first, second = (vc.variation_tensor(cloud, points, pair_for(2, 3),
                                                 eps[points], idx=idx, counts=counts)
                             for _ in range(2))
        assert len(scratches) == 2 and scratches[0] is not scratches[1]
        assert first.tobytes() == second.tobytes()

    def test_earliest_failing_chunk_wins(self):
        # chunks 0 and 2 fail; chunk 0 is held back until chunk 2 has
        # failed, and its error is the one raised
        pts = plane_grid(3 * REPORT_BLOCK)
        neighbors = NeighborIndex(pts).resolve_all(NeighborQuery.radius(0.05))
        real = estimator._tangent_chunk
        failed = []

        def failing(positions, lo, *args):
            if lo == 0:
                deadline = time.monotonic() + 10.0
                while not failed and time.monotonic() < deadline:
                    time.sleep(0.01)
            out = real(positions, lo, *args)
            if lo in (0, 2 * REPORT_BLOCK):
                failed.append(lo)
                raise VaricurvError(f"broken chunk at {lo}")
            return out

        def estimate():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "_tangent_chunk", failing)
                with pytest.raises(VaricurvError) as err:
                    estimate_tangent_planes(pts, neighbors, 2)
            return str(err.value)

        assert self.runs(4, estimate) == "broken chunk at 0"
        assert failed == [2 * REPORT_BLOCK, 0]


class TestTangentEstimation:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        est = estimate_tangent_planes(
            pts, NeighborIndex(pts).resolve_all(NeighborQuery.knn(2)), 1
        )
        t = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(est.planes[0], np.outer(t, t), atol=1e-12)

    def test_coplanar_points(self):
        rng = np.random.default_rng(47)
        pts = np.column_stack([rng.uniform(-1, 1, (40, 2)), np.zeros(40)])
        est = estimate_tangent_planes(
            pts, NeighborIndex(pts).resolve_all(NeighborQuery.knn(10)), 2
        )
        assert np.allclose(est.planes, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_sphere_estimate_improves_with_density(self):
        errs = {}
        for n_pts in (2500, 10000):
            sample = vc.Sphere(1.0).sample(n_pts, seed=11)
            positions = sample.cloud.positions
            neighbors = NeighborIndex(positions).resolve_all(NeighborQuery.knn(40))
            est = estimate_tangent_planes(positions, neighbors, 2)
            diffs = np.linalg.norm(
                est.planes - sample.cloud.planes, ord=2, axis=(1, 2)
            )
            errs[n_pts] = np.median(diffs)
        assert errs[10000] <= 0.1
        assert errs[10000] < errs[2500]

    def test_degenerate_neighborhood(self):
        # a line cannot pick a 2-plane: every point is flagged, and its plane
        # is a rank-2 projector that holds the line
        pts = np.zeros((5, 3))
        pts[:, 0] = np.arange(5.0)
        est = estimate_tangent_planes(
            pts, NeighborIndex(pts).resolve_all(NeighborQuery.knn(3)), 2
        )
        assert est.ambiguous.all()
        assert np.allclose(est.planes @ est.planes, est.planes, atol=1e-12)
        assert np.allclose(np.trace(est.planes, axis1=1, axis2=2), 2.0, atol=1e-12)
        assert np.allclose(est.planes[:, :, 0], [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("dim_d, message", [
        (0, "dim_d = 0 is outside 1..3, the ambient dimension"),
        (5, "dim_d = 5 is outside 1..3, the ambient dimension"),
        (-1, "dim_d = -1 is outside 1..3, the ambient dimension"),
        (1.5, "dim_d = 1.5 is not an integer"),
    ])
    def test_dimension_checked(self, dim_d, message):
        # 0 used to return zero planes, all flagged, 5 identity planes, and
        # -1 rank-2 planes
        positions = vc.Sphere(1.0).sample(200, seed=0).cloud.positions
        neighbors = NeighborIndex(positions).resolve_all(NeighborQuery.knn(10))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            estimate_tangent_planes(positions, neighbors, dim_d)

    def test_ambiguous_flag_on_isotropic_data(self):
        rng = np.random.default_rng(53)
        sample = vc.Sphere(1.0).sample(1500, seed=13)
        positions = sample.cloud.positions
        neighbors = NeighborIndex(positions).resolve_all(NeighborQuery.knn(30))
        est = estimate_tangent_planes(positions, neighbors, 2)
        assert not est.ambiguous.all()


def plane_grid(n_pts):
    """``n_pts`` points of a 0.02-spaced square grid in the z = 0 plane."""
    side = int(np.ceil(np.sqrt(n_pts)))
    u, v = np.meshgrid(np.arange(side), np.arange(side))
    grid = 0.02 * np.column_stack([u.ravel(), v.ravel(), np.zeros(side * side)])
    return grid[:n_pts]


class TestBatchedTangents:
    @settings(max_examples=30, deadline=None)
    # about d + 1 neighbors per point: at one point lambda_1 / (lambda_d -
    # lambda_{d+1}) is 7.5e5 and the planes differ by 1.5e-11
    @example(seed=14, n=6, mode="knn", beyond_chunk=True, d=5, extra=0)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4, 6, 10]),
        mode=st.sampled_from(["radius", "knn"]),
        beyond_chunk=st.booleans(),
        d=st.integers(1, 9),
        extra=st.integers(0, 20),
    )
    def test_matches_reference(self, seed, n, mode, beyond_chunk, d, extra):
        d = min(d, n - 1)
        k = d + extra
        rng = np.random.default_rng(seed)
        n_pts = REPORT_BLOCK + 150 if beyond_chunk else int(rng.integers(30, 300))
        # a noisy d-dimensional sheet: the planes are far from ambiguous
        pts = np.zeros((n_pts, n))
        pts[:, :d] = rng.uniform(-1.0, 1.0, (n_pts, d))
        pts[:, d:] = 0.05 * rng.standard_normal((n_pts, n - d))
        pts = pts @ np.linalg.qr(rng.standard_normal((n, n)))[0]
        index = NeighborIndex(pts)
        if mode == "knn":
            query = NeighborQuery.knn(k)
        else:
            # past every point's k-th neighbor, so that most planes are sure
            kth = index.tree.query(pts, k=min(k + 1, n_pts))[0][:, -1]
            query = NeighborQuery.radius(1.3 * float(kth.max()))
        neighbors = index.resolve_all(query)
        est = estimate_tangent_planes(pts, neighbors, d)
        ref = reference_tangent_planes(pts, neighbors, d)
        # summation order moves a plane by the covariance's rounding over
        # its eigen-gap, per point
        err = np.max(np.abs(est.planes - ref.planes), axis=(1, 2))
        assert np.all(err <= ref.rounding)
        assert np.array_equal(est.ambiguous, ref.ambiguous)

        perm = rng.permutation(n_pts)
        moved = estimate_tangent_planes(
            pts[perm], NeighborIndex(pts[perm]).resolve_all(query), d
        )
        moved_err = np.max(np.abs(moved.planes - est.planes[perm]), axis=(1, 2))
        assert np.all(moved_err <= ref.rounding[perm])
        assert np.array_equal(moved.ambiguous, est.ambiguous[perm])

    @pytest.mark.parametrize("first", ["few", "collinear"])
    def test_first_degenerate_point_in_second_chunk(self, first):
        # a grid of good points, then (far from the grid and from each
        # other) a lone point with no neighbor but itself and five collinear
        # points: in either order exactly those six are flagged, each with a
        # rank-2 plane
        lone = np.array([[10.0, 10.0, 10.0]])
        line = np.column_stack([20.0 + 0.01 * np.arange(5), np.full(5, 20.0),
                                np.full(5, 20.0)])
        grid = plane_grid(REPORT_BLOCK + 200)
        at = REPORT_BLOCK + 50
        odd = [lone, line] if first == "few" else [line, lone]
        pts = np.vstack([grid[:at], *odd, grid[at:]])
        neighbors = NeighborIndex(pts).resolve_all(NeighborQuery.radius(0.05))
        est = estimate_tangent_planes(pts, neighbors, 2)
        ref = reference_tangent_planes(pts, neighbors, 2)
        assert np.array_equal(est.ambiguous, ref.ambiguous)
        assert np.array_equal(np.flatnonzero(est.ambiguous), at + np.arange(6))
        assert np.array_equal(np.flatnonzero(ref.degenerate), at + np.arange(6))
        odd_planes = est.planes[at:at + 6]
        assert np.allclose(odd_planes @ odd_planes, odd_planes, atol=1e-12)
        assert np.allclose(np.trace(odd_planes, axis1=1, axis2=2), 2.0, atol=1e-12)


def degenerate_cloud(rng, n, d, dups, line, flat, lone):
    """A noisy d-sheet of 40 points in R^n followed by ``dups`` copies of its
    point 0, ``line`` collinear points, ``flat`` points on a (d-1)-flat (one
    location when d = 1) and ``lone`` points far from all others; shuffled,
    so that the odd points land in several chunks."""
    sheet = np.zeros((40, n))
    sheet[:, :d] = rng.uniform(-1.0, 1.0, (40, d))
    sheet[:, d:] = 0.05 * rng.standard_normal((40, n - d))
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    segment = 0.05 * np.arange(line)[:, None] * frame[0]
    flat_pts = rng.uniform(-0.3, 0.3, (flat, d - 1)) @ frame[1:d]
    pts = np.vstack([sheet, np.repeat(sheet[:1], dups, axis=0),
                     3.0 + segment, -3.0 + flat_pts, far_points(lone, n)])
    return pts[rng.permutation(len(pts))]


class TestDegenerateInputs:
    """Duplicates, collinear points, (d-1)-flats and lone points become
    flagged rows: nothing raises or warns, every neighborhood that cannot
    determine a d-plane is flagged, and the thread count changes no bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4, 6]),
        d=st.integers(1, 5),
        knn=st.booleans(),
        k=st.integers(1, 12),
        epsilon=st.floats(0.02, 0.6),
        dups=st.integers(0, 15),
        line=st.integers(0, 10),
        flat=st.integers(0, 10),
        lone=st.integers(0, 3),
    )
    def test_flagged_not_raised(self, seed, n, d, knn, k, epsilon, dups, line,
                                flat, lone):
        d = min(d, n - 1)
        pts = degenerate_cloud(np.random.default_rng(seed), n, d, dups, line,
                               flat, lone)
        query = NeighborQuery.knn(k) if knn else NeighborQuery.radius(epsilon)
        neighbors = NeighborIndex(pts).resolve_all(query)

        def run(workers):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "WORKERS", workers)
                # several calls of several blocks from a small cloud
                mp.setattr(estimator, "REPORT_BLOCK", 16)
                mp.setattr(estimator, "REPORT_CALL", 32)
                est = estimate_tangent_planes(pts, neighbors, d)
                cloud = vc.validate_cloud(pts, est.planes, np.ones(len(pts)), d)
                reports = ()
                if d == n - 1:
                    reports = curvature_report(
                        cloud, neighbors, compare_variants=True,
                        ambiguous=est.ambiguous, collect_a_perp=True,
                    )
            return est, cloud, reports

        est, cloud, reports = run(1)
        ref = reference_tangent_planes(pts, neighbors, d)
        assert np.array_equal(est.ambiguous, ref.ambiguous)
        assert not np.any(ref.degenerate & ~est.ambiguous)
        for rep in reports:
            assert set(rep.status[ref.degenerate]) <= {STATUS_AMBIGUOUS,
                                                       STATUS_ISOLATED}

        est4, cloud4, reports4 = run(4)
        assert est.planes.tobytes() == est4.planes.tobytes()
        assert np.array_equal(est.ambiguous, est4.ambiguous)
        for field in ("planes", "normals", "bases"):
            assert getattr(cloud, field).tobytes() == getattr(cloud4, field).tobytes()
        for one, many in zip(reports, reports4):
            assert np.array_equal(one.status, many.status)
            assert report_bytes(one) == report_bytes(many)


class TestMassEstimation:
    def test_grid_masses(self):
        # interior points of a unit-spacing line: ball with 3 points has
        # radius h, mass = omega_1 h / 3 = 2h/3
        h = 0.25
        pts = np.arange(10.0)[:, None] * h
        masses = estimate_masses(NeighborIndex(pts), 3, 1)
        assert masses[5] == pytest.approx(2.0 * h / 3.0)
        # any cloud: omega_d r^d / n_mass, r from an independent tree
        cloud = np.random.default_rng(3).uniform(0.0, 1.0, (500, 3))
        r = cKDTree(cloud).query(cloud, k=8)[0][:, -1]
        assert np.array_equal(estimate_masses(NeighborIndex(cloud), 8, 2),
                              unit_ball_volume(2) * r**2 / 8)

    def test_n_mass_must_be_an_integer(self):
        # 2.5 used to take the 2nd neighbor's radius and divide by 2.5
        index = NeighborIndex(np.random.default_rng(3).uniform(0.0, 1.0, (50, 3)))
        with pytest.raises(InvalidInputError,
                           match="^--n-mass = 2.5 is not an integer$"):
            estimate_masses(index, 2.5, 2)
        assert np.array_equal(estimate_masses(index, np.int32(8), 2),
                              estimate_masses(index, 8, 2))

    @pytest.mark.parametrize("dim_d", [0, -1, 2.5, 7])
    def test_dimension_checked(self, dim_d):
        # 0 used to give every mass 0.125, -1 ended in unit_ball_volume, 2.5
        # took a fractional power and 7 ran in R^3; the tangent estimate's
        # message names each
        positions = vc.Sphere(1.0).sample(200, seed=0).cloud.positions
        index = NeighborIndex(positions)
        with pytest.raises(InvalidInputError) as tangents:
            estimate_tangent_planes(positions, index.resolve_all(NeighborQuery.knn(10)),
                                    dim_d)
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(str(tangents.value))}$"):
            estimate_masses(index, 8, dim_d)
        assert np.array_equal(estimate_masses(index, 8, np.int64(2)),
                              estimate_masses(index, 8, 2))

    def test_nmass_one_zero_radius(self):
        pts = np.arange(5.0)[:, None]
        with pytest.raises(InvalidInputError,
                           match="mass radius is zero at point 0: at least "
                                 "--n-mass = 1 points sit at its location"):
            estimate_masses(NeighborIndex(pts), 1, 1)

    def test_duplicates_zero_radius(self):
        pts = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(InvalidInputError,
                           match="mass radius is zero at point 1: at least "
                                 "--n-mass = 2 points sit at its location"):
            estimate_masses(NeighborIndex(pts), 2, 1)
        # three points reach past the two copies
        assert np.all(estimate_masses(NeighborIndex(pts), 3, 1) > 0.0)

    def test_masses_remove_density_term(self):
        # a unit-mass sample of density theta on a surface has the first
        # variation -(theta H + grad theta): its approximate mean curvature
        # gains the tangential part grad log theta, which masses estimating
        # the area element remove.  A sphere sample thinned to
        # theta = 0.2 + 0.4 (1 + z) keeps ~9.5k of 16k points; bounds from
        # seeds 0-9 in notes/decisions.md
        sample = vc.Sphere(1.0).sample(16000, seed=0)
        z = sample.cloud.positions[:, 2]
        theta = 0.2 + 0.4 * (1.0 + z)
        keep = np.random.default_rng(0).uniform(size=len(z)) < theta
        pts, planes = sample.cloud.positions[keep], sample.cloud.planes[keep]
        index = NeighborIndex(pts)
        neighbors = index.resolve_all(NeighborQuery.knn(40))
        up = planes[:, :, 2]  # P e_z, along which grad log theta points
        up_norm = np.linalg.norm(up, axis=1)
        band = np.abs(pts[:, 2]) < 0.5
        predicted = np.median((0.4 * up_norm / theta[keep])[band])
        tangential, h_error = [], []
        for masses in (np.ones(len(pts)), estimate_masses(index, 8, 2)):
            cloud = vc.validate_cloud(pts, planes, masses, 2)
            rep = vc.curvature_report(cloud, neighbors)
            along = np.einsum("li,li->l", rep.mean_vectors, up) / up_norm
            tangential.append(np.median(along[band]))
            h_error.append(np.median(np.abs(rep.mean_norm - 2.0)) / 2.0)
        # measured: +0.630 against +0.627; +0.090 with masses; |H| error
        # 0.174 -> 0.083
        assert abs(tangential[0] - predicted) < 0.15 * predicted
        assert abs(tangential[1]) < tangential[0] / 4.0
        assert h_error[1] < h_error[0] / 1.5

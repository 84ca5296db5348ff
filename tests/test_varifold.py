import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varicurv as vc
from varicurv.errors import InvalidInputError

from system_reference import ball, one_row, plane_frames


class TestValidateCloud:
    def test_single_point(self):
        plane = np.array([[1.0, 0.0], [0.0, 0.0]])
        cloud = vc.validate_cloud([[0.0, 0.0]], [plane], [1.0], 1)
        assert cloud.n_points == 1
        assert cloud.ambient_n == 2

    def test_rejects_zero_mass(self):
        plane = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError,
                           match="masses must be finite and strictly positive"):
            vc.validate_cloud([[0.0, 0.0]], [plane], [0.0], 1)

    def test_rejects_wrong_trace(self):
        # trace 1.5 cannot be a rank-2 projector
        plane = np.diag([1.0, 0.5, 0.0])
        with pytest.raises(InvalidInputError,
                           match="plane at index 0 is 0.5 away from a rank-2 projector"):
            vc.validate_cloud([[0.0, 0.0, 0.0]], [plane], [1.0], 2)

    def test_rejects_nan_positions(self):
        plane = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="positions contain NaN or Inf"):
            vc.validate_cloud([[np.nan, 0.0]], [plane], [1.0], 1)

    def test_reprojects_slightly_off_planes(self):
        plane = np.array([[1.0 + 5e-7, 1e-7], [1e-7, -2e-7]])
        cloud = vc.validate_cloud([[0.0, 0.0]], [plane], [1.0], 1)
        p = cloud.planes[0]
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        plane = q @ q.T
        c1 = vc.validate_cloud([[0.0, 0.0, 0.0]], [plane], [2.0], 2)
        c2 = vc.validate_cloud(c1.positions, c1.planes, c1.masses, 2)
        assert np.array_equal(c1.planes, c2.planes)
        assert np.array_equal(c1.positions, c2.positions)
        assert np.array_equal(c1.normals, c2.normals)
        assert np.array_equal(c1.bases, c2.bases)


class TestFrames:
    @settings(max_examples=80, deadline=None)
    @example(seed=0, n=3, codim=1, n_pts=5, perturbed=False)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4, 6, 10]),
        codim=st.integers(0, 9),
        n_pts=st.integers(1, 20),
        perturbed=st.booleans(),
    )
    def test_frames_decompose_planes(self, seed, n, codim, n_pts, perturbed):
        d = max(1, n - codim)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n_pts, n, n)))
        planes = q[:, :, :d] @ q[:, :, :d].transpose(0, 2, 1)
        if perturbed:
            planes = planes + rng.uniform(-1e-8, 1e-8, planes.shape)
        cloud = vc.validate_cloud(rng.standard_normal((n_pts, n)), planes,
                                  np.ones(n_pts), d)
        normals, bases = cloud.normals, cloud.bases
        assert normals.shape == (n_pts, n, n - d)
        assert bases.shape == (n_pts, n, d)
        frame = np.concatenate([normals, bases], axis=2)
        assert np.max(np.abs(frame.transpose(0, 2, 1) @ frame - np.eye(n))) < 1e-12
        assert np.max(np.abs(bases @ bases.transpose(0, 2, 1) - cloud.planes)) < 1e-12
        # sign rule: the first component above 1e-9 of each normal is positive
        first = np.argmax(np.abs(normals) > 1e-9, axis=1)
        assert np.all(np.take_along_axis(normals, first[:, None], axis=1) > 0.0)
        if d == n - 1 and not perturbed:
            ref_normals, ref_bases = plane_frames(cloud.planes)
            assert np.array_equal(normals[..., 0], ref_normals)
            assert np.array_equal(bases, ref_bases)


class TestJunctionCoefficients:
    def test_full_line_vanishes(self):
        spec = vc.JunctionSpec([[1.0, 0.0], [-1.0, 0.0]])
        t = vc.junction_coefficients(spec)
        assert np.max(np.abs(t)) == 0.0
        assert vc.junction_is_curvature_free(spec)

    def test_regular_nine_exactly_zero(self):
        t = vc.junction_coefficients(vc.JunctionSpec.regular(9))
        assert np.all(t == 0.0)
        assert vc.junction_is_curvature_free(vc.JunctionSpec.regular(9))

    def test_regular_three_cosine_sum(self):
        t = vc.junction_coefficients(vc.JunctionSpec.regular(3))
        assert t[0, 0, 0] == 0.75
        assert not vc.junction_is_curvature_free(vc.JunctionSpec.regular(3))

    def test_regular_count_is_not_an_argument(self):
        # a ray count passed with other directions would claim their closed
        # form: these two rays have t_000 = t_111 = 1, not the zero tensor
        # of the regular 9-junction
        with pytest.raises(TypeError):
            vc.JunctionSpec([[1.0, 0.0], [0.0, 1.0]], regular_n=9)
        for n, t000, t011 in ((1, 1.0, 0.0), (3, 0.75, -0.75), (9, 0.0, 0.0)):
            spec = vc.JunctionSpec.regular(n)
            assert spec.regular_n == n
            want = np.zeros((2, 2, 2))
            want[0, 0, 0] = t000
            want[0, 1, 1] = want[1, 0, 1] = want[1, 1, 0] = t011
            assert vc.junction_coefficients(spec).tobytes() == want.tobytes()

    def test_closed_form_matches_numeric(self):
        for n in (2, 3, 5, 9, 12):
            reg = vc.JunctionSpec.regular(n)
            angles = 2.0 * np.pi * np.arange(1, n + 1) / n
            num = vc.JunctionSpec.from_angles(angles)
            t_reg = vc.junction_coefficients(reg)
            t_num = vc.junction_coefficients(num)
            assert np.max(np.abs(t_reg - t_num)) < 1e-13

    def test_single_ray_odd(self):
        u = np.array([0.6, 0.8])
        t_plus = vc.junction_coefficients(vc.JunctionSpec([u]))
        t_minus = vc.junction_coefficients(vc.JunctionSpec([-u]))
        assert np.allclose(t_plus, -t_minus, atol=1e-15)

    def test_symmetric_spec_vanishes(self):
        rng = np.random.default_rng(9)
        angles = rng.uniform(0, np.pi, 4)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        spec = vc.JunctionSpec(np.vstack([dirs, -dirs]))
        t = vc.junction_coefficients(spec)
        assert np.max(np.abs(t)) < 1e-14
        assert vc.junction_is_curvature_free(spec, tol=1e-13)

    def test_rejects_nonunit_directions(self):
        with pytest.raises(InvalidInputError):
            vc.JunctionSpec([[1.0, 1.0]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=8), st.randoms())
def test_junction_permutation_invariance(angles, pyrandom):
    spec = vc.JunctionSpec.from_angles(angles)
    shuffled = list(angles)
    pyrandom.shuffle(shuffled)
    spec2 = vc.JunctionSpec.from_angles(shuffled)
    t1 = vc.junction_coefficients(spec)
    t2 = vc.junction_coefficients(spec2)
    assert np.allclose(t1, t2, atol=1e-12)


class TestSampleJunction:
    def test_two_opposite_rays_collinear(self):
        spec = vc.JunctionSpec([[1.0, 0.0], [-1.0, 0.0]])
        cloud = vc.sample_junction(spec, 5, 0.1)
        assert np.allclose(cloud.positions[:, 1], 0.0)

    def test_point_count(self):
        cloud = vc.sample_junction(vc.JunctionSpec.regular(9), 7, 0.01)
        assert cloud.n_points == 9 * 7 + 1

    def test_origin_first_and_masses(self):
        spec = vc.JunctionSpec.regular(3)
        cloud = vc.sample_junction(spec, 4, 0.25)
        assert np.allclose(cloud.positions[0], 0.0)
        assert np.all(cloud.masses == 0.25)

    def test_smoothed_junction_magnitudes(self):
        # the coefficient-free 9-junction has a much smaller smoothed
        # variation tensor at the origin than the 3-junction, and the
        # 3-junction's magnitude scales like 1/eps
        spacing = 1e-3
        kp = vc.natural_kernel_pair(vc.bump_profile(), 1, 2)
        c9 = vc.sample_junction(vc.JunctionSpec.regular(9), 120, spacing)
        c3 = vc.sample_junction(vc.JunctionSpec.regular(3), 120, spacing)
        mags3 = {}
        for eps in (0.03, 0.05):
            origin = np.zeros(2)
            b9 = one_row(vc.variation_tensor, c9, 0, kp, eps, ball(c9, origin, eps))
            b3 = one_row(vc.variation_tensor, c3, 0, kp, eps, ball(c3, origin, eps))
            assert np.max(np.abs(b9)) <= 0.05 * np.max(np.abs(b3))
            mags3[eps] = np.max(np.abs(b3))
        ratio = mags3[0.03] / mags3[0.05]
        assert ratio == pytest.approx(0.05 / 0.03, rel=0.25)

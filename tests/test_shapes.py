import numpy as np
import pytest

import varicurv as vc
from varicurv.errors import InvalidInputError
from varicurv.shapes import shape_by_name


class TestExactReports:
    def test_sphere_values(self):
        r = vc.Sphere(2.0).exact_report([0.0, 0.0, 2.0])
        assert np.allclose(r.kappas, [0.5, 0.5])
        assert r.gauss == pytest.approx(0.25)
        assert np.allclose(r.normal, [0, 0, -1])
        assert np.allclose(r.mean_vector, [0, 0, -1.0])

    def test_torus_outer_equator(self):
        torus = vc.Torus(2.0, 0.5)
        r = torus.exact_report([2.5, 0.0, 0.0])
        assert np.allclose(sorted(r.kappas), [1.0 / 2.5, 2.0])
        assert r.gauss == pytest.approx(0.8)

    def test_torus_inner_equator_negative_gauss(self):
        torus = vc.Torus(2.0, 0.5)
        r = torus.exact_report([1.5, 0.0, 0.0])
        assert r.gauss < 0

    def test_plane_zeros(self):
        r = vc.PlanePatch(1.0).exact_report([0.1, -0.2, 0.0])
        assert np.all(r.kappas == 0)
        assert r.gauss == 0.0

    def test_cylinder(self):
        r = vc.Cylinder(2.0, 4.0).exact_report([2.0, 0.0, 1.0])
        assert np.allclose(sorted(r.kappas), [0.0, 0.5])
        assert r.gauss == 0.0

    def test_circle(self):
        r = vc.Circle(4.0).exact_report([4.0, 0.0])
        assert r.kappas[0] == pytest.approx(0.25)
        assert np.allclose(r.normal, [-1.0, 0.0])

    def test_rejects_off_shape_points(self):
        with pytest.raises(InvalidInputError):
            vc.Sphere(1.0).exact_report([0.0, 0.0, 1.5])

    def test_cube_face_and_edge(self):
        cube = vc.Cube(1.0)
        face = cube.exact_report([0.5, 0.1, 0.0])
        assert np.all(face.kappas == 0)
        edge = cube.exact_report([0.5, 0.5, 0.1])
        assert np.all(np.isnan(edge.kappas))

    def test_self_consistency(self):
        # gauss is the product, |H| the absolute sum, at every queried point
        shapes_points = [
            (vc.Sphere(1.5), [0.0, 1.5, 0.0]),
            (vc.Torus(2.0, 0.5), [2.5, 0.0, 0.0]),
            (vc.Cylinder(1.0, 2.0), [1.0, 0.0, 0.3]),
        ]
        for shape, point in shapes_points:
            r = shape.exact_report(point)
            assert r.gauss == pytest.approx(np.prod(r.kappas))
            assert np.linalg.norm(r.mean_vector) == pytest.approx(
                abs(np.sum(r.kappas))
            )


class TestSamplers:
    @pytest.mark.parametrize("name,kwargs", [
        ("sphere", {"radius": 1.0}),
        ("circle", {"radius": 2.0}),
        ("torus", {"r_major": 2.0, "r_minor": 0.5}),
        ("cylinder", {"radius": 1.0, "height": 2.0}),
        ("plane", {"side": 1.0}),
        ("cube", {"side": 1.0}),
    ])
    def test_sample_validates_and_counts(self, name, kwargs):
        shape = shape_by_name(name, **kwargs)
        sample = shape.sample(500, seed=7)
        assert sample.cloud.n_points == 500
        assert sample.kappas.shape == (500, shape.dim_d)

    def test_unknown_shape(self):
        with pytest.raises(InvalidInputError):
            shape_by_name("klein-bottle")

    def test_determinism_under_seed(self):
        a = vc.Sphere(1.0).sample(300, seed=5)
        b = vc.Sphere(1.0).sample(300, seed=5)
        assert np.array_equal(a.cloud.positions, b.cloud.positions)
        c = vc.Sphere(1.0).sample(300, seed=6)
        assert not np.array_equal(a.cloud.positions, c.cloud.positions)

    def test_sphere_density_uniform(self):
        # equal-area z-slices times longitude sectors; counts should not
        # exceed the multinomial 3-sigma envelope (chi-square statistic)
        sample = vc.Sphere(1.0).sample(10000, seed=42)
        pts = sample.cloud.positions
        nz, nphi = 5, 8
        zbin = np.clip(((pts[:, 2] + 1.0) / 2.0 * nz).astype(int), 0, nz - 1)
        phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
        pbin = np.clip((phi / (2 * np.pi) * nphi).astype(int), 0, nphi - 1)
        counts = np.bincount(zbin * nphi + pbin, minlength=nz * nphi)
        expected = 10000 / (nz * nphi)
        chi2 = np.sum((counts - expected) ** 2 / expected)
        dof = nz * nphi - 1
        assert chi2 <= dof + 3 * np.sqrt(2 * dof)

    def test_torus_density_follows_area(self):
        torus = vc.Torus(2.0, 0.5)
        sample = torus.sample(20000, seed=1)
        pts = sample.cloud.positions
        rho = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 2], rho - 2.0)
        # acceptance fraction on outer half vs inner half matches the area
        # ratio (R + r cos t) integrated
        outer = np.sum(np.abs(theta) < np.pi / 2)
        frac = outer / 20000
        # int over |t|<pi/2 of (2 + .5 cos t) dt / int total = (pi + 1)/(2 pi)
        assert frac == pytest.approx((2 * np.pi + 2 * 0.5) / (4 * np.pi), abs=0.01)

    def test_cube_paper_scale_and_edge_distance(self):
        cube = vc.Cube(1.0)
        sample = cube.sample(21602, seed=3)
        assert sample.cloud.n_points == 21602
        assert sample.edge_distance is not None
        assert np.all(sample.edge_distance >= 0)
        assert np.max(np.abs(sample.base_points)) == pytest.approx(0.5)

    def test_noise_moves_positions_only(self):
        clean = vc.Sphere(1.0).sample(200, seed=9)
        noisy = vc.Sphere(1.0).sample(200, noise_sigma=0.01, seed=9)
        assert np.array_equal(clean.cloud.planes, noisy.cloud.planes)
        assert not np.array_equal(clean.cloud.positions, noisy.cloud.positions)
        radii = np.linalg.norm(noisy.cloud.positions, axis=1)
        assert np.std(radii) > 1e-4

    def test_min_points_guard(self):
        with pytest.raises(InvalidInputError):
            vc.Sphere(1.0).sample(5)


class TestGradientTensor:
    def test_sphere_tensor_traces(self):
        sph = vc.Sphere(1.0)
        x = np.array([0.0, 0.0, 1.0])
        a = sph.gradient_tensor(x)
        # sum_q a_qiq = mean curvature vector = -d x / R^2
        h = np.einsum("qiq->i", a)
        assert np.allclose(h, -2.0 * x)
        # jk symmetry
        assert np.allclose(a, a.transpose(0, 2, 1))

    def test_circle_tensor_traces(self):
        circ = vc.Circle(2.0)
        x = np.array([2.0, 0.0])
        a = circ.gradient_tensor(x)
        h = np.einsum("qiq->i", a)
        assert np.allclose(h, -x / 4.0)

import re

import numpy as np
import pytest

import varicurv as vc
from varicurv.errors import InvalidInputError
from varicurv.shapes import SHAPES, ShapeSample
from varicurv.varifold import normal_planes

ALL_SHAPES = [
    ("sphere", {"radius": 1.0}),
    ("circle", {"radius": 2.0}),
    ("torus", {"r_major": 2.0, "r_minor": 0.5}),
    ("cylinder", {"radius": 1.0, "height": 2.0}),
    ("plane", {"side": 1.0}),
    ("cube", {"side": 1.0}),
]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def oracle(shape, points):
    """The exact report at ``points`` as a cloud-less ``ShapeSample``, whose
    ``gauss`` and ``mean_vectors`` derive from it."""
    kappas, normals = shape.exact_report(points)
    return ShapeSample(None, np.asarray(points, dtype=float), kappas, normals)


class TestExactReports:
    def test_sphere_values(self):
        exact = oracle(vc.Sphere(2.0), [[0.0, 0.0, 2.0]])
        assert np.allclose(exact.kappas[0], [0.5, 0.5])
        assert exact.gauss[0] == pytest.approx(0.25)
        assert np.allclose(exact.normals[0], [0, 0, -1])
        assert np.allclose(exact.mean_vectors[0], [0, 0, -1.0])

    def test_torus_outer_equator(self):
        torus = vc.Torus(2.0, 0.5)
        exact = oracle(torus, [[2.5, 0.0, 0.0]])
        assert np.allclose(sorted(exact.kappas[0]), [1.0 / 2.5, 2.0])
        assert exact.gauss[0] == pytest.approx(0.8)

    def test_torus_inner_equator_negative_gauss(self):
        torus = vc.Torus(2.0, 0.5)
        assert oracle(torus, [[1.5, 0.0, 0.0]]).gauss[0] < 0

    def test_plane_zeros(self):
        exact = oracle(vc.PlanePatch(1.0), [[0.1, -0.2, 0.0]])
        assert np.all(exact.kappas[0] == 0)
        assert exact.gauss[0] == 0.0

    def test_cylinder(self):
        exact = oracle(vc.Cylinder(2.0, 4.0), [[2.0, 0.0, 1.0]])
        assert np.allclose(sorted(exact.kappas[0]), [0.0, 0.5])
        assert exact.gauss[0] == 0.0

    def test_circle(self):
        kappas, normals = vc.Circle(4.0).exact_report([[4.0, 0.0]])
        assert kappas[0][0] == pytest.approx(0.25)
        assert np.allclose(normals[0], [-1.0, 0.0])

    def test_rejects_off_shape_points(self):
        with pytest.raises(InvalidInputError):
            vc.Sphere(1.0).exact_report([[0.0, 0.0, 1.5]])

    def test_cube_face_and_edge(self):
        cube = vc.Cube(1.0)
        face_kappas = cube.exact_report([[0.5, 0.1, 0.0]])[0]
        assert np.all(face_kappas[0] == 0)
        edge_kappas = cube.exact_report([[0.5, 0.5, 0.1]])[0]
        assert np.all(np.isnan(edge_kappas[0]))

    def test_self_consistency(self):
        # gauss is the product, |H| the absolute sum, at every sampled point
        for shape in (vc.Sphere(1.5), vc.Torus(2.0, 0.5), vc.Cylinder(1.0, 2.0)):
            sample = shape.sample(200, seed=4)
            assert np.allclose(sample.gauss, np.prod(sample.kappas, axis=1),
                               rtol=1e-12, atol=0)
            assert np.allclose(np.linalg.norm(sample.mean_vectors, axis=1),
                               np.abs(np.sum(sample.kappas, axis=1)),
                               rtol=1e-12, atol=0)


class TestArrayOracle:
    @pytest.mark.parametrize("name,kwargs", ALL_SHAPES)
    def test_one_call_matches_row_calls_and_sample(self, name, kwargs):
        shape = SHAPES[name](**kwargs)
        sample = shape.sample(500, seed=7)
        base = sample.base_points
        whole = oracle(shape, base)
        rows = [shape.exact_report(base[i : i + 1]) for i in range(len(base))]
        by_row = ShapeSample(None, base, *map(np.concatenate, zip(*rows)))
        for field in ("kappas", "normals", "gauss", "mean_vectors"):
            assert_same_bits(getattr(whole, field), getattr(by_row, field))
            assert_same_bits(getattr(whole, field), getattr(sample, field))

    @pytest.mark.parametrize("name,kwargs", ALL_SHAPES)
    def test_sample_calls_the_oracle_once(self, name, kwargs, monkeypatch):
        shape = SHAPES[name](**kwargs)
        original = type(shape).exact_report
        calls = []

        def counting(self, points):
            calls.append(len(points))
            return original(self, points)

        monkeypatch.setattr(type(shape), "exact_report", counting)
        shape.sample(500, seed=0)
        assert calls == [500]

    def test_cube_nan_exactly_on_edge_and_corner_rows(self):
        points = [
            [0.5, 0.1, 0.0],     # face
            [0.5, 0.5, 0.1],     # edge
            [-0.5, 0.5, -0.5],   # corner
            [0.2, -0.5, 0.3],    # face
        ]
        exact = oracle(vc.Cube(1.0), points)
        kappas, normals = exact.kappas, exact.normals
        gauss, mean = exact.gauss, exact.mean_vectors
        singular = np.array([False, True, True, False])
        assert np.array_equal(np.isnan(gauss), singular)
        assert np.all(np.isnan(kappas) == singular[:, None])
        assert np.all(np.isnan(mean) == singular[:, None])
        assert np.all(kappas[~singular] == 0) and np.all(mean[~singular] == 0)
        # inward: against the sign of the face's coordinate
        assert np.array_equal(normals[~singular], [[-1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("shape,off_point", [
        (vc.Sphere(1.0), [0.0, 0.0, 1.5]),
        (vc.Torus(2.0, 0.5), [3.0, 0.0, 0.0]),
    ])
    def test_rejection_names_the_first_off_shape_row(self, shape, off_point):
        points = shape.sample(10, seed=0).base_points[:7].copy()
        points[3] = off_point
        points[5] = off_point
        with pytest.raises(InvalidInputError,
                           match=f"point 3 is 0.5 away from the {shape.name}"):
            shape.exact_report(points)

    @pytest.mark.parametrize("name,kwargs", ALL_SHAPES)
    def test_rejects_non_finite_rows(self, name, kwargs):
        shape = SHAPES[name](**kwargs)
        points = shape.sample(10, seed=0).base_points.copy()
        points[4, 0] = np.nan
        points[6, 1] = np.inf
        with pytest.raises(InvalidInputError, match="point 4 has a NaN or Inf"):
            shape.exact_report(points)

    def test_rejects_a_single_point_that_is_not_a_row_array(self):
        with pytest.raises(InvalidInputError, match=r"\(N, 3\) array"):
            vc.Sphere(1.0).exact_report([0.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError, match=r"\(N, 2\) array"):
            vc.Circle(1.0).exact_report([[1.0, 0.0, 0.0]])


class TestSamplers:
    @pytest.mark.parametrize("name,kwargs", ALL_SHAPES)
    def test_sample_validates_and_counts(self, name, kwargs):
        shape = SHAPES[name](**kwargs)
        sample = shape.sample(500, seed=7)
        assert sample.cloud.n_points == 500
        assert sample.kappas.shape == (500, shape.dim_d)
        # the shape states its surface once: the planes are I - nu nu^T of
        # the exact normals, bit for bit
        assert_same_bits(sample.cloud.planes, normal_planes(sample.normals))

    def test_table_keys_are_class_names(self):
        assert [name for name, _ in ALL_SHAPES] == list(SHAPES)
        # each name is set in its class body, so no instance is needed
        for name, cls in SHAPES.items():
            assert vars(cls)["name"] == name

    @pytest.mark.parametrize("cls, kwargs, message", [
        (vc.Sphere, {"radius": np.nan}, "radius must be positive and finite, got nan"),
        (vc.Circle, {"radius": np.inf}, "radius must be positive and finite, got inf"),
        (vc.Circle, {"radius": 0.0}, "radius must be positive and finite, got 0.0"),
        (vc.Torus, {"r_major": np.inf},
         "need 0 < r_minor < r_major < inf, got r_minor=0.5, r_major=inf"),
        (vc.Torus, {"r_minor": np.nan},
         "need 0 < r_minor < r_major < inf, got r_minor=nan, r_major=2.0"),
        (vc.Torus, {"r_minor": 3.0}, "need 0 < r_minor < r_major"),
        (vc.Cylinder, {"height": np.nan},
         "radius and height must be positive and finite, got radius=1.0, height=nan"),
        (vc.Cylinder, {"radius": -1.0}, "radius=-1.0"),
        (vc.PlanePatch, {"side": np.inf}, "side must be positive and finite, got inf"),
        (vc.Cube, {"side": np.nan}, "side must be positive and finite, got nan"),
    ])
    def test_rejects_non_finite_or_non_positive_parameters(self, cls, kwargs, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            cls(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"noise_sigma": -0.5}, "noise must be finite and non-negative, got -0.5"),
        ({"noise_sigma": np.nan}, "noise must be finite and non-negative, got nan"),
        ({"noise_sigma": np.inf}, "noise must be finite and non-negative, got inf"),
    ])
    def test_sample_rejects_negative_seed_and_bad_noise(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            vc.Cube(1.0).sample(100, **kwargs)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((100.5,), {}, "n_points = 100.5 is not an integer"),
        ((100,), {"seed": 1.5}, "seed = 1.5 is not an integer"),
    ])
    def test_sample_counts_must_be_integers(self, args, kwargs, message):
        # both used to end in a TypeError from numpy
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            vc.Sphere(1.0).sample(*args, **kwargs)

    def test_numpy_integer_counts(self):
        a = vc.Sphere(1.0).sample(np.int64(300), seed=np.int32(5))
        b = vc.Sphere(1.0).sample(300, seed=5)
        assert_same_bits(a.cloud.positions, b.cloud.positions)

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

    def test_edge_distance_from_points(self):
        # a face point's distance to the nearest edge of its face; shapes
        # without edges have none
        cube = vc.Cube(2.0)
        got = cube.edge_distance([[1.0, 0.25, -0.5], [-0.875, -1.0, 0.0],
                                  [0.25, -0.125, 1.0]])
        assert np.array_equal(got, [0.5, 0.125, 0.75])
        sample = cube.sample(300, seed=1)
        assert_same_bits(sample.edge_distance, cube.edge_distance(sample.base_points))
        assert vc.Sphere(1.0).sample(100).edge_distance is None

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
        a = sph.gradient_tensor(x[None])[0]
        # sum_q a_qiq = mean curvature vector = -d x / R^2
        h = np.einsum("qiq->i", a)
        assert np.allclose(h, -2.0 * x)
        # jk symmetry
        assert np.allclose(a, a.transpose(0, 2, 1))

    def test_circle_tensor_traces(self):
        circ = vc.Circle(2.0)
        x = np.array([2.0, 0.0])
        a = circ.gradient_tensor(x[None])[0]
        h = np.einsum("qiq->i", a)
        assert np.allclose(h, -x / 4.0)

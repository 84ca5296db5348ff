"""Analytic shapes with exact curvature fields and area-uniform samplers.

Each shape states its surface once: ``exact_report`` takes an ``(N, n)``
array of points on the shape and returns ``(kappas (N, d), normals (N, n))``
in one call (a single point is a one-row array), the classical principal
curvatures and inward unit normals, from which ``ShapeSample`` derives the
Gauss curvature and mean curvature vector.  A sample's exact planes are the
complements ``I - nu nu^T`` of those normals (``varifold.normal_planes``).
Principal curvatures are reported with respect to the inward normal, so
convex shapes get positive values; the estimator side only recovers curvature
signs up to a global flip per point, which callers account for when comparing.

Sampling is area-uniform by low-discrepancy construction (golden-angle
spirals, inverse-CDF stratification), randomized per seed by global rotations
and sequence offsets.  Independent uniform draws would put an
O(1/sqrt(k_neighbors)) noise floor under every kernel-weighted estimate,
drowning the convergence rates this module exists to expose; quasi-uniform
clouds match the mesh-derived datasets the estimator targets.

Positions can be perturbed by isotropic Gaussian noise (planes stay exact).
``SHAPES`` maps each shape's ``name`` to its class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .varifold import PointCloudVarifold, normal_planes, validate_cloud


@dataclass(frozen=True)
class ShapeSample:
    """A sampled cloud, whose planes are the complements of ``normals``,
    plus per-point ground truth at the pre-noise points: ``gauss`` is the
    product of the kappas, ``mean_vectors`` their sum times the inward
    normal."""

    cloud: PointCloudVarifold
    base_points: np.ndarray
    kappas: np.ndarray
    normals: np.ndarray
    edge_distance: np.ndarray | None = None

    @property
    def gauss(self) -> np.ndarray:
        return self.kappas.prod(axis=1)

    @property
    def mean_vectors(self) -> np.ndarray:
        return self.kappas.sum(axis=1)[:, None] * self.normals


_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# Plastic-number reciprocals: the standard 2-d low-discrepancy lattice shifts.
_PLASTIC = 1.324717957244746
_R2_SHIFT = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])


def _r2_sequence(m: int, offset: np.ndarray) -> np.ndarray:
    """m low-discrepancy points in [0,1)^2 (shifted plastic lattice)."""
    i = np.arange(1, m + 1)[:, None]
    return np.mod(offset[None, :] + i * _R2_SHIFT[None, :], 1.0)


def _random_rotation(n: int, rng) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class AnalyticShape(abc.ABC):
    """Base class: a sampler plus exact curvature evaluation."""

    name: str
    dim_d: int
    ambient_n: int

    @abc.abstractmethod
    def _draw(self, n_points: int, rng) -> np.ndarray:
        """Return ``(n_points, n)`` points at exact surface positions."""

    @abc.abstractmethod
    def exact_report(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Exact curvatures at an ``(N, n)`` array of points on the shape.

        Returns ``(kappas (N, d), normals (N, n))``, the principal
        curvatures (descending, NaN where the shape has none) and the inward
        unit normals (+z on the plane patch, which has no inside), row ``l``
        belonging to point ``l``.  Every row must be finite and lie within
        1e-9 of the shape; otherwise :class:`InvalidInputError` names the
        first row that does not.
        """

    def edge_distance(self, points) -> np.ndarray | None:
        """Each point's distance to the nearest edge; None without edges."""
        return None

    def sample(
        self, n_points: int, noise_sigma: float = 0.0, seed: int = 0
    ) -> ShapeSample:
        if n_points < 10:
            raise InvalidInputError(f"need at least 10 sample points, got {n_points}")
        if not 0.0 <= noise_sigma < np.inf:
            raise InvalidInputError(
                f"noise must be finite and non-negative, got {noise_sigma}")
        if seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        base = self._draw(n_points, rng)
        positions = base
        if noise_sigma > 0.0:
            positions = base + rng.normal(0.0, noise_sigma, size=base.shape)
        kappas, normals = self.exact_report(base)
        cloud = validate_cloud(positions, normal_planes(normals), np.ones(n_points),
                               dim_d=self.dim_d)
        return ShapeSample(cloud, base, kappas, normals, self.edge_distance(base))


def _rows(points, ambient_n: int) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != ambient_n:
        raise InvalidInputError(
            f"expected an (N, {ambient_n}) array of points, got shape {p.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"point {bad[0]} has a NaN or Inf coordinate")
    return p


def _require_on_shape(dev: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(dev > 1e-9)
    if bad.size:
        i = bad[0]
        raise InvalidInputError(f"point {i} is {dev[i]:.3g} away from the {what}")


class _RoundSphere(AnalyticShape):
    """The d-sphere of radius R in R^(d+1); subclasses fix d and the sampler."""

    def __init__(self, radius: float = 1.0):
        if not 0 < radius < np.inf:
            raise InvalidInputError(f"radius must be positive and finite, got {radius}")
        self.radius = radius

    def exact_report(self, points):
        p = _rows(points, self.ambient_n)
        # stacked one-vector dot products round like np.linalg.norm of a row
        r = np.sqrt((p[:, None, :] @ p[:, :, None])[:, 0, 0])
        _require_on_shape(np.abs(r - self.radius), self.name)
        return np.full((len(p), self.dim_d), 1.0 / self.radius), -(p / r[:, None])

    def gradient_tensor(self, points) -> np.ndarray:
        """Exact gradient-form curvature tensors, ``(N, n, n, n)``:
        -(P_ij x_k + P_ik x_j)/R^2 at each row x."""
        p = _rows(points, self.ambient_n)
        proj = np.eye(self.ambient_n) - np.einsum("li,lj->lij", p, p) / (
            self.radius**2
        )
        t = np.einsum("lij,lk->lijk", proj, p) + np.einsum("lik,lj->lijk", proj, p)
        return -t / self.radius**2


class Sphere(_RoundSphere):
    name = "sphere"
    dim_d = 2
    ambient_n = 3

    def _draw(self, n_points, rng):
        # Golden-angle spiral: stratified heights (Archimedes projection) with
        # golden-ratio longitudes, randomized by a global rotation.
        i = np.arange(n_points)
        z = 1.0 - 2.0 * (i + 0.5) / n_points
        phi = _GOLDEN_ANGLE * i + rng.uniform(0.0, 2.0 * np.pi)
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        unit = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
        return self.radius * (unit @ _random_rotation(3, rng).T)


class Circle(_RoundSphere):
    name = "circle"
    dim_d = 1
    ambient_n = 2

    def _draw(self, n_points, rng):
        theta = 2.0 * np.pi * (np.arange(n_points) + 0.5) / n_points
        theta = theta + rng.uniform(0.0, 2.0 * np.pi)
        return self.radius * np.column_stack([np.cos(theta), np.sin(theta)])


class Torus(AnalyticShape):
    name = "torus"
    dim_d = 2
    ambient_n = 3

    def __init__(self, r_major: float = 2.0, r_minor: float = 0.5):
        if not 0 < r_minor < r_major < np.inf:
            raise InvalidInputError(f"need 0 < r_minor < r_major < inf, got "
                                    f"r_minor={r_minor}, r_major={r_major}")
        self.r_major = r_major
        self.r_minor = r_minor

    def _point(self, theta, phi):
        ring = self.r_major + self.r_minor * np.cos(theta)
        return np.column_stack(
            [ring * np.cos(phi), ring * np.sin(phi), self.r_minor * np.sin(theta)]
        )

    def _draw(self, n_points, rng):
        # Area element is proportional to R + r cos(theta); invert its CDF
        # F(theta) = (R theta + r sin(theta)) / (2 pi R) on stratified
        # quantiles by Newton (monotone since r < R), golden-angle azimuths.
        i = np.arange(n_points)
        v = np.mod((i + 0.5) / n_points + rng.uniform(), 1.0)
        target = 2.0 * np.pi * self.r_major * v
        thetas = 2.0 * np.pi * v
        for _ in range(30):
            g = self.r_major * thetas + self.r_minor * np.sin(thetas) - target
            thetas -= g / (self.r_major + self.r_minor * np.cos(thetas))
        phis = _GOLDEN_ANGLE * i + rng.uniform(0.0, 2.0 * np.pi)
        return self._point(thetas, phis)

    def exact_report(self, points):
        p = _rows(points, self.ambient_n)
        phi = np.arctan2(p[:, 1], p[:, 0])
        theta = np.arctan2(p[:, 2], np.hypot(p[:, 0], p[:, 1]) - self.r_major)
        dev = np.linalg.norm(p - self._point(theta, phi), axis=1)
        _require_on_shape(dev, self.name)
        cos_t = np.cos(theta)
        normals = -np.column_stack(
            [cos_t * np.cos(phi), cos_t * np.sin(phi), np.sin(theta)]
        )
        k_tube = 1.0 / self.r_minor
        k_ring = cos_t / (self.r_major + self.r_minor * cos_t)
        # k_ring <= 1/(R + r) < k_tube, so the columns are already descending
        return np.column_stack([np.full(len(p), k_tube), k_ring]), normals


class Cylinder(AnalyticShape):
    name = "cylinder"
    dim_d = 2
    ambient_n = 3

    def __init__(self, radius: float = 1.0, height: float = 2.0):
        if not (0 < radius < np.inf and 0 < height < np.inf):
            raise InvalidInputError(f"radius and height must be positive and finite, "
                                    f"got radius={radius}, height={height}")
        self.radius = radius
        self.height = height

    def _draw(self, n_points, rng):
        i = np.arange(n_points)
        phi = _GOLDEN_ANGLE * i + rng.uniform(0.0, 2.0 * np.pi)
        z = (np.mod((i + 0.5) / n_points + rng.uniform(), 1.0) - 0.5) * self.height
        return np.column_stack(
            [self.radius * np.cos(phi), self.radius * np.sin(phi), z]
        )

    def exact_report(self, points):
        p = _rows(points, self.ambient_n)
        rho = np.hypot(p[:, 0], p[:, 1])
        _require_on_shape(np.abs(rho - self.radius), self.name)
        zeros = np.zeros(len(p))
        normals = -np.column_stack([p[:, 0] / rho, p[:, 1] / rho, zeros])
        return np.column_stack([np.full(len(p), 1.0 / self.radius), zeros]), normals


class PlanePatch(AnalyticShape):
    """The square patch |x|, |y| <= side/2 of the plane z = 0.  It has no
    inside, so its normal is +z."""

    name = "plane"
    dim_d = 2
    ambient_n = 3

    def __init__(self, side: float = 1.0):
        if not 0 < side < np.inf:
            raise InvalidInputError(f"side must be positive and finite, got {side}")
        self.side = side

    def _draw(self, n_points, rng):
        uv = _r2_sequence(n_points, rng.uniform(size=2))
        return np.column_stack([(uv - 0.5) * self.side, np.zeros(n_points)])

    def exact_report(self, points):
        p = _rows(points, self.ambient_n)
        _require_on_shape(np.abs(p[:, 2]), self.name)
        n = len(p)
        normals = np.tile([0.0, 0.0, 1.0], (n, 1))
        return np.zeros((n, 2)), normals


class Cube(AnalyticShape):
    """Surface of an axis-aligned cube; faces are flat, edges are singular."""

    name = "cube"
    dim_d = 2
    ambient_n = 3

    def __init__(self, side: float = 1.0):
        if not 0 < side < np.inf:
            raise InvalidInputError(f"side must be positive and finite, got {side}")
        self.side = side

    def _draw(self, n_points, rng):
        half = self.side / 2.0
        base, extra = divmod(n_points, 6)
        counts = [base + (1 if f < extra else 0) for f in range(6)]
        pts = np.empty((n_points, 3))
        row = 0
        for face in range(6):
            axis, sign = divmod(face, 2)
            sign = 1.0 if sign == 0 else -1.0
            m = counts[face]
            uv = (_r2_sequence(m, rng.uniform(size=2)) - 0.5) * self.side
            block = np.empty((m, 3))
            others = [a for a in range(3) if a != axis]
            block[:, axis] = sign * half
            block[:, others[0]] = uv[:, 0]
            block[:, others[1]] = uv[:, 1]
            pts[row : row + m] = block
            row += m
        return pts

    def exact_report(self, points):
        p = _rows(points, self.ambient_n)
        half = self.side / 2.0
        a = np.abs(p)
        _require_on_shape(np.abs(a.max(axis=1) - half), f"{self.name} surface")
        rows = np.arange(len(p))
        axis = a.argmax(axis=1)
        normals = np.zeros_like(p)
        normals[rows, axis] = -np.sign(p[rows, axis])
        # Edge or corner: no classical pointwise curvature.
        fill = np.where((np.abs(a - half) < 1e-12).sum(axis=1) > 1, np.nan, 0.0)
        return np.repeat(fill[:, None], 2, axis=1), normals

    def edge_distance(self, points):
        # a face point's largest coordinate in size is its face's half side
        a = np.sort(np.abs(_rows(points, self.ambient_n)), axis=1)
        return self.side / 2.0 - a[:, -2]


# Every shape by its name; the CLI's --shape choices.
SHAPES = {cls.name: cls for cls in (Sphere, Circle, Torus, Cylinder, PlanePatch,
                                    Cube)}

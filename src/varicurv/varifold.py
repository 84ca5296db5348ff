"""Discrete varifold data model.

A point-cloud d-varifold is a finite list of (position, d-plane, mass)
triplets; the measure it represents is a weighted sum of Dirac masses on
position x plane pairs.  This module validates raw arrays into that form and
implements the planar half-line junction family, whose variations concentrate
a rank-3 coefficient tensor at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _integer

PLANE_PROJECT_TOL = 1e-6


@dataclass(frozen=True)
class PointCloudVarifold:
    """Validated point cloud with tangent planes, their frames and masses.

    positions: (N, n) float array
    planes:    (N, n, n) stack of rank-d orthogonal projection matrices
    masses:    (N,) strictly positive weights
    normals:   (N, n, n-d) orthonormal columns spanning each plane's
               complement; the first component above 1e-9 in magnitude of
               each column is positive
    bases:     (N, n, d) orthonormal columns spanning each plane

    Immutable after validation.  Construct through :func:`validate_cloud`,
    whose eigendecomposition of the planes gives the frames.
    """

    positions: np.ndarray
    planes: np.ndarray
    masses: np.ndarray
    dim_d: int
    normals: np.ndarray
    bases: np.ndarray

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def ambient_n(self) -> int:
        return self.positions.shape[1]


def normal_planes(normals) -> np.ndarray:
    """The (N, n, n) projectors I - nu nu^T onto the planes orthogonal to
    the (N, n) unit normals nu."""
    return np.eye(normals.shape[1])[None] - np.einsum("li,lj->lij", normals, normals)


def validate_cloud(positions, planes, masses, dim_d: int) -> PointCloudVarifold:
    """Validate raw arrays into a PointCloudVarifold.

    Planes are symmetrized and re-projected onto the nearest rank-d
    projector when within 1e-6 (entrywise), rejected beyond that.  The same
    eigendecomposition gives the cloud its frames: the d top eigenvectors
    are the tangent basis and the others the normals, each normal signed so
    that its first component above 1e-9 in magnitude is positive.  Masses
    must be strictly positive, coordinates finite and ``dim_d`` an integer
    in 1..n.  Idempotent: feeding a
    validated cloud's arrays back in reproduces them and their frames.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    planes = np.asarray(planes, dtype=float)
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    n_pts, n = positions.shape
    if planes.shape != (n_pts, n, n):
        raise InvalidInputError(
            f"planes shape {planes.shape} != ({n_pts}, {n}, {n})"
        )
    if masses.shape != (n_pts,):
        raise InvalidInputError("masses length does not match positions")
    if n_pts < 1:
        raise InvalidInputError("cloud must contain at least one point")
    dim_d = _integer(dim_d, "dim_d")
    if not (1 <= dim_d <= n):
        raise InvalidInputError(f"need 1 <= d <= n, got d={dim_d}, n={n}")
    if not np.all(np.isfinite(positions)):
        raise InvalidInputError("positions contain NaN or Inf")
    if not np.all(np.isfinite(planes)):
        raise InvalidInputError("planes contain NaN or Inf")
    if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
        raise InvalidInputError("masses must be finite and strictly positive")

    sym = 0.5 * (planes + planes.transpose(0, 2, 1))
    w, v = np.linalg.eigh(sym)
    # Nearest rank-d projector: keep the d top eigendirections.
    keep = np.zeros_like(w)
    keep[:, n - dim_d:] = 1.0
    projected = np.einsum("lab,lb,lcb->lac", v, keep, v)
    projected = 0.5 * (projected + projected.transpose(0, 2, 1))
    drift = np.max(np.abs(projected - planes), axis=(1, 2))
    bad = np.nonzero(drift > PLANE_PROJECT_TOL)[0]
    if bad.size:
        raise InvalidInputError(
            f"plane at index {bad[0]} is {drift[bad[0]]:.3g} away from a "
            f"rank-{dim_d} projector (tolerance {PLANE_PROJECT_TOL:g})"
        )
    # Keep planes that are already projectors (makes validation idempotent);
    # the eigendecomposition round trip is not bitwise stable.
    exact = drift <= 1e-12
    projected[exact] = sym[exact]
    normals = v[:, :, :n - dim_d]
    first = np.argmax(np.abs(normals) > 1e-9, axis=1)
    signs = np.sign(np.take_along_axis(normals, first[:, None], axis=1))
    signs[signs == 0] = 1.0
    return PointCloudVarifold(positions, projected, masses, dim_d,
                              normals * signs, v[:, :, n - dim_d:])


@dataclass(frozen=True)
class JunctionSpec:
    """Union of half-lines from the origin in R^2, given by unit directions.

    ``regular_n`` is not a constructor argument: only :meth:`regular` sets
    it, to the ray count of the regular junction it builds, so it never
    contradicts the directions.  It unlocks exact closed-form coefficient
    evaluation through harmonic sums; every other spec has it None.
    """

    directions: np.ndarray
    regular_n: int | None = field(default=None, init=False)

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if dirs.shape[1] != 2:
            raise InvalidInputError("junction directions must live in R^2")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise InvalidInputError("junction directions must be unit vectors")
        object.__setattr__(self, "directions", dirs)

    @classmethod
    def from_angles(cls, angles) -> "JunctionSpec":
        angles = np.asarray(angles, dtype=float)
        return cls(np.column_stack([np.cos(angles), np.sin(angles)]))

    @classmethod
    def regular(cls, n_rays: int) -> "JunctionSpec":
        """Regular junction: rays at angles 2*pi*l/n_rays, l = 1..n_rays."""
        if n_rays < 1:
            raise InvalidInputError("need at least one ray")
        angles = 2.0 * np.pi * np.arange(1, n_rays + 1) / n_rays
        spec = cls(np.column_stack([np.cos(angles), np.sin(angles)]))
        object.__setattr__(spec, "regular_n", n_rays)
        return spec

    @property
    def n_rays(self) -> int:
        return self.directions.shape[0]


def junction_coefficients(spec: JunctionSpec) -> np.ndarray:
    """Coefficient tensor t_ijk = sum_l u_i u_j u_k of the junction's variations.

    The junction's weak curvature tensor vanishes iff t is identically zero,
    equivalently iff the first and third angular harmonics of the direction
    set both vanish.  For regular junctions those harmonic sums are exact
    integers, so the returned tensor is exact (e.g. exactly zero for the
    regular 9-junction, and t_000 exactly 3/4 for the regular 3-junction).
    """
    if spec.regular_n is not None:
        # Third-degree monomials in (cos a, sin a) via the harmonic sums over
        # a_l = 2 pi l / n: sum cos(m a_l) is n where n divides m, else 0,
        # and every sine sum is 0, so the monomials odd in sin a vanish.
        n = spec.regular_n
        c1, c3 = (float(n) if m % n == 0 else 0.0 for m in (1, 3))
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = (3.0 * c1 + c3) / 4.0
        t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = (c1 - c3) / 4.0
        return t
    u = spec.directions
    return np.einsum("li,lj,lk->ijk", u, u, u)


def junction_is_curvature_free(spec: JunctionSpec, tol: float = 1e-12) -> bool:
    """True iff the junction's weak curvature tensor vanishes identically."""
    if spec.regular_n is not None:
        # Harmonic sums vanish iff n does not divide the harmonic order, so
        # the first/third-harmonic conditions read n >= 2 and n not in {1, 3}.
        return spec.regular_n >= 2 and spec.regular_n != 3
    t = junction_coefficients(spec)
    first_moment = spec.directions.sum(axis=0)
    return bool(np.max(np.abs(t)) <= tol and np.max(np.abs(first_moment)) <= tol)


def sample_junction(
    spec: JunctionSpec, points_per_ray: int, spacing: float
) -> PointCloudVarifold:
    """Discretize a junction as a 1-varifold point cloud.

    The origin comes first (index 0); ray l then contributes points at
    s * u_l for s = spacing * {1..points_per_ray}.  Each point carries the
    projector u_l u_l^T of its ray and mass equal to ``spacing`` (the
    1-dimensional length element).  The origin has no distinguished tangent
    in the continuum model; it is assigned the first ray's plane, which only
    enters the orthogonal-variant difference terms.
    """
    if spacing <= 0.0:
        raise InvalidInputError("spacing must be positive")
    if points_per_ray < 1:
        raise InvalidInputError("need at least one point per ray")
    u = spec.directions
    s = spacing * np.arange(1, points_per_ray + 1)
    positions = [np.zeros((1, 2))]
    planes = [np.einsum("i,j->ij", u[0], u[0])[None]]
    for l in range(spec.n_rays):
        positions.append(s[:, None] * u[l][None, :])
        planes.append(np.broadcast_to(np.outer(u[l], u[l]), (points_per_ray, 2, 2)))
    positions = np.concatenate(positions)
    planes = np.concatenate(planes)
    masses = np.full(positions.shape[0], spacing)
    return validate_cloud(positions, planes, masses, dim_d=1)

"""Per-point curvature estimation for point-cloud varifolds.

Pipeline at a cloud point x0 with smoothing scale eps:

1. smoothed variation tensor (gradient form, (j,k)-symmetric)

       t_ijk = (C_xi/C_rho) / eps
               * sum_l m_l (P_l)_jk rho'(|x0-x_l|/eps) (P_l (x0-x_l)/|x0-x_l|)_i
               / sum_l m_l xi(|x0-x_l|/eps)

   The 1/eps factor comes from the gradient of the scaled kernel; with the
   natural kernel pair the prefactor C_xi/C_rho is exactly d/n.
2. mean curvature vector H_i = sum_q t_qiq (and sum_q t_iqq = d H_i holds by
   construction up to the projector tolerance);
3. curvature tensors: either solve the curvature linear system against a
   kernel-averaged direction matrix, or use the orthogonal variant
   a_ijk = t_ijk - (P_x0)_jk H_i, which enforces mean-curvature
   orthogonality and is the numerically preferred default;
4. in codimension 1, contract the bilinear form with the unit normal of the
   stored plane and restrict to an orthonormal tangent basis; eigenvalues of
   the restricted matrix are the principal curvatures (sign known only up to
   the arbitrary normal orientation).

The summand at a zero-distance neighbor (the point itself, or a duplicate)
is defined as 0: the raw expression is 0/0 there, and rho'(0) = 0 forces the
limit to vanish along any approach.

Tensors are plain (n, n, n) float64 arrays.  The per-point functions take
the point's sorted neighbor list as the required keyword ``idx``, as
:meth:`NeighborIndex.resolve_all` returns it.  The whole-cloud functions
:func:`estimate_tangent_planes` and :func:`curvature_report` take the
``(indices, eps)`` pair that ``resolve_all`` returns, so one resolution
serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    CodimensionError,
    DegenerateNeighborhoodError,
    InvalidInputError,
    IsolatedPointError,
    ZeroRadiusError,
)
from .kernels import KernelPair, bump_profile, natural_kernel_pair, unit_ball_volume
from .tensors import solve_curvature_system, to_bilinear_form
from .varifold import PointCloudVarifold

# Below this the smoothed mass denominator counts as empty (isolated point).
DENOM_GUARD = 1e-300

STATUS_OK = "ok"
STATUS_ISOLATED = "isolated"
STATUS_AMBIGUOUS = "ambiguous_tangent"

# Points per batch of the tangent estimate: bounds the per-pair (n, n)
# covariance terms at about 9 MB for k = 40 in R^3.
TANGENT_CHUNK = 2048


@dataclass(frozen=True)
class NeighborQuery:
    """Neighborhood selection: fixed radius or k nearest neighbors.

    In k-mode the per-point radius resolves to (1 + margin) times the
    distance to the k-th neighbor (self excluded).  The margin of 0.2
    spreads the k neighbors over the kernel's active shell; with a tight
    margin the bump profile concentrates nearly all weight on a third of the
    stencil, and the resulting quadrature noise floor drowns the estimator's
    eps-rate on smooth shapes.
    """

    mode: str
    epsilon: float | None = None
    k: int | None = None
    margin: float = 0.2

    def __post_init__(self):
        if self.mode == "radius":
            if self.epsilon is None or self.epsilon <= 0.0 or self.k is not None:
                raise InvalidInputError("radius mode needs epsilon > 0 and no k")
        elif self.mode == "knn":
            if self.k is None or self.k < 1 or self.epsilon is not None:
                raise InvalidInputError("knn mode needs k >= 1 and no epsilon")
        else:
            raise InvalidInputError(f"unknown neighbor mode {self.mode!r}")

    @classmethod
    def radius(cls, epsilon: float) -> "NeighborQuery":
        return cls(mode="radius", epsilon=float(epsilon))

    @classmethod
    def knn(cls, k: int) -> "NeighborQuery":
        return cls(mode="knn", k=int(k))


class NeighborIndex:
    """Static kd-tree over point positions; read-only queries."""

    def __init__(self, positions: np.ndarray):
        self.positions = np.asarray(positions, dtype=float)
        self.tree = cKDTree(self.positions)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    def kth_distance(self, k: int) -> np.ndarray:
        """Distance from each point to its k-th nearest neighbor (self excluded)."""
        k_eff = min(k + 1, self.n_points)
        if k_eff < 2:
            raise InvalidInputError("k-mode needs at least two points")
        dists, _ = self.tree.query(self.positions, k=k_eff)
        return dists[:, -1]

    def resolve_all(self, query: NeighborQuery) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-point neighbor index lists (sorted, self included) and radii."""
        n = self.n_points
        if query.mode == "radius":
            eps = np.full(n, query.epsilon)
        else:
            eps = (1.0 + query.margin) * self.kth_distance(query.k)
        raw = self.tree.query_ball_point(self.positions, eps)
        indices = [np.sort(np.asarray(ix, dtype=np.intp)) for ix in raw]
        return indices, eps


def default_kernels(cloud: PointCloudVarifold) -> KernelPair:
    return natural_kernel_pair(bump_profile(), cloud.dim_d, cloud.ambient_n)


def plane_frames(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals (N, n) and orthonormal tangent bases (N, n, n-1) of a
    stack of codimension-1 projectors, from one eigendecomposition.

    Normal signs are fixed by lexicographic positivity of the first component
    exceeding 1e-9; no global orientation is attempted.
    """
    _, v = np.linalg.eigh(planes)
    normals = v[:, :, 0]
    big = np.abs(normals) > 1e-9
    first = np.argmax(big, axis=1)
    signs = np.sign(normals[np.arange(normals.shape[0]), first])
    signs[signs == 0] = 1.0
    return normals * signs[:, None], v[:, :, 1:]


def _local_sums(cloud, l0, idx, kernels, eps):
    """Kernel-weighted neighbor quantities shared by all tensor formulas.

    Returns (planes_sub, weights, proj_units, xi_den) where weights carry
    m_l * rho'(r/eps) and proj_units the rows P_l (x0 - x_l)/r; zero-distance
    entries are dropped (their summand is defined as 0).  The xi denominator
    keeps every neighbor, including zero-distance ones.
    """
    x0 = cloud.positions[l0]
    d_vec = x0 - cloud.positions[idx]
    r = np.sqrt(np.einsum("la,la->l", d_vec, d_vec))
    m = cloud.masses[idx]
    xi_den = float(m @ kernels.xi.eval(r / eps))
    if xi_den < DENOM_GUARD:
        raise IsolatedPointError(
            f"point {l0}: no effective neighbors within eps={eps:.3g}"
        )
    keep = r > 0.0
    sub = idx[keep]
    d_vec = d_vec[keep]
    r = r[keep]
    planes_sub = cloud.planes[sub]
    weights = cloud.masses[sub] * kernels.rho.deriv(r / eps)
    proj_units = np.einsum("lab,lb->la", planes_sub, d_vec / r[:, None])
    return planes_sub, weights, proj_units, xi_den


def variation_tensor(
    cloud: PointCloudVarifold, l0: int, kernels: KernelPair, eps: float,
    *, idx: np.ndarray,
) -> np.ndarray:
    """Smoothed variation tensor at cloud point ``l0`` (gradient form).

    Exactly (j,k)-symmetric since the stored planes are symmetric.  Raises
    :class:`IsolatedPointError` when the smoothed mass denominator vanishes.
    """
    planes_sub, w, pu, xi_den = _local_sums(cloud, l0, idx, kernels, eps)
    num = np.einsum("l,ljk,li->ijk", w, planes_sub, pu)
    return num * (kernels.ratio / (eps * xi_den))


def mean_curvature_vector(tensor: np.ndarray, dim_d: int | None = None) -> np.ndarray:
    """Mean curvature vector H_i = sum_q t_qiq of a variation tensor.

    When ``dim_d`` is given, also verifies the companion trace identity
    sum_q t_iqq = d * H_i, which holds to the projector tolerance for
    tensors produced by :func:`variation_tensor`; a deviation above
    1e-10 * (1 + max|t|) raises :class:`InvalidInputError`.
    """
    t = np.asarray(tensor, dtype=float)
    h = np.einsum("qiq->i", t)
    if dim_d is not None:
        other = np.einsum("iqq->i", t)
        scale = 1.0 + float(np.max(np.abs(t)))
        if np.max(np.abs(other - dim_d * h)) > 1e-10 * scale:
            raise InvalidInputError(
                "trace identity sum_q t_iqq = d * H_i violated; "
                "tensor did not come from a rank-d cloud"
            )
    return h


def smoothed_direction_matrix(
    cloud: PointCloudVarifold, x, kernels: KernelPair, eps: float,
    *, idx: np.ndarray,
) -> np.ndarray:
    """Kernel-averaged direction matrix at an arbitrary location ``x``.

    Mass-weighted eta-average of the stored planes over the eps-ball,
    symmetrized; PSD with trace d and entries in [-1, 1] up to rounding.
    It is not validated here: :func:`solve_curvature_system` checks every
    direction matrix it is given, so each point runs the check once.
    """
    x = np.asarray(x, dtype=float)
    if idx.size == 0:
        raise IsolatedPointError("no neighbors in the eta-ball")
    d_vec = x - cloud.positions[idx]
    r = np.sqrt(np.einsum("la,la->l", d_vec, d_vec))
    w = cloud.masses[idx] * kernels.eta.eval(r / eps)
    w_sum = float(w.sum())
    if w_sum < DENOM_GUARD:
        raise IsolatedPointError("smoothed mass vanishes in the eta-ball")
    c = np.einsum("l,lab->ab", w, cloud.planes[idx]) / w_sum
    return 0.5 * (c + c.T)


def orthogonal_sff(
    cloud: PointCloudVarifold, l0: int, kernels: KernelPair, eps: float,
    *, idx: np.ndarray,
) -> np.ndarray:
    """Bilinear-form curvature tensor via the direct plane-difference sums.

    Reference path: algebraically equal to converting the orthogonal
    gradient-form tensor a_perp = t - P_l0 (x) H with :func:`to_bilinear_form`,
    which is what :func:`point_curvature` does, but summed independently over
    the (P_l - P_l0) difference combination so the tests can cross-check the
    two.
    """
    planes_sub, w, pu, xi_den = _local_sums(cloud, l0, idx, kernels, eps)
    dp = planes_sub - cloud.planes[l0][None]
    s = w[:, None] * pu
    t1 = np.einsum("ljk,li->ijk", dp, s)
    t2 = np.einsum("lik,lj->ijk", dp, s)
    t3 = np.einsum("lij,lk->ijk", dp, s)
    return 0.5 * (t1 + t2 - t3) * (kernels.ratio / (eps * xi_den))


def restrict_to_tangent(
    b_perp: np.ndarray, plane: np.ndarray, normal: np.ndarray | None = None,
    basis: np.ndarray | None = None, dim_d: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar-valued restricted form (codimension 1 only).

    Contracts the vector-valued bilinear form with the unit normal of the
    stored plane, then restricts to an orthonormal tangent basis Q:
    returns (Q^T (B . normal) Q, basis, normal).
    """
    plane = np.asarray(plane, dtype=float)
    n = plane.shape[0]
    dim_d = dim_d if dim_d is not None else int(round(np.trace(plane)))
    if dim_d != n - 1:
        raise CodimensionError(
            f"scalar restriction needs d = n-1, got d={dim_d}, n={n}; "
            "the vector-valued tensor is the final output in higher codimension"
        )
    if normal is None or basis is None:
        normals, bases = plane_frames(plane[None])
        normal = normals[0] if normal is None else normal
        basis = bases[0] if basis is None else basis
    scalar = np.einsum("ijk,k->ij", b_perp, normal)
    scalar = 0.5 * (scalar + scalar.T)
    restricted = basis.T @ scalar @ basis
    return 0.5 * (restricted + restricted.T), basis, normal


@dataclass(frozen=True)
class PointCurvature:
    """Curvature description at one cloud point."""

    a_perp: np.ndarray
    mean_curv: np.ndarray
    kappas: np.ndarray
    directions: np.ndarray
    gauss: float
    abs_sum: float


def principal_curvatures(
    restricted: np.ndarray, basis: np.ndarray, normal: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Eigen-decompose the restricted form.

    Returns (kappas sorted descending, principal directions as rows in
    ambient coordinates, gauss = product of kappas, sum of |kappas|).  The
    overall sign of the kappas follows the arbitrary normal orientation; the
    product is orientation-free for d = 2.
    """
    sym = 0.5 * (restricted + restricted.T)
    w, v = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1]
    kappas = w[order]
    directions = (basis @ v[:, order]).T
    return kappas, directions, float(np.prod(kappas)), float(np.sum(np.abs(kappas)))


def point_curvature(
    cloud: PointCloudVarifold,
    l0: int,
    kernels: KernelPair | None = None,
    *,
    scale: float,
    idx: np.ndarray,
    normal: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    variant: str = "orthogonal",
) -> PointCurvature:
    """Curvature report at one point (codimension 1).

    ``scale`` is the smoothing radius eps and ``idx`` the sorted neighbor
    list of ``l0`` within it, as :meth:`NeighborIndex.resolve_all` returns.
    ``variant`` selects the gradient-form curvature tensor: "orthogonal"
    (default, a_perp = beta - P_l0 (x) H with the exact stored plane) or
    "averaged" (kernel-averaged direction matrix fed to the linear-system
    solve).  Either way the neighbor sums run once, and the tensor is
    converted with :func:`to_bilinear_form` before restriction.
    """
    if cloud.dim_d != cloud.ambient_n - 1:
        raise CodimensionError("point_curvature needs codimension 1")
    kernels = kernels or default_kernels(cloud)
    eps = float(scale)

    beta = variation_tensor(cloud, l0, kernels, eps, idx=idx)
    h = mean_curvature_vector(beta, dim_d=cloud.dim_d)
    p0 = cloud.planes[l0]
    a_perp = beta - np.einsum("jk,i->ijk", p0, h)
    if variant == "orthogonal":
        a_form = a_perp
    elif variant == "averaged":
        c = smoothed_direction_matrix(cloud, cloud.positions[l0], kernels, eps, idx=idx)
        a_form = solve_curvature_system(c, beta)
    else:
        raise InvalidInputError(f"unknown variant {variant!r}")
    b_form = to_bilinear_form(a_form)
    restricted, basis, normal = restrict_to_tangent(
        b_form, p0, normal=normal, basis=basis, dim_d=cloud.dim_d
    )
    kappas, directions, gauss, abs_sum = principal_curvatures(restricted, basis, normal)
    return PointCurvature(
        a_perp=a_perp,
        mean_curv=h,
        kappas=kappas,
        directions=directions,
        gauss=gauss,
        abs_sum=abs_sum,
    )


@dataclass
class CurvatureReport:
    """Arrays of per-point curvature quantities over a whole cloud."""

    kappas: np.ndarray
    directions: np.ndarray
    gauss: np.ndarray
    abs_sum: np.ndarray
    mean_norm: np.ndarray
    mean_vectors: np.ndarray
    eps: np.ndarray
    status: np.ndarray
    a_perp: np.ndarray | None = None

    @property
    def n_warnings(self) -> int:
        return int(np.sum(self.status != STATUS_OK))


def curvature_report(
    cloud: PointCloudVarifold,
    neighbors: tuple[list[np.ndarray], np.ndarray],
    kernels: KernelPair | None = None,
    variant: str = "orthogonal",
    ambiguous: np.ndarray | None = None,
    collect_a_perp: bool = False,
) -> CurvatureReport:
    """Run :func:`point_curvature` over the whole cloud, one point at a time.

    ``neighbors`` is the ``(indices, eps)`` pair that
    :meth:`NeighborIndex.resolve_all` returns for the cloud's positions: each
    point's sorted neighbor list and its smoothing radius.  Per-point numeric
    failures (isolated points) become NaN rows with a status flag rather
    than exceptions.
    """
    if cloud.dim_d != cloud.ambient_n - 1:
        raise CodimensionError("curvature_report needs codimension 1")
    kernels = kernels or default_kernels(cloud)
    n, d, nn = cloud.n_points, cloud.dim_d, cloud.ambient_n
    indices, eps = _check_neighbors(neighbors, n)
    normals, bases = plane_frames(cloud.planes)

    kappas = np.full((n, d), np.nan)
    directions = np.full((n, d, nn), np.nan)
    gauss = np.full(n, np.nan)
    abs_sum = np.full(n, np.nan)
    mean_norm = np.full(n, np.nan)
    mean_vectors = np.full((n, nn), np.nan)
    status = np.full(n, STATUS_OK, dtype=object)
    a_perp = np.full((n, nn, nn, nn), np.nan) if collect_a_perp else None

    for l0 in range(n):
        try:
            pc = point_curvature(
                cloud, l0, kernels, scale=eps[l0], idx=indices[l0],
                normal=normals[l0], basis=bases[l0], variant=variant,
            )
        except IsolatedPointError:
            status[l0] = STATUS_ISOLATED
            continue
        kappas[l0] = pc.kappas
        directions[l0] = pc.directions
        gauss[l0] = pc.gauss
        abs_sum[l0] = pc.abs_sum
        mean_vectors[l0] = pc.mean_curv
        mean_norm[l0] = np.linalg.norm(pc.mean_curv)
        if a_perp is not None:
            a_perp[l0] = pc.a_perp

    if ambiguous is not None:
        flagged = (status == STATUS_OK) & np.asarray(ambiguous, dtype=bool)
        status[flagged] = STATUS_AMBIGUOUS
    return CurvatureReport(
        kappas=kappas,
        directions=directions,
        gauss=gauss,
        abs_sum=abs_sum,
        mean_norm=mean_norm,
        mean_vectors=mean_vectors,
        eps=eps,
        status=status,
        a_perp=a_perp,
    )


@dataclass(frozen=True)
class TangentEstimate:
    """Estimated tangent projectors plus ambiguity flags."""

    planes: np.ndarray
    ambiguous: np.ndarray


def _check_neighbors(neighbors, n_pts):
    indices, eps = neighbors
    eps = np.asarray(eps, dtype=float)
    if len(indices) != n_pts or eps.shape != (n_pts,):
        raise InvalidInputError(
            f"neighbors resolved for {len(indices)} points, cloud has {n_pts}"
        )
    return indices, eps


def estimate_tangent_planes(
    positions, neighbors: tuple[list[np.ndarray], np.ndarray], dim_d: int
) -> TangentEstimate:
    """Tangent planes by bump-weighted local covariance.

    ``neighbors`` is the ``(indices, eps)`` pair that
    :meth:`NeighborIndex.resolve_all` returns for ``positions``; eps is the
    bump's radius at each point.  At each point the covariance of neighbor
    offsets from the kernel-weighted barycenter is eigen-decomposed; the
    span of the d dominant eigenvectors gives the plane.  A point with fewer
    than d+1 neighbors, zero weight sum, or a covariance of rank < d
    (relative 1e-12) raises :class:`DegenerateNeighborhoodError`, for the
    first such point in point order; a near-tie between the d-th and
    (d+1)-th eigenvalues (within 1e-9 of the largest) flags the point as
    ambiguous instead of failing.  The points run in batches of
    ``TANGENT_CHUNK``, with one stacked eigendecomposition per batch.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_pts, n = positions.shape
    indices, sigma = _check_neighbors(neighbors, n_pts)
    planes = np.empty((n_pts, n, n))
    ambiguous = np.zeros(n_pts, dtype=bool)
    for lo in range(0, n_pts, TANGENT_CHUNK):
        hi = min(lo + TANGENT_CHUNK, n_pts)
        planes[lo:hi], ambiguous[lo:hi] = _tangent_chunk(
            positions, indices[lo:hi], sigma[lo:hi], lo, dim_d
        )
    return TangentEstimate(planes=planes, ambiguous=ambiguous)


def _tangent_chunk(positions, indices, sigma, lo, dim_d):
    """Planes and ambiguity flags of points lo, lo+1, ... from their
    neighbor lists, flattened into CSR form (``flat`` holds the lists end to
    end, ``starts`` the offset of each) and reduced per point with
    ``np.add.reduceat``; per-owner rows are repeated ``counts`` times."""
    n = positions.shape[1]
    counts = np.fromiter(map(len, indices), dtype=np.intp, count=len(indices))
    # Points from the first one with too few neighbors on are never needed:
    # that point raises unless an earlier one does.
    few = np.flatnonzero(counts < dim_d + 1)
    m = int(few[0]) if few.size else len(indices)
    if m:
        counts = counts[:m]
        flat = np.concatenate(indices[:m])
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        # np.take and np.repeat gather rows several times faster than
        # fancy indexing
        pts = np.take(positions, flat, axis=0)
        d_vec = pts - np.repeat(positions[lo:lo + m], counts, axis=0)
        r = np.sqrt(np.einsum("la,la->l", d_vec, d_vec))
        w = bump_profile().eval(r / np.repeat(sigma[:m], counts))
        w_sum = np.add.reduceat(w, starts)
        zero_w = w_sum <= 0.0
        bary = np.add.reduceat(w[:, None] * pts, starts)
        bary /= np.where(zero_w, 1.0, w_sum)[:, None]
        centered = pts - np.repeat(bary, counts, axis=0)
        weighted = w[:, None] * centered
        # one entry at a time: a (pairs, n, n) product would be the largest
        # array of the pass
        cov = np.empty((m, n, n))
        for a, b in zip(*np.triu_indices(n)):
            cov[:, a, b] = cov[:, b, a] = np.add.reduceat(
                weighted[:, a] * centered[:, b], starts
            )
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[:, ::-1]
        evecs = evecs[:, :, ::-1]
        low_rank = (evals[:, 0] <= 0.0) | (evals[:, dim_d - 1] <= 1e-12 * evals[:, 0])
        bad = np.flatnonzero(zero_w | low_rank)
        if bad.size:
            i = lo + int(bad[0])
            raise DegenerateNeighborhoodError(
                i, f"zero covariance weights at {i}" if zero_w[bad[0]] else None
            )
    if few.size:
        i = lo + m
        raise DegenerateNeighborhoodError(i, f"only {len(indices[m])} points near {i}")
    ambiguous = np.zeros(m, dtype=bool)
    if dim_d < n:
        ambiguous = evals[:, dim_d - 1] - evals[:, dim_d] <= 1e-9 * evals[:, 0]
    top = evecs[:, :, :dim_d]
    return top @ top.transpose(0, 2, 1), ambiguous


def estimate_masses(
    positions, n_mass: int, dim_d: int, mode: str = "nmass"
) -> np.ndarray:
    """Per-point masses from the radius of the smallest n_mass-point ball.

    r_i is the smallest radius whose closed ball around x_i holds at least
    ``n_mass`` cloud points, the point itself included.  Modes:
    "nmass" gives omega_d r_i^d / n_mass, "rd" the simplified r_i^d,
    "uniform" all ones.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_pts = positions.shape[0]
    if mode == "uniform":
        return np.ones(n_pts)
    if mode not in ("nmass", "rd"):
        raise InvalidInputError(f"unknown mass mode {mode!r}")
    if not 1 <= n_mass <= n_pts:
        raise InvalidInputError("need 1 <= n_mass <= number of points")
    tree = cKDTree(positions)
    dists, _ = tree.query(positions, k=n_mass)
    dists = np.atleast_2d(dists)
    radii = dists[:, -1]
    if np.any(radii <= 0.0):
        bad = int(np.argmax(radii <= 0.0))
        raise ZeroRadiusError(
            f"mass radius is zero at point {bad} "
            f"(duplicate points or n_mass too small)"
        )
    if mode == "nmass":
        return unit_ball_volume(dim_d) * radii**dim_d / n_mass
    return radii**dim_d

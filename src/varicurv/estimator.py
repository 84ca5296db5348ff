"""Curvature estimation for point-cloud varifolds.

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
   stored plane and restrict to an orthonormal tangent basis, both read from
   the frames the cloud carries (:func:`validate_cloud` decomposes each
   plane once); eigenvalues of the restricted matrix are the principal
   curvatures (sign known only up to the arbitrary normal orientation).

The summand at a zero-distance neighbor (the point itself, or a duplicate)
is defined as 0: the raw expression is 0/0 there, and rho'(0) = 0 forces the
limit to vanish along any approach.

Tensors are plain float64 arrays, one (n, n, n) row per point.  The
estimator runs on chunks of points: :func:`point_curvature`,
:func:`variation_tensor`, :func:`orthogonal_sff` and
:func:`smoothed_direction_matrix` take an (m,) array of points (integer
indices into the cloud, locations for the last), their (m,) radii, and
their sorted neighbor lists (as :meth:`NeighborIndex.resolve_all` returns
them) concatenated end to end as the required keyword ``idx`` with the
list lengths as ``counts``.  The engine sums a chunk's pairs on padded
(m, K) neighbor blocks of ``REPORT_BLOCK`` points, which bound their
memory, one batched product per block; the tail (trace check, conversion,
restriction, eigenvalues) then runs once on all the chunk's rows.
:func:`point_curvature` and :func:`curvature_report` give the orthogonal
report, or with ``compare_variants`` the pair (orthogonal, averaged).  Each
block gives the variation tensors and, for the pair, the direction
matrices too; each variant then runs its own tail on its own ok rows:
one conversion, one restriction and one ``eigh``.
A badly sampled point is a flagged row, never an exception: an isolated
point is a NaN row, and a neighborhood that cannot determine a d-plane
gives an ambiguous tangent.  A single point is a one-row chunk.
:func:`point_curvature` gives each variant a :class:`CurvatureReport` of
its chunk's rows, which :func:`curvature_report` copies into the whole
cloud's.  The whole-cloud functions :func:`estimate_tangent_planes` and
:func:`curvature_report` take the ``(indices, eps)`` pair that
``resolve_all`` returns, so one resolution serves both; each hands its
engine chunks of ``REPORT_CALL`` points, whole blocks of the cloud.
:func:`estimate_masses` queries the tree of the :class:`NeighborIndex`
that resolved them, so a run builds one kd-tree.

The engine calls of both whole-cloud functions run on a pool of
``WORKERS`` threads started for the stage, one per CPU the process may use,
and every kd-tree query asks for as many.  numpy's gathers, products and
decompositions and the tree's walks release the interpreter lock.  Block
bounds are fixed, every tail row keeps its operation order whatever the
stack, and each call writes only its own rows of preallocated outputs, so
results are bitwise the same for any thread count and call size; when
calls fail, the earliest one's error is raised.  Each pool thread owns one
set of scratch buffers, allocated at the stage's largest padded block,
which ends with the thread: each block writes its index map, mask,
offsets, distances, gathered masses and planes and projected units into
contiguous views of them, in the same operation order as into fresh
arrays.  Nothing a block or call function returns is a view of scratch.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError, VaricurvError
from .kernels import KernelPair, bump_profile, natural_kernel_pair, unit_ball_volume
from .tensors import _at_row, solve_curvature_system, to_bilinear_form
from .varifold import PointCloudVarifold

# Below this the smoothed mass denominator counts as empty (isolated point).
DENOM_GUARD = 1e-300

STATUS_OK = "ok"
STATUS_ISOLATED = "isolated"
STATUS_AMBIGUOUS = "ambiguous_tangent"

# Rows per tree walk of the neighbor resolution: bounds a block's k-nearest
# window at about 2.3 MB for k = 40 in R^3, and its ball lists' Python ints.
RESOLVE_CHUNK = 2048

# A neighbor this many ulps from a row's radius may fall on either side of
# the tree's ball test, which compares squared distances where the k-nearest
# query returns their square roots; such a row takes the ball path.
EDGE_ULPS = 4

# Points per padded neighbor block: bounds the (points, neighbors, n, n)
# plane block at about 3 MB for k = 40 in R^3.
REPORT_BLOCK = 256

# Points per call of the whole-cloud stages' engines, a multiple of
# REPORT_BLOCK: a call sums its blocks one by one, then trace-checks all its
# rows once and runs each variant's tail (conversion, restriction,
# eigendecomposition) once on that variant's ok rows.
REPORT_CALL = 1024

# Threads for the engine calls and the kd-tree queries: the CPUs this
# process may run on.  Every call keeps its arithmetic and writes only its
# own rows, so the results do not depend on this count.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _integer(value, name):
    """``value`` as an int: a Python or NumPy integer; anything else, a
    float of integral value included, is bad input."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} = {value!r} is not an integer") from None


@dataclass(frozen=True)
class NeighborQuery:
    """Neighborhood selection: a fixed radius ``epsilon`` or the ``k``
    nearest neighbors, exactly one of them given; ``mode`` names the one.

    In k-mode the per-point radius resolves to (1 + margin) times the
    distance to the k-th neighbor (self excluded), so k must be an integer
    (a NumPy one is stored as an int) below the cloud's point count N:
    :meth:`NeighborIndex.resolve_all` refuses k >= N, where a point has
    fewer than k others.  The margin, a class constant of 0.2, spreads the
    k neighbors over the kernel's active shell; with a tight margin the bump
    profile concentrates nearly all weight on a third of the stencil, and
    the resulting quadrature noise floor drowns the estimator's eps-rate on
    smooth shapes.
    """

    epsilon: float | None = None
    k: int | None = None
    margin = 0.2  # not a field: no query sets it

    def __post_init__(self):
        if (self.epsilon is None) == (self.k is None):
            raise InvalidInputError(f"give exactly one of epsilon and k, got "
                                    f"epsilon={self.epsilon} and k={self.k}")
        if self.mode == "radius":
            if not 0.0 < self.epsilon < np.inf:
                raise InvalidInputError(f"radius mode needs 0 < epsilon < inf and "
                                        f"no k, got epsilon={self.epsilon}")
        else:
            object.__setattr__(self, "k", _integer(self.k, "k"))
            if self.k < 1:
                raise InvalidInputError(f"knn mode needs k >= 1 and no epsilon, "
                                        f"got k={self.k}")

    @property
    def mode(self) -> str:
        return "knn" if self.epsilon is None else "radius"

    @classmethod
    def radius(cls, epsilon: float) -> "NeighborQuery":
        return cls(epsilon=float(epsilon))

    @classmethod
    def knn(cls, k: int) -> "NeighborQuery":
        return cls(k=k)


class NeighborIndex:
    """Static kd-tree over point positions; read-only queries."""

    def __init__(self, positions: np.ndarray):
        self.positions = np.asarray(positions, dtype=float)
        self.tree = cKDTree(self.positions)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    def resolve_all(self, query: NeighborQuery) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-point neighbor index lists (sorted, self included) and radii.

        knn mode needs k < N and raises :class:`InvalidInputError`
        otherwise.  It makes one k-nearest query per block of
        ``RESOLVE_CHUNK`` rows, of ``K0 = min(N, ceil((1 + margin)**n *
        (k + 1)))`` columns, the count a ball of radius (1 + margin) r_k
        holds at uniform density in R^n.  A row's eps is (1 + margin) times
        its distance in column k, and its list is its columns within eps,
        sorted by index.  A row whose window may miss part of its ball takes
        the ball path instead: its last column lies within eps (while
        K0 < N), or a column lies within ``EDGE_ULPS`` ulps of eps.  The
        ball path, which is also the whole of radius mode, makes one sorted
        ball query per block of rows and splits the block's lists out of
        one flat array.
        """
        n_pts = self.n_points
        if query.mode == "radius":
            eps = np.full(n_pts, query.epsilon)
            return self._ball_lists(np.arange(n_pts), eps), eps
        if query.k >= n_pts:
            raise InvalidInputError(f"k = {query.k} is outside 1..{n_pts - 1}: each "
                                    f"of the {n_pts} points has {n_pts - 1} others")
        dim = self.positions.shape[1]
        width = min(n_pts, math.ceil((1.0 + query.margin) ** dim * (query.k + 1)))
        eps = np.empty(n_pts)
        lists = []
        unsure = []
        for lo in range(0, n_pts, RESOLVE_CHUNK):
            dist, nearest = self.tree.query(
                self.positions[lo:lo + RESOLVE_CHUNK], k=width, workers=WORKERS
            )
            e = eps[lo:lo + RESOLVE_CHUNK] = (1.0 + query.margin) * dist[:, query.k]
            # distances ascend along a row, so the columns inside form a prefix
            inside = dist <= e[:, None]
            near = np.abs(dist - e[:, None]) <= EDGE_ULPS * np.spacing(e)[:, None]
            ball = near.any(axis=1) | (inside[:, -1] & (width < n_pts))
            unsure.append(lo + np.flatnonzero(ball))
            nearest[~inside] = n_pts  # sorts last
            nearest.sort(axis=1)
            lists += _split(nearest[inside], inside.sum(axis=1))
        unsure = np.concatenate(unsure)
        if unsure.size:
            for i, ix in zip(unsure, self._ball_lists(unsure, eps[unsure])):
                lists[i] = ix
        return lists, eps

    def _ball_lists(self, rows: np.ndarray, eps: np.ndarray) -> list[np.ndarray]:
        """Sorted lists of the points ``rows`` within their radii ``eps``."""
        lists = []
        for lo in range(0, rows.size, RESOLVE_CHUNK):
            block = slice(lo, lo + RESOLVE_CHUNK)
            balls = self.tree.query_ball_point(self.positions[rows[block]], eps[block],
                                               return_sorted=True, workers=WORKERS)
            counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
            flat = np.fromiter(chain.from_iterable(balls), dtype=np.intp,
                               count=int(counts.sum()))
            lists += _split(flat, counts)
        return lists


def _split(flat, counts):
    """The consecutive slices of ``flat`` whose lengths are ``counts``."""
    ends = np.cumsum(counts).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def default_kernels(cloud: PointCloudVarifold) -> KernelPair:
    return natural_kernel_pair(bump_profile(), cloud.dim_d, cloud.ambient_n)


def _points(points, n_pts):
    """The (m,) point indices of a chunk, each an integer in 0..n_pts-1."""
    points = np.atleast_1d(np.asarray(points))
    if points.ndim != 1:
        raise InvalidInputError(f"point indices must be an (m,) array, got shape "
                                f"{points.shape}")
    if points.size and not np.issubdtype(points.dtype, np.integer):
        raise InvalidInputError(f"point indices must be integers, got dtype "
                                f"{points.dtype}")
    outside = (points < 0) | (points >= n_pts)
    if outside.any():
        raise InvalidInputError(f"point index {points[outside][0]} is outside "
                                f"0..{n_pts - 1}")
    return points.astype(np.intp, copy=False)


def _chunk(m, eps, idx, counts):
    """The chunk contract as arrays: (m,) radii, the m neighbor lists end to
    end and their (m,) lengths."""
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (m,))
    idx = np.asarray(idx, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    if counts.shape != (m,) or idx.shape != (int(counts.sum()),):
        raise InvalidInputError(
            f"{counts.size} neighbor counts summing to {int(counts.sum())} "
            f"for {m} points and {idx.size} indices"
        )
    return eps, idx, counts


class _Scratch:
    """The padded-block buffers of the blocks that one thread runs in one
    stage.  Each block writes into contiguous views of their leading
    entries, so a stage allocates, and faults in, each buffer once per
    thread instead of once per block."""

    def __init__(self, slots=0):
        self.slots = slots  # m * K of the stage's largest padded block
        self._buffers = {}

    def view(self, name, shape, dtype=np.float64):
        """An uninitialized ``shape`` array in buffer ``name``, whose leading
        two axes are a block's (m, K)."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            width = math.prod(shape[2:])
            buf = self._buffers[name] = np.empty(max(size, self.slots * width), dtype)
        return buf[:size].reshape(shape)


# The scratch of a stage's pool thread, set by the pool's initializer; it
# ends with the thread.  Any other thread gets fresh buffers for every block.
_THREAD = threading.local()


def _scratch() -> _Scratch:
    return getattr(_THREAD, "scratch", None) or _Scratch()


def _map_calls(fn, indices):
    """``fn(lo, hi, idx, counts)`` over consecutive slices of the points
    whose neighbor lists are ``indices``; ``idx`` holds the slice's lists
    end to end and ``counts`` their lengths.  A slice is ``REPORT_CALL``
    points, or fewer whole ``REPORT_BLOCK`` blocks when that leaves a pool
    thread without one, so its blocks are those of the whole cloud.  The
    calls run on a pool of up to ``WORKERS`` threads, joined before this
    returns.

    Each pool thread owns one :class:`_Scratch`, sized for the largest
    padded block, which ends with the thread.  Every call runs; when some
    fail, the error of the earliest failing call in point order is raised.
    """
    n_pts = len(indices)
    counts = np.fromiter(map(len, indices), dtype=np.intp, count=n_pts)
    blocks = range(0, n_pts, REPORT_BLOCK)
    slots = max((c.size * int(c.max()) for c in
                 (counts[lo:lo + REPORT_BLOCK] for lo in blocks)), default=0)
    step = REPORT_BLOCK * max(1, min(REPORT_CALL // REPORT_BLOCK,
                                     -(-len(blocks) // WORKERS)))
    bounds = [(lo, min(lo + step, n_pts)) for lo in range(0, n_pts, step)]

    def own_scratch():
        _THREAD.scratch = _Scratch(slots)

    def run(lo, hi):
        call_counts = counts[lo:hi]
        idx = _THREAD.scratch.view("idx", (int(call_counts.sum()),), np.intp)
        fn(lo, hi, np.concatenate(indices[lo:hi], out=idx), call_counts)

    with ThreadPoolExecutor(max(1, min(WORKERS, len(bounds))),
                            initializer=own_scratch) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in bounds]
    for f in futures:
        f.result()


def _blocks(counts):
    """The ``REPORT_BLOCK``-point blocks of a chunk whose neighbor lists have
    the lengths ``counts``: for each, the slice of its points and the slice
    of its lists in the chunk's ``idx``."""
    ends = np.cumsum(counts).tolist()
    for lo in range(0, len(ends), REPORT_BLOCK):
        hi = min(lo + REPORT_BLOCK, len(ends))
        yield slice(lo, hi), slice(ends[lo - 1] if lo else 0, ends[hi - 1])


def _gather(scratch, name, rows, pad):
    """``rows[pad]`` (along the first axis) in the scratch buffer ``name``.
    ``pad`` holds checked indices, so clipping never acts; under
    ``mode="raise"`` numpy would gather into a temporary and copy."""
    out = scratch.view(name, pad.shape + rows.shape[1:], rows.dtype)
    return np.take(rows, pad, axis=0, out=out, mode="clip")


def _neighbor_block(scratch, positions, x, idx, counts, eps):
    """A chunk's neighbor lists as a padded (m, K) block, K the longest list,
    around the locations ``x`` (m, n) with radii ``eps`` (m,); ``idx``
    indexes ``positions``.  The arrays are views of ``scratch``.

    Returns (valid, pad, d_vec, r, t): the mask of real slots, the neighbor
    index of each slot (0 in padding), the offsets x_i - x_l, their lengths
    and their lengths over the row's radius.  A row of radius 0 holds only
    zero offsets, and its t is 0.  Padding has t = 1, where every kernel
    profile and its derivative vanish, so kernel weights evaluated on the
    whole block are exactly 0 there.
    """
    outside = (idx < 0) | (idx >= len(positions))
    if outside.any():
        raise InvalidInputError(f"neighbor index {idx[outside][0]} is outside "
                                f"0..{len(positions) - 1}")
    m, k = counts.size, int(counts.max(initial=0))
    valid = np.less(np.arange(k), counts[:, None],
                    out=scratch.view("valid", (m, k), bool))
    pad = scratch.view("pad", (m, k), np.intp)
    pad.fill(0)
    pad[valid] = idx
    d_vec = _gather(scratch, "offsets", positions, pad)
    np.subtract(x[:, None, :], d_vec, out=d_vec)
    r = np.einsum("mla,mla->ml", d_vec, d_vec, out=scratch.view("r", (m, k)))
    np.sqrt(r, out=r)
    t = np.divide(r, np.where(eps > 0.0, eps, 1.0)[:, None],
                  out=scratch.view("t", (m, k)))
    t[~valid] = 1.0
    return valid, pad, d_vec, r, t


def _nan_rows(stack: np.ndarray) -> np.ndarray:
    """Rows of a stack that are NaN throughout: the isolated points."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))  # m may be 0
    return np.all(np.isnan(flat), axis=1)


def _local_sums(cloud, points, kernels, eps, idx, counts):
    """Kernel-weighted neighbor quantities shared by all tensor formulas, for
    one block of points in one pass over its pairs.

    Returns (planes, mass, t, weights, proj_units, xi_den) on the padded
    block: planes (m, K, n, n) and masses (m, K) of the neighbors, their
    distances over the row's radius t (m, K), weights m_l * rho'(r/eps) and
    proj_units P_l (x0 - x_l)/r; weights are 0 on padding and at zero
    distance (that summand is defined as 0).  The xi denominator (m,) keeps
    every neighbor, including zero-distance ones.  The kernels run on the
    whole block; padding sits at t = 1, where they vanish.  The block arrays
    are views of the thread's scratch, which the next block reuses.

    A pair built for another (d, n) is refused once the block has checked
    its lists: its ``ratio`` is not the cloud's d/n, and it would
    scale every curvature by their quotient.
    """
    scratch = _scratch()
    valid, pad, d_vec, r, t = _neighbor_block(
        scratch, cloud.positions, cloud.positions[points], idx, counts, eps
    )
    if kernels.ratio != cloud.dim_d / cloud.ambient_n:
        raise InvalidInputError(
            f"kernel pair ratio {kernels.ratio:.6g} is not the cloud's d/n = "
            f"{cloud.dim_d}/{cloud.ambient_n} = {cloud.dim_d / cloud.ambient_n:.6g}")
    mass = _gather(scratch, "mass", cloud.masses, pad)
    # one rho' serves both weights: xi = -t rho'(t) / n, as the pair ties it
    dv = kernels.rho.deriv(t)
    weights = np.multiply(mass, -t * dv / cloud.ambient_n,
                          out=scratch.view("weights", r.shape))
    xi_den = weights.sum(axis=1)
    keep = valid & (r > 0.0)
    np.multiply(mass, dv, out=weights)
    weights[~keep] = 0.0
    planes = _gather(scratch, "planes", cloud.planes, pad)
    r[~keep] = 1.0
    d_vec /= r[..., None]  # now the unit offsets
    proj_units = np.einsum("mlab,mlb->mla", planes, d_vec,
                           out=scratch.view("vectors", d_vec.shape))
    return planes, mass, t, weights, proj_units, xi_den


def _prefactor(kernels, eps, xi_den):
    """(C_xi/C_rho) / (eps * xi_den) per point; NaN where the smoothed mass
    denominator or the radius vanishes (isolated point)."""
    isolated = (xi_den < DENOM_GUARD) | (eps <= 0.0)
    out = kernels.ratio / np.where(isolated, 1.0, eps * xi_den)
    out[isolated] = np.nan
    return out


def variation_tensor(
    cloud: PointCloudVarifold, points, kernels: KernelPair, eps,
    *, idx: np.ndarray, counts: np.ndarray,
) -> np.ndarray:
    """Smoothed variation tensors (gradient form) at cloud points ``points``.

    ``points`` is an (m,) array of integer indices in 0..N-1, ``eps`` the
    (m,) radii, ``idx`` the m sorted neighbor lists end to end and
    ``counts`` their lengths.
    Returns (m, n, n, n), exactly (j,k)-symmetric; the row of an isolated
    point (vanishing smoothed mass denominator) is NaN.  The neighbor sums
    of all rows are one batched product (m, n, K) @ (m, K, n^2).
    """
    points = _points(points, cloud.n_points)
    eps, idx, counts = _chunk(points.size, eps, idx, counts)
    planes, _, _, w, pu, xi_den = _local_sums(cloud, points, kernels, eps, idx, counts)
    return _variation_sums(kernels, eps, planes, w, pu, xi_den)


def _variation_sums(kernels, eps, planes, w, pu, xi_den):
    """The variation tensors of :func:`variation_tensor` from the block that
    :func:`_local_sums` returns; scales ``pu`` by ``w`` in place."""
    m, k, n = pu.shape
    pu *= w[..., None]
    beta = (pu.transpose(0, 2, 1) @ planes.reshape(m, k, n * n)).reshape(m, n, n, n)
    # the stored planes are symmetric, so this only evens out rounding
    beta = 0.5 * (beta + beta.swapaxes(-1, -2))
    return beta * _prefactor(kernels, eps, xi_den)[:, None, None, None]


def mean_curvature_vector(tensor: np.ndarray, dim_d: int | None = None) -> np.ndarray:
    """Mean curvature vector H_i = sum_q t_qiq of a variation tensor, or of
    each row of a stack (..., n, n, n).

    When ``dim_d`` is given, also verifies the companion trace identity
    sum_q t_iqq = d * H_i, which holds to the projector tolerance for
    tensors produced by :func:`variation_tensor`; a deviation above
    1e-10 * (1 + max|t|) in any row raises :class:`VaricurvError` naming
    the first such row: a broken invariant, not bad input.
    """
    t = np.asarray(tensor, dtype=float)
    h = np.einsum("...qiq->...i", t)
    if dim_d is not None:
        other = np.einsum("...iqq->...i", t)
        scale = 1.0 + np.max(np.abs(t), axis=(-3, -2, -1), initial=0.0)
        gap = np.max(np.abs(other - dim_d * h), axis=-1, initial=0.0)
        bad = gap > 1e-10 * scale
        if np.any(bad):
            raise VaricurvError(
                "trace identity sum_q t_iqq = d * H_i violated; "
                "tensor did not come from a rank-d cloud" + _at_row(bad)
            )
    return h


def smoothed_direction_matrix(
    cloud: PointCloudVarifold, x, kernels: KernelPair, eps,
    *, idx: np.ndarray, counts: np.ndarray,
) -> np.ndarray:
    """Kernel-averaged direction matrices at arbitrary locations ``x`` (m, n).

    ``eps``, ``idx`` and ``counts`` follow the chunk contract of
    :func:`variation_tensor`, with the lists taken around ``x``.  Each row
    is the mass-weighted eta-average of the stored planes over its eps-ball,
    symmetrized; PSD with trace d and entries in [-1, 1] up to rounding.  A
    row whose smoothed mass vanishes is NaN.  Rows are not validated here:
    :func:`solve_curvature_system` checks the stack it is given.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    eps, idx, counts = _chunk(x.shape[0], eps, idx, counts)
    scratch = _scratch()
    _, pad, _, _, t = _neighbor_block(scratch, cloud.positions, x, idx, counts, eps)
    return _direction_sums(scratch, kernels, t,
                           _gather(scratch, "mass", cloud.masses, pad),
                           _gather(scratch, "planes", cloud.planes, pad))


def _direction_sums(scratch, kernels, t, mass, planes):
    """The direction matrices of :func:`smoothed_direction_matrix` from a
    padded block's t (m, K), gathered masses (m, K) and planes (m, K, n, n);
    the eta weights go to ``scratch``."""
    w = np.multiply(mass, kernels.eta.eval(t),
                    out=scratch.view("eta_weights", t.shape))
    w_sum = w.sum(axis=1)
    empty = w_sum < DENOM_GUARD
    c = np.einsum("ml,mlab->mab", w, planes)
    c /= np.where(empty, 1.0, w_sum)[:, None, None]
    c[empty] = np.nan
    return 0.5 * (c + c.swapaxes(-1, -2))


def orthogonal_sff(
    cloud: PointCloudVarifold, points, kernels: KernelPair, eps,
    *, idx: np.ndarray, counts: np.ndarray,
) -> np.ndarray:
    """Bilinear-form curvature tensors via the direct plane-difference sums.

    Same chunk contract and NaN rows as :func:`variation_tensor`.  Reference
    path: algebraically equal to converting the orthogonal gradient-form
    tensor a_perp = t - P_l0 (x) H with :func:`to_bilinear_form`, which is
    what :func:`point_curvature` does, but summed independently over the
    (P_l - P_l0) difference combination so the tests can cross-check the
    two.
    """
    points = _points(points, cloud.n_points)
    eps, idx, counts = _chunk(points.size, eps, idx, counts)
    planes, _, _, w, pu, xi_den = _local_sums(cloud, points, kernels, eps, idx, counts)
    m, k, n = pu.shape
    dp = planes - cloud.planes[points][:, None]
    s = (w[..., None] * pu).transpose(0, 2, 1)
    # t1[i,j,k] = sum_l dp_jk s_i; t2 reads it at [j,i,k] and t3 at [k,i,j]
    t1 = (s @ dp.reshape(m, k, n * n)).reshape(m, n, n, n)
    sff = 0.5 * (t1 + t1.swapaxes(-3, -2) - np.moveaxis(t1, -3, -1))
    return sff * _prefactor(kernels, eps, xi_den)[:, None, None, None]


def restrict_to_tangent(
    b_perp: np.ndarray, normal: np.ndarray, basis: np.ndarray
) -> np.ndarray:
    """Scalar-valued restricted form (codimension 1 only).

    Contracts the vector-valued bilinear form with the unit ``normal`` (n,)
    of the stored plane, then restricts to its orthonormal tangent
    ``basis`` Q (n, d): returns Q^T (B . normal) Q.  Every argument may
    carry leading stack axes, one row per point.
    """
    n, dim_d = basis.shape[-2:]
    if dim_d != n - 1:
        raise InvalidInputError(
            f"scalar restriction needs d = n-1, got d={dim_d}, n={n}; "
            "the vector-valued tensor is the final output in higher codimension"
        )
    scalar = np.einsum("...ijk,...k->...ij", b_perp, normal)
    scalar = 0.5 * (scalar + scalar.swapaxes(-1, -2))
    restricted = basis.swapaxes(-1, -2) @ scalar @ basis
    return 0.5 * (restricted + restricted.swapaxes(-1, -2))


@dataclass
class CurvatureReport:
    """Arrays of per-point curvature quantities, one row per point of a
    cloud or of a chunk.  Only the estimator's outputs are stored; ``gauss``
    (the product of the kappas), ``abs_sum`` (the sum of their absolute
    values) and ``mean_norm`` (the norm of ``mean_vectors``) derive from
    them on each read."""

    kappas: np.ndarray
    directions: np.ndarray
    mean_vectors: np.ndarray
    eps: np.ndarray
    status: np.ndarray
    a_perp: np.ndarray | None = None

    @property
    def gauss(self) -> np.ndarray:
        return np.prod(self.kappas, axis=-1)

    @property
    def abs_sum(self) -> np.ndarray:
        return np.sum(np.abs(self.kappas), axis=-1)

    @property
    def mean_norm(self) -> np.ndarray:
        return np.linalg.norm(self.mean_vectors, axis=-1)

    @property
    def n_warnings(self) -> int:
        return int(np.sum(self.status != STATUS_OK))


def _nan_report(m, d, n, eps, status, a_perp) -> CurvatureReport:
    """A report of m NaN rows: d principal curvatures of a point in R^n."""
    return CurvatureReport(
        kappas=np.full((m, d), np.nan),
        directions=np.full((m, d, n), np.nan),
        mean_vectors=np.full((m, n), np.nan),
        eps=eps,
        status=status,
        a_perp=np.full((m, n, n, n), np.nan) if a_perp else None,
    )


def principal_curvatures(
    restricted: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose the restricted form, or each row of a stack of them.

    Returns (kappas sorted descending, principal directions as rows in
    ambient coordinates).  The overall sign of the kappas follows the
    arbitrary normal orientation; their product (the Gauss curvature that
    :class:`CurvatureReport` derives) is orientation-free for d = 2.
    """
    sym = 0.5 * (restricted + restricted.swapaxes(-1, -2))
    w, v = np.linalg.eigh(sym)  # ascending
    return w[..., ::-1], (basis @ v[..., ::-1]).swapaxes(-1, -2)


def point_curvature(
    cloud: PointCloudVarifold,
    points,
    kernels: KernelPair | None = None,
    *,
    scale,
    idx: np.ndarray,
    counts: np.ndarray,
    compare_variants: bool = False,
) -> CurvatureReport | tuple[CurvatureReport, CurvatureReport]:
    """Curvature report of a chunk of points (codimension 1): the engine
    behind :func:`curvature_report`.

    ``points`` is an (m,) array of integer indices in 0..N-1 and ``scale``
    the (m,) smoothing radii; ``idx`` holds the m sorted neighbor lists (self included, as
    :meth:`NeighborIndex.resolve_all` returns them) end to end and
    ``counts`` their lengths.  The restriction reads the stored planes'
    frames from ``cloud.normals`` and ``cloud.bases``.  The report comes
    from the orthogonal gradient-form curvature tensor
    a_perp = beta - P_l0 (x) H with the exact stored plane.
    ``compare_variants`` returns the pair (orthogonal, averaged), the
    averaged report solving the linear system against the kernel-averaged
    direction matrix instead.

    The chunk's pairs are summed ``REPORT_BLOCK`` points at a time: each
    padded block, built by :func:`_local_sums`, gives its points' variation
    tensors beta, and, with ``compare_variants``, the direction matrices
    from the same distances, masses and planes.  The rest runs once on all
    m points: H is trace-checked once, and each variant forms its
    gradient-form tensor on its own ok rows (the P (x) H subtraction or the
    linear-system solve) and runs its own tail on them: conversion with
    :func:`to_bilinear_form`, restriction and one ``eigh``.  Every row keeps
    the operation order of a tail of its own block, so the reports are the
    same for any chunk size, and the orthogonal one is the same with or
    without the averaged one.  Each result is a :class:`CurvatureReport` of
    the chunk's m rows; the orthogonal one always has ``a_perp`` filled, and
    the averaged one carries none, since a_perp is the orthogonal tensor.
    Isolated points come back as NaN rows with status ``isolated``, per
    variant (the averaged variant also flags rows whose eta weights
    vanish); nothing is raised for them.
    """
    if cloud.dim_d != cloud.ambient_n - 1:
        raise InvalidInputError("point_curvature needs codimension 1")
    kernels = kernels or default_kernels(cloud)
    points = _points(points, cloud.n_points)
    eps, idx, counts = _chunk(points.size, scale, idx, counts)
    m, n, d = points.size, cloud.ambient_n, cloud.dim_d

    beta = np.empty((m, n, n, n))
    c = np.empty((m, n, n)) if compare_variants else None
    for rows, lists in _blocks(counts):
        planes, mass, t, w, pu, xi_den = _local_sums(
            cloud, points[rows], kernels, eps[rows], idx[lists], counts[rows])
        beta[rows] = _variation_sums(kernels, eps[rows], planes, w, pu, xi_den)
        if compare_variants:
            c[rows] = _direction_sums(_scratch(), kernels, t, mass, planes)

    # isolated rows of beta are NaN, and stay NaN in H and a_perp
    ok = ~_nan_rows(beta)
    h = mean_curvature_vector(beta, dim_d=d)
    a_perp = np.einsum("mjk,mi->mijk", cloud.planes[points], h)
    np.subtract(beta, a_perp, out=a_perp)
    orthogonal = _variant_report(cloud, points, eps, h, ok, a_perp[ok])
    orthogonal.a_perp = a_perp
    if not compare_variants:
        return orthogonal
    ok_avg = ok & ~_nan_rows(c)
    return orthogonal, _variant_report(
        cloud, points, eps, h, ok_avg, solve_curvature_system(c[ok_avg], beta[ok_avg]))


def _variant_report(cloud, points, eps, h, ok, forms):
    """One variant's report of the chunk ``points``: its gradient-form
    tensors ``forms`` of the ok rows go through the tail (conversion,
    restriction, ``eigh``); the other rows are NaN and ``isolated``."""
    status = np.where(ok, STATUS_OK, STATUS_ISOLATED).astype(object)
    out = _nan_report(points.size, cloud.dim_d, cloud.ambient_n, eps, status, False)
    rows = points[ok]
    basis = cloud.bases[rows]
    restricted = restrict_to_tangent(
        to_bilinear_form(forms), cloud.normals[rows, :, 0], basis
    )
    out.kappas[ok], out.directions[ok] = principal_curvatures(restricted, basis)
    out.mean_vectors[ok] = h[ok]
    return out


def curvature_report(
    cloud: PointCloudVarifold,
    neighbors: tuple[list[np.ndarray], np.ndarray],
    kernels: KernelPair | None = None,
    compare_variants: bool = False,
    ambiguous: np.ndarray | None = None,
    collect_a_perp: bool = False,
) -> CurvatureReport | tuple[CurvatureReport, CurvatureReport]:
    """Per-point curvatures over the whole cloud, ``REPORT_CALL`` points
    per call of the engine :func:`point_curvature` (see :func:`_map_calls`).

    ``neighbors`` is the ``(indices, eps)`` pair that
    :meth:`NeighborIndex.resolve_all` returns for the cloud's positions: each
    point's sorted neighbor list and its smoothing radius.  Each chunk's
    lists are flattened into one index array, and the chunk's reports are
    copied into the whole cloud's rows.  Isolated points become NaN rows
    with a status flag rather than exceptions.  ``compare_variants``
    returns the pair (orthogonal, averaged) from one pass over each chunk's
    pairs.  ``ambiguous``, one flag per point, marks the ok rows of every
    report ``ambiguous_tangent``; it is checked with the neighbors, before
    any sum.  ``collect_a_perp`` fills the orthogonal report's ``a_perp``;
    the averaged report has none.
    """
    if cloud.dim_d != cloud.ambient_n - 1:
        raise InvalidInputError("curvature_report needs codimension 1")
    kernels = kernels or default_kernels(cloud)
    n, d, nn = cloud.n_points, cloud.dim_d, cloud.ambient_n
    indices, eps = _check_neighbors(neighbors, n)
    if ambiguous is not None:
        ambiguous = np.asarray(ambiguous, dtype=bool)
        if ambiguous.shape != (n,):
            raise InvalidInputError(f"ambiguous flags of shape {ambiguous.shape} "
                                    f"for {n} points; need shape ({n},)")

    reports = [_nan_report(n, d, nn, np.empty(n), np.empty(n, dtype=object), a_perp)
               for a_perp in ((collect_a_perp, False) if compare_variants
                              else (collect_a_perp,))]

    def run_call(lo, hi, idx, counts):
        chunk = point_curvature(
            cloud, np.arange(lo, hi), kernels, scale=eps[lo:hi], idx=idx,
            counts=counts, compare_variants=compare_variants,
        )
        for rep, part in zip(reports, chunk if compare_variants else (chunk,)):
            for f in fields(CurvatureReport):
                rows = getattr(rep, f.name)
                if rows is not None:
                    rows[lo:hi] = getattr(part, f.name)

    _map_calls(run_call, indices)
    if ambiguous is not None:
        for rep in reports:
            rep.status[(rep.status == STATUS_OK) & ambiguous] = STATUS_AMBIGUOUS
    return tuple(reports) if compare_variants else reports[0]


@dataclass(frozen=True)
class TangentEstimate:
    """Estimated tangent projectors plus ambiguity flags."""

    planes: np.ndarray
    ambiguous: np.ndarray


def _check_neighbors(neighbors, n_pts):
    indices, eps = neighbors
    eps = np.asarray(eps, dtype=float)
    if len(indices) != n_pts:
        raise InvalidInputError(
            f"neighbors resolved for {len(indices)} points, cloud has {n_pts}"
        )
    if eps.shape != (n_pts,):
        raise InvalidInputError(f"neighbor radii of shape {eps.shape} for {n_pts} "
                                f"points; need shape ({n_pts},)")
    return indices, eps


def estimate_tangent_planes(
    positions, neighbors: tuple[list[np.ndarray], np.ndarray], dim_d: int
) -> TangentEstimate:
    """Tangent planes by bump-weighted local covariance.

    ``neighbors`` is the ``(indices, eps)`` pair that
    :meth:`NeighborIndex.resolve_all` returns for ``positions``; eps is the
    bump's radius at each point, and ``dim_d`` an integer in 1..n.  At each
    point the covariance of neighbor offsets from the kernel-weighted
    barycenter is eigen-decomposed; the span of the d dominant eigenvectors
    gives the plane, always a rank-d projector.  A near-tie between the
    d-th and (d+1)-th eigenvalues (within 1e-9 of the largest) flags the
    point as ambiguous.  Nothing is raised for a badly sampled point: fewer
    than d+1 neighbors, a zero radius or a covariance of rank < d all leave
    such a tie (all-zero eigenvalues at worst), so the point is flagged too.
    The points run ``REPORT_CALL`` at a time, with one batched covariance
    product per ``REPORT_BLOCK``-point padded neighbor block, the report's,
    and one stacked eigendecomposition per call.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_pts, n = positions.shape
    dim_d = _integer(dim_d, "dim_d")
    if not 1 <= dim_d <= n:
        raise InvalidInputError(f"dim_d = {dim_d} is outside 1..{n}, the ambient "
                                f"dimension")
    indices, sigma = _check_neighbors(neighbors, n_pts)
    planes = np.empty((n_pts, n, n))
    ambiguous = np.zeros(n_pts, dtype=bool)

    def run_call(lo, hi, idx, counts):
        planes[lo:hi], ambiguous[lo:hi] = _tangent_chunk(
            positions, lo, sigma[lo:hi], idx, counts, dim_d
        )

    _map_calls(run_call, indices)
    return TangentEstimate(planes=planes, ambiguous=ambiguous)


def _tangent_chunk(positions, lo, sigma, idx, counts, dim_d):
    """Planes and ambiguity flags of points lo, lo+1, ... from their
    neighbor lists (``idx`` end to end, ``counts`` their lengths): the
    covariances of each padded block, then one eigendecomposition."""
    n = positions.shape[1]
    m = counts.size
    cov = np.empty((m, n, n))
    for rows, lists in _blocks(counts):
        cov[rows] = _covariances(positions, lo + rows.start, sigma[rows],
                                 idx[lists], counts[rows])
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[:, ::-1]
    evecs = evecs[:, :, ::-1]
    ambiguous = np.zeros(m, dtype=bool)
    if dim_d < n:
        ambiguous = evals[:, dim_d - 1] - evals[:, dim_d] <= 1e-9 * evals[:, 0]
    top = evecs[:, :, :dim_d]
    return top @ top.transpose(0, 2, 1), ambiguous


def _covariances(positions, lo, sigma, idx, counts):
    """Bump-weighted covariances (m, n, n) of the neighbor offsets of points
    lo, lo+1, ... about their weighted barycenters, on one padded block."""
    m = counts.size
    scratch = _scratch()
    _, _, d_vec, _, t = _neighbor_block(
        scratch, positions, positions[lo:lo + m], idx, counts, sigma
    )
    w = bump_profile().eval(t)
    w_sum = w.sum(axis=1)
    zero_w = w_sum <= 0.0
    # the covariance of the offsets x_i - x_l is that of the neighbors
    bary = np.einsum("ml,mla->ma", w, d_vec) / np.where(zero_w, 1.0, w_sum)[:, None]
    centered = np.subtract(d_vec, bary[:, None], out=d_vec)
    weighted = np.multiply(w[..., None], centered,
                           out=scratch.view("vectors", d_vec.shape))
    return weighted.transpose(0, 2, 1) @ centered


def estimate_masses(index: NeighborIndex, n_mass: int, dim_d: int) -> np.ndarray:
    """Per-point masses omega_d r_i^d / n_mass.

    r_i is the smallest radius whose closed ball around x_i holds at least
    ``n_mass`` cloud points, the point itself included, found on the tree
    of ``index``; ``n_mass`` is an integer in 1..N.  Every curvature is a
    ratio of mass-weighted sums, so a global mass factor (omega_d / n_mass
    among them) cancels up to rounding.
    """
    n_mass = _integer(n_mass, "--n-mass")
    if not 1 <= n_mass <= index.n_points:
        raise InvalidInputError(f"--n-mass = {n_mass} is outside "
                                f"1..{index.n_points}, the number of points")
    radii = index.tree.query(index.positions, k=[n_mass], workers=WORKERS)[0][:, 0]
    if np.any(radii <= 0.0):
        bad = int(np.argmax(radii <= 0.0))
        raise InvalidInputError(
            f"mass radius is zero at point {bad}: at least --n-mass = {n_mass} "
            f"points sit at its location; --n-mass must exceed the number of "
            f"coincident points"
        )
    return unit_ball_volume(dim_d) * radii**dim_d / n_mass

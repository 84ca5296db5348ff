"""Reference algebra used only by the tests.

The library solves a_ijk + c_jk * sum_q a_qiq = b_ijk in closed form; these
helpers assemble the same system as an explicit n^3 x n^3 matrix, measure a
candidate's residual, and bound ||(I + c)^{-1}|| so the tests can check the
closed form against independent arithmetic.  ``ball`` gives single-point
tests a neighbor list, and ``one_row`` runs a chunk function of the
estimator on that one point.  The per-point curvature tensors of both
variants, the inverse form conversion and the kernel constants by
quadrature are cross-checks no library path needs.  ``reference_report``
(with the per-point estimator it loops over) and
``reference_tangent_planes`` are the one-point-at-a-time versions that the
batched library code is tested against; the tangent reference also says
how close the batched planes can be asked to come.  The per-point
estimator raises :class:`IsolatedPointError` where the batched engine
flags a row.  ``plane_frames``
decomposes codimension-1 planes on its own, as the check of the frames
that ``validate_cloud`` gives a cloud.  ``reference_read_xyz`` and
``reference_read_ply`` parse a file one line at a time, as the checks of
``io.read_xyz`` and ``io.read_ply``.  ``reference_diverging_rgb`` and
``reference_sequential_rgb`` spell the two color maps as per-segment
formulas, as the check of the anchor ramp behind ``io.colorize``.
"""

from dataclasses import dataclass
from math import factorial, isfinite, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from varicurv.errors import FileFormatError, InvalidInputError, VaricurvError
from varicurv.estimator import (
    DENOM_GUARD,
    STATUS_AMBIGUOUS,
    STATUS_ISOLATED,
    STATUS_OK,
    CurvatureReport,
    default_kernels,
    mean_curvature_vector,
    principal_curvatures,
    restrict_to_tangent,
    smoothed_direction_matrix,
    variation_tensor,
)
from varicurv.kernels import bump_profile, unit_ball_volume
from varicurv.tensors import (
    SYMMETRY_TOL,
    direction_matrix,
    solve_curvature_system,
    to_bilinear_form,
)


def ball(cloud, x, eps: float) -> np.ndarray:
    """Sorted indices of the cloud points within ``eps`` of location ``x``."""
    idx = cKDTree(cloud.positions).query_ball_point(np.asarray(x, dtype=float), eps)
    return np.sort(np.asarray(idx, dtype=np.intp))


def one_row(fn, cloud, l0, kernels, eps, idx):
    """``fn`` (a chunk function of the estimator) at the single point or
    location ``l0``: a one-row chunk call, returning its row."""
    return fn(cloud, [l0], kernels, eps, idx=idx, counts=[len(idx)])[0]


class IsolatedPointError(VaricurvError):
    """Empty effective neighborhood: the smoothed mass denominator vanishes."""


def curvature_tensor(cloud, l0, kernels, eps, *, idx) -> np.ndarray:
    """Regularized curvature tensor: solve the system against the averaged
    direction matrix.  Equals t_ijk - c_jk ((I+c)^{-1} H)_i."""
    t = one_row(variation_tensor, cloud, l0, kernels, eps, idx)
    c = one_row(smoothed_direction_matrix, cloud, cloud.positions[l0], kernels,
                eps, idx)
    return solve_curvature_system(c, t)


def orthogonal_curvature_tensor(cloud, l0, kernels, eps, *, idx) -> np.ndarray:
    """Orthogonal-variant curvature tensor a_ijk = t_ijk - (P_l0)_jk H_i.

    Uses the exact stored plane at l0 (not a kernel average); satisfies
    sum_q a_qiq = ((I - P) H)_i and sum_q a_iqq = 0 up to the projector
    tolerance.
    """
    t = one_row(variation_tensor, cloud, l0, kernels, eps, idx)
    h = mean_curvature_vector(t, dim_d=cloud.dim_d)
    return t - np.einsum("jk,i->ijk", cloud.planes[l0], h)


# ---------------------------------------------------------------- per-point
# The estimator one point at a time: the reference the chunk engine behind
# ``point_curvature`` and ``curvature_report`` is tested against.


def reference_local_sums(cloud, l0, idx, kernels, eps):
    """Kernel-weighted neighbor quantities at one point.

    Returns (planes_sub, weights, proj_units, xi_den) where weights carry
    m_l * rho'(r/eps) and proj_units the rows P_l (x0 - x_l)/r; zero-distance
    entries are dropped (their summand is defined as 0).  The xi denominator
    keeps every neighbor, including zero-distance ones.  A zero radius
    leaves only zero offsets, whose t is 0 as in ``_neighbor_block``, and
    the point is isolated.
    """
    x0 = cloud.positions[l0]
    d_vec = x0 - cloud.positions[idx]
    r = np.sqrt(np.einsum("la,la->l", d_vec, d_vec))
    t = r / (eps if eps > 0.0 else 1.0)
    m = cloud.masses[idx]
    xi_den = float(m @ kernels.xi.eval(t))
    if xi_den < DENOM_GUARD or eps <= 0.0:
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


def reference_variation_tensor(cloud, l0, kernels, eps, *, idx) -> np.ndarray:
    """Smoothed variation tensor at one point; raises
    :class:`IsolatedPointError` when the smoothed mass denominator
    vanishes."""
    planes_sub, w, pu, xi_den = reference_local_sums(cloud, l0, idx, kernels, eps)
    num = np.einsum("l,ljk,li->ijk", w, planes_sub, pu)
    return num * (kernels.ratio / (eps * xi_den))


def reference_direction_matrix(cloud, x, kernels, eps, *, idx) -> np.ndarray:
    """Kernel-averaged direction matrix at one location ``x``."""
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


def reference_point_curvature(cloud, l0, kernels=None, *, scale, idx, normal,
                              basis, variant="orthogonal") -> dict:
    """Curvature at one point, as a dict with the keys a_perp, mean_curv,
    kappas and directions; raises
    :class:`IsolatedPointError` for an isolated point."""
    kernels = kernels or default_kernels(cloud)
    eps = float(scale)
    beta = reference_variation_tensor(cloud, l0, kernels, eps, idx=idx)
    h = mean_curvature_vector(beta, dim_d=cloud.dim_d)
    p0 = cloud.planes[l0]
    a_perp = beta - np.einsum("jk,i->ijk", p0, h)
    if variant == "orthogonal":
        a_form = a_perp
    elif variant == "averaged":
        c = reference_direction_matrix(cloud, cloud.positions[l0], kernels, eps,
                                       idx=idx)
        a_form = solve_curvature_system(c, beta)
    else:
        raise InvalidInputError(f"unknown variant {variant!r}")
    restricted = restrict_to_tangent(to_bilinear_form(a_form), normal, basis)
    kappas, directions = principal_curvatures(restricted, basis)
    return dict(a_perp=a_perp, mean_curv=h, kappas=kappas, directions=directions)


def reference_report(cloud, neighbors, kernels=None, variant="orthogonal",
                     ambiguous=None) -> CurvatureReport:
    """``curvature_report`` (with ``collect_a_perp``) one point at a time."""
    kernels = kernels or default_kernels(cloud)
    n, d, nn = cloud.n_points, cloud.dim_d, cloud.ambient_n
    indices, eps = neighbors
    normals, bases = plane_frames(cloud.planes)
    rows = {
        "kappas": np.full((n, d), np.nan),
        "directions": np.full((n, d, nn), np.nan),
        "mean_curv": np.full((n, nn), np.nan),
        "a_perp": np.full((n, nn, nn, nn), np.nan),
    }
    status = np.full(n, STATUS_OK, dtype=object)
    for l0 in range(n):
        try:
            pc = reference_point_curvature(
                cloud, l0, kernels, scale=eps[l0], idx=indices[l0],
                normal=normals[l0], basis=bases[l0], variant=variant,
            )
        except IsolatedPointError:
            status[l0] = STATUS_ISOLATED
            continue
        for key, arr in rows.items():
            arr[l0] = pc[key]
    if ambiguous is not None:
        status[(status == STATUS_OK) & np.asarray(ambiguous, dtype=bool)] = (
            STATUS_AMBIGUOUS
        )
    return CurvatureReport(
        kappas=rows["kappas"], directions=rows["directions"],
        mean_vectors=rows["mean_curv"], eps=np.asarray(eps, dtype=float),
        status=status, a_perp=rows["a_perp"],
    )


@dataclass(frozen=True)
class ReferenceTangents:
    """Reference tangent planes, ambiguity flags, and per point the bound
    max(1e-12, 4 eps_mach lambda_1 / (lambda_d - lambda_{d+1})) on how far
    rounding moves a plane: the covariance's rounding over its eigen-gap.
    ``degenerate`` marks the neighborhoods that cannot determine a d-plane:
    fewer than d+1 points, a zero radius or weight sum, or a covariance of
    rank < d (relative 1e-12)."""

    planes: np.ndarray
    ambiguous: np.ndarray
    rounding: np.ndarray
    degenerate: np.ndarray


def reference_tangent_planes(positions, neighbors, dim_d: int) -> ReferenceTangents:
    """Tangent planes by bump-weighted local covariance, one point at a time.

    Same rules and tolerances as
    :func:`varicurv.estimator.estimate_tangent_planes`, which batches them;
    a degenerate neighborhood is flagged ambiguous, never raised.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_pts, n = positions.shape
    weight = bump_profile()
    indices, sigma = neighbors
    planes = np.empty((n_pts, n, n))
    ambiguous = np.zeros(n_pts, dtype=bool)
    rounding = np.zeros(n_pts)
    degenerate = np.zeros(n_pts, dtype=bool)
    eps_mach = np.finfo(float).eps
    for i in range(n_pts):
        pts = positions[indices[i]]
        d_vec = positions[i] - pts
        r = np.sqrt(np.einsum("la,la->l", d_vec, d_vec))
        # a zero radius leaves only zero offsets: t = 0, as in _neighbor_block
        w = weight.eval(r / (sigma[i] if sigma[i] > 0.0 else 1.0))
        w_sum = w.sum()
        # the covariance of the offsets is that of the neighbors, and it is
        # exactly 0 for a point alone in its ball
        bary = (w @ d_vec) / (w_sum if w_sum > 0.0 else 1.0)
        centered = d_vec - bary
        cov = np.einsum("l,la,lb->ab", w, centered, centered)
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[::-1]
        evecs = evecs[:, ::-1]
        degenerate[i] = (len(pts) < dim_d + 1 or sigma[i] <= 0.0 or w_sum <= 0.0
                         or evals[0] <= 0.0 or evals[dim_d - 1] <= 1e-12 * evals[0])
        if dim_d < n:
            gap = evals[dim_d - 1] - evals[dim_d]
            ambiguous[i] = gap <= 1e-9 * evals[0]
            rounding[i] = 4 * eps_mach * evals[0] / gap if gap > 0.0 else np.inf
        top = evecs[:, :dim_d]
        planes[i] = top @ top.T
    return ReferenceTangents(planes, ambiguous, np.maximum(1e-12, rounding),
                             degenerate)


def to_gradient_form(b) -> np.ndarray:
    """Convert bilinear form to gradient form: a_ijk = B_ij^k + B_ik^j.

    Requires (i, j)-symmetry of ``b`` within ``SYMMETRY_TOL``; inverse of
    ``to_bilinear_form`` on the symmetric tensor classes.
    """
    bt = np.asarray(b, dtype=float)
    if np.max(np.abs(bt - bt.transpose(1, 0, 2))) > SYMMETRY_TOL:
        raise VaricurvError("bilinear-form tensor is not (i,j)-symmetric")
    bt = 0.5 * (bt + bt.transpose(1, 0, 2))
    return bt + bt.transpose(0, 2, 1)


def kernel_constant(profile, d: int) -> float:
    """The constant d * omega_d * int_0^1 profile(r) r^(d-1) dr, by adaptive
    quadrature (QUADPACK)."""

    def integrand(r):
        return profile.eval(r) * r ** (d - 1)

    val, err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)
    if not np.isfinite(val) or (val != 0.0 and err > 1e-8 * abs(val)):
        raise RuntimeError(f"radial moment of {profile.name!r} did not converge")
    return d * unit_ball_volume(d) * val


def build_full_system_matrix(c) -> np.ndarray:
    """Assemble the dense n^3 x n^3 system matrix L (n <= 4).

    Rows and columns are ordered lexicographically in (i, j, k); the row for
    (i, j, k) adds c_jk to every column of the form (q, i, q).
    """
    cm = direction_matrix(c)
    n = cm.shape[0]
    if n > 4:
        raise ValueError(f"dense system assembly limited to n <= 4, got {n}")
    L = np.eye(n**3)

    def flat(i, j, k):
        return (i * n + j) * n + k

    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = flat(i, j, k)
                for q in range(n):
                    L[row, flat(q, i, q)] += cm[j, k]
    return L


def system_residual(c, a, b) -> float:
    """Max-abs residual of the curvature system at candidate solution ``a``."""
    s = np.einsum("qiq->i", a)
    lhs = a + np.einsum("jk,i->ijk", c, s)
    return float(np.max(np.abs(lhs - b)))


def inverse_norm(c: np.ndarray) -> float:
    """Computed operator norm of (I + c)^{-1}."""
    return float(np.linalg.norm(np.linalg.inv(np.eye(c.shape[0]) + c), ord=2))


def comatrix_norm_bound(n: int, d: int) -> float:
    """Explicit bound on ||(I + c)^{-1}|| from the cofactor formula.

    Entries of I + c are at most 2 in absolute value, so each cofactor is at
    most (n-1)! * 2^(n-1), while det(I + c) >= 2^d.
    """
    return n * factorial(n - 1) * 2.0 ** (n - 1) / 2.0**d


def reference_read_xyz(path) -> np.ndarray:
    """An xyz cloud parsed one line at a time: (N, n) positions, or a
    :class:`FileFormatError` naming the first bad line."""
    rows = []
    width = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if width is None:
                width = len(parts)
            if len(parts) != width:
                raise FileFormatError(
                    f"expected {width} columns, found {len(parts)}", line=lineno
                )
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise FileFormatError(f"bad float in {body!r}", line=lineno) from None
            if not all(map(isfinite, row)):
                raise FileFormatError(f"non-finite value in {body!r}", line=lineno)
            rows.append(row)
    if not rows:
        raise FileFormatError("no points found in xyz file")
    return np.asarray(rows)


def reference_read_ply(path):
    """An ascii ply parsed one vertex line at a time: (positions (N,3),
    normals (N,3) or None), or a :class:`FileFormatError` naming the first
    bad line.  Each vertex line is held to the xyz rule, with as many fields
    as the vertex element declares; only the fields read (x, y, z and the
    normals) must be finite.  Each normal is divided by its Euclidean
    length, after its largest |component| if that is below 1e-150 or above
    1e150; only an all-zero normal is rejected."""
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines or lines[0].strip() != "ply":
        raise FileFormatError("missing 'ply' magic", line=1)
    n_vertex = None
    before = 0
    props: list[str] = []
    header_end = None
    in_vertex = False
    for i, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] != "ascii":
                raise FileFormatError("only ascii 1.0 ply is supported", line=i)
        elif tok[0] == "element":
            if len(tok) != 3 or not tok[2].isdecimal():
                raise FileFormatError(
                    "expected 'element <name> <count>' with count >= 0", line=i
                )
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                n_vertex = int(tok[2])
                if n_vertex == 0:
                    raise FileFormatError("no points found in ply file", line=i)
            elif n_vertex is None:
                before += int(tok[2])
        elif tok[0] == "property" and in_vertex:
            props.append(tok[-1])
        elif tok[0] == "end_header":
            header_end = i
            break
    if header_end is None or n_vertex is None:
        raise FileFormatError("truncated ply header")
    for needed in ("x", "y", "z"):
        if needed not in props:
            raise FileFormatError(f"vertex element lacks property {needed!r}")
    cols = {name: j for j, name in enumerate(props)}
    has_normals = all(k in cols for k in ("nx", "ny", "nz"))
    fields = ("x", "y", "z", "nx", "ny", "nz") if has_normals else ("x", "y", "z")
    first = header_end + before + 1
    rows = []
    missing = None  # the first body line that holds no vertex
    for lineno in range(first, first + n_vertex):
        if lineno > len(lines):
            missing = missing or lineno
            break
        body = lines[lineno - 1].split("#", 1)[0].strip()
        if not body:
            missing = missing or lineno
            continue
        parts = body.split()
        if len(parts) != len(props):
            raise FileFormatError(
                f"expected {len(props)} columns, found {len(parts)}", line=lineno
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise FileFormatError(f"bad float in {body!r}", line=lineno) from None
        if not all(isfinite(row[cols[k]]) for k in fields):
            raise FileFormatError(f"non-finite value in {body!r}", line=lineno)
        rows.append(row)
    if missing is not None:
        raise FileFormatError("fewer vertex lines than declared", line=missing)
    positions = np.array([[row[cols[k]] for k in ("x", "y", "z")] for row in rows])
    if not has_normals:
        return positions, None
    normals = np.empty((n_vertex, 3))
    for r, row in enumerate(rows):
        values = [row[cols[k]] for k in ("nx", "ny", "nz")]
        scale = max(map(abs, values))
        if scale == 0.0:
            raise FileFormatError("zero-length normal", line=first + r)
        if not 1e-150 <= scale <= 1e150:
            values = [v / scale for v in values]
        norm = sqrt(values[0] * values[0] + values[1] * values[1]
                    + values[2] * values[2])
        normals[r] = [v / norm for v in values]
    return positions, normals


def reference_diverging_rgb(t: np.ndarray) -> np.ndarray:
    """Blue -> white -> red over t in [0, 1], one formula per half; NaN and
    +-inf map to mid gray."""
    t = np.asarray(t, dtype=float)
    nan = ~np.isfinite(t)
    t = np.where(nan, 0.5, np.clip(t, 0.0, 1.0))
    low = t < 0.5
    r = np.where(low, 2 * t, 1.0)
    g = np.where(low, 2 * t, 2 - 2 * t)
    b = np.where(low, 1.0, 2 - 2 * t)
    rgb = np.stack([r, g, b], axis=-1)
    rgb[nan] = [0.5, 0.5, 0.5]
    return np.round(255 * rgb).astype(np.uint8)


def reference_sequential_rgb(t: np.ndarray) -> np.ndarray:
    """Blue -> green -> yellow -> red over t in [0, 1], one clipped formula
    per channel; NaN and +-inf map to mid gray."""
    t = np.asarray(t, dtype=float)
    nan = ~np.isfinite(t)
    t = np.where(nan, 0.0, np.clip(t, 0.0, 1.0))
    r = np.clip(3.0 * t - 1.0, 0.0, 1.0)
    g = np.clip(np.where(t < 1.0 / 3.0, 3.0 * t, np.where(t < 2.0 / 3.0, 1.0,
                3.0 - 3.0 * t)), 0.0, 1.0)
    b = np.clip(1.0 - 3.0 * t, 0.0, 1.0)
    rgb = np.stack([r, g, b], axis=-1)
    rgb[nan] = [0.5, 0.5, 0.5]
    return np.round(255 * rgb).astype(np.uint8)

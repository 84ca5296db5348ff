"""Reference algebra used only by the tests.

The library solves a_ijk + c_jk * sum_q a_qiq = b_ijk in closed form; these
helpers assemble the same system as an explicit n^3 x n^3 matrix, measure a
candidate's residual, and bound ||(I + c)^{-1}|| so the tests can check the
closed form against independent arithmetic.  ``ball`` gives single-point
tests the neighbor list that the per-point estimator functions take as
``idx=``.  The per-point curvature tensors of both variants, the inverse
form conversion and the kernel constants by quadrature are cross-checks no
library path needs.
"""

from math import factorial

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from varicurv.errors import AsymmetricInputError
from varicurv.estimator import (
    mean_curvature_vector,
    smoothed_direction_matrix,
    variation_tensor,
)
from varicurv.kernels import unit_ball_volume
from varicurv.tensors import SYMMETRY_TOL, direction_matrix, solve_curvature_system


def ball(cloud, x, eps: float) -> np.ndarray:
    """Sorted indices of the cloud points within ``eps`` of location ``x``."""
    idx = cKDTree(cloud.positions).query_ball_point(np.asarray(x, dtype=float), eps)
    return np.sort(np.asarray(idx, dtype=np.intp))


def curvature_tensor(cloud, l0, kernels, eps, *, idx) -> np.ndarray:
    """Regularized curvature tensor: solve the system against the averaged
    direction matrix.  Equals t_ijk - c_jk ((I+c)^{-1} H)_i."""
    t = variation_tensor(cloud, l0, kernels, eps, idx=idx)
    c = smoothed_direction_matrix(cloud, cloud.positions[l0], kernels, eps, idx=idx)
    return solve_curvature_system(c, t)


def orthogonal_curvature_tensor(cloud, l0, kernels, eps, *, idx) -> np.ndarray:
    """Orthogonal-variant curvature tensor a_ijk = t_ijk - (P_l0)_jk H_i.

    Uses the exact stored plane at l0 (not a kernel average); satisfies
    sum_q a_qiq = ((I - P) H)_i and sum_q a_iqq = 0 up to the projector
    tolerance.
    """
    t = variation_tensor(cloud, l0, kernels, eps, idx=idx)
    h = mean_curvature_vector(t, dim_d=cloud.dim_d)
    return t - np.einsum("jk,i->ijk", cloud.planes[l0], h)


def to_gradient_form(b) -> np.ndarray:
    """Convert bilinear form to gradient form: a_ijk = B_ij^k + B_ik^j.

    Requires (i, j)-symmetry of ``b`` within ``SYMMETRY_TOL``; inverse of
    ``to_bilinear_form`` on the symmetric tensor classes.
    """
    bt = np.asarray(b, dtype=float)
    if np.max(np.abs(bt - bt.transpose(1, 0, 2))) > SYMMETRY_TOL:
        raise AsymmetricInputError("bilinear-form tensor is not (i,j)-symmetric")
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

"""Dense reference algebra for the curvature system, used only by the tests.

The library solves a_ijk + c_jk * sum_q a_qiq = b_ijk in closed form; these
helpers assemble the same system as an explicit n^3 x n^3 matrix, measure a
candidate's residual, and bound ||(I + c)^{-1}|| so the tests can check the
closed form against independent arithmetic.  ``ball`` gives single-point
tests the neighbor list that the per-point estimator functions take as
``idx=``.
"""

from math import factorial

import numpy as np
from scipy.spatial import cKDTree

from varicurv.tensors import DirectionMatrix


def ball(cloud, x, eps: float) -> np.ndarray:
    """Sorted indices of the cloud points within ``eps`` of location ``x``."""
    idx = cKDTree(cloud.positions).query_ball_point(np.asarray(x, dtype=float), eps)
    return np.sort(np.asarray(idx, dtype=np.intp))


def build_full_system_matrix(c) -> np.ndarray:
    """Assemble the dense n^3 x n^3 system matrix L (n <= 4).

    Rows and columns are ordered lexicographically in (i, j, k); the row for
    (i, j, k) adds c_jk to every column of the form (q, i, q).
    """
    if not isinstance(c, DirectionMatrix):
        c = DirectionMatrix.from_matrix(c)
    n = c.n
    if n > 4:
        raise ValueError(f"dense system assembly limited to n <= 4, got {n}")
    L = np.eye(n**3)
    cm = c.entries

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


def inverse_norm(c: DirectionMatrix) -> float:
    """Computed operator norm of (I + c)^{-1}."""
    return float(np.linalg.norm(np.linalg.inv(np.eye(c.n) + c.entries), ord=2))


def comatrix_norm_bound(n: int, d: int) -> float:
    """Explicit bound on ||(I + c)^{-1}|| from the cofactor formula.

    Entries of I + c are at most 2 in absolute value, so each cofactor is at
    most (n-1)! * 2^(n-1), while det(I + c) >= 2^d.
    """
    return n * factorial(n - 1) * 2.0 ** (n - 1) / 2.0**d

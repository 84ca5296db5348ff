"""Dense tensor algebra for the curvature linear system.

The central object is the n^3 system

    a_ijk + c_jk * sum_q a_qiq = b_ijk,    i, j, k = 1..n,

where c is a symmetric positive semidefinite "direction matrix" (a single
tangent projector, or any convex combination of projectors), checked by
:func:`direction_matrix`.  The system has the closed-form solution

    a_ijk = b_ijk - c_jk * [(I + c)^{-1} h]_i,    h_i = sum_q b_qiq,

and the associated n^3 x n^3 matrix L satisfies det(L) = det(I + c), so the
system is always uniquely solvable.

Two rank-3 tensor layouts are used throughout, both plain (n, n, n) float64
arrays:

* gradient form ``a[i, j, k]``: tangential derivative of the projector field
  in direction e_i; symmetric in (j, k);
* bilinear form ``B[i, j, k]`` (read B_ij^k): classical vector-valued second
  fundamental form; symmetric in (i, j).

``to_bilinear_form`` converts gradient form to bilinear form; the inverse
conversion is used only as a test reference.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricInputError,
    InvalidDirectionMatrixError,
    InvalidInputError,
)

# Absolute tolerances for validation; all data handled here is O(1)..O(1/eps)
# and produced in float64.
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} contains NaN or Inf")


def direction_matrix(mat) -> np.ndarray:
    """Validate a direction matrix: symmetric PSD with entries in [-1, 1].

    It arises as an average of tangent projectors; hence PSD with trace d
    and det(I + c) >= 2^d when the projectors share rank d.  Returns the
    symmetrized matrix, with eigenvalues in [-PSD_TOL, 0) clamped to zero.
    """
    mat = np.asarray(mat, dtype=float)
    _require_finite(mat, "direction matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidDirectionMatrixError("direction matrix must be square")
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL:
        raise InvalidDirectionMatrixError("direction matrix is not symmetric")
    mat = 0.5 * (mat + mat.T)
    w, v = np.linalg.eigh(mat)
    if w.min() < -PSD_TOL:
        raise InvalidDirectionMatrixError(
            f"negative eigenvalue {w.min():.3g} below -{PSD_TOL:g}"
        )
    if w.min() < 0.0:
        # Rounding from averaged projectors; clamp tiny negatives to zero.
        mat = (v * np.clip(w, 0.0, None)) @ v.T
        mat = 0.5 * (mat + mat.T)
    if np.max(np.abs(mat)) > 1.0 + SYMMETRY_TOL:
        raise InvalidDirectionMatrixError("entries exceed 1 in absolute value")
    return mat


def _as_tensor_entries(t) -> np.ndarray:
    entries = np.asarray(t, dtype=float)
    if entries.ndim != 3 or len(set(entries.shape)) != 1:
        raise InvalidInputError("rank-3 tensor must have shape (n, n, n)")
    return entries


def solve_curvature_system(c, b) -> np.ndarray:
    """Solve a_ijk + c_jk * sum_q a_qiq = b_ijk via the closed form.

    ``c`` is an (n, n) array; it is checked by :func:`direction_matrix`,
    which is the one place the PSD check runs.  ``b`` is an (n, n, n)
    array.  The (I + c) solve uses a direct dense factorization; systems are
    tiny (n <= ~10), so runtime is dominated by call count, not size.
    """
    c = direction_matrix(c)
    bt = _as_tensor_entries(b)
    _require_finite(bt, "right-hand side tensor")
    n = c.shape[0]
    if bt.shape[0] != n:
        raise InvalidInputError("tensor and direction matrix sizes disagree")
    h = np.einsum("qiq->i", bt)
    g = np.linalg.solve(np.eye(n) + c, h)
    return bt - np.einsum("i,jk->ijk", g, c)


def to_bilinear_form(a) -> np.ndarray:
    """Convert gradient form to bilinear form: B_ij^k = (a_ijk + a_jik - a_kij)/2.

    Requires (j, k)-symmetry of ``a``; the input is symmetrized before use
    when within ``SYMMETRY_TOL`` and rejected beyond it.
    """
    at = _as_tensor_entries(a)
    _require_finite(at, "gradient-form tensor")
    if np.max(np.abs(at - at.transpose(0, 2, 1))) > SYMMETRY_TOL:
        raise AsymmetricInputError("gradient-form tensor is not (j,k)-symmetric")
    at = 0.5 * (at + at.transpose(0, 2, 1))
    # transpose(1, 0, 2) reads a[j, i, k]; transpose(1, 2, 0) reads a[k, i, j]
    return 0.5 * (at + at.transpose(1, 0, 2) - at.transpose(1, 2, 0))


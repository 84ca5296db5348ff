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

from .errors import InvalidInputError, VaricurvError

# Absolute tolerances for validation; all data handled here is O(1)..O(1/eps)
# and produced in float64.
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} contains NaN or Inf")


def _at_row(bad: np.ndarray) -> str:
    """" at row i" naming the first True entry of a stack's per-row flags,
    or "" for a single (0-d) flag."""
    if bad.ndim == 0:
        return ""
    first = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" at row {first[0] if len(first) == 1 else first}"


def direction_matrix(mat) -> np.ndarray:
    """Validate a direction matrix: symmetric PSD with entries in [-1, 1].

    It arises as an average of tangent projectors; hence PSD with trace d
    and det(I + c) >= 2^d when the projectors share rank d.  Returns the
    symmetrized matrix as it is: an eigenvalue in [-PSD_TOL, 0) is rounding
    and passes, and the closed-form solve needs no PSD repair, only
    det(I + c) > 0.  A stack ``(..., n, n)`` is checked row by row with one
    stacked eigenvalue computation; an error names the first bad row.
    """
    mat = np.asarray(mat, dtype=float)
    _require_finite(mat, "direction matrix")
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise InvalidInputError("direction matrix must be square")
    swapped = mat.swapaxes(-1, -2)
    asym = np.max(np.abs(mat - swapped), axis=(-2, -1), initial=0.0) > SYMMETRY_TOL
    if np.any(asym):
        raise VaricurvError(
            "direction matrix is not symmetric" + _at_row(asym)
        )
    mat = 0.5 * (mat + swapped)
    low = np.min(np.linalg.eigvalsh(mat), axis=-1, initial=np.inf)
    neg = low < -PSD_TOL
    if np.any(neg):
        first = low[neg].flat[0]
        raise VaricurvError(
            f"negative eigenvalue {first:.3g} below -{PSD_TOL:g}" + _at_row(neg)
        )
    big = np.max(np.abs(mat), axis=(-2, -1), initial=0.0) > 1.0 + SYMMETRY_TOL
    if np.any(big):
        raise VaricurvError(
            "entries exceed 1 in absolute value" + _at_row(big)
        )
    return mat


def _as_tensor_entries(t) -> np.ndarray:
    entries = np.asarray(t, dtype=float)
    if entries.ndim < 3 or len(set(entries.shape[-3:])) != 1:
        raise InvalidInputError("rank-3 tensor must have shape (n, n, n)")
    return entries


def solve_curvature_system(c, b) -> np.ndarray:
    """Solve a_ijk + c_jk * sum_q a_qiq = b_ijk via the closed form.

    ``c`` is an (n, n) array or a stack (..., n, n); it is checked by
    :func:`direction_matrix`, which is the one place the PSD check runs.
    ``b`` is an (n, n, n) array, or a stack (..., n, n, n) matching ``c``.
    The (I + c) solves run as one stacked dense factorization; systems are
    tiny (n <= ~10).
    """
    c = direction_matrix(c)
    bt = _as_tensor_entries(b)
    _require_finite(bt, "right-hand side tensor")
    n = c.shape[-1]
    if bt.shape[-1] != n or bt.shape[:-3] != c.shape[:-2]:
        raise InvalidInputError("tensor and direction matrix sizes disagree")
    h = np.einsum("...qiq->...i", bt)
    g = np.linalg.solve(np.eye(n) + c, h[..., None])[..., 0]
    a = np.einsum("...i,...jk->...ijk", g, c)
    return np.subtract(bt, a, out=a)


def to_bilinear_form(a) -> np.ndarray:
    """Convert gradient form to bilinear form: B_ij^k = (a_ijk + a_jik - a_kij)/2.

    Requires (j, k)-symmetry of ``a``; the input is symmetrized before use
    when within ``SYMMETRY_TOL`` and rejected beyond it.  A stack
    (..., n, n, n) converts row by row; an error names the first bad row.
    """
    at = _as_tensor_entries(a)
    _require_finite(at, "gradient-form tensor")
    swapped = at.swapaxes(-1, -2)
    # two buffers, in the operation order of 0.5 * (at + swapped) and then
    # 0.5 * (sym + sym[j, i, k] - sym[k, i, j])
    sym = np.subtract(at, swapped)
    np.abs(sym, out=sym)
    asym = np.max(sym, axis=(-3, -2, -1), initial=0.0) > SYMMETRY_TOL
    if np.any(asym):
        raise VaricurvError(
            "gradient-form tensor is not (j,k)-symmetric" + _at_row(asym)
        )
    np.add(at, swapped, out=sym)
    sym *= 0.5
    # on the last three axes (i, j, k): swapaxes(-3, -2) reads a[j, i, k]
    # and moveaxis(-3, -1) reads a[k, i, j]
    out = np.add(sym, sym.swapaxes(-3, -2))
    out -= np.moveaxis(sym, -3, -1)
    out *= 0.5
    return out

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varicurv as vc
from varicurv.errors import (
    AsymmetricInputError,
    InvalidDirectionMatrixError,
    InvalidInputError,
)
from varicurv.tensors import direction_matrix, solve_curvature_system

from system_reference import (
    build_full_system_matrix,
    comatrix_norm_bound,
    inverse_norm,
    system_residual,
    to_gradient_form,
)


def random_direction_matrix(rng, n, d, n_proj=None):
    """Average of a few random rank-d projectors."""
    n_proj = n_proj or rng.integers(1, 6)
    mats = []
    for _ in range(n_proj):
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        mats.append(q @ q.T)
    w = rng.uniform(0.2, 1.0, len(mats))
    w /= w.sum()
    return sum(wi * m for wi, m in zip(w, mats))


class TestSolveCurvatureSystem:
    def test_zero_direction_matrix_is_identity(self):
        b = np.arange(8.0).reshape(2, 2, 2)
        a = solve_curvature_system(np.zeros((2, 2)), b)
        assert np.array_equal(a, b)

    def test_identity_direction_matrix(self):
        # (I + I)^{-1} h = h/2 with h_i = 2, so a_ijk = 1 - delta_jk
        b = np.ones((2, 2, 2))
        a = solve_curvature_system(np.eye(2), b)
        expected = np.ones((2, 2, 2))
        expected[:, 0, 0] = 0.0
        expected[:, 1, 1] = 0.0
        assert np.allclose(a, expected, atol=1e-14)

    def test_rank_one_projector_direction(self):
        # back-substitution of the candidate verifies all 8 equations
        c = np.diag([1.0, 0.0])
        b = np.ones((2, 2, 2))
        a = solve_curvature_system(c, b)
        expected = np.ones((2, 2, 2))
        expected[0, 0, 0] = 0.0
        expected[1, 0, 0] = -1.0
        assert np.allclose(a, expected, atol=1e-14)
        assert system_residual(c, a, b) <= 1e-12 * (1 + 1)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.choice([2, 3, 4, 6]))
            d = int(rng.integers(1, n))
            c = random_direction_matrix(rng, n, d)
            b = rng.standard_normal((n, n, n)) * rng.uniform(0.1, 50)
            a = solve_curvature_system(c, b)
            bound = 1e-12 * (1.0 + np.max(np.abs(b)))
            assert system_residual(c, a, b) <= bound

    def test_agrees_with_dense_solve(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            c = random_direction_matrix(rng, n, 1)
            b = rng.standard_normal((n, n, n))
            a = solve_curvature_system(c, b)
            L = build_full_system_matrix(c)
            dense = np.linalg.solve(L, b.ravel()).reshape(n, n, n)
            assert np.max(np.abs(a - dense)) < 1e-9

    def test_trace_identities(self):
        # when sum_q b_iqq = d*h_i holds, the solution sums follow the
        # resolvent identities
        rng = np.random.default_rng(13)
        n, d = 3, 2
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        p = q @ q.T
        # gradient-form tensor of a cloud-like object: b_ijk = p_jk v_i with
        # v in the range of p, so that sum_q b_iqq = d * h_i holds
        v = p @ rng.standard_normal(n)
        b = np.einsum("jk,i->ijk", p, v)
        c = direction_matrix(p)
        a = solve_curvature_system(c, b)
        h = np.einsum("qiq->i", b)
        g = np.linalg.solve(np.eye(n) + p, h)
        assert np.allclose(np.einsum("qiq->i", a), g, atol=1e-12)
        assert np.allclose(np.einsum("iqq->i", a), d * (p @ g), atol=1e-12)

    def test_jk_symmetry_preserved(self):
        rng = np.random.default_rng(17)
        c = random_direction_matrix(rng, 3, 2)
        b = rng.standard_normal((3, 3, 3))
        b = 0.5 * (b + b.transpose(0, 2, 1))
        a = solve_curvature_system(c, b)
        assert np.max(np.abs(a - a.transpose(0, 2, 1))) == 0.0

    def test_rejects_nan(self):
        b = np.full((2, 2, 2), np.nan)
        with pytest.raises(InvalidInputError):
            solve_curvature_system(np.zeros((2, 2)), b)

    def test_rejects_asymmetric_direction(self):
        c = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidDirectionMatrixError):
            solve_curvature_system(c, np.zeros((2, 2, 2)))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidDirectionMatrixError):
            direction_matrix(np.diag([0.5, -0.5]))

    def test_clamps_tiny_negative_eigenvalue(self):
        c = direction_matrix(np.diag([0.5, -5e-11]))
        assert np.linalg.eigvalsh(c).min() >= 0.0


class TestFullSystemMatrix:
    def test_zero_gives_identity(self):
        L = build_full_system_matrix(np.zeros((2, 2)))
        assert np.array_equal(L, np.eye(8))
        assert np.linalg.det(L) == pytest.approx(1.0)

    def test_identity_determinant(self):
        L = build_full_system_matrix(np.eye(2))
        assert np.linalg.det(L) == pytest.approx(4.0, rel=1e-12)

    def test_determinant_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            c = random_direction_matrix(rng, 3, 1)
            L = build_full_system_matrix(c)
            det_l = np.linalg.det(L)
            det_c = np.linalg.det(np.eye(3) + c)
            assert det_l == pytest.approx(det_c, rel=1e-9)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            build_full_system_matrix(np.zeros((5, 5)))


class TestDirectionMatrixBounds:
    def test_det_lower_bound_convex_combination(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.choice([2, 3, 4]))
            d = int(rng.integers(1, n))
            c = random_direction_matrix(rng, n, d)
            assert np.linalg.det(np.eye(n) + c) >= 2.0**d - 1e-9

    def test_inverse_norm_within_cofactor_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.choice([2, 3, 4]))
            d = int(rng.integers(1, n))
            dm = direction_matrix(random_direction_matrix(rng, n, d))
            assert inverse_norm(dm) <= comatrix_norm_bound(n, d) + 1e-12


class TestFormConversions:
    def test_zero_maps_to_zero(self):
        assert np.all(vc.to_bilinear_form(np.zeros((2, 2, 2))) == 0)
        assert np.all(to_gradient_form(np.zeros((2, 2, 2))) == 0)

    def test_single_entry(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = 2.0
        b = vc.to_bilinear_form(a)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(b, expected)

    def test_single_bilinear_entry(self):
        bm = np.zeros((2, 2, 2))
        bm[0, 0, 1] = 1.0
        a = to_gradient_form(bm)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = 1.0
        expected[0, 1, 0] = 1.0
        assert np.array_equal(a, expected)

    def test_classical_round_trip(self):
        # gradient form built from a known bilinear form round-trips exactly
        rng = np.random.default_rng(37)
        bm = rng.standard_normal((3, 3, 3))
        bm = 0.5 * (bm + bm.transpose(1, 0, 2))
        a = to_gradient_form(bm)
        back = vc.to_bilinear_form(a)
        assert np.max(np.abs(back - bm)) < 1e-12

    def test_round_trip_many(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            t = rng.standard_normal((3, 3, 3))
            t = 0.5 * (t + t.transpose(0, 2, 1))
            back = to_gradient_form(vc.to_bilinear_form(t))
            assert np.max(np.abs(back - t)) < 1e-12

    def test_rejects_jk_asymmetric(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = 1.0
        with pytest.raises(AsymmetricInputError):
            vc.to_bilinear_form(t)

    def test_rejects_ij_asymmetric(self):
        t = np.zeros((2, 2, 2))
        t[0, 1, 0] = 1.0
        with pytest.raises(AsymmetricInputError):
            to_gradient_form(t)


@st.composite
def direction_and_tensor(draw):
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, n - 1)) if n > 1 else 1
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    c = random_direction_matrix(rng, n, d)
    b = rng.standard_normal((n, n, n)) * draw(
        st.floats(0.01, 100.0, allow_nan=False)
    )
    return c, b


@settings(max_examples=60, deadline=None)
@given(direction_and_tensor())
def test_solver_residual_property(cb):
    c, b = cb
    a = solve_curvature_system(c, b)
    assert system_residual(c, a, b) <= 1e-12 * (1.0 + np.max(np.abs(b)))


@settings(max_examples=60, deadline=None)
@given(direction_and_tensor())
def test_solver_matches_dense_property(cb):
    c, b = cb
    L = build_full_system_matrix(c)
    dense = np.linalg.solve(L, b.ravel()).reshape(b.shape)
    a = solve_curvature_system(c, b)
    assert np.max(np.abs(a - dense)) <= 1e-9 * (1.0 + np.max(np.abs(b)))

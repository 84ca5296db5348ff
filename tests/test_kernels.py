import math

import numpy as np
import pytest

import varicurv as vc
from varicurv.errors import InvalidInputError
from varicurv.kernels import (
    _BUMP_CUTOFF,
    KernelProfile,
    kernel_pair_by_name,
    paired_mass_profile,
    tent_profile,
    unit_ball_volume,
)

from system_reference import kernel_constant


def box_profile():
    """Indicator of [0,1): flat, so it pairs to a zero mass profile."""

    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0.0) & (t < 1.0), 1.0, 0.0)

    def dv(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return KernelProfile("box", ev, dv)


class TestBumpProfile:
    def test_support(self):
        rho = vc.bump_profile()
        assert rho.eval(1.0) == 0.0
        assert rho.eval(1.5) == 0.0
        assert rho.deriv(1.0) == 0.0

    def test_derivative_zero_at_origin(self):
        assert vc.bump_profile().deriv(0.0) == 0.0

    def test_value_at_half(self):
        assert vc.bump_profile().eval(0.5) == pytest.approx(math.exp(-4.0 / 3.0))

    def test_derivative_matches_finite_difference(self):
        rho = vc.bump_profile()
        ts = np.linspace(0.05, 0.9, 18)
        h = 1e-7
        fd = (rho.eval(ts + h) - rho.eval(ts - h)) / (2 * h)
        assert np.allclose(rho.deriv(ts), fd, atol=1e-6)

    def test_decreasing(self):
        rho = vc.bump_profile()
        ts = np.linspace(0.0, 0.999, 500)
        vals = rho.eval(ts)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_no_overflow_near_support_edge(self):
        rho = vc.bump_profile()
        ts = np.array([1.0 - 1e-5, 1.0 - 1e-9, 1.0 - 1e-13, 1.0 - 1e-16])
        assert np.all(np.isfinite(rho.eval(ts)))
        assert np.all(np.isfinite(rho.deriv(ts)))


def masked_bump(t):
    """The bump value and derivative evaluated only on the mask of the
    support, zeros elsewhere: the formula the whole-array profile keeps."""
    t = np.asarray(t, dtype=float)
    value, deriv = np.zeros_like(t), np.zeros_like(t)
    u = 1.0 - t * t
    m = (t >= 0.0) & (u > _BUMP_CUTOFF)
    um = u[m]
    value[m] = np.exp(-1.0 / um)
    deriv[m] = -2.0 * t[m] / (um * um) * np.exp(-1.0 / um)
    return value, deriv


class TestBumpWithoutMasks:
    def test_bitwise_equal_to_masked_formula(self):
        # every bit, the sign of each zero included: t < 0 and -0.0, the
        # interior, 1 - t^2 at and just above the cutoff (where the masked
        # exponential underflows to a -0.0 derivative), 1 and beyond
        edge = math.sqrt(1.0 - _BUMP_CUTOFF)
        grid = np.r_[-1e150, -2.0, -1.0, -0.5, -1e-300, -0.0, 0.0, 1e-300,
                     np.linspace(0.0, 1.0, 20001),
                     [np.nextafter(edge, s) for s in (0.0, 2.0)], edge,
                     np.sqrt(1.0 - np.geomspace(1e-2, 1e-9, 400)),
                     1.0, np.nextafter(1.0, 2.0), 1.5, 1e10, 1e150]
        u = 1.0 - grid * grid
        assert np.any((u > _BUMP_CUTOFF) & (u < 1.1 * _BUMP_CUTOFF))
        assert np.any((u <= _BUMP_CUTOFF) & (u > 0.9 * _BUMP_CUTOFF))
        value, deriv = masked_bump(grid)
        # the grid reaches both signs of zero in the masked derivative
        assert np.any(np.signbit(deriv) & (deriv == 0.0))
        assert np.any(~np.signbit(deriv) & (deriv == 0.0) & (grid > 0.5))
        rho = vc.bump_profile()
        assert rho.eval(grid).tobytes() == value.tobytes()
        assert rho.deriv(grid).tobytes() == deriv.tobytes()
        # a padded block is two-dimensional
        assert rho.deriv(np.vstack([grid, grid]))[1].tobytes() == deriv.tobytes()


class TestPairedMassProfile:
    def test_endpoints_vanish(self):
        xi = paired_mass_profile(vc.bump_profile(), 3)
        assert xi.eval(0.0) == 0.0
        assert xi.eval(1.0) == 0.0

    def test_value_at_half(self):
        # -s rho'(s) / n at s = 1/2 for the bump in ambient dimension 3
        xi = paired_mass_profile(vc.bump_profile(), 3)
        expected = 0.5 * (2 * 0.5 / 0.75**2) * math.exp(-4.0 / 3.0) / 3.0
        assert xi.eval(0.5) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        xi = paired_mass_profile(vc.bump_profile(), 2)
        assert np.all(xi.eval(np.linspace(0, 1.2, 400)) >= 0.0)

    def test_rejects_increasing_profile(self):
        def ev(t):
            return np.where(t < 1.0, t, 0.0)

        def dv(t):
            return np.where(t < 1.0, 1.0, 0.0)

        rising = KernelProfile("rising", ev, dv)
        with pytest.raises(InvalidInputError,
                           match="profile 'rising' increases on \\[0,1\\); cannot pair"):
            paired_mass_profile(rising, 2)

    def test_rejects_flat_profile(self):
        # rho' = 0 pairs to xi = 0, which would leave every point isolated
        with pytest.raises(InvalidInputError,
                           match="profile 'box' is flat on \\[0,1\\); its paired "
                                 "mass profile would be zero"):
            vc.natural_kernel_pair(box_profile(), 2, 3)

    def test_rejects_profile_without_derivative(self):
        # xi is built from rho', so a profile without one cannot pair
        plain = KernelProfile("plain", tent_profile().eval)
        with pytest.raises(InvalidInputError,
                           match="profile 'plain' has no derivative; cannot pair"):
            paired_mass_profile(plain, 3)


class TestKernelConstant:
    def test_box_profile_d2(self):
        # 2 * omega_2 * int r dr = pi
        assert kernel_constant(box_profile(), 2) == pytest.approx(math.pi)

    def test_tent_profile_d1(self):
        assert kernel_constant(tent_profile(), 1) == pytest.approx(1.0)

    def test_bump_d2_against_trapezoid(self):
        rho = vc.bump_profile()
        r = np.linspace(0.0, 1.0, 400001)
        oracle = 2 * unit_ball_volume(2) * np.trapezoid(rho.eval(r) * r, r)
        assert kernel_constant(rho, 2) == pytest.approx(oracle, rel=1e-8)

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


class TestNaturalKernelPair:
    @pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 3), (3, 4)])
    def test_constant_ratio_is_d_over_n(self, d, n):
        pair = vc.natural_kernel_pair(vc.bump_profile(), d, n)
        assert pair.ratio == d / n
        # quadrature cross-check of the integration-by-parts identity
        ratio = kernel_constant(pair.xi, d) / kernel_constant(pair.rho, d)
        assert ratio == pytest.approx(d / n, abs=1e-6)

    def test_eta_defaults_to_rho(self):
        pair = vc.natural_kernel_pair(vc.bump_profile(), 2, 3)
        assert pair.eta is pair.rho

    def test_by_name(self):
        pair = kernel_pair_by_name("bump", 2, 3)
        assert pair.rho.name == "bump"
        for name in ("gaussian", "box"):
            with pytest.raises(InvalidInputError,
                               match=f"unknown kernel profile '{name}'; choose "
                                     f"from \\['bump', 'tent'\\]"):
                kernel_pair_by_name(name, 2, 3)

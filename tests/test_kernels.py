import math

import numpy as np
import pytest

import varicurv as vc
from varicurv.errors import InvalidInputError, InvalidProfileError
from varicurv.kernels import (
    KernelProfile,
    box_profile,
    kernel_pair_by_name,
    paired_mass_profile,
    tent_profile,
    unit_ball_volume,
)

from system_reference import kernel_constant


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
        with pytest.raises(InvalidProfileError):
            paired_mass_profile(rising, 2)


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
        with pytest.raises(InvalidInputError):
            kernel_pair_by_name("gaussian", 2, 3)

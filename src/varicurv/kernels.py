"""Radial kernel profiles and the constants used by the smoothed estimators.

A profile is a nonnegative function on [0, inf) supported in [0, 1).  Three
roles appear in the estimator:

* ``rho``  smooths the tensor-valued variations (needs rho decreasing with
  rho'(0) = 0);
* ``xi``   smooths the mass measure in the denominators;
* ``eta``  smooths the direction matrix (defaults to rho).

Pairing xi to rho through  n * xi(s) = -s * rho'(s)  makes the ratio of the
normalizing constants come out to exactly d/n, which is the prefactor used in
all the point-cloud formulas.  A profile with rho' = 0 throughout (an
indicator) would pair to xi = 0 and leave every point isolated, so pairing
rejects it.  ``PROFILES`` holds the profiles offered by name: the bump (the
CLI's default) and the tent (testing only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d (omega_d)."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class KernelProfile:
    """Radial profile on arrays, vanishing with its derivative on [1, inf);
    ``deriv`` is needed only for the differentiated profile ``rho``."""

    name: str
    eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    deriv: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)


# Below 1 - t^2 = 1e-8 the bump value exp(-1/(1-t^2)) underflows to exactly
# zero in float64, so the cutoff loses nothing and avoids overflow in the
# rational prefactors of the derivative.
_BUMP_CUTOFF = 1e-8


def _bump_terms(t):
    """t and u = 1 - t^2 as float arrays, computed on the whole array.  Off
    the support (t < 0, or u at most the cutoff) they read t = -1 and
    u = _BUMP_CUTOFF: exp(-1/u) is exactly 0 there, so the value and the
    derivative are +0, as zeros left outside a mask would be."""
    t = np.asarray(t, dtype=float)
    u = 1.0 - t * t
    live = (t >= 0.0) & (u > _BUMP_CUTOFF)
    return np.where(live, t, -1.0), np.where(live, u, _BUMP_CUTOFF)


def _bump_eval(t) -> np.ndarray:
    _, u = _bump_terms(t)
    return np.exp(-1.0 / u)


def _bump_deriv(t) -> np.ndarray:
    t, u = _bump_terms(t)
    return -2.0 * t / (u * u) * np.exp(-1.0 / u)


def bump_profile() -> KernelProfile:
    """Smooth bump exp(-1/(1-t^2)) on [0,1), identically zero beyond.

    Unnormalized on purpose: the estimator formulas only ever use ratios in
    which the normalization cancels.  Decreasing, with derivative zero at 0.
    """
    return KernelProfile("bump", _bump_eval, _bump_deriv)


def tent_profile() -> KernelProfile:
    """Piecewise-linear 1 - t on [0,1); testing only (slope at 0 is -1)."""

    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0.0) & (t < 1.0), 1.0 - t, 0.0)

    def dv(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 0.0) & (t < 1.0), -1.0, 0.0)

    return KernelProfile("tent", ev, dv)


# The profiles the estimator offers by name.
PROFILES = {p.name: p for p in (bump_profile(), tent_profile())}


def paired_mass_profile(rho: KernelProfile, ambient_n: int) -> KernelProfile:
    """Mass-smoothing profile xi with n * xi(s) = -s * rho'(s).

    Nonnegative whenever ``rho`` is decreasing; rejects profiles without a
    derivative, profiles that increase anywhere on a sample grid, and
    profiles whose derivative vanishes on the whole grid (xi would be zero,
    and every point isolated).  Vanishes on [1, inf) as rho' does.
    """
    if rho.deriv is None:
        raise InvalidInputError(
            f"profile {rho.name!r} has no derivative; cannot pair a mass profile"
        )
    grid = np.linspace(0.0, 1.0, 2001)
    dv = np.asarray(rho.deriv(grid))
    if np.any(dv > 1e-12):
        raise InvalidInputError(
            f"profile {rho.name!r} increases on [0,1); cannot pair a mass profile"
        )
    if not np.any(dv < 0.0):
        raise InvalidInputError(
            f"profile {rho.name!r} is flat on [0,1); its paired mass profile "
            f"would be zero"
        )

    def ev(t):
        t = np.asarray(t, dtype=float)
        return -t * rho.deriv(t) / ambient_n

    return KernelProfile(f"nkp({rho.name})", ev)


@dataclass(frozen=True)
class KernelPair:
    """Profiles rho/xi/eta plus the prefactor of the variation tensor.

    ``ratio`` is C_xi / C_rho, where C_f = d * omega_d * int_0^1 f(r)
    r^(d-1) dr is a profile's normalizing constant.  For pairs built by
    :func:`natural_kernel_pair` it equals d/n exactly (integration by
    parts), so no quadrature runs when a pair is built.
    """

    rho: KernelProfile
    xi: KernelProfile
    eta: KernelProfile
    ratio: float


def natural_kernel_pair(rho: KernelProfile, d: int, n: int) -> KernelPair:
    """Build the kernel pair with xi tied to rho and eta defaulting to rho."""
    return KernelPair(rho=rho, xi=paired_mass_profile(rho, n), eta=rho,
                      ratio=d / n)


def kernel_pair_by_name(name: str, d: int, n: int) -> KernelPair:
    if name not in PROFILES:
        raise InvalidInputError(
            f"unknown kernel profile {name!r}; choose from {sorted(PROFILES)}"
        )
    return natural_kernel_pair(PROFILES[name], d, n)

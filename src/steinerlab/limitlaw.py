"""Limiting spectral laws of random Steiner complexes and the growth constant.

For dimension d and regularity k the empirical Laplacian spectrum converges
to a high-dimensional Kesten-McKay law supported on

    [(sqrt(k-1) - sqrt(d))^2, (sqrt(k-1) + sqrt(d))^2],

with density  k * sqrt(4(k-1)d - (k-1+d-x)^2) / (2 pi x ((d+1)k - x)); the
adjacency law is its reflection through x -> k - x.  The normalized weighted
spanning-tree count converges to the growth constant

    (k-1)^(k-1) / ((k-1-d)^(k/(d+1)-1) * k^((d(k-1)-1)/(d+1))),

which this module evaluates three independent ways: the closed form, a
midpoint rule for the log-moment of the law, and a Chebyshev log-series whose
coefficients decay geometrically.  Quadrature always substitutes
x = center - half_width*cos(theta), which turns the square-root edge
singularities into smooth trigonometric factors.  The substituted integrand
is then smooth, even and 2 pi-periodic in theta, so the equally spaced
midpoint rule on (0, pi) is the trapezoidal rule of a periodic function and
its error falls geometrically in the number of points (Trefethen and
Weideman, SIAM Review 56, 2014); the rate is set by the distance of the
nearest singularity, the density pole or the zero of log at x = 0, from the
real theta axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, log, pi, sqrt

import numpy as np

from .spectra import NumericalFailure

__all__ = [
    "LimitLaw",
    "growth_constant_closed",
    "growth_constant_quadrature",
    "growth_constant_chebyshev",
]

QUAD_EPSABS = 1e-12
# relative agreement that also ends the doubling: large moments carry round-off above any epsabs
QUAD_RTOL = 1e-12
QUAD_MIN_POINTS = 16
QUAD_MAX_POINTS = 2**16
# absolute quadrature tolerances of the law's moments and of the growth constant's log-moment
MOMENT_EPSABS = 1e-11
GROWTH_EPSABS = 1e-10
MOMENT_MAX = 12


@dataclass(frozen=True)
class LimitLaw:
    """Parameters of the limiting spectral laws for a (d, k) pair.

    Derived constants, all determined by d and k:

      half_width   2 sqrt(d(k-1)), half-width of the spectral support
      center       k-1+d, midpoint of the Laplacian support (also the
                   distance from the density pole at 0)
      upper_gap    d(k-1)+1, distance from the pole at (d+1)k to the center
      weight_zero  sqrt(center^2 - half_width^2) = k-1-d
      weight_upper sqrt(upper_gap^2 - half_width^2) = d(k-1)-1
      ratio_zero   2d / half_width, geometric decay tied to the pole at 0
      ratio_upper  2 / half_width, decay tied to the upper pole
    """

    d: int
    k: int
    half_width: float = field(init=False)
    center: int = field(init=False)
    upper_gap: int = field(init=False)
    weight_zero: int = field(init=False)
    weight_upper: int = field(init=False)
    ratio_zero: float = field(init=False)
    ratio_upper: float = field(init=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.k < self.d + 1:
            raise ValueError(f"need k >= d+1 = {self.d + 1}, got k = {self.k}")
        d, k = self.d, self.k
        object.__setattr__(self, "half_width", 2.0 * sqrt(d * (k - 1)))
        object.__setattr__(self, "center", k - 1 + d)
        object.__setattr__(self, "upper_gap", d * (k - 1) + 1)
        object.__setattr__(self, "weight_zero", k - 1 - d)
        object.__setattr__(self, "weight_upper", d * (k - 1) - 1)
        object.__setattr__(self, "ratio_zero", 2.0 * d / self.half_width)
        object.__setattr__(self, "ratio_upper", 2.0 / self.half_width)

    @property
    def laplacian_support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def laplacian_density(self, x: float) -> float:
        """Density of the limiting Laplacian law at x (0 outside the support)."""
        lo, hi = self.laplacian_support
        if x <= lo or x >= hi:
            return 0.0
        disc = 4.0 * (self.k - 1) * self.d - (self.center - x) ** 2
        return self.k * sqrt(max(disc, 0.0)) / (2.0 * pi * x * ((self.d + 1) * self.k - x))

    def adjacency_density(self, x: float) -> float:
        """Density of the limiting adjacency law: the Laplacian law at k - x."""
        return self.laplacian_density(self.k - x)

    def expectation(self, f, epsabs: float = QUAD_EPSABS) -> float:
        """Integral of f against the Laplacian law, singularities substituted away.

        f maps an array of points x to an array of values (np.log,
        np.ones_like, a power).  The midpoint rule on theta in (0, pi) starts
        at QUAD_MIN_POINTS points and doubles until two estimates agree
        within epsabs or QUAD_RTOL relative; `spectra.NumericalFailure` (a
        RuntimeError) past QUAD_MAX_POINTS.
        """
        d, k, center, w = self.d, self.k, self.center, self.half_width

        def midpoint(points: int) -> float:
            theta = (np.arange(points) + 0.5) * (pi / points)
            x = center - w * np.cos(theta)
            s = np.sin(theta)
            weights = k * w * w * s * s / (2.0 * pi * x * ((d + 1) * k - x))
            return float(np.dot(f(x), weights)) * (pi / points)

        points = QUAD_MIN_POINTS
        previous = midpoint(points)
        while points < QUAD_MAX_POINTS:
            points *= 2
            value = midpoint(points)
            if abs(value - previous) <= max(epsabs, QUAD_RTOL * abs(value)):
                return value
            previous = value
        raise NumericalFailure(
            f"midpoint rule for d={d}, k={k} did not reach {epsabs:g} within {QUAD_MAX_POINTS} points"
        )

    def adjacency_moment(self, ell: int) -> float:
        """Moment of the adjacency law, pushed through x -> k - x."""
        if not 0 <= ell <= MOMENT_MAX:
            raise ValueError(f"moment order must be in [0, {MOMENT_MAX}]")
        k = self.k
        return self.expectation(lambda x: (k - x) ** ell, epsabs=MOMENT_EPSABS)


def growth_constant_closed(d: int, k: int) -> float:
    """Closed-form limit of the normalized weighted spanning-tree count.

    (k-1)^(k-1) / ((k-1-d)^(k/(d+1)-1) * k^((d(k-1)-1)/(d+1))), evaluated in
    the log domain; requires k >= d+2 so the middle base is positive.
    """
    if k < d + 2:
        raise ValueError(f"growth constant needs k >= d+2, got d={d}, k={k}")
    value = (
        (k - 1) * log(k - 1)
        - (k / (d + 1) - 1.0) * log(k - 1 - d)
        - (d * (k - 1) - 1) / (d + 1) * log(k)
    )
    return exp(value)


def growth_constant_quadrature(d: int, k: int) -> float:
    """exp of the log-moment of the Laplacian law, by the midpoint rule."""
    if k < d + 2:
        raise ValueError(f"growth constant needs k >= d+2, got d={d}, k={k}")
    law = LimitLaw(d, k)
    return exp(law.expectation(np.log, epsabs=GROWTH_EPSABS))


def growth_constant_chebyshev(d: int, k: int) -> float:
    """Growth constant through the Chebyshev log-series, summed in closed form.

    The log-moment of the law is -pi * sum_n alpha_n t^n / n over the
    geometrically decaying Chebyshev coefficients alpha_n of the weighted
    density, plus log(center) - log(1 + t^2), at t = ratio_zero, in (0, 1)
    whenever k >= d+2.  Each coefficient is a sum of two geometric terms, so
    the series sums to

        log(center) - log(1 + t^2)
        - weight_zero/(d+1) * log(1 - ratio_zero * t)
        - weight_upper/(d+1) * log(1 + ratio_upper * t)
    """
    if k < d + 2:
        raise ValueError(f"growth constant needs k >= d+2, got d={d}, k={k}")
    law = LimitLaw(d, k)
    t = law.ratio_zero
    closed = (
        log(law.center)
        - log(1.0 + t * t)
        - law.weight_zero / (d + 1) * log(1.0 - law.ratio_zero * t)
        - law.weight_upper / (d + 1) * log(1.0 + law.ratio_upper * t)
    )
    return exp(closed)

"""Exact centers and structure for the planar segment family.

The family is the segment with endpoints (1, a) and (a, 1) in the plane,
a > 1, under three divergences.  Closed forms exist for the Chebyshev
center in each case and serve as ground truth for the numeric solvers:

* halved squared Euclidean: the arithmetic mean of the endpoints;
* Kullback-Leibler: the geometric mean (sqrt(a), sqrt(a));
* Itakura-Saito: a dichotomy between the harmonic-mean point (h, h) and
  the point (g, g) with three farthest points, switching at a threshold
  value of ``a`` near 17.63 where g(a) = h(a).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bregman
from .compactset import make_segment
from .legendre import energy, negentropy, neglog

XI = 3.0 + 2.0 * math.sqrt(2.0)


class Generator(enum.Enum):
    EUCLIDEAN = "euclidean"
    KL = "kl"
    ITAKURA_SAITO = "itakura_saito"


_LEGENDRE_FACTORY = {
    Generator.EUCLIDEAN: energy,
    Generator.KL: negentropy,
    Generator.ITAKURA_SAITO: neglog,
}


@dataclass(frozen=True)
class CaseConfig:
    """One instance of the family: the parameter a and the divergence."""

    a: float
    generator: Generator

    def __post_init__(self):
        if not self.a > 1.0:
            raise ValueError("a must be > 1")

    def legendre(self):
        return _LEGENDRE_FACTORY[self.generator](2)

    def segment(self, samples=101):
        return make_segment(self.legendre(), self.a, samples)

    def center(self):
        if self.generator is Generator.EUCLIDEAN:
            return center_euclidean(self.a)
        if self.generator is Generator.KL:
            return center_kl(self.a)
        return center_is(self.a).point


def _check_a(a):
    a = float(a)
    if not a > 1.0:
        raise ValueError("a must be > 1")
    return a


def endpoints(a):
    a = _check_a(a)
    return np.array([1.0, a]), np.array([a, 1.0])


def center_euclidean(a):
    """Arithmetic-mean center ((1+a)/2, (1+a)/2)."""
    a = _check_a(a)
    m = 0.5 * (1.0 + a)
    return np.array([m, m])


def center_kl(a):
    """Geometric-mean center (sqrt(a), sqrt(a))."""
    a = _check_a(a)
    r = math.sqrt(a)
    return np.array([r, r])


def g_of(a):
    a = _check_a(a)
    return a * (a + 1.0) / (a - 1.0) ** 2 * math.log((a + 1.0) ** 2 / (4.0 * a))


def h_of(a):
    """Harmonic mean of 1 and a."""
    a = _check_a(a)
    return 2.0 * a / (a + 1.0)


@dataclass(frozen=True)
class IsCenter:
    """Itakura-Saito center with the parameters of its farthest points."""

    point: np.ndarray
    farthest_lambdas: tuple


def center_is(a):
    """Itakura-Saito center: (h,h) with two farthest points while g < h,
    (g,g) with three farthest points (both endpoints and the midpoint) once
    g >= h."""
    a = _check_a(a)
    g, h = g_of(a), h_of(a)
    if g < h:
        return IsCenter(np.array([h, h]), (0.0, 1.0))
    return IsCenter(np.array([g, g]), (0.0, 0.5, 1.0))


def k_of(x):
    """Sign function of h - g: positive iff g(x) < h(x), zero at x = 1 and
    at the threshold."""
    x = float(x)
    if x < 1.0:
        raise ValueError("k is defined for x >= 1")
    return (
        2.0 * (x - 1.0) ** 2 / (x + 1.0) ** 2
        - 2.0 * math.log(x + 1.0)
        + math.log(4.0 * x)
    )


def threshold_a():
    """The a-value where the Itakura-Saito dichotomy switches (g = h).

    Bisects ``k_of`` on [xi, 1e6] with xi = 3 + 2*sqrt(2); its sign is
    validated at both brackets before bisecting, which runs until |k| is at
    machine level or the bracket is a few ulps wide.
    """
    lo, hi = XI, 1e6
    if not (k_of(lo) > 0.0 and k_of(hi) < 0.0):
        raise RuntimeError("bisection bracket does not straddle the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        km = k_of(mid)
        if abs(km) <= 1e-12:
            break
        if km > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * mid:
            break
    return mid


def mu_coefficients(a):
    """Simplex weights expressing the Itakura-Saito center in dual form.

    Returns (mu_0, mu_half, mu_1) for the endpoints and midpoint: (1/2, 0,
    1/2) in the two-farthest-point regime, and the quotient formulas in the
    three-point regime.  They sum to one, lie in [0, 1], and reconstruct
    the center through grad f* of the weighted dual combination.
    """
    a = _check_a(a)
    if g_of(a) < h_of(a):
        return 0.5, 0.0, 0.5
    L = math.log((a + 1.0) ** 2 / (4.0 * a))
    d2 = (a - 1.0) ** 2
    mu_end = (d2 - 2.0 * a * L) / (d2 * L)
    mu_half = (-2.0 * d2 + (a + 1.0) ** 2 * L) / (d2 * L)
    return mu_end, mu_half, mu_end


@dataclass(frozen=True)
class FarthestStructure:
    """Predicted farthest-point parameters, with a sign-identity residual
    for the KL case."""

    lambdas: tuple
    sign_residual: float | None = None


def farthest_structure(generator, a, x):
    """Closed-form farthest set of the segment at a query point x.

    Euclidean and KL: the lower endpoint when x2 < x1, the upper when
    x1 < x2, both on the diagonal.  The KL result also carries the residual
    of the identity D(x, c0) - D(x, c1) = (x1 - x2) * log(a).  The
    Itakura-Saito case has no closed form off the diagonal; on it, the
    farthest set is the pair of endpoints above (g, g), all three of
    endpoints and midpoint at (g, g), and the midpoint alone below.
    """
    generator = Generator(generator)
    a = _check_a(a)
    x = np.asarray(x, dtype=float)
    x1, x2 = float(x[0]), float(x[1])

    if generator is Generator.ITAKURA_SAITO:
        if x1 != x2:
            raise ValueError(
                "no closed-form farthest structure off the diagonal for Itakura-Saito"
            )
        g = g_of(a)
        if x1 > g:
            return FarthestStructure((0.0, 1.0))
        if x1 == g:
            return FarthestStructure((0.0, 0.5, 1.0))
        return FarthestStructure((0.5,))

    if x2 < x1:
        lambdas = (0.0,)
    elif x1 < x2:
        lambdas = (1.0,)
    else:
        lambdas = (0.0, 1.0)

    residual = None
    if generator is Generator.KL:
        F = negentropy(2)
        c0, c1 = endpoints(a)
        diff = bregman.distance(F, x, c0) - bregman.distance(F, x, c1)
        residual = float(diff - (x1 - x2) * math.log(a))
    return FarthestStructure(lambdas, residual)

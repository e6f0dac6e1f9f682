"""The right Bregman distance and its algebraic identities.

``distance(F, x, y)`` is f(x) - f(y) - <grad f(y), x - y> when y lies in the
open domain U, and +inf otherwise (also +inf when x is outside dom f).  The
asymmetry matters throughout this package: the set argument always enters in
the second (right) slot.
"""

import enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .legendre import energy, negentropy, neglog, quadratic


def distance(F, x, y):
    """Bregman distance D(x, y); broadcasts over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = F.f(x)
    ok_y = F.in_interior(y)
    if not np.any(ok_y):
        shape = np.broadcast_shapes(np.shape(fx), np.asarray(ok_y).shape)
        return np.inf if shape == () else np.full(shape, np.inf)
    ysafe = y if np.all(ok_y) else np.where(np.asarray(ok_y)[..., None], y, 1.0)
    gy = F.grad(ysafe)
    val = fx - F.f(ysafe) - np.sum(gy * (x - ysafe), axis=-1)
    val = np.where(ok_y, val, np.inf)
    return float(val) if np.ndim(val) == 0 else val


class DualData(NamedTuple):
    """A set's dual form under one generator: G = grad f(C) and
    K_c = <G_c, c> - f(c), so that D(x, c) = f(x) + K_c - <G_c, x>."""

    G: np.ndarray
    K: np.ndarray


def dual_data(F, C):
    """The ``DualData`` of the points C (rows in U), as read-only arrays."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    G = F.grad(C)
    K = np.sum(G * C, axis=-1) - F.f(C)
    G.setflags(write=False)
    K.setflags(write=False)
    return DualData(G, K)


def distance_matrix(F, X, C, fX=None):
    """All pairwise distances D(X[i], C[j]) as an (n, m) array.

    ``C`` is the points, every row in U, or their ``DualData`` (a
    ``CompactSet`` caches its own); ``fX``, when given, is f(X).  Rows of
    ``X`` outside dom f yield +inf rows.  Uses the affine decomposition
    D(x, c) = f(x) - <G_c, x> + K_c so the sweep is a single matrix
    product.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    G, K = C if isinstance(C, DualData) else dual_data(F, C)
    if fX is None:
        fX = np.atleast_1d(F.f(X))
    out = fX[:, None] - X @ G.T + K[None, :]
    out[~np.isfinite(fX)] = np.inf
    return out


def three_point_residual(F, x, y, z):
    """Residual of D(x,z) - D(y,z) = D(x,y) + <x-y, grad f(y) - grad f(z)>.

    Zero in exact arithmetic for any x in dom f and y, z in U.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(F.in_domain(x)):
        raise DomainError("x outside dom f")
    if not (np.all(F.in_interior(y)) and np.all(F.in_interior(z))):
        raise DomainError("y and z must lie in the interior of dom f")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    lhs = distance(F, x, z) - distance(F, y, z)
    rhs = distance(F, x, y) + np.sum((x - y) * (F.grad(y) - F.grad(z)), axis=-1)
    res = lhs - rhs
    return float(res) if np.ndim(res) == 0 else res


def four_point_residual(F, x1, x2, y1, y2):
    """Residual of <x1-x2, grad f(y1) - grad f(y2)> =
    D(x2,y1) + D(x1,y2) - D(x1,y1) - D(x2,y2).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not (np.all(F.in_domain(x1)) and np.all(F.in_domain(x2))):
        raise DomainError("x1 and x2 must lie in dom f")
    if not (np.all(F.in_interior(y1)) and np.all(F.in_interior(y2))):
        raise DomainError("y1 and y2 must lie in the interior of dom f")
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    lhs = np.sum((x1 - x2) * (F.grad(y1) - F.grad(y2)), axis=-1)
    rhs = (
        distance(F, x2, y1)
        + distance(F, x1, y2)
        - distance(F, x1, y1)
        - distance(F, x2, y2)
    )
    res = lhs - rhs
    return float(res) if np.ndim(res) == 0 else res


class DivergenceName(enum.Enum):
    SQ_EUCLIDEAN = "sqeuclidean"
    MAHALANOBIS = "mahalanobis"
    KL = "kl"
    ITAKURA_SAITO = "itakura_saito"


def named_divergence(name, dimension=2, matrix=None):
    """Generator whose ``distance`` reproduces the named divergence.

    sqeuclidean -> halved squared Euclidean, mahalanobis -> halved squared
    Mahalanobis (requires an SPD ``matrix``), kl -> Kullback-Leibler,
    itakura_saito -> Itakura-Saito.
    """
    name = DivergenceName(name)
    if name is DivergenceName.SQ_EUCLIDEAN:
        return energy(dimension)
    if name is DivergenceName.MAHALANOBIS:
        if matrix is None:
            raise ValueError("mahalanobis requires a matrix")
        return quadratic(matrix)
    if name is DivergenceName.KL:
        return negentropy(dimension)
    return neglog(dimension)

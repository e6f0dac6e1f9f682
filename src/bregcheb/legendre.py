"""Calculus for four named Legendre generators.

Each :class:`LegendreFunction` bundles the generator ``f``, its gradient, the
Fenchel conjugate ``f*``, the conjugate gradient (the inverse gradient map),
and domain predicates.  All evaluators broadcast over leading axes, so a
single point is a shape ``(J,)`` array and a batch is ``(n, J)``.

Conventions:

* ``+inf`` is a first-class return value of ``f`` / ``fstar`` for points
  outside the respective domains; only structurally invalid input (wrong
  dimension, gradient queried off the open domain) raises.
* the negative-entropy generator uses ``0 * log(0) = 0`` so the closed
  orthant belongs to its domain.
"""

import enum
import json

import numpy as np

from .errors import DomainError


class Kind(enum.Enum):
    ENERGY = "energy"
    QUADRATIC = "quadratic"
    NEG_ENTROPY = "negentropy"
    NEG_LOG = "neglog"


_SYM_RTOL = 1e-12


# Largest J whose rows are reduced column by column.  numpy's row sum adds
# left to right from 0.0 up to J = 7 and pairwise (unrolled by 8) from J = 8,
# so up to 7 the column loop gives the same floats.  It is much faster on
# batches of short rows, whose axis-wide reduction is slow; on one row it
# stops paying beyond J = 4.
_COLUMN_J = 4


def _row_sum(v):
    """``np.sum(v, axis=-1)``, bit for bit."""
    if v.shape[-1] > _COLUMN_J:
        return np.sum(v, axis=-1)
    s = 0.0 + v[..., 0]
    for j in range(1, v.shape[-1]):
        s = s + v[..., j]
    return s


def _row_all(b):
    """``np.all(b, axis=-1)`` for a boolean array."""
    if b.shape[-1] > _COLUMN_J:
        return np.all(b, axis=-1)
    s = b[..., 0]
    for j in range(1, b.shape[-1]):
        s = s & b[..., j]
    return s


def _xlogx(x):
    """Elementwise x*log(x) with the 0*log(0) = 0 convention (x >= 0)."""
    out = np.zeros_like(x, dtype=float)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


class LegendreFunction:
    """One of the four named generators, with cached matrix factors.

    Instances are immutable and safe to share between threads; every method
    is a pure function of its arguments.
    """

    def __init__(self, kind, dimension, quad_matrix=None):
        kind = Kind(kind)
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if kind is Kind.QUADRATIC:
            if quad_matrix is None:
                raise ValueError("quadratic generator requires a matrix")
            A = np.array(quad_matrix, dtype=float)
            if A.shape != (dimension, dimension):
                raise ValueError(f"matrix must be {dimension}x{dimension}")
            scale = np.abs(A).max()
            if scale == 0.0 or np.abs(A - A.T).max() > _SYM_RTOL * scale:
                raise ValueError("matrix must be symmetric")
            A = 0.5 * (A + A.T)
            try:
                L = np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                raise ValueError("matrix must be positive definite") from None
            A.setflags(write=False)
            L.setflags(write=False)
            self.quad_matrix, self.quad_factor = A, L
        else:
            if quad_matrix is not None:
                raise ValueError("matrix is only valid for the quadratic kind")
            self.quad_matrix = self.quad_factor = None
        self.kind = kind
        self.dimension = dimension

    def __repr__(self):
        return f"LegendreFunction({self.kind.value}, dim={self.dimension})"

    def __eq__(self, other):
        if not isinstance(other, LegendreFunction):
            return NotImplemented
        if (self.kind, self.dimension) != (other.kind, other.dimension):
            return False
        if self.kind is Kind.QUADRATIC:
            return bool(np.array_equal(self.quad_matrix, other.quad_matrix))
        return True

    # -- domain predicates -------------------------------------------------

    def _check_dim(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise ValueError(
                f"expected last axis of size {self.dimension}, got shape {x.shape}"
            )
        return x

    def in_domain(self, x):
        """Membership in dom f (closed orthant for negative entropy)."""
        x = self._check_dim(x)
        if self.kind in (Kind.ENERGY, Kind.QUADRATIC):
            res = np.ones(x.shape[:-1], dtype=bool)
        elif self.kind is Kind.NEG_ENTROPY:
            res = _row_all(x >= 0.0)
        else:
            res = _row_all(x > 0.0)
        return bool(res) if res.ndim == 0 else res

    def in_interior(self, x):
        """Membership in U = int dom f."""
        x = self._check_dim(x)
        if self.kind in (Kind.ENERGY, Kind.QUADRATIC):
            res = np.ones(x.shape[:-1], dtype=bool)
        else:
            res = _row_all(x > 0.0)
        return bool(res) if res.ndim == 0 else res

    def in_dual_interior(self, y):
        """Membership in int dom f*, the range of the gradient map."""
        y = self._check_dim(y)
        if self.kind is Kind.NEG_LOG:
            res = _row_all(y < 0.0)
        else:
            res = np.ones(y.shape[:-1], dtype=bool)
        return bool(res) if res.ndim == 0 else res

    @property
    def second_arg_convex(self):
        """Whether D(x, .) is convex on U; false for the Itakura-Saito case."""
        return self.kind is not Kind.NEG_LOG

    # -- evaluation --------------------------------------------------------

    def f(self, x):
        """Value of the generator, +inf outside dom f."""
        x = self._check_dim(x)
        if self.kind is Kind.ENERGY:
            val = 0.5 * _row_sum(x * x)
        elif self.kind is Kind.QUADRATIC:
            val = 0.5 * _row_sum(x * (x @ self.quad_matrix))
        elif self.kind is Kind.NEG_ENTROPY:
            val = np.where(
                _row_all(x >= 0.0),
                _row_sum(_xlogx(np.maximum(x, 0.0)) - x),
                np.inf,
            )
        else:
            safe = _row_all(x > 0.0)
            logs = np.log(np.where(x > 0.0, x, 1.0))
            val = np.where(safe, -_row_sum(logs), np.inf)
        return float(val) if val.ndim == 0 else val

    def grad(self, x):
        """Gradient of f; requires x in U."""
        x = self._check_dim(x)
        ok = self.in_interior(x)
        if not np.all(ok):
            raise DomainError(f"point outside the interior of dom f ({self.kind.value})")
        if self.kind is Kind.ENERGY:
            return x.copy()
        if self.kind is Kind.QUADRATIC:
            return x @ self.quad_matrix
        if self.kind is Kind.NEG_ENTROPY:
            return np.log(x)
        return -1.0 / x

    def fstar(self, y):
        """Value of the conjugate f*, +inf outside dom f*."""
        y = self._check_dim(y)
        if self.kind is Kind.ENERGY:
            val = 0.5 * _row_sum(y * y)
        elif self.kind is Kind.QUADRATIC:
            val = 0.5 * _row_sum(y * self.grad_star(y))
        elif self.kind is Kind.NEG_ENTROPY:
            val = _row_sum(np.exp(y))
        else:
            safe = _row_all(y < 0.0)
            logs = np.log(np.where(y < 0.0, -y, 1.0))
            val = np.where(safe, _row_sum(-1.0 - logs), np.inf)
        return float(val) if val.ndim == 0 else val

    def grad_star(self, y):
        """Gradient of f*, the inverse of ``grad``; requires y in int dom f*."""
        y = self._check_dim(y)
        if self.kind is Kind.ENERGY:
            return y.copy()
        if self.kind is Kind.QUADRATIC:
            # A^-1 y = L^-T L^-1 y, one solve for all rows as columns
            L, cols = self.quad_factor, y.reshape(-1, self.dimension).T
            return np.linalg.solve(L.T, np.linalg.solve(L, cols)).T.reshape(y.shape)
        if self.kind is Kind.NEG_ENTROPY:
            return np.exp(y)
        # the only kind whose dom f* is not all of R^J
        if not (y < 0.0).all():
            raise DomainError(f"point outside int dom f* ({self.kind.value})")
        return -1.0 / y

    def hess_star(self, y):
        """Diagonal of the Hessian of f*, shape ``y.shape``; requires y in
        int dom f*.  ``quadratic`` has no diagonal Hessian: ValueError."""
        y = self._check_dim(y)
        if self.kind is Kind.QUADRATIC:
            raise ValueError("hess_star is diagonal only for the separable kinds")
        if self.kind is Kind.ENERGY:
            return np.ones_like(y)
        if self.kind is Kind.NEG_ENTROPY:
            return np.exp(y)
        if not (y < 0.0).all():
            raise DomainError(f"point outside int dom f* ({self.kind.value})")
        return 1.0 / y**2

    # -- serialization -----------------------------------------------------

    def to_json(self):
        obj = {"kind": self.kind.value, "dimension": self.dimension}
        if self.kind is Kind.QUADRATIC:
            obj["matrix"] = self.quad_matrix.tolist()
        return obj

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(obj["kind"], obj["dimension"], obj.get("matrix"))


def energy(dimension):
    return LegendreFunction(Kind.ENERGY, dimension)


def quadratic(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return LegendreFunction(Kind.QUADRATIC, matrix.shape[0], matrix)


def negentropy(dimension):
    return LegendreFunction(Kind.NEG_ENTROPY, dimension)


def neglog(dimension):
    return LegendreFunction(Kind.NEG_LOG, dimension)

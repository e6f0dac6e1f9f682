"""Farthest-distance function, farthest-point map, and derived objects.

For a compact C inside U, the farthest-distance function is
F_C(x) = sup over c in C of D(x, c), and the farthest-point map Q_C(x) is its
argmax set.  Numeric ties are resolved with a relative tolerance; ties are
data here, never collapsed silently to one point.
"""

from dataclasses import dataclass, field

import numpy as np

from .bregman import distance_matrix
from .errors import DomainError
from .tolerances import DEFAULT


@dataclass
class FarthestResult:
    """Value of F_C at a query point with the tolerance-resolved argmax."""

    value: float
    argmax: np.ndarray
    witness_indices: list = field(default_factory=list)

    def to_json(self):
        value = "inf" if np.isinf(self.value) else self.value
        return {"value": value, "argmax": np.asarray(self.argmax).tolist()}


def farthest(F, C, x, tol=DEFAULT):
    """Evaluate F_C(x) and Q_C(x) over the enumerated points of C."""
    x = np.asarray(x, dtype=float)
    pts = C.enumerate()
    if not F.in_domain(x):
        return FarthestResult(np.inf, np.empty((0, F.dimension)), [])
    vals = distance_matrix(F, x[None, :], pts)[0]
    value = float(np.max(vals))
    cut = value * (1.0 - tol.argmax_rel) - tol.argmax_abs
    idx = np.nonzero(vals >= cut)[0]
    return FarthestResult(value, pts[idx], idx.tolist())


def farthest_values(F, C, X):
    """F_C over a batch of query points; +inf rows for points outside dom f.

    The rows of X go through ``distance_matrix`` in blocks of about 2**19
    cells, so memory stays bounded however many query points there are.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pts = C.enumerate()
    step = max(1, 2**19 // len(pts))
    out = np.empty(len(X))
    for lo in range(0, len(X), step):
        out[lo:lo + step] = np.max(distance_matrix(F, X[lo:lo + step], pts), axis=1)
    return out


def directional_derivative(F, C, x, h, tol=DEFAULT):
    """One-sided directional derivative of F_C at x along h.

    For x in U this is max over y in Q_C(x) of <grad f(x) - grad f(y), h>.
    For x in dom f but not in U, the value is -inf when x + h lands in U;
    other boundary queries are unsupported.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if not F.in_domain(x):
        raise DomainError("x outside dom f")
    if not F.in_interior(x):
        if F.in_interior(x + h):
            return -np.inf
        raise NotImplementedError(
            "directional derivative at boundary points is only available "
            "when x + h lies in the interior"
        )
    res = farthest(F, C, x, tol)
    return float(np.max((F.grad(x)[None, :] - F.grad(res.argmax)) @ h))


def subdifferential(F, C, x, tol=DEFAULT):
    """Vertices grad f(x) - grad f(y), y in Q_C(x); the subdifferential of
    F_C at x is their convex hull.  Requires x in U.

    Near-duplicate vertices are merged.
    """
    x = np.asarray(x, dtype=float)
    if not F.in_interior(x):
        raise DomainError("subdifferential requires x in the interior of dom f")
    res = farthest(F, C, x, tol)
    verts = F.grad(x)[None, :] - F.grad(res.argmax)
    kept = []
    for v in verts:
        if not any(np.linalg.norm(v - w) <= tol.vertex_dedup for w in kept):
            kept.append(v)
    return np.array(kept)


def monotonicity_witness(F, C, x, y, tol=DEFAULT):
    """min over (q_x, q_y) in Q_C(x) x Q_C(y) of <x-y, grad f(q_y) - grad f(q_x)>.

    Nonnegative up to tie-resolution slack: -grad f composed with Q_C is a
    monotone operator.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qx = farthest(F, C, x, tol).argmax
    qy = farthest(F, C, y, tol).argmax
    if len(qx) == 0 or len(qy) == 0:
        raise DomainError("farthest set is empty (query outside dom f)")
    diffs = F.grad(qy)[None, :, :] - F.grad(qx)[:, None, :]
    return float(np.min(diffs @ (x - y)))

"""Farthest-distance function, farthest-point map, and derived objects.

For a compact C inside U, the farthest-distance function is
F_C(x) = sup over c in C of D(x, c), and the farthest-point map Q_C(x) is its
argmax set.  Numeric ties are resolved with a relative tolerance; ties are
data here, never collapsed silently to one point.
"""

from dataclasses import dataclass, field

import numpy as np

from .bregman import DualData, distance_matrix
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
    """Evaluate F_C(x) and Q_C(x) over the enumerated points of C, from
    the set's cached dual form."""
    x = np.asarray(x, dtype=float)
    pts = C.enumerate()
    if not F.in_domain(x):
        return FarthestResult(np.inf, np.empty((0, F.dimension)), [])
    vals = distance_matrix(F, x[None, :], C.dual_data(F))[0]
    value = float(np.max(vals))
    cut = value * (1.0 - tol.argmax_rel) - tol.argmax_abs
    idx = np.nonzero(vals >= cut)[0]
    return FarthestResult(value, pts[idx], idx.tolist())


_LEAF_ROWS = 1024
_CHUNK_CELLS = 2**19


def farthest_values(F, C, X):
    """F_C over a batch of query points; +inf rows for points outside dom f.

    F_C(x) = f(x) + max_c h_c(x) with h_c(x) = K_c - <G_c, x>,
    G_c = grad f(c) and K_c = <G_c, c> - f(c): f plus an upper envelope of
    affine functions.  So a sample can be dropped from a whole box of query
    points once one affine bound shows it is beaten everywhere there.

    The rows in dom f are split by a box tree.  At a box with center m and
    half-widths r, each of the four samples with the largest h(m) is a
    dominator w, and a sample c is dropped when, for some w,

        (h_w(m) - h_c(m)) - <|G_w - G_c|, r>  >  2 noise,
        noise = 4 (J + 2) eps (max|f(X)| + max|x|_inf max_c |G_c|_1 + max|K|),

    where noise bounds the rounding of one computed distance (a dot
    product of length J) and of the bound itself.  A bound or noise that
    is not finite drops nothing.  The box's two best samples are always
    kept, and a box with one row is not pruned: numpy sends a product with
    one column or one row to gemv, which rounds differently from gemm.  A
    box with at most 2 samples or at most 1024 rows is a leaf; its rows go
    through ``distance_matrix`` in chunks of at most about 2**19 cells and
    at least two rows, so memory stays bounded.  Otherwise the box is
    split at the midpoint of its widest side.  G and K come from the set's
    cached dual form, and the leaves reuse the f(X) computed up front.

    A dropped sample never beats a kept one in computed arithmetic.  So for
    J = 2, when at least two rows lie in dom f, each value is the same
    float as the row max of one ``distance_matrix`` over all rows and
    samples.  For J >= 3 gemm's blocking depends on the product's shape, so
    a finite value may differ from that row max by a few ulps (the tests
    allow 4 ulps relative); the +inf rows are the same.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(len(X), np.inf)
    fX = np.atleast_1d(F.f(X))
    finite = np.flatnonzero(np.isfinite(fX))
    if len(finite) == 0:
        return out
    G, K = C.dual_data(F)
    # one contiguous row per coordinate (``compress`` keeps it so): numpy
    # reduces a row about 100 times faster than a column of an (n, J) array
    coords = X[finite].T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (np.abs(fX[finite]).max() + np.abs(coords).max() * np.abs(G).sum(axis=1).max()
                 + np.abs(K).max())
    noise = 4 * (X.shape[1] + 2) * np.finfo(float).eps * scale
    nodes = [(finite, coords, np.arange(len(K)))]
    while nodes:
        rows, coords, cand = nodes.pop()
        lo, hi = coords.min(axis=1), coords.max(axis=1)
        if len(cand) > 2 and len(rows) > 1:
            cand = _prune(G, K, cand, lo / 2 + hi / 2, hi / 2 - lo / 2, noise)
        if len(cand) > 2 and len(rows) > _LEAF_ROWS:
            k = np.argmax(hi - lo)
            left = coords[k] <= lo[k] / 2 + hi[k] / 2
            n_left = np.count_nonzero(left)
            if 2 <= n_left <= len(rows) - 2:
                right = ~left
                nodes += [(rows[left], coords.compress(left, axis=1), cand),
                          (rows[right], coords.compress(right, axis=1), cand)]
                continue
        n_chunks = max(1, min(-(-len(rows) * len(cand) // _CHUNK_CELLS), len(rows) // 2))
        dual = DualData(G[cand], K[cand])
        for chunk in np.array_split(rows, n_chunks):
            out[chunk] = np.max(distance_matrix(F, X[chunk], dual, fX=fX[chunk]), axis=1)
    return out


def _prune(G, K, cand, m, r, noise):
    """The candidates that may still be farthest somewhere in the box m +- r."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = K[cand] - G[cand] @ m
        best = np.argsort(-h)
        w = best[:4]
        bound = (h[w, None] - h[None, :]) - np.abs(G[cand[w], None, :] - G[None, cand, :]) @ r
        keep = ~np.any(np.isfinite(bound) & (bound > 2 * noise), axis=0)
    keep[best[:2]] = True
    return cand[keep]


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
    idx = farthest(F, C, x, tol).witness_indices
    return float(np.max((F.grad(x)[None, :] - C.dual_data(F).G[idx]) @ h))


def subdifferential(F, C, x, tol=DEFAULT):
    """Vertices grad f(x) - grad f(y), y in Q_C(x); the subdifferential of
    F_C at x is their convex hull.  Requires x in U.

    Near-duplicate vertices are merged.
    """
    x = np.asarray(x, dtype=float)
    if not F.in_interior(x):
        raise DomainError("subdifferential requires x in the interior of dom f")
    verts = F.grad(x)[None, :] - C.dual_data(F).G[farthest(F, C, x, tol).witness_indices]
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
    qx = farthest(F, C, x, tol).witness_indices
    qy = farthest(F, C, y, tol).witness_indices
    if not qx or not qy:
        raise DomainError("farthest set is empty (query outside dom f)")
    G = C.dual_data(F).G
    diffs = G[qy][None, :, :] - G[qx][:, None, :]
    return float(np.min(diffs @ (x - y)))

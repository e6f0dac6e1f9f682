"""Reference Bregman calculus for the benchmark's output checks.

Written from the textbook formulas of the four generators, independently of
``bregcheb.legendre`` and ``bregcheb.bregman``, so that a check never trusts
the code it checks.  A generator is named by its kind string and, for the
quadratic kind, the matrix the benchmark generated.
"""

import numpy as np


class RefGenerator:
    """f, grad f, f* and D for one generator kind, broadcasting over rows."""

    def __init__(self, kind, matrix=None):
        if kind not in ("energy", "quadratic", "negentropy", "neglog"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if (kind == "quadratic") != (matrix is not None):
            raise ValueError("a matrix is required for, and only for, the quadratic kind")
        self.kind = kind
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "energy":
            return 0.5 * np.sum(x * x, axis=-1)
        if self.kind == "quadratic":
            return 0.5 * np.einsum("...i,ij,...j->...", x, self.matrix, x)
        if self.kind == "negentropy":
            with np.errstate(divide="ignore", invalid="ignore"):
                xlogx = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
            return np.where(np.all(x >= 0.0, axis=-1), np.sum(xlogx - x, axis=-1), np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(x > 0.0, x, 1.0))
        return np.where(np.all(x > 0.0, axis=-1), -np.sum(logs, axis=-1), np.inf)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "energy":
            return x.copy()
        if self.kind == "quadratic":
            return x @ self.matrix
        if self.kind == "negentropy":
            return np.log(x)
        return -1.0 / x

    def fstar(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "energy":
            return 0.5 * np.sum(s * s, axis=-1)
        if self.kind == "quadratic":
            return 0.5 * np.sum(s * np.linalg.solve(self.matrix, s.T).T, axis=-1)
        if self.kind == "negentropy":
            return np.sum(np.exp(s), axis=-1)
        if np.any(s >= 0.0):
            return np.inf
        return np.sum(-1.0 - np.log(-s), axis=-1)

    def distance(self, x, c):
        """D(x, c) for c in the open domain; +inf where x is outside dom f."""
        x = np.asarray(x, dtype=float)
        c = np.asarray(c, dtype=float)
        if self.kind == "negentropy":
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0) / c), 0.0)
            val = np.sum(terms - x + c, axis=-1)
            return np.where(np.all(x >= 0.0, axis=-1), val, np.inf)
        if self.kind == "neglog":
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(x > 0.0, x, 1.0) / c
                val = np.sum(r - np.log(r) - 1.0, axis=-1)
            return np.where(np.all(x > 0.0, axis=-1), val, np.inf)
        return self.f(x) - self.f(c) - np.sum(self.grad(c) * (x - c), axis=-1)

    def farthest_value(self, x, points):
        """F_C(x) = max over the rows c of ``points`` of D(x, c)."""
        return float(np.max(self.distance(np.asarray(x, dtype=float)[None, :], points)))


def duality_gap(ref, points, center, farthest_pts, weights):
    """F_C(z) - (<mu, K> - f*(G^T mu)) from a certificate's own weights.

    Nonnegative for any z and any mu on the simplex (Fenchel-Young), and
    zero exactly at the center with optimal weights, so it needs no tie
    tolerance.  ``weights`` are taken as they come, clipped at zero and
    renormalised; an empty or all-zero weight vector gives +inf.
    """
    mu = np.maximum(np.asarray(weights, dtype=float), 0.0)
    if mu.size == 0 or mu.sum() <= 0.0 or len(farthest_pts) != mu.size:
        return np.inf
    mu = mu / mu.sum()
    Q = np.asarray(farthest_pts, dtype=float)
    G = ref.grad(Q)
    K = np.sum(G * Q, axis=-1) - ref.f(Q)
    dual = float(mu @ K) - float(ref.fstar(mu @ G))
    return ref.farthest_value(center, points) - dual


def pythagoras_slack(ref, points, x, y):
    """min over c of D(x, c) - D(x, y) - D(y, c); >= 0 for a hull projection y."""
    pts = np.asarray(points, dtype=float)
    dxc = ref.distance(np.asarray(x, dtype=float)[None, :], pts)
    dyc = ref.distance(np.asarray(y, dtype=float)[None, :], pts)
    dxy = float(ref.distance(x, y))
    return float(np.min(dxc - dxy - dyc))

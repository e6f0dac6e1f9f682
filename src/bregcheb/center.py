"""Chebyshev-center solvers, optimality certificates, and hull projections.

The center of a compact C inside U is the unique minimizer of F_C, and it is
characterized in dual coordinates: grad f(z) must be a convex combination of
grad f over the farthest points Q_C(z).  The certificate records that convex
combination and its residual ("membership gap").

The certificate weights, the minimum-norm subgradient direction and the hull
projection each minimize f*(W^T mu) - <c, mu> over the simplex; one exact
working-set solver, ``simplex.dual_argmin``, serves all three without
enumerating supports.

Two independent solvers are provided:

* ``solve_fixed_point`` averages toward a current farthest point in dual
  coordinates with the step schedule 1/(t+2);
* ``solve_subgradient`` descends along the minimum-norm element of the
  subdifferential vertex hull with a 1/(L*sqrt(t)) step, backtracking to
  stay inside U, and tracking the best iterate seen.

Both approach the nonsmooth ridge of F_C only at rate O(1/t) resp.
O(1/sqrt(t)), which is too slow to resolve argmax ties at double precision,
so by default each run finishes with an active-set Newton refinement on the
local min-max system (equal distances + dual membership).  Pass
``polish=False`` for the bare iterations.
"""

import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bregman import distance_matrix
from .errors import DomainError, NonConvergence
from .farthest import farthest
from .simplex import dual_argmin, lsq_simplex_weights, min_norm_in_hull
from .tolerances import DEFAULT


class SolverName(enum.Enum):
    FIXED_POINT = "fixed_point"
    SUBGRADIENT = "subgradient"
    CLOSED_FORM = "closed_form"


@dataclass
class CenterCertificate:
    """A candidate center with the data needed to check its optimality."""

    center: np.ndarray
    radius: float
    farthest: np.ndarray
    weights: np.ndarray
    membership_gap: float
    iterations: int
    solver: SolverName
    valid: bool
    gap_tol: float

    def to_json(self):
        return {
            "center": self.center.tolist(),
            "radius": self.radius,
            "farthest": np.asarray(self.farthest).tolist(),
            "weights": np.asarray(self.weights).tolist(),
            "membership_gap": self.membership_gap,
            "iterations": self.iterations,
            "solver": self.solver.value,
            "valid": self.valid,
            "gap_tol": self.gap_tol,
        }


def certify(F, C, z, gap_tol=1e-8, solver=SolverName.CLOSED_FORM, iterations=0,
            tol=DEFAULT):
    """Build the optimality certificate for a candidate center z in U.

    Fits simplex weights mu minimizing ||grad f(z) - sum mu_i grad f(q_i)||
    over the farthest points q_i of z.  The certificate is valid when the
    gap is within ``gap_tol`` and the farthest set is multivalued whenever C
    has at least two points.
    """
    z = np.asarray(z, dtype=float)
    if not F.in_interior(z):
        raise DomainError("certify requires z in the interior of dom f")
    res = farthest(F, C, z, tol)
    W = F.grad(res.argmax)
    mu, gap = lsq_simplex_weights(W, F.grad(z))
    multival_ok = len(res.argmax) >= 2 or len(C) < 2
    return CenterCertificate(
        center=z,
        radius=res.value,
        farthest=res.argmax,
        weights=mu,
        membership_gap=gap,
        iterations=iterations,
        solver=solver,
        valid=bool(gap <= gap_tol and multival_ok),
        gap_tol=gap_tol,
    )


def default_start(F, C):
    """Dual average: grad f* of the mean of grad f over the set.

    Always lies in U, and is symmetric for symmetric inputs.
    """
    G = F.grad(C.enumerate())
    return F.grad_star(G.mean(axis=0))


def _candidate_pool(pts, vals, J):
    """Near-maximal points thinned by spatial suppression.

    Dense samplings put many near-duplicates of one local maximizer at the
    top of the value ranking; keeping only one representative per cluster
    lets genuinely distinct maximizers (e.g. both segment endpoints) stay
    in the pool.
    """
    top = float(np.max(vals))
    window = np.nonzero(vals >= top - 5e-2 * (1.0 + abs(top)))[0]
    window = window[np.argsort(vals[window])[::-1]]
    extent = 0.0
    if len(window) > 1:
        sub = pts[window]
        extent = float(
            np.max(np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1))
        )
    radius = 0.1 * extent
    pool = []
    for i in window:
        if all(np.linalg.norm(pts[i] - pts[j]) > radius for j in pool):
            pool.append(int(i))
        if len(pool) >= J + 4:
            break
    if len(pool) < 2:
        order = np.argsort(vals)[::-1]
        for i in order:
            if int(i) not in pool:
                pool.append(int(i))
            if len(pool) >= 2:
                break
    return pool


def _minmax_polish(F, C, z0, newton_iters=40):
    """Newton refinement of the local min-max system at a candidate center.

    For small subsets A of near-maximal points at z0, solves the square
    system grad f(x) = sum mu_i grad f(c_i), sum mu = 1, equal distances
    D(x, c_i) across A, and returns the first solution passing the
    sufficient optimality conditions (nonnegative weights, no point of C
    farther than the common distance).  The center is unique, so the first
    certified solution is the center.  A certified violator outside the
    current pool is pulled in and the search continues.  Returns
    (x, mu, indices) or None when no subset certifies.
    """
    pts = C.enumerate()
    n, J = pts.shape
    vals = distance_matrix(F, z0[None, :], pts)[0]

    if n == 1:
        pool = [0]
    else:
        pool = _candidate_pool(pts, vals, J)

    def subsets(pool):
        if n == 1:
            return [(0,)]
        out = []
        for size in range(2, min(len(pool), J + 1) + 1):
            subs = list(combinations(sorted(pool), size))
            subs.sort(key=lambda s: -sum(vals[list(s)]))
            out.extend(subs)
        return out

    slack = 1e-9
    tried = set()
    for _ in range(4):
        grew = False
        for active in subsets(pool):
            if active in tried:
                continue
            tried.add(active)
            sol = _newton_minmax(F, pts[list(active)], z0, newton_iters)
            if sol is None:
                continue
            x, mu = sol
            if np.min(mu) < -1e-9:
                continue
            dvals = distance_matrix(F, x[None, :], pts)[0]
            r = float(np.max(dvals[list(active)]))
            if np.max(dvals) > r + slack * (1.0 + abs(r)):
                worst = int(np.argmax(dvals))
                if worst not in pool:
                    pool.append(worst)
                    grew = True
                continue
            return x, np.maximum(mu, 0.0), list(active)
        if not grew:
            break
    return None


def _newton_minmax(F, pts, x0, max_iter):
    """Damped Newton on the square system of the m-point min-max center.

    Steps are scaled back until the iterate stays in U and the residual
    norm decreases, which keeps the method stable when the equal-distance
    equations are poorly conditioned.
    """
    m, J = pts.shape
    Gc = F.grad(pts)
    x = x0.copy()
    mu = np.full(m, 1.0 / m)

    def residual(x, mu):
        gx = F.grad(x)
        r1 = gx - Gc.T @ mu
        r2 = np.array([mu.sum() - 1.0])
        if m > 1:
            d = distance_matrix(F, x[None, :], pts)[0]
            r3 = d[1:] - d[0]
        else:
            r3 = np.zeros(0)
        return np.concatenate([r1, r2, r3])

    scale = 1.0 + float(np.abs(F.grad(x0)).max())
    res = residual(x, mu)
    rnorm = float(np.linalg.norm(res))
    for _ in range(max_iter):
        if rnorm <= 1e-13 * scale:
            break
        Jac = np.zeros((J + m, J + m))
        Jac[:J, :J] = F.hess(x)
        Jac[:J, J:] = -Gc.T
        Jac[J, J:] = 1.0
        if m > 1:
            Jac[J + 1:, :J] = Gc[0] - Gc[1:]
        try:
            delta = np.linalg.solve(Jac, -res)
        except np.linalg.LinAlgError:
            return None
        s = 1.0
        accepted = False
        while s > 1e-10:
            x_try = x + s * delta[:J]
            if F.in_interior(x_try):
                mu_try = mu + s * delta[J:]
                res_try = residual(x_try, mu_try)
                rnorm_try = float(np.linalg.norm(res_try))
                if np.isfinite(rnorm_try) and rnorm_try < rnorm * (1.0 - 1e-4 * s):
                    x, mu, res, rnorm = x_try, mu_try, res_try, rnorm_try
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            break
    if not np.all(np.isfinite(res)) or rnorm > 1e-9 * scale:
        return None
    return x, mu


def _finish(F, C, x, iterations, solver, tol_stop, hit_max_iter, polish, tol):
    if polish:
        out = _minmax_polish(F, C, x)
        if out is not None:
            x = out[0]
    gap_tol = 100.0 * tol_stop
    cert = certify(F, C, x, gap_tol=gap_tol, solver=solver,
                   iterations=iterations, tol=tol)
    if hit_max_iter and cert.membership_gap > gap_tol:
        raise NonConvergence(
            f"{solver.value}: membership gap {cert.membership_gap:.3e} above "
            f"{gap_tol:.3e} after {iterations} iterations",
            certificate=cert,
        )
    return cert


def solve_fixed_point(F, C, x0=None, max_iter=200_000, tol=1e-6, polish=True,
                      tolerances=DEFAULT):
    """Dual averaging toward a farthest point with step 1/(t+2).

    Iterates x_{t+1} = grad f*((1 - eta_t) grad f(x_t) + eta_t grad f(q_t))
    with eta_t = 1/(t+2) and q_t a farthest point of x_t, stopping when the
    dual step norm falls below ``tol``.
    """
    pts = C.enumerate()
    if x0 is None:
        x0 = default_start(F, C)
    x0 = np.asarray(x0, dtype=float)
    if not F.in_interior(x0):
        raise DomainError("x0 must lie in the interior of dom f")

    G = F.grad(pts)
    K = np.sum(G * pts, axis=-1) - F.f(pts)
    y = F.grad(x0)
    t = 0
    hit_max = True
    while t < max_iter:
        x = F.grad_star(y)
        q = int(np.argmax(K - G @ x))
        eta = 1.0 / (t + 2)
        y_next = (1.0 - eta) * y + eta * G[q]
        step = float(np.linalg.norm(y_next - y))
        y = y_next
        t += 1
        if step <= tol:
            hit_max = False
            break
    x = F.grad_star(y)
    return _finish(F, C, x, t, SolverName.FIXED_POINT, tol, hit_max, polish,
                   tolerances)


def solve_subgradient(F, C, x0=None, max_iter=2_000, tol=1e-9, polish=True,
                      tolerances=DEFAULT):
    """Projected subgradient descent on F_C.

    The direction is the minimum-norm element of the convex hull of the
    subdifferential vertices grad f(x) - grad f(q), with q ranging over the
    near-maximizers inside a window that shrinks with the step size (the
    window makes the direction follow the nonsmooth ridge instead of
    zigzagging across it; it collapses to Q_C(x) as the steps vanish).  The
    step is 1/(L*sqrt(t)) with L estimated from the subgradient norms at x0,
    halved until the iterate stays in U.  The best iterate seen is kept.
    """
    pts = C.enumerate()
    if x0 is None:
        x0 = default_start(F, C)
    x = np.asarray(x0, dtype=float).copy()
    if not F.in_interior(x):
        raise DomainError("x0 must lie in the interior of dom f")

    G = F.grad(pts)

    def value_and_vertices(x, window):
        vals = distance_matrix(F, x[None, :], pts)[0]
        top = float(np.max(vals))
        cut = max(top - window, top * (1.0 - tolerances.argmax_rel) - tolerances.argmax_abs)
        idx = np.nonzero(vals >= cut)[0]
        if len(idx) > 6:
            idx = idx[np.argsort(vals[idx])[::-1][:6]]
        return top, F.grad(x)[None, :] - G[idx]

    val, verts = value_and_vertices(x, 0.0)
    L = max(float(np.linalg.norm(verts, axis=1).max()), 1e-12)
    best_x, best_val = x.copy(), val
    t = 0
    hit_max = True
    window = 0.0
    stall_mark, stall_val = 0, val
    while t < max_iter:
        t += 1
        v, _ = min_norm_in_hull(verts)
        vnorm = float(np.linalg.norm(v))
        if vnorm <= tol:
            hit_max = False
            break
        step = 1.0 / (L * math.sqrt(t))
        cand = x - step * v
        halvings = 0
        while not F.in_interior(cand) and halvings < 60:
            step *= 0.5
            cand = x - step * v
            halvings += 1
        if halvings >= 60:
            break
        x = cand
        window = min(2.0 * L * step * vnorm, 1e-2 * (1.0 + abs(val)))
        val, verts = value_and_vertices(x, window)
        if val < best_val:
            best_val, best_x = val, x.copy()
        if best_val < stall_val - 1e-12 * (1.0 + abs(best_val)):
            stall_mark, stall_val = t, best_val
        elif t - stall_mark >= 250:
            # no measurable progress for many steps: the iterate has
            # localized and the refinement can take over
            hit_max = False
            break
    if best_val < val:
        x = best_x
    return _finish(F, C, x, t, SolverName.SUBGRADIENT, tol, hit_max, polish,
                   tolerances)


@dataclass
class HullProjection:
    """Result of projecting onto the primal image of the dual hull."""

    point: np.ndarray
    weights: np.ndarray
    already_in_hull: bool


def dual_hull_projection(F, C, x, membership_tol=1e-9):
    """Project x onto grad f*(conv grad f(C)) in the Bregman sense.

    Minimizes s -> f*(s) - <x, s> over the convex hull of the dual points
    grad f(c) (an equivalent form of the Bregman projection in conjugate
    coordinates) with ``dual_argmin``, and maps the minimizer back through
    grad f*.  The returned point y satisfies the decomposition inequality
    D(x, c) >= D(x, y) + D(y, c) for every c in C.

    The unconstrained minimizer is grad f(x), so when the hull's minimizer
    lies within ``membership_tol`` of it, x is in the primal image of the
    hull, is its own projection, and the result is flagged.
    """
    x = np.asarray(x, dtype=float)
    if not F.in_interior(x):
        raise DomainError("x must lie in the interior of dom f")
    W = F.grad(C.enumerate())
    gx = F.grad(x)
    mu = dual_argmin(F, W, W @ x)
    s = W.T @ mu
    if np.linalg.norm(s - gx) <= membership_tol * (1.0 + float(np.linalg.norm(gx))):
        return HullProjection(point=x.copy(), weights=mu, already_in_hull=True)
    return HullProjection(point=F.grad_star(s), weights=mu, already_in_hull=False)

"""Chebyshev-center solvers, optimality certificates, and hull projections.

The center of a compact C inside U is the unique minimizer of F_C, and it is
characterized in dual coordinates: grad f(z) must be a convex combination of
grad f over the farthest points Q_C(z).  The certificate records that convex
combination and its residual ("membership gap").

Every routine here reads the set's one dual problem, ``C.dual_problem(F)``:
maximize <mu, K> - f*(G^T mu) over the simplex, with G = grad f(C),
K_c = <G_c, c> - f(c) and center z = grad f*(G^T mu).  A separable
generator poses it on C itself, and ``quadratic`` as energy on the whitened
points, so its ``gap_tol``, ``tol`` and ``membership_tol`` are in those
coordinates.  ``solve_subgradient`` (named after the subgradient method it
replaced) makes one exact ``simplex.dual_argmin`` solve of it.
``solve_fixed_point`` is Frank-Wolfe on it, which nears the nonsmooth ridge
of F_C only at rate O(1/t) unless its duality gap certifies an optimum, so
by default the exact solve finishes from its iterate.  The certificate
weights and the hull projection (K replaced by G x) minimize over the
simplex in the same form, with the same solver.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence
from .farthest import farthest
from .simplex import _ROUND, _dual_argmin, dual_argmin, lsq_simplex_weights
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
    E, W, lift, _ = C.dual_problem(F)
    u = lift(z)
    res = farthest(E, W, u, tol)
    mu, gap = lsq_simplex_weights(W.dual_data(E).G[res.witness_indices], E.grad(u))
    multival_ok = len(res.argmax) >= 2 or len(C) < 2
    return CenterCertificate(
        center=z,
        radius=res.value,
        farthest=C.enumerate()[res.witness_indices],
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
    E, W, _, back = C.dual_problem(F)
    return back(E.grad_star(W.dual_data(E).G.mean(axis=0)))


def _exact_center(F, C, x, max_steps=None):
    """The center as one ``dual_argmin`` solve over all of C, F separable:
    mu maximizing <mu, K> - f*(G^T mu) over the simplex, z = grad f*(G^T mu).

    The working set starts at the farthest point of x.  Returns (z, mu,
    steps, done); done is false when max_steps (default ``dual_argmin``'s
    cap) ran out first, and z is then the last iterate, whose dual value is
    the best seen.
    """
    G, K = C.dual_data(F)
    first = int(np.argmax(K - G @ x))
    order = np.arange(len(K))
    order[[0, first]] = order[[first, 0]]  # a swap: its own inverse
    mu_order, steps, done = _dual_argmin(F, G[order], K[order], max_steps)
    mu = mu_order[order]
    return F.grad_star(mu @ G), mu, steps, done


def _finish(F, C, x, iterations, solver, tol_stop, converged, tol):
    gap_tol = 100.0 * tol_stop
    cert = certify(F, C, x, gap_tol=gap_tol, solver=solver,
                   iterations=iterations, tol=tol)
    if not converged and cert.membership_gap > gap_tol:
        raise NonConvergence(
            f"{solver.value}: membership gap {cert.membership_gap:.3e} above "
            f"{gap_tol:.3e} after {iterations} iterations",
            certificate=cert,
        )
    return cert


def solve_fixed_point(F, C, x0=None, max_iter=200_000, tol=1e-6, polish=True,
                      tolerances=DEFAULT):
    """Frank-Wolfe on the dual: averaging toward a farthest point.

    Starts at y = grad f(q), q the farthest point of x0 (by default
    ``default_start``), and iterates y <- (1 - eta_t) y + eta_t grad f(q_t)
    with eta_t = 1/(t+2) and q_t a farthest point of x_t = grad f*(y),
    stopping when the duality gap F_C(x_t) - dual(mu_t) is within its
    rounding (a certified optimum) or the dual step falls to ``tol``.  With
    ``polish`` the exact dual solve finishes from the last iterate; without
    it the bare iterate is certified.
    """
    E, W, lift, back = C.dual_problem(F)
    x0 = default_start(F, C) if x0 is None else np.asarray(x0, dtype=float)
    if not F.in_interior(x0):
        raise DomainError("x0 must lie in the interior of dom f")
    G, K = W.dual_data(E)
    q = int((K - G @ lift(x0)).argmax())
    # y = G^T mu and muK = <mu, K> for the Frank-Wolfe weights mu
    y, muK = G[q].copy(), K[q]
    t = 0
    converged = False
    while t < max_iter:
        x = E.grad_star(y)
        v = K - G @ x
        q = int(v.argmax())
        # F_C(x) - dual(mu) = v_q - <mu, K> + <y, x>, since f(x) + f*(y) = <x, y>
        vq, yx = v[q], x.dot(y)
        if vq - muK + yx <= _ROUND * (abs(vq) + abs(muK) + abs(yx)):
            converged = True
            break
        eta = 1.0 / (t + 2)
        d = G[q] - y
        y += eta * d
        muK += eta * (K[q] - muK)
        t += 1
        if eta * d.dot(d) ** 0.5 <= tol:
            converged = True
            break
    x = E.grad_star(y)
    if polish:
        x, _, _, converged = _exact_center(E, W, x)
    return _finish(F, C, back(x), t, SolverName.FIXED_POINT, tol, converged, tolerances)


def solve_subgradient(F, C, x0=None, max_iter=2_000, tol=1e-9, tolerances=DEFAULT):
    """The center from one exact dual solve, started at the farthest point
    of x0 (by default ``default_start``).

    ``max_iter`` caps the working-set steps, which the certificate counts
    as its iterations; the certificate's gap tolerance is 100 ``tol``.
    """
    E, W, lift, back = C.dual_problem(F)
    x0 = default_start(F, C) if x0 is None else np.asarray(x0, dtype=float)
    if not F.in_interior(x0):
        raise DomainError("x0 must lie in the interior of dom f")
    z, _, steps, done = _exact_center(E, W, lift(x0), max_iter)
    return _finish(F, C, back(z), steps, SolverName.SUBGRADIENT, tol, done, tolerances)


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
    E, W, lift, back = C.dual_problem(F)
    u = lift(x)
    G, gu = W.dual_data(E).G, E.grad(u)
    mu = dual_argmin(E, G, G @ u)
    s = G.T @ mu
    if np.linalg.norm(s - gu) <= membership_tol * (1.0 + float(np.linalg.norm(gu))):
        return HullProjection(point=x.copy(), weights=mu, already_in_hull=True)
    return HullProjection(point=back(E.grad_star(s)), weights=mu, already_in_hull=False)

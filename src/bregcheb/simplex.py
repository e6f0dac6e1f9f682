"""One exact solver for every minimization over the probability simplex.

``dual_argmin(F, W, c)``, a working-set Newton method, minimizes
``f*(W^T mu) - <c, mu>``: the certificate weights and the minimum-norm
subgradient (the energy case, least squares against a convex hull) and the
Bregman hull projection (``c = W x``).  No support is enumerated.
"""

import math

import numpy as np

from .errors import NonConvergence
from .legendre import energy

# a few ulps: the rounding of a short sum or dot product, relative to |terms|
_ROUND = 8.0 * np.finfo(float).eps


def _back(R, kept, b):
    """y solving R y = b over the kept rows and columns of the upper
    triangular R, zero elsewhere."""
    y = [0.0] * len(R)
    for i in reversed(kept):
        y[i] = (b[i] - sum(R[i][k] * y[k] for k in kept if k > i)) / R[i][i]
    return y


def _face_step(A, H, r):
    """Newton step on a face: y minimizing r.y + |A^T y|_H^2 / 2, its
    slope -r.y, and the null combinations of the face's rows.  A holds the
    face's vertices minus its first one, r their gradient entries minus the
    first one's, H the diagonal of hess f*.  Gram-Schmidt in the inner
    product of H factors A H A^T as R^T R from the rows of A, without
    forming it, so rows that share one huge coordinate keep the small
    differences that forming it would round away.  A row within rounding of
    the span of the earlier ones gets no Newton step; its null combination,
    y with y A = 0 and its own entry 1, comes from back-substitution on R."""
    n = len(A)
    V = A.copy()
    R = [[0.0] * n for _ in range(n)]
    kept, nulls = [], []
    for i in range(n):
        Hv = H * V[i]
        norm = math.sqrt(max(V[i].dot(Hv), 0.0))
        scale = math.sqrt((A[i] * H).dot(A[i])) if i else norm
        if not norm > _ROUND * scale:
            # A_i = sum_k a_k A_k over the kept rows k < i, R a = R[:, i]
            y = [-v for v in _back(R, kept, [row[i] for row in R])]
            y[i] = 1.0
            nulls.append(np.array(y))
            continue
        kept.append(i)
        R[i][i] = norm
        if i + 1 < n:
            row = V[i + 1:].dot(Hv) / norm
            V[i + 1:] -= np.outer(row, V[i] / norm)
            R[i][i + 1:] = row.tolist()
    # R^T w = -r, then R y = w
    r = r.tolist()
    w = [0.0] * n
    for i in kept:
        w[i] = (-r[i] - sum(R[k][i] * w[k] for k in kept if k < i)) / R[i][i]
    return _back(R, kept, w), sum(v * v for v in w), nulls


def _direction(y, mu, A, x_err, own):
    """For a face step y: the step d on the face's weights mu, each weight's
    ratio-test limit, |y A| and |d|, and the rounding of the slope along d,
    that of grad f*(s) along the displacement y A of s plus that of each
    gradient entry."""
    d = [-sum(y)] + list(y)
    ratio = [-w / v if v < 0.0 else np.inf for w, v in zip(mu, d)]
    moved, d_abs = np.abs(np.dot(y, A)), np.abs(d)
    return d, ratio, moved, d_abs, moved.dot(x_err) + d_abs.dot(own)


def dual_argmin(F, W, c):
    """Weights mu on the simplex minimizing f*(W^T mu) - <c, mu>, W with
    one row per vertex in int dom f*, for a separable F (not ``quadratic``,
    which ``center`` poses as energy on whitened points).

    Wolfe's minimum-norm-point scheme with f* in place of the squared norm:
    from the first vertex, Newton steps on the face of the working set S,
    with a ratio test that drops a vertex at zero weight.  A trial step is
    taken once the slope along it is not positive beyond rounding, so by
    convexity no step raises the objective: first the full step, then the
    root of the slope's chord from the start (at least half the step), then
    halving; where f* is not quadratic the full step overshoots the line
    minimum by a second-order amount, and the chord root keeps the Newton
    step's quadratic convergence.  Where the face's rows are affinely
    dependent, a null combination of them leaves s = W_S^T mu in place and
    moves the objective linearly; if that slope beats its rounding, a
    reduction step goes along it to the ratio-test boundary and drops a
    vertex.  Once the face is solved, the outside
    vertex with the lowest gradient entry <W_j, grad f*(s)> - c_j joins if
    it may lie below one in S; if the step on the enlarged face gains
    nothing above rounding, it is set aside until the next step with every
    vertex whose entry less its rounding is no lower (so ties cost one face
    step).  The solve ends when no vertex may join and a face step has
    confirmed the face; NonConvergence after 50 (m + J) + 100 steps.  Each
    slope is weighed against its own rounding, so the large rounding of s
    in a coordinate where all the face's rows are huge does not hide a step
    that leaves that coordinate alone.
    """
    mu, steps, done = _dual_argmin(F, W, c)
    if not done:
        raise NonConvergence(f"dual_argmin: no optimal face after {steps} steps")
    return mu


def _dual_argmin(F, W, c, max_steps=None):
    """``dual_argmin`` within max_steps steps (default 50 (m + J) + 100):
    (mu, steps taken, whether the face was confirmed optimal).  mu is the
    last iterate either way; no step raises the objective."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    c = np.asarray(c, dtype=float)
    m = len(W)
    if max_steps is None:
        max_steps = 50 * (m + W.shape[1]) + 100
    out = np.zeros(m)
    if m == 1:
        out[0] = 1.0
        return out, 0, True
    W_abs, c_abs = np.abs(W), np.abs(c)

    def evaluate(s, spread, H):
        """W grad f*(s) - c, the rounding of each entry's dot product, and
        that of grad f*(s), with the rounding _ROUND * spread of s carried
        through H, the diagonal of hess f* near s."""
        x = F.grad_star(s)
        x_abs = np.abs(x)
        x_err = x_abs if H is None else x_abs + np.abs(H) * spread
        return W.dot(x) - c, _ROUND * (W_abs.dot(x_abs) + c_abs), _ROUND * x_err

    S, mu = [0], [1.0]
    WS, WS_abs = W[:1], W_abs[:1]
    # s is exact at a vertex; H = hess f*(s) once a face step needs it
    s, H = W[0], None
    g, own, x_err = evaluate(s, None, None)
    # the vertices that may join: outside S and not set aside
    added, may_join = None, np.arange(m) > 0
    # solved: the face's gradient entries agree within their pairwise
    # rounding; checked: so a face step found, or the face has one direction
    solved = checked = True
    done = False
    steps = 0
    while steps < max_steps:
        steps += 1
        if solved:
            outside = may_join.nonzero()[0]
            if outside.size:
                tol = W_abs.dot(x_err) + own
                j = int(outside[g.take(outside).argmin()])
                if g[j] - tol[j] < (g.take(S) + tol.take(S)).max():
                    added, may_join[j] = j, False
                    S.append(added)
                    mu.append(0.0)
                    WS, WS_abs = W.take(S, axis=0), W_abs.take(S, axis=0)
                    solved = False
                    continue
            if checked:
                done = True
                break
            solved = False
            continue
        if H is None:
            H = F.hess_star(s)
        A = WS[1:] - WS[0]
        gS, ownS = g.take(S), own.take(S)
        r = gS[1:] - gS[0]
        y, slope, nulls = _face_step(A, H, r)
        reduction = False
        for y_null in nulls:
            # y A = 0: s stays, and the objective moves by r.y = -d.c per
            # unit step.  Older dependencies were flat when they formed and
            # d.c does not change; the row that closed this one joined last,
            # has entry 1 in y_null, and its weight can only grow
            d, ratio, moved, d_abs, rounding = _direction(y_null, mu, A, x_err, ownS)
            slope_null = -r.dot(y_null)
            if slope_null > rounding and min(ratio) > 0.0:
                y, slope, reduction = y_null, slope_null, True
                break
        if not reduction:
            d, ratio, moved, d_abs, rounding = _direction(y, mu, A, x_err, ownS)
            y = np.array(y)
            if not (slope > rounding and min(ratio) > 0.0
                    and any(w + v != w for w, v in zip(mu, d))):
                solved = checked = True
                if added is not None:
                    # the entries that chose it may be mostly rounding, so the
                    # others, bar those no lower (g, tol: the join's), get a turn
                    S.pop()
                    mu.pop()
                    WS, WS_abs = WS[:-1], WS_abs[:-1]
                    lower = g - tol
                    may_join &= lower < lower[added]
                    added = None
                continue
        t_max = min(ratio)
        # the objective is linear along a reduction step: go to the boundary
        t = t_max if reduction else min(1.0, t_max)
        for trial in range(60):
            mu_t = [max(w + t * v, 0.0) for w, v in zip(mu, d)]
            if t == t_max:
                mu_t[ratio.index(t_max)] = 0.0
            total = sum(mu_t)
            mu_t = [w / total for w in mu_t]
            s_t = np.dot(mu_t, WS)
            g_t, own_t, x_err_t = evaluate(s_t, np.dot(mu_t, WS_abs), H)
            gS, ownS = g_t.take(S), own_t.take(S)
            slope_t = (gS[1:] - gS[0]).dot(y)
            if slope_t <= moved.dot(x_err_t) + d_abs.dot(ownS):
                break
            # the slope rose from -slope at t = 0: its chord's root is where
            # a Newton step's second-order overshoot on a convex slope lands,
            # at or just short of the line minimum; later trials halve
            t = max(t * slope / (slope + slope_t), 0.5 * t) if trial == 0 else 0.5 * t
        mu, s, H, g, own, x_err = mu_t, s_t, None, g_t, own_t, x_err_t
        if min(mu) == 0.0:
            keep = [k for k, w in enumerate(mu) if w > 0.0]
            S, mu = [S[k] for k in keep], [mu[k] for k in keep]
            WS, WS_abs = W.take(S, axis=0), W_abs.take(S, axis=0)
            gS, ownS = g.take(S), own.take(S)
        added = None
        may_join.fill(True)
        may_join.put(S, False)
        rounding = np.abs(WS[1:] - WS[0]).dot(x_err) + ownS[1:] + ownS[0]
        solved = bool((np.abs(gS[1:] - gS[0]) <= rounding).all())
        checked = solved and len(S) <= 2
    out.put(S, mu)
    return out, steps, done


def lsq_simplex_weights(V, b):
    """min over simplex mu of ||b - V^T mu||, V of shape (m, J).

    The energy case of ``dual_argmin``: the minimum-norm point of the rows
    of V - b.  Returns (mu, residual_norm).
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    # ||b - V^T mu|| = ||(V - b)^T mu|| on the simplex; shifting by b first
    # keeps the gradient's rounding relative to |V_i - b|, not to |V_i||b|
    D = V - b
    mu = dual_argmin(energy(V.shape[1]), D, np.zeros(len(V)))
    r = mu.dot(D)
    return mu, math.sqrt(r.dot(r))

"""Shared construction helpers for the test suite."""

import math
from itertools import combinations

import numpy as np

import bregcheb as bc

SPD_MATRIX = np.array([[2.0, 0.5], [0.5, 1.0]])


def all_generators(dim=2):
    return [
        bc.energy(dim),
        bc.quadratic(SPD_MATRIX if dim == 2 else np.eye(dim) + 0.1),
        bc.negentropy(dim),
        bc.neglog(dim),
    ]


def orthant_domain(F):
    return F.kind in (bc.Kind.NEG_ENTROPY, bc.Kind.NEG_LOG)


def sample_interior(F, rng, n=1):
    """Random interior points, coordinates in (0.1, 10) for orthant
    domains and (-10, 10) otherwise."""
    if orthant_domain(F):
        pts = rng.uniform(0.1, 10.0, size=(n, F.dimension))
    else:
        pts = rng.uniform(-10.0, 10.0, size=(n, F.dimension))
    return pts


def random_finite_set(F, rng, n_points=4, spread=0.15):
    """A small compact set in U clustered around a random base point."""
    if orthant_domain(F):
        base = rng.uniform(0.8, 2.5, size=F.dimension)
    else:
        base = rng.uniform(-1.5, 1.5, size=F.dimension)
    pts = base + rng.uniform(-spread, spread, size=(n_points, F.dimension))
    if orthant_domain(F):
        pts = np.maximum(pts, 0.05)
    return bc.CompactSet.finite(pts)


def domain_box(kind):
    """A box inside the domain of the generator kind."""
    return (0.1, 4.0) if kind in ("negentropy", "neglog") else (-3.0, 3.0)


def random_generator(kind, J, rng):
    """The generator of that kind in dimension J; a random, well-conditioned
    matrix for ``quadratic``."""
    if kind == "quadratic":
        A = rng.normal(size=(J, J))
        return bc.quadratic(A @ A.T + 0.3 * np.eye(J))
    return bc.LegendreFunction(kind, J)


LAYOUTS = ("generic", "duplicate", "collinear", "boundary")


def layout_points(rng, kind, m, J, layout):
    """m points in ``domain_box(kind)``: generic, with a repeated point, on
    one segment, or (for the orthant kinds, layout "boundary") with about a
    third of their coordinates within 1e-8 of the boundary."""
    lo, hi = domain_box(kind)
    P = rng.uniform(lo, hi, size=(m, J))
    if layout == "duplicate":
        P[rng.integers(m)] = P[rng.integers(m)]
    elif layout == "collinear":
        a, b = rng.uniform(lo, hi, size=(2, J))
        P = a + rng.uniform(0.0, 1.0, size=(m, 1)) * (b - a)
    elif layout == "boundary" and kind in ("negentropy", "neglog"):
        near = rng.uniform(size=P.shape) < 0.3
        P[near] = 1e-8 * rng.uniform(0.1, 1.0, size=near.sum())
    return P


def center_duality_gap(F, P, z, mu):
    """F_C(z) - (<mu, K> - f*(G^T mu)) for the finite set P, with G = grad f(P)
    and K_c = <G_c, c> - f(c), and F_C(z).  Any z and simplex weights mu
    bound the radius from both sides, so the gap needs no tie rule."""
    G = F.grad(P)
    K = np.sum(G * P, axis=1) - F.f(P)
    radius = float(np.max(bc.distance_matrix(F, z[None, :], P)))
    return radius - (mu @ K - F.fstar(mu @ G)), radius


# -- reference field-map writers ------------------------------------------
#
# The per-cell, per-pixel and per-ray code that ``bregcheb.cli`` used before
# its field maps were batched.  The batched commands must reproduce these
# bytes and points exactly.

def _fmt(v):
    return "inf" if math.isinf(v) else f"{v:.17g}"


def reference_colormap_csv(F, C, region, n):
    """CSV text of ``cli colormap``, one grid cell at a time, from one
    unblocked distance matrix."""
    x0, y0, x1, y1 = region
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    grid = np.array([[x, y] for y in ys for x in xs])
    values = np.max(bc.distance_matrix(F, grid, C.enumerate()), axis=1).reshape(n, n)
    lines = ["x,y,value"]
    for iy in range(n):
        for ix in range(n):
            lines.append(f"{_fmt(xs[ix])},{_fmt(ys[iy])},{_fmt(values[iy, ix])}")
    return "\n".join(lines) + "\n"


def reference_ppm_bytes(values, interior):
    """P6 image of ``cli colormap --ppm``, one pixel at a time."""
    n = values.shape[0]
    finite = np.isfinite(values)
    shown = finite & interior
    if np.any(shown):
        vmin = float(values[shown].min())
        vmax = float(values[shown].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    pixels = bytearray()
    for iy in range(n - 1, -1, -1):
        for ix in range(n):
            if not shown[iy, ix]:
                pixels += b"\x00\x00\x00"
            else:
                t = 0.0 if span == 0.0 else (values[iy, ix] - vmin) / span
                idx = min(255, int(t * 256.0))
                pixels += bytes((idx, 0, 255 - idx))
    header = f"P6\n{n} {n}\n255\n".encode("ascii")
    return header + bytes(pixels)


def reference_sphere_rows(F, z, r, res, prescan=64, bisect_tol=1e-10):
    """Rows of ``cli sphere``, bisecting one dual-space ray at a time."""
    gz = F.grad(z)
    rows = []
    for k in range(res):
        theta = 2.0 * math.pi * k / res
        if r == 0.0:
            rows.append((theta, z.copy(), 1))
            continue
        u = np.array([math.cos(theta), math.sin(theta)])

        def phi(t):
            point = F.grad_star(gz + t * u)
            return float(bc.distance(F, z, point)) - r

        t_limit = _reference_dual_ray_limit(F, gz, u)
        t_hi = min(1.0, 0.5 * t_limit) if np.isfinite(t_limit) else 1.0
        found = False
        for _ in range(200):
            if phi(t_hi) >= 0.0:
                found = True
                break
            if np.isfinite(t_limit):
                t_hi = 0.5 * (t_hi + t_limit)
                if t_limit - t_hi < 1e-14 * t_limit:
                    break
            else:
                t_hi *= 2.0
                if t_hi > 1e12:
                    break
        if not found:
            rows.append((theta, None, 0))
            continue

        ts = np.linspace(0.0, t_hi, prescan)
        vals = np.array([phi(t) for t in ts])
        signs = vals >= 0.0
        crossing = 0
        for i in range(1, prescan):
            if signs[i] != signs[i - 1]:
                crossing += 1
                t_root = _reference_bisect(phi, ts[i - 1], ts[i], bisect_tol)
                rows.append((theta, F.grad_star(gz + t_root * u), crossing))
        if crossing == 0:
            i = int(np.argmin(np.abs(vals)))
            rows.append((theta, F.grad_star(gz + ts[i] * u), 1))
    return rows


def _reference_dual_ray_limit(F, gz, u):
    if F.kind is not bc.Kind.NEG_LOG:
        return np.inf
    limits = [(-gz[j]) / u[j] for j in range(2) if u[j] > 0.0]
    return min(limits) if limits else np.inf


def _reference_bisect(fn, lo, hi, tol):
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = fn(mid)
        if (fm >= 0.0) == (flo >= 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- reference simplex solvers ---------------------------------------------
#
# The support enumerations that ``bregcheb.simplex`` and
# ``bregcheb.center`` used before one working-set solver replaced them.
# Each tries every support, so it finds the global minimum; it is
# exponential in the number of vertices and kept for small tests only.

def _reference_affine_fit(V, b, support):
    """Solve min ||b - V[support]^T mu|| with sum mu = 1 (no sign constraint)."""
    Vs = V[list(support)]
    m = len(support)
    M = np.zeros((m + 1, m + 1))
    M[:m, :m] = Vs @ Vs.T
    M[:m, m] = 1.0
    M[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[:m] = Vs @ b
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol[:m]


def reference_lsq_simplex_weights(V, b):
    """min over simplex mu of ||b - V^T mu|| by trying every support;
    returns (mu, residual_norm)."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    b = np.asarray(b, dtype=float)
    m = V.shape[0]
    best_mu, best_res = None, np.inf
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            mu_s = _reference_affine_fit(V, b, support)
            if np.min(mu_s) < -1e-13:
                continue
            mu = np.zeros(m)
            mu[list(support)] = np.maximum(mu_s, 0.0)
            s = mu.sum()
            if s <= 0:
                continue
            mu /= s
            res = float(np.linalg.norm(b - V.T @ mu))
            if res < best_res - 1e-15:
                best_mu, best_res = mu, res
    return best_mu, best_res


def _reference_support_newton(F, W, x, support, max_iter=60):
    """Damped Newton on the KKT system of min f*(W^T mu) - <x, W^T mu>
    restricted to a support; returns (mu_support, nu) or None."""
    Ws = W[list(support)]
    k = Ws.shape[0]
    mu = np.full(k, 1.0 / k)
    nu = 0.0

    def kkt(mu, nu):
        s = Ws.T @ mu
        g = Ws @ (F.grad_star(s) - x)
        return np.concatenate([g - nu, [mu.sum() - 1.0]]), s

    # hess f*: a dense inverse of its own for quadratic, so the reference
    # shares no whitening with the library; a diagonal for the other kinds
    A_inv = None if F.quad_matrix is None else np.linalg.inv(F.quad_matrix)
    res, s = kkt(mu, nu)
    rnorm = float(np.linalg.norm(res))
    scale = 1.0 + float(np.abs(x).max())
    for _ in range(max_iter):
        if rnorm <= 1e-12 * scale:
            break
        Jac = np.zeros((k + 1, k + 1))
        Jac[:k, :k] = (Ws * F.hess_star(s) if A_inv is None else Ws @ A_inv) @ Ws.T
        Jac[:k, k] = -1.0
        Jac[k, :k] = 1.0
        try:
            delta = np.linalg.solve(Jac, -res)
        except np.linalg.LinAlgError:
            return None
        step = 1.0
        accepted = False
        while step > 1e-12:
            mu_try = mu + step * delta[:k]
            nu_try = nu + step * delta[k]
            s_try = Ws.T @ mu_try
            if F.in_dual_interior(s_try):
                res_try, s_new = kkt(mu_try, nu_try)
                rnorm_try = float(np.linalg.norm(res_try))
                if np.isfinite(rnorm_try) and rnorm_try < rnorm * (1.0 - 1e-4 * step):
                    mu, nu, res, s, rnorm = mu_try, nu_try, res_try, s_new, rnorm_try
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    if not np.all(np.isfinite(res)) or rnorm > 1e-10 * scale:
        return None
    return mu, nu


def reference_energy_center(P):
    """The energy Chebyshev center of the rows of P (the center of their
    smallest enclosing ball) and its radius max |z - p|^2 / 2, by trying the
    circumcenter of every support of at most J + 1 points.  No point has a
    smaller radius than the center, and the center is the circumcenter of
    its farthest points, so the smallest radius found is the optimum."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    best = (None, np.inf)
    for size in range(1, min(len(P), P.shape[1] + 1) + 1):
        for support in combinations(range(len(P)), size):
            S = P[list(support)]
            D = S[1:] - S[0]
            # z = S_0 + a D with |z - S_i| = |z - S_0|: 2 D D^T a = |D_i|^2
            a = np.linalg.lstsq(2.0 * D @ D.T, np.sum(D * D, axis=1), rcond=None)[0]
            z = S[0] + a @ D
            radius = 0.5 * float(np.max(np.sum((P - z) ** 2, axis=1)))
            if radius < best[1]:
                best = (z, radius)
    return best


def reference_dual_hull_argmin(F, W, x):
    """Minimizer of f*(W^T mu) - <x, W^T mu> over the simplex: the first
    support, largest first, whose KKT conditions certify optimality; None
    when no support certifies."""
    # damped Newton on a wrong support may overflow before it is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        return _reference_dual_hull_argmin(F, W, x)


def _reference_dual_hull_argmin(F, W, x):
    m = W.shape[0]
    scale = 1.0 + float(np.abs(x).max())
    supports = []
    for size in range(1, m + 1):
        supports.extend(combinations(range(m), size))
    supports.sort(key=len, reverse=True)
    for support in supports:
        out = _reference_support_newton(F, W, x, support)
        if out is None:
            continue
        mu_s, nu = out
        if np.min(mu_s) < -1e-11:
            continue
        mu = np.zeros(m)
        mu[list(support)] = np.maximum(mu_s, 0.0)
        mu /= mu.sum()
        grad_full = W @ (F.grad_star(W.T @ mu) - x)
        if np.min(grad_full - nu) < -1e-8 * scale:
            continue
        return mu
    return None

"""Command-line front end.

Subcommands: dist, farthest, center, oracle, colormap, sphere, repro.
Exit codes: 0 success, 1 reproduction failure, 2 usage or domain error,
3 solver non-convergence.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import closedform, repro
from .bregman import distance
from .center import solve_fixed_point, solve_subgradient
from .compactset import CompactSet, make_segment, validate
from .errors import DomainError, NonConvergence
from .farthest import farthest, farthest_values
from .legendre import Kind, energy, negentropy, neglog, quadratic

GEN_CHOICES = ("energy", "quad", "negentropy", "neglog")


def _parse_vector(text):
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def _parse_matrix(text):
    try:
        rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
        return np.array(rows, dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a matrix literal: {text!r}")


def _parse_points(text):
    return np.array([_parse_vector(row) for row in text.split(";")])


def _make_generator(args, dimension):
    if args.gen == "energy":
        return energy(dimension)
    if args.gen == "quad":
        if args.matrix is None:
            raise DomainError("--gen quad requires --matrix")
        return quadratic(args.matrix)
    if args.gen == "negentropy":
        return negentropy(dimension)
    return neglog(dimension)


def _make_set(args, F):
    if getattr(args, "points", None) is not None:
        C = CompactSet.finite(args.points)
        validate(C, F)
        return C
    if getattr(args, "segment", None) is not None:
        return make_segment(F, args.segment, args.samples)
    raise DomainError("a set is required: pass --points or --segment")


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(obj):
    print(json.dumps(_jsonable(obj)))


def _fmt(v):
    return "inf" if math.isinf(v) else f"{v:.17g}"


def cmd_dist(args):
    F = _make_generator(args, len(args.x))
    _emit({"distance": float(distance(F, args.x, args.y))})
    return 0


def cmd_farthest(args):
    F = _make_generator(args, len(args.x))
    C = _make_set(args, F)
    _emit(farthest(F, C, args.x).to_json())
    return 0


def cmd_center(args):
    dimension = args.points.shape[1] if args.points is not None else 2
    F = _make_generator(args, dimension)
    C = _make_set(args, F)
    polish = not args.no_polish
    code = 0

    def run(solver):
        nonlocal code
        try:
            if solver == "fixed":
                iters = args.max_iter if args.max_iter is not None else 200_000
                return solve_fixed_point(F, C, x0=args.x0, tol=args.tol,
                                         max_iter=iters, polish=polish)
            iters = args.max_iter if args.max_iter is not None else 3_000
            return solve_subgradient(F, C, x0=args.x0, tol=args.tol,
                                     max_iter=iters)
        except NonConvergence as exc:
            code = 3
            return exc.certificate

    if args.solver in ("fixed", "subgrad"):
        _emit(run(args.solver).to_json())
    else:
        cert_fp = run("fixed")
        cert_sg = run("subgrad")
        disagreement = float(np.linalg.norm(cert_fp.center - cert_sg.center))
        _emit({
            "fixed_point": cert_fp.to_json(),
            "subgradient": cert_sg.to_json(),
            "disagreement": disagreement,
        })
    return code


def cmd_oracle(args):
    gen_map = {
        "energy": closedform.Generator.EUCLIDEAN,
        "negentropy": closedform.Generator.KL,
        "neglog": closedform.Generator.ITAKURA_SAITO,
    }
    if args.gen not in gen_map:
        raise DomainError("oracle supports --gen energy|negentropy|neglog")
    generator = gen_map[args.gen]
    a = args.a
    out = {"a": a, "generator": generator.value}
    if generator is closedform.Generator.EUCLIDEAN:
        out["center"] = closedform.center_euclidean(a).tolist()
    elif generator is closedform.Generator.KL:
        out["center"] = closedform.center_kl(a).tolist()
    else:
        info = closedform.center_is(a)
        out["center"] = info.point.tolist()
        out["farthest_lambdas"] = list(info.farthest_lambdas)
        out["g"] = closedform.g_of(a)
        out["h"] = closedform.h_of(a)
        out["mu"] = list(closedform.mu_coefficients(a))
        out["threshold"] = closedform.threshold_a(1e-6)
    _emit(out)
    return 0


def _default_region(a):
    side = 10.0 if a <= 8.0 else 50.0
    return np.array([0.0, 0.0, side, side])


def cmd_colormap(args):
    F = _make_generator(args, 2)
    C = make_segment(F, args.segment, args.samples)
    region = args.region if args.region is not None else _default_region(args.segment)
    x0, y0, x1, y1 = region
    if not (x1 > x0 and y1 > y0):
        raise DomainError("degenerate region")
    n = args.res
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
    values = farthest_values(F, C, grid).reshape(n, n)

    out = Path(args.out)
    xs_txt = [_fmt(x) for x in xs.tolist()]
    ys_txt = [_fmt(y) for y in ys.tolist()]
    # F_C is never -inf, so "{:.17g}" formats each value as _fmt does
    lines = ["x,y,value"]
    for y_txt, row in zip(ys_txt, values.tolist()):
        lines += map(f"{{}},{y_txt},{{:.17g}}".format, xs_txt, row)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")

    if args.ppm:
        interior = F.in_interior(grid).reshape(n, n)
        _write_ppm(out.with_suffix(".ppm"), values, interior)
    return 0


def _write_ppm(path, values, interior):
    n = values.shape[0]
    shown = np.isfinite(values) & interior
    if np.any(shown):
        vmin = float(values[shown].min())
        vmax = float(values[shown].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    t = np.zeros(values.shape)
    if span != 0.0:
        t = (np.where(shown, values, vmin) - vmin) / span
    idx = np.minimum(255, (t * 256.0).astype(np.int64))
    rgb = np.zeros(values.shape + (3,), dtype=np.uint8)
    rgb[shown, 0] = idx[shown]
    rgb[shown, 2] = 255 - idx[shown]
    header = f"P6\n{n} {n}\n255\n".encode("ascii")
    path.write_bytes(header + rgb[::-1].tobytes())


def cmd_sphere(args):
    F = _make_generator(args, 2)
    z = args.center
    if not F.in_interior(z):
        raise DomainError("sphere center must lie in the interior of dom f")
    if args.radius < 0:
        raise DomainError("radius must be nonnegative")
    rows = _sphere_rows(F, z, args.radius, args.res)
    lines = ["theta,x,y,crossing"]
    for theta, pt, crossing in rows:
        if pt is None:
            lines.append(f"{_fmt(theta)},nan,nan,0")
        else:
            lines.append(f"{_fmt(theta)},{_fmt(pt[0])},{_fmt(pt[1])},{crossing}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _sphere_rows(F, z, r, res):
    """Boundary samples of {y : D(z, y) = r} along dual-space rays.

    Rays live in gradient coordinates: y(t) = grad f*(grad f(z) + t*u).
    Along a ray D(z, y(t)) = D_{f*}(grad f(z) + t*u, grad f(z)) (Bauschke
    and Borwein 1997) is convex in t with value and slope 0 at t = 0, so it
    increases strictly and every ray crosses the sphere exactly once.  A
    bracket [lo, hi] grows until D(z, y(hi)) >= r (rays with none give nan
    rows); Newton then runs from hi with slope <y(t) - z, u>, bisecting
    whenever a step would leave the bracket.  All rays advance together:
    each step evaluates one batch over the rays still in play.
    """
    thetas = [2.0 * math.pi * k / res for k in range(res)]
    if r == 0.0:
        return [(theta, z.copy(), 1) for theta in thetas]
    gz = F.grad(z)
    U = np.array([[math.cos(theta), math.sin(theta)] for theta in thetas]).reshape(-1, 2)
    eps = np.finfo(float).eps
    # |D - r| counts as rounding on the scale 1 + r plus the terms D is
    # computed from, f(z) - f(y) - <grad f(y), z - y> with f(y) near f(z)
    noise = 4.0 * eps * (1.0 + abs(float(F.f(z))) + r)

    def phi(t, u):  # D(z, y(t)) - r, its slope in t, and its rounding
        s = gz + t[:, None] * u
        y = F.grad_star(s)
        with np.errstate(invalid="ignore"):
            return (distance(F, z, y) - r, np.sum((y - z) * u, axis=-1),
                    noise + 4.0 * eps * np.sum(np.abs(s * (z - y)), axis=-1))

    # A ray without a bracket grows it: toward the edge of dom f* when the
    # ray leaves it, by doubling otherwise.  A bracketed ray takes a Newton
    # step.  From above the root, convexity keeps t - phi/phi' at or above
    # it, but where D ~ t^2 (near t = 0, so for tiny r) that step only
    # halves t; Newton on log D against log t, t (r/D)^(D/(t D')), is exact
    # for any power of t, so it is taken when it lands between lo and the
    # plain step.  A step that leaves [lo, hi] bisects instead.
    t_limit = _dual_ray_limit(F, gz, U)
    t = np.minimum(1.0, 0.5 * t_limit)
    lo, hi = np.zeros(res), np.full(res, np.inf)
    root = np.full(res, np.nan)
    active = np.arange(res)
    for _ in range(200):
        v, s, e = phi(t, U[active])
        above = v >= 0.0
        lo, hi = np.where(above, lo, t), np.where(above, t, hi)
        lim = t_limit[active]
        grown = np.where(np.isfinite(lim), 0.5 * (t + lim), 2.0 * t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = t - v / s
            t_log = t * np.exp(np.log(r / (v + r)) * (v + r) / (t * s))
        step = np.where((t_log > lo) & (t_log < step), t_log, step)
        bracketed = hi < np.inf
        done = bracketed & (((np.abs(v) <= e) & np.isfinite(v))
                            | (np.abs(t - step) <= 4.0 * eps * t))
        spent = bracketed & ~done & (hi - lo <= 4.0 * eps * hi)
        lost = ~bracketed & np.where(np.isfinite(lim), lim - grown < 1e-14 * lim, grown > 1e12)
        root[active[done]] = t[done]
        # a spent bracket takes its upper end, where D(z, y) >= r
        root[active[spent]] = hi[spent]
        keep = ~(done | spent | lost)
        active, t, lo, hi = active[keep], t[keep], lo[keep], hi[keep]
        if active.size == 0:
            break
        inside = (step[keep] > lo) & (step[keep] < hi)
        t = np.where(hi < np.inf, np.where(inside, step[keep], 0.5 * (lo + hi)), grown[keep])
    else:
        # out of steps: the upper end of each bracket, nan (inf) without one
        root[active] = hi

    # a point that grad f* under- or overflowed out of U is no sphere point
    ok = np.isfinite(root)
    points = np.full((res, 2), np.nan)
    points[ok] = F.grad_star(gz + root[ok, None] * U[ok])
    ok &= F.in_interior(points)
    return [(theta, points[k] if ok[k] else None, int(ok[k]))
            for k, theta in enumerate(thetas)]


def _dual_ray_limit(F, gz, U):
    """Per row u of U, the largest t with gz + t*u still inside int dom f*
    (inf if unbounded)."""
    if F.kind is not Kind.NEG_LOG:
        return np.full(len(U), np.inf)
    with np.errstate(divide="ignore"):
        return np.where(U > 0.0, -gz / U, np.inf).min(axis=1)


def cmd_repro(args):
    outcomes = repro.run_all(tol=args.tol)
    width = max(len(o.name) for o in outcomes)
    failures = 0
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        if not o.passed:
            failures += 1
        print(f"{status}  {o.name:<{width}}  {o.detail}")
    print(f"{len(outcomes)} checks, {failures} failures")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bregcheb",
        description="Bregman farthest distances and Chebyshev centers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen(p):
        p.add_argument("--gen", choices=GEN_CHOICES, required=True)
        p.add_argument("--matrix", type=_parse_matrix,
                       help="rows separated by ';', entries by ',' (quad only)")

    p = sub.add_parser("dist", help="Bregman distance between two points")
    add_gen(p)
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--y", type=_parse_vector, required=True)
    p.set_defaults(fn=cmd_dist)

    def add_set(p):
        p.add_argument("--points", type=_parse_points,
                       help="finite set: points separated by ';'")
        p.add_argument("--segment", type=float,
                       help="segment from (1,a) to (a,1) for the given a")
        p.add_argument("--samples", type=int, default=101)

    p = sub.add_parser("farthest", help="farthest distance and farthest points")
    add_gen(p)
    add_set(p)
    p.add_argument("--x", type=_parse_vector, required=True)
    p.set_defaults(fn=cmd_farthest)

    p = sub.add_parser("center", help="Chebyshev center with certificate")
    add_gen(p)
    add_set(p)
    p.add_argument("--solver", choices=("fixed", "subgrad", "both"), default="subgrad")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--x0", type=_parse_vector)
    p.add_argument("--no-polish", action="store_true",
                   help="fixed solver only: return the bare averaging iterate")
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("oracle", help="closed-form centers for the segment family")
    p.add_argument("--gen", choices=("energy", "negentropy", "neglog"), required=True)
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("colormap", help="grid of farthest-distance values")
    add_gen(p)
    p.add_argument("--segment", type=float, required=True)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--region", type=_parse_vector, help="x0,y0,x1,y1")
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--ppm", action="store_true", help="also write a P6 image")
    p.set_defaults(fn=cmd_colormap)

    p = sub.add_parser("sphere", help="boundary samples of a Bregman sphere")
    add_gen(p)
    p.add_argument("--center", type=_parse_vector, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sphere)

    p = sub.add_parser("repro", help="run the reproduction checks")
    p.add_argument("--tol", type=float, help="override center coordinate tolerances")
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

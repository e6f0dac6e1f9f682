"""The benchmark's workloads: inputs made from a seed, one pass of timed
operations, and an output check for every operation.

Each workload is a list of operations that is run round and round.  An
operation is either *primary* (the workload's main unit of work) or *aux*
(a second kind of work measured beside it):

=================  ==========================  ===========================
workload           primary operation           aux operation
=================  ==========================  ===========================
segment_family     one center solve            a batch of farthest queries
random_sets        one center solve            one hull projection
field_maps         one ``cli colormap`` call   one ``cli sphere`` call
=================  ==========================  ===========================

The library is called through module attributes at call time (never through
names bound here), so the wrappers of ``tracing`` see every call.
"""

import importlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from reference import RefGenerator, duality_gap, pythagoras_slack

bc = importlib.import_module("bregcheb")
center = importlib.import_module("bregcheb.center")
cli = importlib.import_module("bregcheb.cli")
closedform = importlib.import_module("bregcheb.closedform")
compactset = importlib.import_module("bregcheb.compactset")
farthest_mod = importlib.import_module("bregcheb.farthest")
legendre = importlib.import_module("bregcheb.legendre")
repro = importlib.import_module("bregcheb.repro")

# Center coordinates must match the closed forms within the repro
# tolerances: 1e-5 for Euclidean and KL, 1e-4 for Itakura-Saito.
SEGMENT_COORD_TOL = {"euclidean": 1e-5, "kl": 1e-5, "itakura_saito": 1e-4}
# Largest allowed duality gap F_C(z) - dual(mu) of a certified center,
# relative to 1 + F_C(z).  Gaps seen on these sets are at most a few 1e-8.
DUALITY_GAP_BOUND = 1e-6
# Fixed-point and subgradient centers of one set must agree this closely
# (the library's own solver-agreement test uses the same bound).
AGREEMENT_TOL = 1e-5
# repro's solver settings (repro._solve_both); the smoke test checks that
# these and fixed_point_tol still match what repro passes
FIXED_POINT_MAX_ITER = 100_000
SUBGRADIENT_MAX_ITER = 3_000
# random_sets draws its sets once from this pinned seed; --seed only jitters
# them (see build_random_sets for why).
LIBRARY_SEED = 20090813
JITTER_REL = 1e-6
# Generators solved at J=8.  A J=8 negentropy or neglog solve takes 0.4 to
# 1 s; with them a pass took 6.7 s, half of it in those four solves, so a
# run saw each operation only about six times.  J=8 energy still runs the
# exponential polish.
J8_KINDS = ("energy", "quadratic")


@dataclass
class Outcome:
    """Result of one operation's output check.

    ``status`` is "ok", "failed" (the library raised or reported an invalid
    certificate) or "wrong" (an output the library presented as valid
    failed its check).
    """

    status: str
    detail: str = ""
    iterations: dict = field(default_factory=dict)


@dataclass
class Op:
    cls: str                         # "primary" or "aux"
    label: str
    units: int                       # centers, queries, grid points or rays
    run: Callable[[], object]        # the timed call into the library
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list                        # one pass
    warmup: list                     # run during set-up, untimed for metrics
    layers: tuple                    # layers that must record calls when traced
    op_name: str                     # what one primary operation is
    names: tuple                     # printed names: primary rate, latency, aux rate


def _failed(result):
    if isinstance(result, BaseException):
        return Outcome("failed", f"{type(result).__name__}: {result}")
    return None


def _solver_iterations(result, solver):
    cert = result.certificate if isinstance(result, bc.NonConvergence) else result
    return {} if cert is None or isinstance(cert, BaseException) else {solver: cert.iterations}


def fixed_point_tol(F, C):
    """repro's setting: stop the averaging once its dual step is about
    1/20000 of the dual spread, and let the refinement finish."""
    G = F.grad(C.enumerate())
    spread = float(np.linalg.norm(G - G.mean(axis=0), axis=1).max())
    return max(1e-4, 2.0 * spread / 20_000.0)


# -- segment_family ---------------------------------------------------------

def _segment_check(gen, a, points, solver):
    expected = closedform.CaseConfig(a, closedform.Generator(gen)).center()
    lambdas = (closedform.center_is(a).farthest_lambdas if gen == "itakura_saito"
               else (0.0, 1.0))
    c0, c1 = points[0], points[-1]
    want = [(1.0 - lam) * c0 + lam * c1 for lam in lambdas]

    def check(result):
        iters = _solver_iterations(result, solver)
        bad = _failed(result)
        if bad is not None:
            bad.iterations = iters
            return bad
        if not result.valid:
            return Outcome("failed", f"{gen} a={a:g}: invalid certificate, "
                           f"gap {result.membership_gap:.2e}", iters)
        err = float(np.abs(result.center - expected).max())
        if err > SEGMENT_COORD_TOL[gen]:
            return Outcome("wrong", f"{gen} a={a:g} {solver}: center error {err:.2e}", iters)
        got = np.asarray(result.farthest)
        for w in want:
            if got.size == 0 or np.abs(got - w).max(axis=1).min() > 1e-3:
                return Outcome("wrong", f"{gen} a={a:g} {solver}: farthest point "
                               f"{w.tolist()} missing", iters)
        if gen == "itakura_saito" and len(got) != len(want):
            return Outcome("wrong", f"{gen} a={a:g} {solver}: {len(got)} farthest "
                           f"points, expected {len(want)}", iters)
        return Outcome("ok", iterations=iters)

    return check


def _segment_queries(rng, gen, a, n):
    """Query points whose farthest set the closed form predicts, kept away
    from the switches so sampled ties cannot blur the answer."""
    if gen == "itakura_saito":
        g = closedform.g_of(a)
        below = rng.uniform(0.3 * g, 0.75 * g, size=n // 2)
        above = rng.uniform(1.3 * g, 3.0 * g, size=n - n // 2)
        t = np.concatenate([below, above])
        return np.stack([t, t], axis=1)
    lo, hi = 0.5, a + 1.0
    x1 = rng.uniform(lo, hi, size=n)
    d = rng.uniform(0.05, 0.5, size=n) * (a - 1.0) * rng.choice([-1.0, 1.0], size=n)
    # |d| is under half the interval, so one of x1 +- d always fits
    x2 = np.where((x1 + d >= lo) & (x1 + d <= hi), x1 + d, x1 - d)
    return np.stack([x1, x2], axis=1)


def _query_check(gen, a, points, X):
    ref = RefGenerator({"euclidean": "energy", "kl": "negentropy",
                        "itakura_saito": "neglog"}[gen])
    c0, c1 = points[0], points[-1]
    expected = []
    for x in X:
        lambdas = closedform.farthest_structure(closedform.Generator(gen), a, x).lambdas
        expected.append(np.array([(1.0 - lam) * c0 + lam * c1 for lam in lambdas]))

    def check(result):
        bad = _failed(result)
        if bad is not None:
            return bad
        for x, want, res in zip(X, expected, result):
            got = np.asarray(res.argmax)
            if got.shape != want.shape or np.abs(got - want).max() > 1e-12:
                return Outcome("wrong", f"{gen} a={a:g} x={x.tolist()}: farthest "
                               f"{got.tolist()}, closed form {want.tolist()}")
            ref_val = float(ref.distance(x, want[0]))
            if abs(res.value - ref_val) > 1e-9 * (1.0 + abs(ref_val)):
                return Outcome("wrong", f"{gen} a={a:g} x={x.tolist()}: value "
                               f"{res.value!r}, reference {ref_val!r}")
        return Outcome("ok")

    return check


def build_segment_family(seed, smoke=False, scratch=None):
    """The paper's 12 closed-form cases, each solved by both solvers at the
    repro settings, plus seeded farthest-point queries per case.  The cases
    are fixed by the paper; the seed draws the queries."""
    rng = np.random.default_rng(seed)
    cases = [(g, a) for g in ("euclidean", "kl", "itakura_saito") for a in repro.A_VALUES]
    n_queries = 400
    if smoke:
        cases, n_queries = cases[:1], 20
    ops = []
    for gen, a in cases:
        F = closedform.CaseConfig(a, closedform.Generator(gen)).legendre()
        C = compactset.make_segment(F, a, repro.SEGMENT_SAMPLES)
        points = np.array(C.enumerate())
        tol = fixed_point_tol(F, C)
        X = _segment_queries(rng, gen, a, n_queries)
        ops.append(Op("primary", f"{gen} a={a:g} fixed_point", 1,
                      lambda F=F, C=C, tol=tol: center.solve_fixed_point(
                          F, C, tol=tol, max_iter=FIXED_POINT_MAX_ITER),
                      _segment_check(gen, a, points, "fixed_point")))
        ops.append(Op("primary", f"{gen} a={a:g} subgradient", 1,
                      lambda F=F, C=C: center.solve_subgradient(
                          F, C, max_iter=SUBGRADIENT_MAX_ITER),
                      _segment_check(gen, a, points, "subgradient")))
        ops.append(Op("aux", f"{gen} a={a:g} farthest x{len(X)}", len(X),
                      lambda F=F, C=C, X=X: [farthest_mod.farthest(F, C, x) for x in X],
                      _query_check(gen, a, points, X)))
    return Workload("segment_family", ops, ops[:3],
                    ("legendre", "compactset", "bregman", "farthest", "simplex", "center"),
                    "center", ("centers_per_s", "center_ms", "farthest_queries_per_s"))


# -- random_sets ------------------------------------------------------------

def _library_sets():
    """Clustered finite sets, 2J points each: the four generators at J=3
    and J=5, and J8_KINDS at J=8, drawn from the pinned library seed."""
    rng = np.random.default_rng(LIBRARY_SEED)
    sets = []
    for J in (3, 5, 8):
        R = rng.normal(size=(J, J))
        matrix = R @ R.T / J + np.eye(J)
        for kind in ("energy", "quadratic", "negentropy", "neglog"):
            orthant = kind in ("negentropy", "neglog")
            base = rng.uniform(0.8, 2.5, J) if orthant else rng.uniform(-1.5, 1.5, J)
            points = base + rng.uniform(-0.15, 0.15, size=(2 * J, J))
            directions = rng.normal(size=(8, J))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            exterior = base + 0.6 * directions
            if J < 8 or kind in J8_KINDS:
                sets.append((J, kind, matrix if kind == "quadratic" else None, points,
                             exterior))
    return sets


def _center_check(ref, points, solver, label, pair):
    def check(result):
        iters = _solver_iterations(result, solver)
        pair[solver] = None
        bad = _failed(result)
        if bad is not None:
            bad.iterations = iters
            return bad
        if not result.valid:
            return Outcome("failed", f"{label} {solver}: invalid certificate, membership "
                           f"gap {result.membership_gap:.2e} > {result.gap_tol:.1e}", iters)
        scale = 1.0 + abs(ref.farthest_value(result.center, points))
        gap = duality_gap(ref, points, result.center, result.farthest, result.weights)
        if not gap <= DUALITY_GAP_BOUND * scale:
            return Outcome("wrong", f"{label} {solver}: duality gap {gap:.2e}", iters)
        pair[solver] = result.center
        other = pair.get("fixed_point")
        if solver == "subgradient" and other is not None:
            dist = float(np.linalg.norm(other - result.center))
            if dist > AGREEMENT_TOL:
                return Outcome("wrong", f"{label}: solvers disagree by {dist:.2e}", iters)
        return Outcome("ok", iterations=iters)

    return check


def _projection_check(ref, points, x, label):
    slack = bc.DEFAULT.pythagoras_slack

    def check(result):
        bad = _failed(result)
        if bad is not None:
            return bad
        worst = pythagoras_slack(ref, points, x, result.point)
        if not worst >= -slack:
            return Outcome("wrong", f"{label}: D(x,c) - D(x,y) - D(y,c) = {worst:.2e}")
        return Outcome("ok")

    return check


def build_random_sets(seed, smoke=False, scratch=None):
    """Clustered finite sets solved by both solvers, and hull projections of
    exterior points onto the 6-point (J=3) sets.

    The sets come from a pinned library and ``seed`` moves every point by
    at most JITTER_REL of the cluster half-width.  Solve cost depends
    strongly on a set's geometry (the polish enumerates subsets), so
    independent draws per seed ran one pass at 1.7 to 4.8 centers/s across
    20 seeds, which a run cannot average out; a jitter of 1e-3 still moved
    single solves by up to 35% at equal iteration counts.  A failed solve
    (NonConvergence or an invalid certificate) is kept and counted.
    """
    rng = np.random.default_rng(seed)
    library = _library_sets()
    if smoke:
        library = library[:1]
    ops = []
    for J, kind, matrix, base_points, base_exterior in library:
        points = base_points + JITTER_REL * 0.15 * rng.uniform(-1.0, 1.0, base_points.shape)
        exterior = base_exterior + JITTER_REL * 0.15 * rng.uniform(-1.0, 1.0, base_exterior.shape)
        F = legendre.quadratic(matrix) if kind == "quadratic" else legendre.LegendreFunction(kind, J)
        C = compactset.CompactSet.finite(points)
        compactset.validate(C, F)
        ref = RefGenerator(kind, matrix)
        tol = fixed_point_tol(F, C)
        label = f"J={J} {kind}"
        pair = {}
        ops.append(Op("primary", f"{label} fixed_point", 1,
                      lambda F=F, C=C, tol=tol: center.solve_fixed_point(
                          F, C, tol=tol, max_iter=FIXED_POINT_MAX_ITER),
                      _center_check(ref, points, "fixed_point", label, pair)))
        ops.append(Op("primary", f"{label} subgradient", 1,
                      lambda F=F, C=C: center.solve_subgradient(
                          F, C, max_iter=SUBGRADIENT_MAX_ITER),
                      _center_check(ref, points, "subgradient", label, pair)))
        if J == 3:
            for k, x in enumerate(exterior[:1] if smoke else exterior):
                ops.append(Op("aux", f"{label} projection {k}", 1,
                              lambda F=F, C=C, x=x: center.dual_hull_projection(F, C, x),
                              _projection_check(ref, points, x, f"{label} projection {k}")))
    warmup = [op for op in ops if op.cls == "primary"][:2] + [op for op in ops if op.cls == "aux"][:1]
    return Workload("random_sets", ops, warmup,
                    ("legendre", "compactset", "bregman", "farthest", "simplex", "center"),
                    "center", ("centers_per_s", "center_ms", "projections_per_s"))


# -- field_maps -------------------------------------------------------------

def _colormap_check(ref, points, path, res, region, sample, label):
    def check(result):
        bad = _failed(result)
        if bad is not None:
            return bad
        if result != 0:
            return Outcome("failed", f"{label}: exit code {result}")
        lines = Path(path).read_text(encoding="ascii").splitlines()
        if lines[0] != "x,y,value" or len(lines) != res * res + 1:
            return Outcome("wrong", f"{label}: {len(lines)} lines, expected {res * res + 1}")
        xs = np.linspace(region[0], region[2], res)
        ys = np.linspace(region[1], region[3], res)
        for i in sample:
            x_txt, y_txt, v_txt = lines[1 + i].split(",")
            x = np.array([xs[i % res], ys[i // res]])
            if float(x_txt) != x[0] or float(y_txt) != x[1]:
                return Outcome("wrong", f"{label}: row {i} at ({x_txt}, {y_txt}), "
                               f"expected {x.tolist()}")
            want = ref.farthest_value(x, points)
            got = float(v_txt)
            if np.isinf(want) or np.isinf(got):
                ok = got == want
            else:
                ok = abs(got - want) <= 1e-8 * (1.0 + abs(want))
            if not ok:
                return Outcome("wrong", f"{label}: F_C{x.tolist()} = {got!r}, "
                               f"reference {want!r}")
        return Outcome("ok")

    return check


def _sphere_check(ref, z, radius, path, rays, label):
    def check(result):
        bad = _failed(result)
        if bad is not None:
            return bad
        if result != 0:
            return Outcome("failed", f"{label}: exit code {result}")
        lines = Path(path).read_text(encoding="ascii").splitlines()
        seen = set()
        gz = ref.grad(z)
        for line in lines[1:]:
            theta_txt, x_txt, y_txt, _ = line.split(",")
            theta = float(theta_txt)
            seen.add(theta_txt)
            if x_txt == "nan":
                return Outcome("failed", f"{label}: no crossing found at theta={theta_txt}")
            y = np.array([float(x_txt), float(y_txt)])
            dist = float(ref.distance(z, y))
            if abs(dist - radius) > 1e-6 * (1.0 + radius):
                return Outcome("wrong", f"{label}: D(z, y) = {dist!r} at theta={theta_txt}")
            step = ref.grad(y) - gz
            u = np.array([np.cos(theta), np.sin(theta)])
            norm = float(np.linalg.norm(step))
            if norm == 0.0 or abs(step[0] * u[1] - step[1] * u[0]) > 1e-6 * norm or step @ u <= 0:
                return Outcome("wrong", f"{label}: point off its dual ray at theta={theta_txt}")
        if len(seen) != rays:
            return Outcome("wrong", f"{label}: {len(seen)} rays in output, expected {rays}")
        return Outcome("ok")

    return check


def _field_ops(gen, a, samples, res, rays, region, z, radius, sample, scratch, tag=""):
    """One ``cli colormap`` and one ``cli sphere`` operation for ``gen``."""
    ref = RefGenerator(gen)
    lam = np.linspace(0.0, 1.0, samples)[:, None]
    points = (1.0 - lam) * np.array([1.0, a]) + lam * np.array([a, 1.0])
    csv = scratch / f"colormap_{gen}{tag}.csv"
    argv = ["colormap", "--gen", gen, "--segment", repr(a), "--samples", str(samples),
            "--res", str(res), "--region=" + ",".join(repr(float(v)) for v in region),
            "--out", str(csv)]
    label = f"colormap {gen}{tag}"
    colormap = Op("primary", label, res * res, lambda argv=argv: cli.main(argv),
                  _colormap_check(ref, points, csv, res, region, sample, label))
    out = scratch / f"sphere_{gen}{tag}.csv"
    # "=" keeps a negative first coordinate from reading as an option
    argv = ["sphere", "--gen", gen, "--center=" + ",".join(repr(float(v)) for v in z),
            "--radius", repr(radius), "--res", str(rays), "--out", str(out)]
    label = f"sphere {gen}{tag}"
    sphere = Op("aux", label, rays, lambda argv=argv: cli.main(argv),
                _sphere_check(ref, z, radius, out, rays, label))
    return [colormap, sphere]


def build_field_maps(seed, smoke=False, scratch=None):
    """``cli colormap`` (a=32, 101 samples, resolution 256) and ``cli sphere``
    for three generators, run in-process through ``bregcheb.cli.main``.
    The seed draws the colormap region, the sphere center and its radius.
    The warm-up runs both commands once at a fixed small size (16 x 16 grid,
    4 rays), so the set-up time does not grow with the timed work."""
    rng = np.random.default_rng(seed)
    res, samples, rays, a = 256, 101, 32, 32.0
    gens = ("energy", "negentropy", "neglog")
    if smoke:
        res, rays, gens = 16, 8, gens[:1]
    ops = []
    for gen in gens:
        x0, y0 = rng.uniform(0.5, 2.0, size=2)
        side = rng.uniform(40.0, 50.0)
        region = (x0, y0, x0 + side, y0 + side)
        sample = rng.choice(res * res, size=min(256, res * res), replace=False)
        if gen == "energy":
            z = rng.uniform(-2.0, 2.0, size=2)
        else:
            z = rng.uniform(0.5, 3.0, size=2)
        radius = float(rng.uniform(0.5, 2.0))
        ops += _field_ops(gen, a, samples, res, rays, region, z, radius, sample, scratch)
        if gen == gens[0]:
            warmup = _field_ops(gen, a, samples, 16, 4, region, z, radius, np.arange(0, 256, 15),
                                scratch, tag="-warmup")
    return Workload("field_maps", ops, warmup,
                    ("legendre", "compactset", "bregman", "farthest", "cli"),
                    "colormap", ("grid_points_per_s", "colormap_ms", "rays_per_s"))


WORKLOADS = {
    "segment_family": build_segment_family,
    "random_sets": build_random_sets,
    "field_maps": build_field_maps,
}

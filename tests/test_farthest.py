import importlib
import math
import sys

import numpy as np
import pytest

import bregcheb as bc
from bregcheb import bregman
from bregcheb.errors import DomainError

from helpers import (all_generators, domain_box, orthant_domain, random_finite_set,
                     random_generator, sample_interior)


@pytest.fixture
def energy_segment4():
    F = bc.energy(2)
    return F, bc.make_segment(F, 4.0, 5)


def test_farthest_tie_at_origin(energy_segment4):
    F, C = energy_segment4
    res = bc.farthest(F, C, [0.0, 0.0])
    assert res.value == 8.5
    assert np.allclose(res.argmax, [[1.0, 4.0], [4.0, 1.0]])
    assert res.witness_indices == [0, 4]


def test_farthest_orientation(energy_segment4):
    F, C = energy_segment4
    res = bc.farthest(F, C, [1.0, 0.0])
    # x2 < x1 picks the endpoint above the diagonal
    assert np.allclose(res.argmax, [[1.0, 4.0]])
    res2 = bc.farthest(F, C, [0.0, 1.0])
    assert np.allclose(res2.argmax, [[4.0, 1.0]])


def test_farthest_singleton_set():
    for F in all_generators():
        c = np.array([1.5, 2.0])
        C = bc.CompactSet.finite([c])
        res = bc.farthest(F, C, c)
        assert res.value == 0.0
        assert np.allclose(res.argmax, [c])


def test_farthest_outside_domain_empty_argmax():
    F = bc.negentropy(2)
    C = bc.CompactSet.finite([[1.0, 1.0]])
    res = bc.farthest(F, C, [-1.0, 1.0])
    assert res.value == math.inf
    assert len(res.argmax) == 0
    assert res.to_json()["value"] == "inf"


def test_farthest_computed_on_negentropy_boundary():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 5)
    res = bc.farthest(F, C, [0.0, 1.0])
    assert np.isfinite(res.value) and len(res.argmax) >= 1


def test_directional_derivative_hand_value(energy_segment4):
    F, C = energy_segment4
    val = bc.directional_derivative(F, C, [3.0, 3.0], [1.0, -1.0])
    assert val == 3.0
    assert bc.directional_derivative(F, C, [3.0, 3.0], [0.0, 0.0]) == 0.0


def test_directional_derivative_boundary_clause():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 5)
    assert bc.directional_derivative(F, C, [0.0, 1.0], [1.0, 0.0]) == -math.inf
    with pytest.raises(NotImplementedError):
        bc.directional_derivative(F, C, [0.0, 1.0], [-1.0, 0.0])
    with pytest.raises(DomainError):
        bc.directional_derivative(F, C, [-1.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_directional_derivative_matches_quotient(F):
    a = 4.0
    C = bc.make_segment(F, a, 21)
    rng = np.random.default_rng(55)
    t = 1e-6
    for _ in range(60):
        x = rng.uniform(0.5, 6.0, size=2) if orthant_domain(F) else rng.uniform(-4, 6, size=2)
        h = rng.normal(size=2)
        want = bc.directional_derivative(F, C, x, h)
        quot = (bc.farthest_values(F, C, x + t * h)[0] - bc.farthest_values(F, C, x)[0]) / t
        assert abs(want - quot) <= 1e-4


def test_subdifferential_vertices(energy_segment4):
    F, C = energy_segment4
    verts = bc.subdifferential(F, C, [3.0, 3.0])
    assert sorted(map(tuple, verts.tolist())) == [(-1.0, 2.0), (2.0, -1.0)]
    # singleton farthest set gives a plain gradient
    c = np.array([0.25, 0.5])
    single = bc.CompactSet.finite([c])
    v = bc.subdifferential(F, single, [2.0, 2.0])
    assert np.allclose(v, [np.array([2.0, 2.0]) - c])


def test_subdifferential_contains_zero_at_center(energy_segment4):
    F, C = energy_segment4
    verts = bc.subdifferential(F, C, [2.5, 2.5])
    assert np.allclose(sorted(map(tuple, verts.tolist())), [(-1.5, 1.5), (1.5, -1.5)])
    from bregcheb.simplex import lsq_simplex_weights

    _, norm = lsq_simplex_weights(verts, 0)
    assert norm <= 1e-12


def test_subdifferential_requires_interior():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 5)
    with pytest.raises(DomainError):
        bc.subdifferential(F, C, [0.0, 1.0])


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_gradient_consistency_where_singleton(F):
    # where the farthest set is a singleton the subdifferential vector is a
    # true gradient and must match central differences of the value sweep
    C = bc.make_segment(F, 4.0, 21)
    rng = np.random.default_rng(77)
    checked = 0
    h = 1e-6
    while checked < 40:
        x = rng.uniform(0.5, 6.0, size=2) if orthant_domain(F) else rng.uniform(-4, 6, size=2)
        verts = bc.subdifferential(F, C, x)
        if len(verts) != 1:
            continue
        g = verts[0]
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (bc.farthest_values(F, C, x + e)[0] - bc.farthest_values(F, C, x - e)[0]) / (2 * h)
            assert abs(fd - g[j]) <= 1e-5 * max(1.0, abs(g[j]))
        checked += 1


def test_monotonicity_hand_value(energy_segment4):
    F, C = energy_segment4
    assert bc.monotonicity_witness(F, C, [3.0, 3.0], [3.0, 3.0]) == 0.0
    assert bc.monotonicity_witness(F, C, [3.0, 2.0], [2.0, 3.0]) == 6.0


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_monotonicity_sweep(F):
    C = bc.make_segment(F, 4.0, 21)
    rng = np.random.default_rng(99)
    for _ in range(250):
        if orthant_domain(F):
            x, y = rng.uniform(0.3, 7.0, size=(2, 2))
        else:
            x, y = rng.uniform(-5.0, 7.0, size=(2, 2))
        assert bc.monotonicity_witness(F, C, x, y) >= -1e-9


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_value_convex_along_segments(F):
    C = bc.make_segment(F, 4.0, 21)
    rng = np.random.default_rng(17)
    X0 = sample_interior(F, rng, 200)
    X1 = sample_interior(F, rng, 200)
    mid = 0.5 * (X0 + X1)
    v_mid = bc.farthest_values(F, C, mid)
    v_avg = 0.5 * (bc.farthest_values(F, C, X0) + bc.farthest_values(F, C, X1))
    assert np.all(v_mid <= v_avg + 1e-9)


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_coercive_along_rays(F):
    C = bc.make_segment(F, 4.0, 9)
    base = np.array([2.0, 3.0])
    direction = np.array([1.0, 0.5]) if orthant_domain(F) else np.array([-1.0, 2.0])
    scales = [1.0, 4.0, 16.0, 64.0, 256.0]
    vals = [bc.farthest_values(F, C, base + s * direction)[0] for s in scales]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 100.0


def test_hull_blindness_for_convex_kinds():
    # interior samples never beat the endpoints when D(x, .) is convex
    for generator, a in ((bc.Generator.EUCLIDEAN, 4.0), (bc.Generator.KL, 4.0)):
        cfg = bc.CaseConfig(a, generator)
        F, C = cfg.legendre(), cfg.segment(41)
        xs = np.linspace(0.0, 10.0, 40)
        grid = np.array([[x, y] for y in xs for x in xs])
        D = bc.distance_matrix(F, grid, C.enumerate())
        endpoint_max = np.maximum(D[:, 0], D[:, -1])
        interior_max = D[:, 1:-1].max(axis=1)
        assert np.all(interior_max <= endpoint_max + 1e-10)


def test_hull_blindness_fails_for_itakura_saito():
    cfg = bc.CaseConfig(32.0, bc.Generator.ITAKURA_SAITO)
    F, C = cfg.legendre(), cfg.segment(41)
    x = np.array([1.0, 1.0])
    D = bc.distance_matrix(F, x[None, :], C.enumerate())[0]
    assert D[1:-1].max() > max(D[0], D[-1]) + 1e-6


def test_random_finite_sets_monotone():
    rng = np.random.default_rng(123)
    for F in all_generators():
        for _ in range(5):
            C = random_finite_set(F, rng)
            for _ in range(20):
                x, y = sample_interior(F, rng, 2)
                assert bc.monotonicity_witness(F, C, x, y) >= -1e-9


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_farthest_values_blocks_match_one_matrix(F):
    # 2000 points give blocks of 2**19 // 2000 = 262 rows, so 1000 query
    # rows span four blocks, the last one partial
    rng = np.random.default_rng(17)
    C = random_finite_set(F, rng, n_points=2000, spread=0.5)
    X = rng.uniform(-1.0, 4.0, size=(1000, 2))
    got = bc.farthest_values(F, C, X)
    want = np.max(bc.distance_matrix(F, X, C.enumerate()), axis=1)
    assert np.array_equal(got, want)
    if orthant_domain(F):
        assert np.isinf(got).sum() > 100    # rows outside dom f
        assert np.array_equal(np.isinf(got), ~F.in_domain(X))


def _grid(region, n):
    xs = np.linspace(region[0], region[2], n)
    ys = np.linspace(region[1], region[3], n)
    return np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])


def _full_max(F, C, X):
    return np.max(bc.distance_matrix(F, X, C.enumerate()), axis=1)


_SWEEP_REGIONS = [
    (0.0, 0.0, 50.0, 50.0),         # negentropy: every sample ties at (0, 0)
    (-1.0, -2.0, 3.0, 4.0),         # partly outside the orthant
    (0.0, 0.0, 10.0, 10.0),
    (1.2, 0.8, 46.2, 45.8),
    (-5.0, -5.0, 5.0, 5.0),
    (30.0, 0.0, 80.0, 50.0),
    (2.0, 2.0, 2.001, 2.001),
    (0.001, 0.5, 0.002, 60.0),
]


@pytest.mark.parametrize("gen", ["energy", "negentropy", "neglog"])
def test_farthest_values_grids_match_one_matrix(gen):
    # J = 2: pruning drops only samples that cannot be the computed max, and
    # every leaf product is a gemm with at least two rows and two columns,
    # so each value is the same float as the full row max
    F = getattr(bc, gen)(2)
    for a in (4.0, 8.0, 32.0):
        for samples in (3, 21, 101):
            C = bc.make_segment(F, a, samples)
            for region in _SWEEP_REGIONS:
                for n in (2, 16, 40):
                    X = _grid(region, n)
                    assert np.array_equal(bc.farthest_values(F, C, X), _full_max(F, C, X)), \
                        (a, samples, region, n)


@pytest.mark.parametrize("gen, region, samples", [
    ("negentropy", (0.0, 0.0, 50.0, 50.0), 101),
    ("neglog", (-1.0, -2.0, 3.0, 4.0), 5),
    ("neglog", (-1.0, -2.0, 3.0, 4.0), 21),
    ("neglog", (1.2, 0.8, 46.2, 45.8), 101),
])
def test_farthest_values_full_size_grids_match_one_matrix(gen, region, samples):
    F = getattr(bc, gen)(2)
    C = bc.make_segment(F, 32.0, samples)
    X = _grid(region, 256)
    assert np.array_equal(bc.farthest_values(F, C, X), _full_max(F, C, X))


@pytest.mark.parametrize("J", [3, 5, 8, 20])
@pytest.mark.parametrize("kind", ["energy", "quadratic", "negentropy", "neglog"])
def test_farthest_values_higher_dimensions_within_4_ulps(J, kind):
    # for J >= 3 gemm's blocking depends on the product's shape, so a pruned
    # leaf may round a value differently by a few ulps
    rng = np.random.default_rng(1000 * J + len(kind))
    F = random_generator(kind, J, rng)
    C = random_finite_set(F, rng, n_points=40, spread=1.0)
    lo, hi = domain_box(kind)
    X = rng.uniform(lo, hi, size=(1500, J))
    X[::7] -= 5.0                   # some rows outside an orthant domain
    got = bc.farthest_values(F, C, X)
    want = _full_max(F, C, X)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    ok = np.isfinite(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 4 * np.finfo(float).eps * np.abs(want[ok]))


def test_farthest_values_edge_cases():
    rng = np.random.default_rng(3)
    for F in all_generators():
        C = bc.make_segment(F, 32.0, 101)
        for x in sample_interior(F, rng, 40):
            one = x[None, :]                # one query row: a gemv on both sides
            assert np.array_equal(bc.farthest_values(F, C, one), _full_max(F, C, one))
        single = bc.CompactSet.finite([[1.5, 2.5]])
        X = _grid((0.5, 0.5, 40.0, 40.0), 40)
        assert np.array_equal(bc.farthest_values(F, single, X), _full_max(F, single, X))
        P = C.enumerate()
        dup = bc.CompactSet.finite(rng.permutation(np.vstack([P, P[::3], P[:1]])))
        assert np.array_equal(bc.farthest_values(F, dup, X), _full_max(F, dup, X))
        if orthant_domain(F):
            outside = _grid((-3.0, -3.0, -1.0, 5.0), 40)
            assert np.all(bc.farthest_values(F, C, outside) == np.inf)


def test_farthest_values_near_duplicate_points():
    # clusters of points a few ulps apart: a sample is dropped only when it
    # loses by more than the rounding of the computed distances
    rng = np.random.default_rng(0)
    X = _grid((0.5, 0.5, 40.0, 40.0), 40)
    for _ in range(20):
        for F in (bc.energy(2), bc.negentropy(2), bc.neglog(2)):
            base = np.repeat(rng.uniform(0.5, 20.0, size=(4, 2)), 8, axis=0)
            P = base * (1.0 + rng.integers(-4, 5, size=base.shape) * np.finfo(float).eps)
            C = bc.CompactSet.finite(P)
            assert np.array_equal(bc.farthest_values(F, C, X), _full_max(F, C, X))


def test_farthest_values_points_on_a_circle():
    # under energy every point of a circle is farthest from some query point
    F = bc.energy(2)
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    C = bc.CompactSet.finite(5.0 * np.column_stack([np.cos(theta), np.sin(theta)]))
    X = _grid((-20.0, -20.0, 20.0, 20.0), 64)
    D = bc.distance_matrix(F, X, C.enumerate())
    assert len(np.unique(np.argmax(D, axis=1))) == 64
    assert np.array_equal(bc.farthest_values(F, C, X), np.max(D, axis=1))


@pytest.fixture
def scored_cells(monkeypatch):
    """Cell counts of the ``distance_matrix`` calls ``farthest_values`` makes."""
    module = importlib.import_module("bregcheb.farthest")
    cells = []

    def counting(F, X, C, fX=None):
        cells.append(len(X) * len(C.K))
        return bregman.distance_matrix(F, X, C, fX=fX)

    monkeypatch.setattr(module, "distance_matrix", counting)
    return cells


@pytest.mark.parametrize("gen", ["energy", "negentropy", "neglog"])
def test_farthest_values_huge_regions(gen, scored_cells):
    F = getattr(bc, gen)(2)
    C = bc.make_segment(F, 32.0, 21)
    for region, pruned in (((1e307, 1e307, 1e308, 1e308), True),
                           # max|x| max|G|_1 overflows: the rounding bound is
                           # inf and nothing is dropped
                           ((1e308, 1e308, 1.75e308, 1.75e308), False)):
        X = _grid(region, 40)
        scored_cells.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            got = bc.farthest_values(F, C, X)
            want = _full_max(F, C, X)
        assert np.array_equal(got, want)
        if gen == "neglog":
            assert np.any(np.isfinite(got))
            assert (sum(scored_cells) < len(X) * 21) == pruned
        else:               # f overflows, so every row is +inf
            assert np.all(got == np.inf) and not scored_cells


def test_farthest_values_scores_few_cells(scored_cells):
    # the bench-size neglog map: 6.62M cells without pruning
    F = bc.neglog(2)
    C = bc.make_segment(F, 32.0, 101)
    X = _grid((1.2, 0.8, 46.2, 45.8), 256)
    bc.farthest_values(F, C, X)
    assert 0 < sum(scored_cells) < 0.05 * len(X) * 101


def _one_row(F, x, pts):
    """One ``distance_matrix`` row of a single query, written out."""
    X = x[None, :]
    G = F.grad(pts)
    K = np.sum(G * pts, axis=-1) - F.f(pts)
    fX = np.atleast_1d(F.f(X))
    row = fX[:, None] - X @ G.T + K[None, :]
    row[~np.isfinite(fX)] = np.inf
    return row[0]


def _query_generators(J, rng):
    A, B = rng.normal(size=(2, J, J))
    return [bc.energy(J), bc.quadratic(A @ A.T + 0.3 * np.eye(J)),
            bc.quadratic(B @ B.T / J + np.eye(J)), bc.negentropy(J), bc.neglog(J)]


@pytest.mark.parametrize("J", [2, 3, 8, 20])
def test_farthest_is_one_distance_matrix_row(J):
    rng = np.random.default_rng(J)
    tol = bc.DEFAULT
    for F in _query_generators(J, rng):
        lo, hi = domain_box(F.kind.value)
        for m in (1, 2, 7, 41):
            P = rng.uniform(lo, hi, size=(m, J))
            if m > 2:
                P[m - 1] = P[0]
            C = bc.CompactSet.finite(P)
            X = rng.uniform(lo - 1.0, hi + 1.0, size=(30, J))
            if orthant_domain(F):
                X[:10, 0] = -X[:10, 0]          # outside dom f
            for x in X:
                row = _one_row(F, x, P)
                res = bc.farthest(F, C, x)
                assert res.value == np.max(row)
                if not F.in_domain(x):
                    assert res.value == np.inf and res.witness_indices == []
                    continue
                cut = res.value * (1.0 - tol.argmax_rel) - tol.argmax_abs
                idx = np.nonzero(row >= cut)[0].tolist()
                assert res.witness_indices == idx
                assert np.array_equal(res.argmax, P[idx])
            # the cache holds this generator's dual form
            assert np.array_equal(C.dual_data(F).G, F.grad(P))


def test_farthest_alternating_generators_on_one_set():
    rng = np.random.default_rng(5)
    J = 3
    F1, F2 = _query_generators(J, rng)[1:3]
    P = rng.uniform(-3.0, 3.0, size=(12, J))
    C = bc.CompactSet.finite(P)
    X = rng.uniform(-4.0, 4.0, size=(20, J))
    # an equal generator built separately reuses the cached form
    F1_copy = bc.quadratic(F1.quad_matrix)
    for x in X:
        for F in (F1, F2, F1_copy, bc.energy(J)):
            fresh = bc.farthest(F, bc.CompactSet.finite(P), x)
            res = bc.farthest(F, C, x)
            assert res.value == fresh.value
            assert res.witness_indices == fresh.witness_indices
    G1 = C.dual_data(F1).G
    assert C.dual_data(F1_copy).G is G1
    assert not np.array_equal(C.dual_data(F2).G, G1)


def test_farthest_computes_the_dual_form_once(monkeypatch):
    F = bc.neglog(2)
    C = bc.make_segment(F, 8.0, 41)
    pts = C.enumerate()
    shapes = []
    grad = F.grad

    def counting(x):
        shapes.append(np.shape(x))
        return grad(x)

    monkeypatch.setattr(F, "grad", counting)
    X = np.random.default_rng(3).uniform(0.5, 9.0, size=(400, 2))
    values = [bc.farthest(F, C, x).value for x in X]
    assert shapes == [pts.shape]
    assert np.array_equal(values, [np.max(_one_row(F, x, pts)) for x in X])


def _count_calls(monkeypatch, fn):
    """Count calls to ``fn`` through every ``bregcheb`` binding of it, the
    way the benchmark's tracer wraps the library's public functions."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bregcheb" or name.startswith("bregcheb."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_farthest_and_certify_reach_distance_matrix(monkeypatch):
    calls = _count_calls(monkeypatch, bregman.distance_matrix)
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 9)
    bc.farthest(F, C, [1.0, 2.0])
    assert len(calls) == 1
    bc.certify(F, C, bc.default_start(F, C))
    assert len(calls) == 2
    # a quadratic set is solved and certified as energy on its whitened
    # points, still through farthest and distance_matrix
    F = bc.quadratic([[2.0, 0.5], [0.5, 1.0]])
    C = bc.CompactSet.finite([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [2.0, 2.5]])
    for solve in (bc.solve_subgradient, bc.solve_fixed_point):
        calls.clear()
        cert = solve(F, C)
        assert cert.valid and len(calls) == 1
        bc.certify(F, C, cert.center)
        assert len(calls) == 2

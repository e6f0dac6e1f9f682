import pickle

import numpy as np
import pytest

import bregcheb as bc
from bregcheb.errors import DomainError

from helpers import all_generators


def test_make_segment_samples():
    F = bc.energy(2)
    C = bc.make_segment(F, 4.0, 5)
    pts = C.enumerate()
    assert pts.shape == (5, 2)
    assert np.allclose(pts[2], [2.5, 2.5])
    assert np.allclose(pts[0], [1.0, 4.0]) and np.allclose(pts[-1], [4.0, 1.0])

    C3 = bc.make_segment(F, 2.0, 3)
    assert np.allclose(C3.enumerate(), [[1.0, 2.0], [1.5, 1.5], [2.0, 1.0]])


def test_make_segment_rejects_bad_input():
    F = bc.energy(2)
    with pytest.raises(ValueError):
        bc.make_segment(F, 1.0, 5)
    with pytest.raises(ValueError):
        bc.make_segment(F, 4.0, 4)
    with pytest.raises(ValueError):
        bc.make_segment(F, 4.0, 1)


def test_enumerate_order():
    p, q = [0.5, 1.0], [2.0, 0.25]
    C = bc.CompactSet.finite([p, q])
    assert np.allclose(C.enumerate(), [p, q])
    F = bc.energy(2)
    seg = bc.make_segment(F, 8.0, 3)
    assert np.allclose(seg.enumerate(), [[1.0, 8.0], [4.5, 4.5], [8.0, 1.0]])
    assert len(seg) == 3
    assert seg.dimension == 2


def test_validate():
    FN = bc.negentropy(2)
    bc.validate(bc.CompactSet.finite([[1.0, 1.0]]), FN)
    with pytest.raises(DomainError) as err:
        bc.validate(bc.CompactSet.finite([[1.0, 1.0], [0.0, 1.0]]), FN)
    assert "point 1" in str(err.value)
    bc.validate(bc.CompactSet.finite([[-3.0, 7.0]]), bc.energy(2))


def test_set_construction_invariants():
    with pytest.raises(ValueError):
        bc.CompactSet.finite(np.empty((0, 2)))
    with pytest.raises(ValueError):
        bc.CompactSet.finite([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        bc.CompactSet.segment([1.0, 1.0], [1.0, 1.0], 5)
    with pytest.raises(ValueError):
        bc.CompactSet.segment([0.0, 0.0], [1.0, 1.0], 1)


def test_json_roundtrip():
    F = bc.energy(2)
    seg = bc.make_segment(F, 4.0, 5)
    back = bc.CompactSet.from_json(seg.to_json())
    assert np.allclose(back.enumerate(), seg.enumerate())
    fin = bc.CompactSet.finite([[1.0, 2.0], [3.0, 4.0]])
    back = bc.CompactSet.from_json(fin.to_json())
    assert np.allclose(back.enumerate(), fin.enumerate())
    assert back.kind is bc.compactset.SetKind.FINITE


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_refinement_monotonicity(F):
    rng = np.random.default_rng(13)
    a = 6.0
    C = bc.make_segment(F, a, 9)
    R = C.refined()
    assert len(R) == 17
    # refined sample grids contain the coarse ones, so the sup cannot drop
    if F.kind in (bc.Kind.NEG_ENTROPY, bc.Kind.NEG_LOG):
        X = rng.uniform(0.2, 8.0, size=(50, 2))
    else:
        X = rng.uniform(-5.0, 8.0, size=(50, 2))
    v_coarse = bc.farthest_values(F, C, X)
    v_fine = bc.farthest_values(F, R, X)
    assert np.all(v_fine >= v_coarse - 1e-15)


@pytest.mark.parametrize("generator", list(bc.Generator), ids=lambda g: g.value)
@pytest.mark.parametrize("a", [4.0, 32.0])
def test_refinement_gap_small_at_high_resolution(generator, a):
    cfg = bc.CaseConfig(a, generator)
    F = cfg.legendre()
    C1 = cfg.segment(2049)
    C2 = cfg.segment(4097)
    queries = np.array(
        [[0.5, 0.7], [3.0, 1.0], [5.0, 5.0], [1.0, 1.0], [0.2, 6.0], cfg.center()]
    )
    v1 = bc.farthest_values(F, C1, queries)
    v2 = bc.farthest_values(F, C2, queries)
    assert np.all(v2 >= v1 - 1e-15)
    assert np.max(v2 - v1) <= 1e-6


def test_segment_enumerate_matches_linspace_formula():
    rng = np.random.default_rng(11)
    segments = [bc.make_segment(bc.neglog(2), a, s) for a in (4.0, 17.63, 32.0)
                for s in (3, 41, 101)]
    segments += [bc.CompactSet.segment(*rng.uniform(-5.0, 5.0, size=(2, J)), s)
                 for J in (1, 3, 8) for s in (2, 7, 1001)]
    segments += [seg.refined() for seg in segments]
    segments += [bc.CompactSet.from_json(seg.to_json()) for seg in segments]
    for seg in segments:
        lam = np.linspace(0.0, 1.0, seg.samples)[:, None]
        want = (1.0 - lam) * seg.points[0] + lam * seg.points[1]
        got = seg.enumerate()
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert seg.enumerate() is got


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_enumerated_points_and_dual_form_are_read_only(F):
    sets = [bc.make_segment(F, 4.0, 9), bc.CompactSet.finite([[1.0, 2.0], [2.0, 0.5]])]
    for C in sets:
        G, K = C.dual_data(F)
        for arr in (C.enumerate(), G, K):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert C.dual_data(F) is C.dual_data(F)


def test_dual_problem_of_each_generator():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(3, 3))
    gens = all_generators() + all_generators(3) + [bc.quadratic(A @ A.T + 0.3 * np.eye(3))]
    for F in gens:
        J = F.dimension
        lo = 0.5 if F.kind in (bc.Kind.NEG_ENTROPY, bc.Kind.NEG_LOG) else -2.0
        sets = [bc.CompactSet.finite(rng.uniform(lo, 3.0, size=(7, J))),
                bc.CompactSet.segment(*rng.uniform(lo, 3.0, size=(2, J)), 9)]
        for C in sets:
            problem = C.dual_problem(F)
            E, W, lift, back = problem
            x = rng.uniform(lo, 3.0, size=J)
            if F.quad_factor is None:
                # a separable problem is the set itself and computes nothing
                assert E is F and W is C
                assert W.dual_data(E) is C.dual_data(F)
                assert lift(x) is x and back(x) is x
                continue
            L = F.quad_factor
            assert E == bc.energy(J)
            assert W.dual_data(E).G.tobytes() == (C.enumerate() @ L).tobytes()
            assert np.allclose(back(lift(x)), x, rtol=1e-12, atol=1e-12)
            # A^-1 mean(C A) = mean(C)
            np.testing.assert_allclose(bc.default_start(F, C), C.enumerate().mean(axis=0),
                                       rtol=1e-12, atol=1e-12)
            # one problem per set and generator, kept for an equal generator
            # and beside the set's own dual form
            C.dual_data(F)
            bc.farthest(F, C, x)
            assert C.dual_problem(F) is problem
            assert C.dual_problem(bc.quadratic(F.quad_matrix)) is problem
            # a separable problem is not cached, so it evicts nothing
            assert C.dual_problem(bc.energy(J)).W is C
            assert C.dual_problem(F) is problem


def test_a_solved_set_pickles():
    F = bc.quadratic([[2.0, 0.5], [0.5, 1.0]])
    C = bc.CompactSet.finite([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    cert = bc.solve_subgradient(F, C)
    copy = pickle.loads(pickle.dumps(C))
    assert np.array_equal(bc.solve_subgradient(F, copy).center, cert.center)

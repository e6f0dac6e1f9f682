import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bregcheb as bc
from bregcheb import compactset
from bregcheb.center import _exact_center
from bregcheb.errors import DomainError, NonConvergence
from bregcheb.repro import A_VALUES, SEGMENT_SAMPLES
from bregcheb.simplex import lsq_simplex_weights

from helpers import (LAYOUTS, all_generators, center_duality_gap, layout_points,
                     orthant_domain, random_finite_set, random_generator,
                     reference_energy_center)


def test_singleton_center_both_solvers():
    p = np.array([1.25, 0.75])
    C = bc.CompactSet.finite([p])
    for F in all_generators():
        for cert in (
            bc.solve_fixed_point(F, C, tol=1e-10),
            bc.solve_subgradient(F, C),
        ):
            assert np.allclose(cert.center, p, atol=1e-9)
            assert cert.radius <= 1e-12
            assert cert.valid


def test_fixed_point_euclidean_center():
    F = bc.energy(2)
    C = bc.make_segment(F, 4.0, 5)
    cert = bc.solve_fixed_point(F, C, x0=np.array([1.0, 1.0]), tol=1e-5)
    assert np.max(np.abs(cert.center - 2.5)) <= 1e-6
    assert cert.solver is bc.SolverName.FIXED_POINT


def test_fixed_point_kl_center():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 5)
    cert = bc.solve_fixed_point(F, C, x0=np.array([1.0, 1.0]), tol=1e-5)
    assert np.max(np.abs(cert.center - 2.0)) <= 1e-6


def test_fixed_point_unpolished_follows_schedule():
    # three farthest points: no Frank-Wolfe iterate certifies, so the bare
    # averaging stops once the dual step is below tol; its distance to the
    # true center is of the same order
    cfg = bc.CaseConfig(32.0, bc.Generator.ITAKURA_SAITO)
    F, C = cfg.legendre(), cfg.segment(41)
    cert = bc.solve_fixed_point(F, C, tol=1e-4, max_iter=400_000, polish=False)
    assert np.max(np.abs(cert.center - bc.center_is(32.0).point)) <= 1e-3
    assert cert.iterations > 1000


def test_fixed_point_stops_at_certified_optimum():
    # Frank-Wolfe starts at one farthest point; with two, its first step
    # lands on the midpoint of their dual points, the exact center of a
    # symmetric segment, and the duality gap certifies it there
    for generator in bc.Generator:
        for a in A_VALUES:
            cfg = bc.CaseConfig(a, generator)
            F, C = cfg.legendre(), cfg.segment(SEGMENT_SAMPLES)
            cert = bc.solve_fixed_point(F, C, tol=1e-4, polish=False)
            if len(bc.solve_subgradient(F, C).farthest) == 2:
                assert cert.iterations == 1, (generator, a)
                assert bc.certify(F, C, cert.center, gap_tol=1e-12).valid, (generator, a)
            else:
                assert (generator, a) == (bc.Generator.ITAKURA_SAITO, 32.0)
                assert cert.iterations > 1000


def test_subgradient_euclidean_a8():
    F = bc.energy(2)
    C = bc.make_segment(F, 8.0, 5)
    cert = bc.solve_subgradient(F, C)
    assert np.max(np.abs(cert.center - 4.5)) <= 1e-5


def test_subgradient_kl_a16():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 16.0, 5)
    cert = bc.solve_subgradient(F, C)
    assert np.max(np.abs(cert.center - 4.0)) <= 1e-5


def test_solver_agreement_on_random_sets():
    rng = np.random.default_rng(71)
    for F in all_generators():
        for _ in range(20):
            C = random_finite_set(F, rng)
            c1 = bc.solve_fixed_point(F, C, tol=2e-5, max_iter=60_000)
            c2 = bc.solve_subgradient(F, C)
            assert np.linalg.norm(c1.center - c2.center) <= 1e-5
            assert c1.valid and c2.valid


@st.composite
def finite_sets(draw):
    """A generator and 1 to 40 points in its domain, in one of the layouts
    of ``helpers.layout_points``."""
    kind = draw(st.sampled_from(("energy", "quadratic", "negentropy", "neglog")))
    J = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = random_generator(kind, J, rng)
    return F, layout_points(rng, kind, n, J, layout)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(finite_sets())
def test_exact_center_certifies_itself(problem):
    # the solver's own weights bound the radius from below: no tie rule and
    # no solver tolerance enters the gap
    F, P = problem
    if F.quad_factor is not None:
        # solves pose a quadratic problem as energy on the whitened points
        F, P = bc.energy(F.dimension), P @ F.quad_factor
    C = bc.CompactSet.finite(P)
    z, mu, _, done = _exact_center(F, C, bc.default_start(F, C))
    assert done
    assert np.all(mu >= 0.0) and abs(mu.sum() - 1.0) <= bc.DEFAULT.simplex_sum
    gap, radius = center_duality_gap(F, P, z, mu)
    assert gap <= 1e-12 * (1.0 + abs(radius))


def _ill_conditioned(rng, J, cond):
    """A = Q diag(geomspace(1, cond, J)) Q^T with Q a random rotation."""
    Q, _ = np.linalg.qr(rng.normal(size=(J, J)))
    A = Q @ np.diag(np.geomspace(1.0, cond, J)) @ Q.T
    return bc.quadratic(0.5 * (A + A.T))


@pytest.mark.parametrize("cond", [1e8, 1e10, 1e13])
def test_ill_conditioned_quadratic_is_whitened_energy(cond):
    # with A = L L^T, D_A(x, c) = |x L - c L|^2 / 2; through an explicit
    # inverse of A both solvers stopped at one farthest point with
    # membership gaps of cond order, and certify rejected the true center
    rng = np.random.default_rng(7)
    P = rng.normal(size=(25, 5))
    F = _ill_conditioned(rng, 5, cond)
    C = bc.CompactSet.finite(P)
    L = np.linalg.cholesky(F.quad_matrix)
    ref = bc.solve_subgradient(bc.energy(5), bc.CompactSet.finite(P @ L))
    for cert in (bc.solve_subgradient(F, C), bc.solve_fixed_point(F, C)):
        assert cert.valid and len(cert.farthest) >= 2
        assert abs(cert.radius - ref.radius) <= 1e-12 * ref.radius
    cert = bc.certify(F, C, np.linalg.solve(L.T, ref.center))
    assert cert.valid and len(cert.farthest) >= 2


@st.composite
def ill_conditioned_quadratics(draw):
    """A quadratic generator with condition number up to 1e12 in dimension
    1 to 5, and 2 to 7 standard normal points."""
    J = draw(st.integers(1, 5))
    m = draw(st.integers(2, 7))
    cond = 10.0 ** draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _ill_conditioned(rng, J, cond), rng.normal(size=(m, J))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ill_conditioned_quadratics())
def test_ill_conditioned_quadratic_against_support_enumeration(problem):
    F, P = problem
    L = np.linalg.cholesky(F.quad_matrix)
    u_ref, r_ref = reference_energy_center(P @ L)
    C = bc.CompactSet.finite(P)
    for cert in (bc.solve_subgradient(F, C), bc.solve_fixed_point(F, C, tol=1e-3)):
        assert cert.valid and len(cert.farthest) >= 2
        assert abs(cert.radius - r_ref) <= 1e-10 * r_ref
    z_ref = np.linalg.solve(L.T, u_ref)
    assert bc.certify(F, C, z_ref, gap_tol=1e-12 * (1.0 + r_ref) ** 0.5).valid


def test_exact_center_within_the_averaging_accuracy():
    # F_C is f plus a convex function, so at its minimizer z every x has
    # D(x, z) <= F_C(x) - F_C(z): the bare averaging iterate bounds how far
    # it may lie from the exact center
    rng = np.random.default_rng(72)
    for F in all_generators():
        for n_points in (2, 3, 6):
            C = random_finite_set(F, rng, n_points=n_points)
            x = bc.solve_fixed_point(F, C, tol=1e-4, polish=False).center
            z = bc.solve_subgradient(F, C).center
            f_x, f_z = bc.farthest_values(F, C, np.array([x, z]))
            slack = 1e-12 * (1.0 + abs(f_x))
            assert f_z <= f_x + slack
            assert bc.distance(F, x, z) <= f_x - f_z + slack


def test_certify_euclidean():
    F = bc.energy(2)
    C = bc.make_segment(F, 4.0, 5)
    cert = bc.certify(F, C, np.array([2.5, 2.5]), gap_tol=1e-9)
    assert cert.valid
    assert np.allclose(sorted(cert.weights), [0.5, 0.5])
    assert cert.membership_gap <= 1e-12
    assert cert.radius == bc.distance(F, np.array([2.5, 2.5]), np.array([1.0, 4.0]))


def test_certify_kl_gradient_identity():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 5)
    cert = bc.certify(F, C, np.array([2.0, 2.0]), gap_tol=1e-9)
    assert cert.valid
    assert np.allclose(cert.weights, [0.5, 0.5])
    combo = 0.5 * F.grad(np.array([1.0, 4.0])) + 0.5 * F.grad(np.array([4.0, 1.0]))
    assert np.allclose(F.grad(np.array([2.0, 2.0])), combo)


def test_certify_rejects_wrong_point():
    F = bc.energy(2)
    C = bc.make_segment(F, 4.0, 5)
    cert = bc.certify(F, C, np.array([2.0, 2.0]), gap_tol=1e-6)
    assert not cert.valid
    assert cert.membership_gap > 0.1


def test_certify_requires_interior():
    F = bc.negentropy(2)
    C = bc.make_segment(F, 4.0, 5)
    with pytest.raises(DomainError):
        bc.certify(F, C, np.array([0.0, 1.0]))


def test_certificate_weights_on_simplex():
    rng = np.random.default_rng(90)
    for F in all_generators():
        C = random_finite_set(F, rng, n_points=5)
        cert = bc.solve_subgradient(F, C)
        assert np.all(cert.weights >= 0.0)
        assert abs(cert.weights.sum() - 1.0) <= 1e-10
        assert len(cert.weights) == len(cert.farthest)


def test_nonconvergence_carries_certificate():
    F = bc.energy(2)
    # three farthest points, so five Frank-Wolfe steps certify nothing
    C = bc.CompactSet.finite([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    with pytest.raises(NonConvergence) as err:
        bc.solve_fixed_point(F, C, x0=np.array([0.0, 0.0]), tol=1e-15,
                             max_iter=5, polish=False)
    cert = err.value.certificate
    assert cert is not None and cert.iterations == 5
    # the exact solve's cap counts working-set steps
    C = random_finite_set(F, np.random.default_rng(17), n_points=6)
    with pytest.raises(NonConvergence) as err:
        bc.solve_subgradient(F, C, max_iter=1)
    cert = err.value.certificate
    assert cert is not None and cert.iterations == 1


def test_default_start_in_interior_and_symmetric():
    for generator in bc.Generator:
        cfg = bc.CaseConfig(4.0, generator)
        F, C = cfg.legendre(), cfg.segment(5)
        x0 = bc.default_start(F, C)
        assert F.in_interior(x0)
        assert abs(x0[0] - x0[1]) <= 1e-12


def test_uniqueness_probe_many_starts():
    rng = np.random.default_rng(14)
    for generator in bc.Generator:
        cfg = bc.CaseConfig(4.0, generator)
        F, C = cfg.legendre(), cfg.segment(9)
        centers = []
        for _ in range(10):
            x0 = rng.uniform(0.5, 5.0, size=2)
            centers.append(bc.solve_subgradient(F, C, x0=x0).center)
            centers.append(bc.solve_fixed_point(F, C, x0=x0, tol=5e-4,
                                                max_iter=50_000).center)
        centers = np.array(centers)
        spread = np.max(np.linalg.norm(centers - centers[0], axis=1))
        assert spread <= 1e-5


def test_center_interiority_and_local_optimality():
    rng = np.random.default_rng(15)
    for F in all_generators():
        C = random_finite_set(F, rng, n_points=5)
        cert = bc.solve_subgradient(F, C)
        z = cert.center
        assert F.in_interior(z)
        if orthant_domain(F):
            assert np.all(z > 0)
        base = bc.farthest_values(F, C, z)[0]
        for delta in (1e-3, -1e-3, 1e-2, -1e-2):
            for j in range(2):
                zp = z.copy()
                zp[j] += delta
                if not F.in_interior(zp):
                    continue
                assert base <= bc.farthest_values(F, C, zp)[0] + 1e-9


def test_diagonal_symmetry_of_centers():
    for generator in bc.Generator:
        for a in (4.0, 32.0):
            cfg = bc.CaseConfig(a, generator)
            F, C = cfg.legendre(), cfg.segment(21)
            cert = bc.solve_subgradient(F, C)
            assert abs(cert.center[0] - cert.center[1]) <= 1e-6


def test_klee_multivaluedness_at_center():
    rng = np.random.default_rng(16)
    for F in all_generators():
        for _ in range(5):
            C = random_finite_set(F, rng, n_points=int(rng.integers(2, 6)))
            cert = bc.solve_subgradient(F, C)
            assert cert.valid
            assert len(cert.farthest) >= 2


def test_garkavi_klee_specialization():
    # for the energy the dual certificate is exactly membership of the
    # center in the convex hull of its farthest points
    rng = np.random.default_rng(18)
    F = bc.energy(2)
    for _ in range(10):
        C = random_finite_set(F, rng, n_points=5)
        cert = bc.solve_subgradient(F, C)
        _, resid = lsq_simplex_weights(np.asarray(cert.farthest), cert.center)
        assert abs(resid - cert.membership_gap) <= 1e-10
        assert resid <= 1e-9


def test_certificate_json():
    F = bc.energy(2)
    C = bc.make_segment(F, 4.0, 5)
    cert = bc.solve_subgradient(F, C)
    obj = cert.to_json()
    assert set(obj) == {
        "center", "radius", "farthest", "weights", "membership_gap",
        "iterations", "solver", "valid", "gap_tol",
    }
    assert obj["solver"] == "subgradient"


def test_dual_hull_projection_euclidean_case():
    F = bc.energy(2)
    C = bc.CompactSet.finite([[0.0, 0.0], [2.0, 0.0]])
    res = bc.dual_hull_projection(F, C, np.array([1.0, 5.0]))
    assert not res.already_in_hull
    assert np.allclose(res.point, [1.0, 0.0], atol=1e-9)


def test_dual_hull_projection_flags_membership():
    F = bc.energy(2)
    C = bc.CompactSet.finite([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    res = bc.dual_hull_projection(F, C, np.array([1.0, 0.5]))
    assert res.already_in_hull
    assert np.allclose(res.point, [1.0, 0.5])


def test_dual_hull_projection_negentropy_inequality():
    F = bc.negentropy(2)
    C = bc.CompactSet.finite([[1.0, 4.0], [4.0, 1.0]])
    x = np.array([10.0, 10.0])
    res = bc.dual_hull_projection(F, C, x)
    y = res.point
    for c in C.enumerate():
        lhs = bc.distance(F, x, c)
        rhs = bc.distance(F, x, y) + bc.distance(F, y, c)
        assert lhs >= rhs - 1e-8


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_dual_hull_projection_inequality_sweep(F):
    rng = np.random.default_rng(19)
    for _ in range(25):
        C = random_finite_set(F, rng, n_points=int(rng.integers(2, 7)), spread=0.8)
        if orthant_domain(F):
            x = rng.uniform(0.3, 4.0, size=2)
        else:
            x = rng.uniform(-3.0, 3.0, size=2)
        res = bc.dual_hull_projection(F, C, x)
        for c in C.enumerate():
            slack = (
                bc.distance(F, x, c)
                - bc.distance(F, x, res.point)
                - bc.distance(F, res.point, c)
            )
            assert slack >= -1e-8


def test_dual_hull_projection_requires_interior():
    F = bc.neglog(2)
    C = bc.CompactSet.finite([[1.0, 1.0]])
    with pytest.raises(DomainError):
        bc.dual_hull_projection(F, C, np.array([0.0, 1.0]))


@pytest.mark.parametrize("F", all_generators(3), ids=lambda F: F.kind.value)
def test_each_set_computes_its_dual_form_once(F, monkeypatch):
    calls = []
    dual_data = compactset.dual_data

    def counting(*args):
        calls.append(1)
        return dual_data(*args)

    monkeypatch.setattr(compactset, "dual_data", counting)
    rng = np.random.default_rng(40)
    C = random_finite_set(F, rng, n_points=40)
    bc.solve_subgradient(F, C)
    assert len(calls) == 1
    x = C.enumerate().mean(axis=0) + 0.5
    for run in (lambda: bc.solve_subgradient(F, C), lambda: bc.solve_fixed_point(F, C),
                lambda: bc.certify(F, C, x), lambda: bc.dual_hull_projection(F, C, x)):
        calls.clear()
        run()
        assert calls == []


def _tied_sets():
    """Points all at the same distance from their center: m cocircular
    points in the plane, and points on the unit sphere in J = 5 and 12."""
    for m in (100, 400, 1600):
        t = 2.0 * np.pi * np.arange(m) / m
        yield np.c_[np.cos(t), np.sin(t)]
    rng = np.random.default_rng(44)
    for J in (5, 12):
        for m in (50, 200, 800):
            P = rng.normal(size=(m, J))
            yield P / np.linalg.norm(P, axis=1, keepdims=True)


def test_tied_points_take_a_bounded_number_of_steps():
    # a vertex whose face step gains nothing is set aside with every
    # outside vertex no lower than it, so a tie costs one step, not one per
    # tied point
    for P in _tied_sets():
        m, J = P.shape
        cert = bc.solve_subgradient(bc.energy(J), bc.CompactSet.finite(P))
        assert cert.valid
        assert cert.iterations <= 3 * (J + 1) + 4, (m, J, cert.iterations)

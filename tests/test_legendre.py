import math

import numpy as np
import pytest

import bregcheb as bc
from bregcheb import legendre
from bregcheb.errors import DomainError

from helpers import SPD_MATRIX, all_generators, sample_interior


def test_energy_value():
    F = bc.energy(2)
    assert F.f([3.0, 4.0]) == 12.5


def test_negentropy_boundary_convention():
    F = bc.negentropy(2)
    assert F.f([0.0, 0.0]) == 0.0
    assert F.f([0.0, 1.0]) == -1.0


def test_neglog_outside_domain_is_inf():
    F = bc.neglog(2)
    assert F.f([1.0, -1.0]) == math.inf
    assert F.f([0.0, 1.0]) == math.inf


def test_gradients():
    assert np.allclose(bc.energy(2).grad([2.0, 5.0]), [2.0, 5.0])
    assert np.allclose(bc.negentropy(2).grad([1.0, 1.0]), [0.0, 0.0])
    assert np.allclose(bc.neglog(2).grad([2.0, 4.0]), [-0.5, -0.25])
    A = SPD_MATRIX
    x = np.array([1.0, 2.0])
    assert np.allclose(bc.quadratic(A).grad(x), A @ x)


def test_grad_requires_interior():
    with pytest.raises(DomainError):
        bc.negentropy(2).grad([0.0, 1.0])
    with pytest.raises(DomainError):
        bc.neglog(2).grad([1.0, 0.0])


def test_grad_star():
    assert np.allclose(bc.negentropy(2).grad_star([0.0, math.log(4.0)]), [1.0, 4.0])
    assert np.allclose(bc.energy(2).grad_star([7.0, -3.0]), [7.0, -3.0])
    assert np.allclose(bc.neglog(2).grad_star([-0.5, -0.25]), [2.0, 4.0])


def test_grad_star_domain():
    with pytest.raises(DomainError):
        bc.neglog(2).grad_star([0.5, -1.0])
    with pytest.raises(DomainError):
        bc.neglog(2).hess_star([0.5, -1.0])


def test_fstar_values():
    assert bc.negentropy(2).fstar([0.0, 0.0]) == 2.0
    assert bc.energy(2).fstar([3.0, 4.0]) == 12.5
    assert bc.neglog(2).fstar([-1.0, -1.0]) == -2.0
    assert bc.neglog(2).fstar([1.0, -1.0]) == math.inf


def test_domain_predicates():
    FN = bc.negentropy(2)
    assert FN.in_domain([0.0, 1.0]) and not FN.in_interior([0.0, 1.0])
    FE = bc.energy(2)
    assert FE.in_domain([-5.0, 0.0]) and FE.in_interior([-5.0, 0.0])
    FL = bc.neglog(2)
    assert not FL.in_domain([0.0, 1.0]) and not FL.in_interior([0.0, 1.0])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        bc.energy(2).f([1.0, 2.0, 3.0])


def test_quadratic_matrix_validation():
    with pytest.raises(ValueError):
        bc.quadratic([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        bc.quadratic([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError):
        bc.LegendreFunction(bc.Kind.ENERGY, 0)


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_gradient_roundtrip_and_fenchel_young(F):
    rng = np.random.default_rng(11)
    X = sample_interior(F, rng, 1000)
    G = F.grad(X)
    back = F.grad_star(G)
    assert np.max(np.linalg.norm(back - X, axis=1)) <= 1e-9
    fy = F.f(X) + F.fstar(G) - np.sum(X * G, axis=1)
    assert np.max(np.abs(fy)) <= 1e-9


@pytest.mark.parametrize("F", all_generators(), ids=lambda F: F.kind.value)
def test_gradient_matches_finite_differences(F):
    # central differences: f -> grad, grad -> A for quadratic, and
    # grad_star -> the Hessian of f*: A^-1 for quadratic, whose hess_star
    # raises, and the diagonal hess_star for the separable kinds
    rng = np.random.default_rng(5)
    h = 1e-6
    quad = F.kind is bc.Kind.QUADRATIC
    for x in sample_interior(F, rng, 25):
        y = F.grad(x)
        H_star = np.linalg.inv(F.quad_matrix) if quad else np.diag(F.hess_star(y))
        for j in range(F.dimension):
            e = np.zeros(F.dimension)
            e[j] = h
            fd = (F.f(x + e) - F.f(x - e)) / (2.0 * h)
            assert abs(fd - y[j]) / max(1.0, abs(y[j])) <= 1e-5
            if quad:
                fd = (F.grad(x + e) - F.grad(x - e)) / (2.0 * h)
                assert np.max(np.abs(fd - F.quad_matrix[:, j])) <= 1e-5
            fd = (F.grad_star(y + e) - F.grad_star(y - e)) / (2.0 * h)
            scale = max(1.0, np.max(np.abs(H_star[:, j])))
            assert np.max(np.abs(fd - H_star[:, j])) / scale <= 1e-5
    Y = F.grad(sample_interior(F, rng, 3))
    if quad:
        with pytest.raises(ValueError):
            F.hess_star(Y)
    else:
        assert F.hess_star(Y).shape == Y.shape
        assert np.array_equal(F.hess_star(Y), [F.hess_star(y) for y in Y])


@pytest.mark.parametrize("kind", ["negentropy", "neglog"])
def test_essential_smoothness_probe(kind):
    F = bc.negentropy(2) if kind == "negentropy" else bc.neglog(2)
    dists = 10.0 ** -np.arange(1, 9)
    norms = [np.linalg.norm(F.grad([d, 1.0])) for d in dists]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > norms[0] * 5


def test_json_roundtrip():
    for F in all_generators():
        back = bc.LegendreFunction.from_json(F.to_json())
        assert back == F
    obj = bc.quadratic(SPD_MATRIX).to_json()
    assert obj["kind"] == "quadratic" and obj["dimension"] == 2
    assert "matrix" in obj


def test_second_arg_convex_flag():
    flags = {F.kind: F.second_arg_convex for F in all_generators()}
    assert flags[bc.Kind.ENERGY] and flags[bc.Kind.QUADRATIC] and flags[bc.Kind.NEG_ENTROPY]
    assert not flags[bc.Kind.NEG_LOG]


@pytest.mark.parametrize("column_j", [legendre._COLUMN_J, 7])
def test_row_reductions_match_numpy_bit_for_bit(monkeypatch, column_j):
    monkeypatch.setattr(legendre, "_COLUMN_J", column_j)
    rng = np.random.default_rng(column_j)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]
    for J in range(1, 11):
        for shape in ((J,), (1, J), (2, J), (5000, J), (3, 4, J)):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
            mask = rng.uniform(size=shape) < 0.05
            v[mask] = rng.choice(special, size=mask.sum())
            if len(shape) == 2 and shape[0] > 2:
                v[0] = -0.0                     # a row of negative zeros
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = legendre._row_sum(v), np.sum(v, axis=-1)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            b = v > 0.0
            assert np.array_equal(legendre._row_all(b), np.all(b, axis=-1))


@pytest.mark.parametrize("column_j", [legendre._COLUMN_J, 7])
def test_generator_values_do_not_depend_on_the_reduction(monkeypatch, column_j):
    rng = np.random.default_rng(3)
    for J in (1, 2, 3, 5, 7):
        X = rng.uniform(-0.5, 3.0, size=(200, J))
        X[:5] = 0.0
        A = rng.normal(size=(J, J))
        for F in (bc.energy(J), bc.quadratic(A @ A.T + np.eye(J)), bc.negentropy(J),
                  bc.neglog(J)):
            monkeypatch.setattr(legendre, "_COLUMN_J", 0)
            want = [F.f(X), F.fstar(-X - 0.1), F.in_domain(X), F.in_interior(X),
                    F.in_dual_interior(-X), F.f(X[7])]
            monkeypatch.setattr(legendre, "_COLUMN_J", column_j)
            got = [F.f(X), F.fstar(-X - 0.1), F.in_domain(X), F.in_interior(X),
                   F.in_dual_interior(-X), F.f(X[7])]
            for g, w in zip(got, want):
                assert type(g) is type(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

import math

import numpy as np
import pytest

import bregcheb as bc


def test_center_euclidean_values():
    assert np.allclose(bc.center_euclidean(4.0), [2.5, 2.5])
    assert np.allclose(bc.center_euclidean(8.0), [4.5, 4.5])
    # degenerate limit collapses to the common endpoint
    assert np.allclose(bc.center_euclidean(1.0 + 1e-12), [1.0, 1.0])
    with pytest.raises(ValueError):
        bc.center_euclidean(1.0)


def test_center_kl_values():
    assert np.allclose(bc.center_kl(4.0), [2.0, 2.0])
    assert np.allclose(bc.center_kl(16.0), [4.0, 4.0])
    assert np.allclose(bc.center_kl(32.0), [math.sqrt(32.0)] * 2)


def test_g_h_values():
    assert bc.h_of(4.0) == 1.6
    assert abs(bc.g_of(4.0) - (20.0 / 9.0) * math.log(25.0 / 16.0)) <= 1e-15
    assert abs(bc.g_of(4.0) - 0.9917491170) <= 1e-9
    assert abs(bc.g_of(32.0) - 2.3526326859) <= 1e-9
    assert abs(bc.h_of(32.0) - 64.0 / 33.0) <= 1e-15


def test_g_matches_value_difference_on_diagonal():
    # g is calibrated so that the endpoint and midpoint distances agree at
    # (g, g): D(x, c0) - D(x, c_half) changes sign there
    F = bc.neglog(2)
    for a in (4.0, 32.0):
        g = bc.g_of(a)
        c0 = np.array([1.0, a])
        ch = np.array([(1.0 + a) / 2.0] * 2)
        x = np.array([g, g])
        diff = bc.distance(F, x, c0) - bc.distance(F, x, ch)
        assert abs(diff) <= 1e-12


def test_center_is_dichotomy():
    low = bc.center_is(4.0)
    assert np.allclose(low.point, [1.6, 1.6])
    assert low.farthest_lambdas == (0.0, 1.0)
    high = bc.center_is(32.0)
    assert np.allclose(high.point, [bc.g_of(32.0)] * 2)
    assert high.farthest_lambdas == (0.0, 0.5, 1.0)


def test_k_properties():
    assert bc.k_of(1.0) == 0.0
    assert bc.k_of(10.0) > 0.0
    assert bc.k_of(20.0) < 0.0
    with pytest.raises(ValueError):
        bc.k_of(0.5)


def test_threshold():
    a_tilde = bc.threshold_a()
    assert abs(a_tilde - 17.63) <= 0.005
    assert abs(bc.k_of(a_tilde)) <= 1e-8
    # the threshold is where the two center formulas meet
    assert abs(bc.g_of(a_tilde) - bc.h_of(a_tilde)) <= 1e-8


def test_k_monotone_structure():
    from bregcheb.closedform import XI

    xs = np.linspace(1.0 + 1e-9, XI, 5000)
    ks = np.array([bc.k_of(x) for x in xs])
    assert np.all(np.diff(ks) > 0)
    xs = np.linspace(XI, 200.0, 5000)
    ks = np.array([bc.k_of(x) for x in xs])
    assert np.all(np.diff(ks) < 0)


def test_mu_coefficients_low_regime():
    assert bc.mu_coefficients(4.0) == (0.5, 0.0, 0.5)


def test_mu_coefficients_high_regime():
    mu0, mu_half, mu1 = bc.mu_coefficients(32.0)
    assert mu0 == mu1
    assert mu_half > 0.0
    assert all(0.0 <= m <= 1.0 for m in (mu0, mu_half, mu1))
    assert abs(mu0 + mu_half + mu1 - 1.0) <= 1e-12


@pytest.mark.parametrize("a", [4.0, 8.0, 16.0, 32.0, 100.0])
def test_mu_reconstructs_center(a):
    F = bc.neglog(2)
    mu = bc.mu_coefficients(a)
    c0 = np.array([1.0, a])
    c1 = np.array([a, 1.0])
    ch = 0.5 * (c0 + c1)
    recon = F.grad_star(mu[0] * F.grad(c0) + mu[1] * F.grad(ch) + mu[2] * F.grad(c1))
    assert np.max(np.abs(recon - bc.center_is(a).point)) <= 1e-9


def test_farthest_structure_euclidean():
    s = bc.farthest_structure(bc.Generator.EUCLIDEAN, 4.0, [5.0, 2.0])
    assert s.lambdas == (0.0,)
    s = bc.farthest_structure(bc.Generator.EUCLIDEAN, 4.0, [2.0, 5.0])
    assert s.lambdas == (1.0,)
    s = bc.farthest_structure(bc.Generator.EUCLIDEAN, 4.0, [3.0, 3.0])
    assert s.lambdas == (0.0, 1.0)


def test_farthest_structure_kl_sign_identity():
    s = bc.farthest_structure(bc.Generator.KL, 4.0, [2.0, 2.0])
    assert s.lambdas == (0.0, 1.0)
    assert abs(s.sign_residual) <= 1e-12
    s = bc.farthest_structure(bc.Generator.KL, 4.0, [3.0, 1.0])
    assert s.lambdas == (0.0,)
    F = bc.negentropy(2)
    diff = bc.distance(F, [3.0, 1.0], [1.0, 4.0]) - bc.distance(F, [3.0, 1.0], [4.0, 1.0])
    assert abs(diff - 2.0 * math.log(4.0)) <= 1e-12
    assert abs(s.sign_residual) <= 1e-12


def test_farthest_structure_is_diagonal():
    g = bc.g_of(32.0)
    assert bc.farthest_structure(bc.Generator.ITAKURA_SAITO, 32.0, [g + 1, g + 1]).lambdas == (0.0, 1.0)
    assert bc.farthest_structure(bc.Generator.ITAKURA_SAITO, 32.0, [g - 1, g - 1]).lambdas == (0.5,)
    assert bc.farthest_structure(bc.Generator.ITAKURA_SAITO, 32.0, [g, g]).lambdas == (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        bc.farthest_structure(bc.Generator.ITAKURA_SAITO, 32.0, [1.0, 2.0])


@pytest.mark.parametrize("generator", list(bc.Generator), ids=lambda g: g.value)
def test_structure_matches_brute_force(generator):
    rng = np.random.default_rng(60)
    a = 4.0
    cfg = bc.CaseConfig(a, generator)
    F, C = cfg.legendre(), cfg.segment(41)
    pts = C.enumerate()
    for _ in range(50):
        if generator is bc.Generator.ITAKURA_SAITO:
            u = rng.uniform(0.3, 6.0)
            x = np.array([u, u])
        else:
            x = rng.uniform(0.3, 6.0, size=2)
        try:
            predicted = bc.farthest_structure(generator, a, x)
        except ValueError:
            continue
        res = bc.farthest(F, C, x)
        got_lambdas = sorted(
            float(np.linalg.norm(q - pts[0]) / np.linalg.norm(pts[-1] - pts[0]))
            for q in res.argmax
        )
        assert np.allclose(got_lambdas, sorted(predicted.lambdas), atol=1e-9)


@pytest.mark.parametrize("generator", list(bc.Generator), ids=lambda g: g.value)
def test_oracle_vs_solver_sweep(generator):
    a_tilde = bc.threshold_a()
    for a in (2.0, 4.0, 8.0, 16.0, 32.0, a_tilde - 1.0, a_tilde + 1.0):
        cfg = bc.CaseConfig(a, generator)
        F, C = cfg.legendre(), cfg.segment(21)
        cert = bc.solve_subgradient(F, C)
        assert np.max(np.abs(cert.center - cfg.center())) <= 1e-5


def test_threshold_consistency_of_farthest_set():
    a_tilde = bc.threshold_a()
    for a, expect_midpoint in ((a_tilde - 0.1, False), (a_tilde + 0.1, True)):
        cfg = bc.CaseConfig(a, bc.Generator.ITAKURA_SAITO)
        F, C = cfg.legendre(), cfg.segment(21)
        cert = bc.solve_subgradient(F, C)
        c_half = np.array([(1.0 + a) / 2.0] * 2)
        near_half = np.abs(np.asarray(cert.farthest) - c_half).max(axis=1).min()
        if expect_midpoint:
            assert len(cert.farthest) == 3 and near_half <= 1e-4
        else:
            assert len(cert.farthest) == 2 and near_half > 1.0


def test_center_mean_relationships():
    a = 4.0
    c0, c1 = np.array([1.0, a]), np.array([a, 1.0])
    assert np.allclose(bc.center_euclidean(a), 0.5 * (c0 + c1))
    assert np.allclose(bc.center_kl(a), np.sqrt(c0 * c1))
    harmonic = 2.0 / (1.0 / c0 + 1.0 / c1)
    assert np.allclose(bc.center_is(a).point, harmonic)
    # above the threshold the harmonic-mean guess is wrong
    assert not np.allclose(bc.center_is(32.0).point, 2.0 / (1.0 / 32.0 + 1.0))


def test_case_config_validation():
    with pytest.raises(ValueError):
        bc.CaseConfig(1.0, bc.Generator.KL)
    cfg = bc.CaseConfig(4.0, bc.Generator.KL)
    assert cfg.legendre().kind is bc.Kind.NEG_ENTROPY
    assert len(cfg.segment(7)) == 7

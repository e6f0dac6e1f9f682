"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import numpy as np

import bregcheb as bc
from bregcheb import cli, repro

from helpers import all_generators, orthant_domain, random_finite_set, sample_interior

A_VALUES = (4.0, 8.0, 16.0, 32.0)


def _both_certs(generator, a):
    _, _, certs = repro.solved_centers(generator, a)
    return certs


def test_criterion_1_euclidean_centers():
    worst = 0.0
    for a in A_VALUES:
        expected = bc.center_euclidean(a)
        for cert in _both_certs(bc.Generator.EUCLIDEAN, a):
            err = float(np.abs(cert.center - expected).max())
            worst = max(worst, err)
            assert err <= 1e-5, (a, cert.solver)
            assert cert.membership_gap <= 1e-6
            assert len(cert.weights) == 2
            assert np.max(np.abs(np.asarray(cert.weights) - 0.5)) <= 1e-6
    print(f"PASS criterion 1: euclidean centers, max coordinate error {worst:.2e}")


def test_criterion_2_kl_centers():
    worst = 0.0
    F = bc.negentropy(2)
    for a in A_VALUES:
        expected = bc.center_kl(a)
        for cert in _both_certs(bc.Generator.KL, a):
            err = float(np.abs(cert.center - expected).max())
            worst = max(worst, err)
            assert err <= 1e-5, (a, cert.solver)
        c0, c1 = np.array([1.0, a]), np.array([a, 1.0])
        recon = F.grad_star(0.5 * F.grad(c0) + 0.5 * F.grad(c1))
        assert np.max(np.abs(recon - expected)) <= 1e-9
    print(f"PASS criterion 2: kl centers, max coordinate error {worst:.2e}")


def test_criterion_3_is_dichotomy():
    worst = 0.0
    for a in A_VALUES:
        expected = bc.center_is(a).point
        c_half = np.array([(1.0 + a) / 2.0] * 2)
        for cert in _both_certs(bc.Generator.ITAKURA_SAITO, a):
            err = float(np.abs(cert.center - expected).max())
            worst = max(worst, err)
            assert err <= 1e-4, (a, cert.solver)
            if bc.g_of(a) < bc.h_of(a):
                assert len(cert.farthest) == 2, (a, cert.solver)
            else:
                near = np.abs(np.asarray(cert.farthest) - c_half).max(axis=1).min()
                assert near <= 1e-3, (a, cert.solver)
    a_tilde = bc.threshold_a()
    assert abs(a_tilde - 17.63) <= 0.005
    assert bc.k_of(a_tilde) <= 1e-8
    print(
        f"PASS criterion 3: is dichotomy, max coordinate error {worst:.2e}, "
        f"threshold {a_tilde:.6f}"
    )


def test_criterion_4_mu_reconstruction():
    F = bc.neglog(2)
    for a in (4.0, 32.0):
        mu = bc.mu_coefficients(a)
        assert all(0.0 <= m <= 1.0 for m in mu)
        assert abs(sum(mu) - 1.0) <= 1e-12
        c0, c1 = np.array([1.0, a]), np.array([a, 1.0])
        ch = 0.5 * (c0 + c1)
        recon = F.grad_star(mu[0] * F.grad(c0) + mu[1] * F.grad(ch) + mu[2] * F.grad(c1))
        assert np.max(np.abs(recon - bc.center_is(a).point)) <= 1e-9
    print("PASS criterion 4: mu weights reconstruct the itakura-saito centers")


def test_criterion_5_identity_suites():
    worst = 0.0
    for F in all_generators():
        rng = np.random.default_rng(101)
        X, Y, Z, W = (sample_interior(F, rng, 1000) for _ in range(4))
        r3 = bc.three_point_residual(F, X, Y, Z)
        r4 = bc.four_point_residual(F, X, Y, Z, W)
        G = F.grad(X)
        rt = np.linalg.norm(F.grad_star(G) - X, axis=1)
        fy = F.f(X) + F.fstar(G) - np.sum(X * G, axis=1)
        for arr in (np.abs(r3), np.abs(r4), rt, np.abs(fy)):
            worst = max(worst, float(np.max(arr)))
            assert np.max(arr) <= 1e-9, F.kind
    print(f"PASS criterion 5: identity suites, worst residual {worst:.2e}")


def test_criterion_6_derivative_checks():
    h_step = 1e-6
    worst = 0.0
    for F in all_generators():
        rng = np.random.default_rng(202)
        C = bc.make_segment(F, 4.0, 21)
        singleton_checked = 0
        while singleton_checked < 100:
            if orthant_domain(F):
                x = rng.uniform(0.5, 6.0, size=2)
            else:
                x = rng.uniform(-4.0, 6.0, size=2)
            verts = bc.subdifferential(F, C, x)
            if len(verts) == 1:
                g = verts[0]
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h_step
                    fd = (
                        bc.farthest_values(F, C, x + e)[0]
                        - bc.farthest_values(F, C, x - e)[0]
                    ) / (2.0 * h_step)
                    err = abs(fd - g[j]) / max(1.0, abs(g[j]))
                    worst = max(worst, err)
                    assert err <= 1e-4, F.kind
                singleton_checked += 1
            hdir = rng.normal(size=2)
            dd = bc.directional_derivative(F, C, x, hdir)
            quot = (
                bc.farthest_values(F, C, x + h_step * hdir)[0]
                - bc.farthest_values(F, C, x)[0]
            ) / h_step
            err = abs(dd - quot)
            worst = max(worst, err)
            assert err <= 1e-4, F.kind
    print(f"PASS criterion 6: derivative checks, worst deviation {worst:.2e}")


def test_criterion_7_monotonicity():
    worst = 0.0
    for F in all_generators():
        rng = np.random.default_rng(303)
        C = bc.make_segment(F, 4.0, 21)
        for _ in range(500):
            x, y = sample_interior(F, rng, 2)
            w = bc.monotonicity_witness(F, C, x, y)
            worst = min(worst, w)
            assert w >= -1e-9, F.kind
        for _ in range(5):
            Cf = random_finite_set(F, rng)
            for _ in range(20):
                x, y = sample_interior(F, rng, 2)
                w = bc.monotonicity_witness(F, Cf, x, y)
                worst = min(worst, w)
                assert w >= -1e-9, F.kind
    print(f"PASS criterion 7: monotonicity, smallest witness {worst:.2e}")


def test_criterion_8_hull_blindness_and_is_counterexample():
    for generator in (bc.Generator.EUCLIDEAN, bc.Generator.KL):
        cfg = bc.CaseConfig(4.0, generator)
        F, C = cfg.legendre(), cfg.segment(41)
        xs = np.linspace(0.0, 10.0, 100)
        grid = np.array([[x, y] for y in xs for x in xs])
        D = bc.distance_matrix(F, grid, C.enumerate())
        endpoint_max = np.maximum(D[:, 0], D[:, -1])
        interior_max = D[:, 1:-1].max(axis=1)
        assert np.all(interior_max <= endpoint_max + 1e-10), generator

    cfg = bc.CaseConfig(32.0, bc.Generator.ITAKURA_SAITO)
    F, C = cfg.legendre(), cfg.segment(41)
    xs = np.linspace(0.0, 50.0, 100)
    grid = np.array([[x, y] for y in xs for x in xs])
    D = bc.distance_matrix(F, grid, C.enumerate())
    finite = np.isfinite(D[:, 0])
    exceed = D[finite, 1:-1].max(axis=1) > np.maximum(D[finite, 0], D[finite, -1])
    n_exceed = int(np.sum(exceed))
    assert n_exceed >= 1
    print(
        "PASS criterion 8: hull blindness holds for euclidean/kl; "
        f"itakura-saito violates it at {n_exceed} grid points"
    )


def test_criterion_9_klee_multivaluedness():
    for generator in bc.Generator:
        for a in A_VALUES:
            cfg = bc.CaseConfig(a, generator)
            cert = bc.solve_subgradient(cfg.legendre(), cfg.segment(21))
            assert cert.valid and len(cert.farthest) >= 2, (generator, a)
    rng = np.random.default_rng(404)
    for F in all_generators():
        for _ in range(10):
            C = random_finite_set(F, rng, n_points=int(rng.integers(2, 7)))
            cert = bc.solve_subgradient(F, C)
            assert cert.valid and len(cert.farthest) >= 2, F.kind
    print("PASS criterion 9: farthest set at every certified center is multivalued")


def test_criterion_10_hull_projection_inequality():
    worst = 0.0
    for F in all_generators():
        rng = np.random.default_rng(505)
        for _ in range(50):
            C = random_finite_set(F, rng, n_points=int(rng.integers(2, 7)), spread=0.8)
            if orthant_domain(F):
                x = rng.uniform(0.3, 4.0, size=2)
            else:
                x = rng.uniform(-3.0, 3.0, size=2)
            res = bc.dual_hull_projection(F, C, x)
            y = res.point
            for c in C.enumerate():
                slack = float(
                    bc.distance(F, x, c) - bc.distance(F, x, y) - bc.distance(F, y, c)
                )
                worst = min(worst, slack)
                assert slack >= -1e-8, F.kind
    print(f"PASS criterion 10: projection inequality, smallest slack {worst:.2e}")


def test_criterion_11_determinism_and_repro(tmp_path, capsys):
    argv = ["colormap", "--gen", "neglog", "--segment", "4", "--samples", "21",
            "--region", "0,0,10,10", "--res", "16", "--ppm"]
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "m1.ppm").read_bytes() == (tmp_path / "m2.ppm").read_bytes()

    assert cli.main(["repro"]) == 0
    captured = capsys.readouterr()
    assert "0 failures" in captured.out
    print("PASS criterion 11: colormaps byte-identical and repro exits 0")

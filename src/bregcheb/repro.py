"""Reproduction checks for the planar segment family.

Each check compares the numeric solvers against the closed forms of
:mod:`bregcheb.closedform` at pinned tolerances and reports one PASS/FAIL
line.  The CLI ``repro`` subcommand runs the whole list.
"""

from dataclasses import dataclass

import numpy as np

from .center import solve_fixed_point, solve_subgradient
from .closedform import (
    CaseConfig,
    Generator,
    center_euclidean,
    center_is,
    center_kl,
    endpoints,
    g_of,
    h_of,
    k_of,
    mu_coefficients,
    threshold_a,
)
from .compactset import make_segment
from .legendre import negentropy, neglog

A_VALUES = (4.0, 8.0, 16.0, 32.0)
SEGMENT_SAMPLES = 41


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _solve_both(F, C):
    # stop the averaging once its dual step is ~1/20000 of the dual spread;
    # the closing refinement takes it from there
    G = C.dual_data(F).G
    spread = float(np.linalg.norm(G - G.mean(axis=0), axis=1).max())
    tol = max(1e-4, 2.0 * spread / 20_000.0)
    cert_fp = solve_fixed_point(F, C, tol=tol, max_iter=100_000)
    cert_sg = solve_subgradient(F, C, max_iter=3_000)
    return cert_fp, cert_sg


def solved_centers(generator, a, samples=SEGMENT_SAMPLES):
    """Both solvers' certificates for one family instance."""
    cfg = CaseConfig(a, Generator(generator))
    F = cfg.legendre()
    C = make_segment(F, a, samples)
    return F, C, _solve_both(F, C)


def check_euclidean_centers(coord_tol=1e-5, gap_tol=1e-6, mu_tol=1e-6):
    worst = 0.0
    for a in A_VALUES:
        expected = center_euclidean(a)
        _, _, (cert_fp, cert_sg) = solved_centers(Generator.EUCLIDEAN, a)
        for cert in (cert_fp, cert_sg):
            err = float(np.abs(cert.center - expected).max())
            worst = max(worst, err)
            if err > coord_tol:
                return CheckOutcome(
                    "euclidean_centers", False,
                    f"a={a:g} {cert.solver.value}: center error {err:.2e} > {coord_tol:g}")
            if cert.membership_gap > gap_tol:
                return CheckOutcome(
                    "euclidean_centers", False,
                    f"a={a:g} {cert.solver.value}: gap {cert.membership_gap:.2e}")
            mu_err = float(np.abs(np.sort(cert.weights)[::-1][:2] - 0.5).max())
            if len(cert.weights) < 2 or mu_err > mu_tol:
                return CheckOutcome(
                    "euclidean_centers", False,
                    f"a={a:g} {cert.solver.value}: weights {cert.weights} not (1/2, 1/2)")
    return CheckOutcome("euclidean_centers", True, f"max center error {worst:.2e}")


def check_kl_centers(coord_tol=1e-5, recon_tol=1e-9):
    worst = 0.0
    for a in A_VALUES:
        expected = center_kl(a)
        _, _, (cert_fp, cert_sg) = solved_centers(Generator.KL, a)
        for cert in (cert_fp, cert_sg):
            err = float(np.abs(cert.center - expected).max())
            worst = max(worst, err)
            if err > coord_tol:
                return CheckOutcome(
                    "kl_centers", False,
                    f"a={a:g} {cert.solver.value}: center error {err:.2e} > {coord_tol:g}")
        F = negentropy(2)
        c0, c1 = endpoints(a)
        recon = F.grad_star(0.5 * F.grad(c0) + 0.5 * F.grad(c1))
        rerr = float(np.abs(recon - expected).max())
        if rerr > recon_tol:
            return CheckOutcome(
                "kl_centers", False, f"a={a:g}: dual reconstruction error {rerr:.2e}")
    return CheckOutcome("kl_centers", True, f"max center error {worst:.2e}")


def check_is_dichotomy(coord_tol=1e-4, threshold_window=0.005):
    worst = 0.0
    for a in A_VALUES:
        info = center_is(a)
        _, C, (cert_fp, cert_sg) = solved_centers(Generator.ITAKURA_SAITO, a)
        c0, c1 = endpoints(a)
        c_half = 0.5 * (c0 + c1)
        for cert in (cert_fp, cert_sg):
            err = float(np.abs(cert.center - info.point).max())
            worst = max(worst, err)
            if err > coord_tol:
                return CheckOutcome(
                    "is_dichotomy", False,
                    f"a={a:g} {cert.solver.value}: center error {err:.2e} > {coord_tol:g}")
            if g_of(a) < h_of(a):
                if len(cert.farthest) != 2:
                    return CheckOutcome(
                        "is_dichotomy", False,
                        f"a={a:g} {cert.solver.value}: |Q|={len(cert.farthest)}, expected 2")
            else:
                near_half = np.abs(cert.farthest - c_half).max(axis=1).min()
                if near_half > 1e-3:
                    return CheckOutcome(
                        "is_dichotomy", False,
                        f"a={a:g} {cert.solver.value}: no farthest point near the midpoint")
    a_tilde = threshold_a()
    if abs(a_tilde - 17.63) > threshold_window:
        return CheckOutcome(
            "is_dichotomy", False, f"threshold {a_tilde:.6f} not within "
            f"{threshold_window:g} of 17.63")
    if k_of(a_tilde) > 1e-8:
        return CheckOutcome(
            "is_dichotomy", False, f"k(threshold) = {k_of(a_tilde):.2e} > 1e-8")
    return CheckOutcome(
        "is_dichotomy", True,
        f"max center error {worst:.2e}; threshold {a_tilde:.6f}")


def check_mu_reconstruction(recon_tol=1e-9, sum_tol=1e-12):
    F = neglog(2)
    for a in (4.0, 32.0):
        mu = mu_coefficients(a)
        if not all(0.0 <= m <= 1.0 for m in mu):
            return CheckOutcome("mu_reconstruction", False, f"a={a:g}: mu={mu} not in [0,1]")
        if abs(sum(mu) - 1.0) > sum_tol:
            return CheckOutcome("mu_reconstruction", False, f"a={a:g}: sum(mu) != 1")
        c0, c1 = endpoints(a)
        c_half = 0.5 * (c0 + c1)
        combo = mu[0] * F.grad(c0) + mu[1] * F.grad(c_half) + mu[2] * F.grad(c1)
        recon = F.grad_star(combo)
        err = float(np.abs(recon - center_is(a).point).max())
        if err > recon_tol:
            return CheckOutcome(
                "mu_reconstruction", False, f"a={a:g}: reconstruction error {err:.2e}")
    return CheckOutcome("mu_reconstruction", True, "weights reconstruct both regimes")


def run_all(tol=None):
    """Run every reproduction check; ``tol`` overrides the center
    coordinate tolerances."""
    kw = {} if tol is None else {"coord_tol": tol}
    outcomes = [
        check_euclidean_centers(**kw),
        check_kl_centers(**kw),
        check_is_dichotomy(**kw),
        check_mu_reconstruction(),
    ]
    return outcomes

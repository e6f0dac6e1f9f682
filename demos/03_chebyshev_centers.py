"""Chebyshev centers of the planar segment family, numeric versus exact.

The center minimizes the farthest Bregman distance to the segment from
(1, a) to (a, 1).  Closed forms: arithmetic mean of the endpoints for the
halved squared Euclidean distance, geometric mean for Kullback-Leibler,
and a harmonic-mean / three-point dichotomy for Itakura-Saito with a
switch near a = 17.63.
"""

import numpy as np

import bregcheb as bc

print("numeric solvers vs closed forms")
print(f"{'divergence':14s} {'a':>4s} {'numeric center':>24s} {'exact':>20s} {'|Q|':>4s}")
for generator in bc.Generator:
    for a in (4.0, 8.0, 16.0, 32.0):
        cfg = bc.CaseConfig(a, generator)
        F, C = cfg.legendre(), cfg.segment(41)
        cert = bc.solve_subgradient(F, C)
        z = cert.center
        print(f"{generator.value:14s} {a:4g} ({z[0]:10.6f}, {z[1]:10.6f}) "
              f"({cfg.center()[0]:8.6f}, {cfg.center()[1]:8.6f}) {len(cert.farthest):4d}")

print("\ncertificates carry simplex weights on the farthest-point gradients:")
cfg = bc.CaseConfig(32.0, bc.Generator.ITAKURA_SAITO)
cert = bc.solve_subgradient(cfg.legendre(), cfg.segment(41))
print("  numeric weights:", np.round(cert.weights, 6).tolist())
print("  exact weights:  ", [round(m, 6) for m in bc.mu_coefficients(32.0)])
print("  membership gap: ", cert.membership_gap)

a_tilde = bc.threshold_a()
print(f"\nthe Itakura-Saito dichotomy switches at a = {a_tilde:.6f}")
for a in (16.0, 17.0, a_tilde - 0.1, a_tilde + 0.1, 19.0, 32.0):
    g, h = bc.g_of(a), bc.h_of(a)
    branch = "(h,h), two farthest points" if g < h else "(g,g), three farthest points"
    print(f"  a = {a:9.4f}: g = {g:.5f}, h = {h:.5f} -> {branch}")

print("\nboth solvers agree from arbitrary interior starts:")
cfg = bc.CaseConfig(8.0, bc.Generator.KL)
F, C = cfg.legendre(), cfg.segment(21)
for x0 in ([0.5, 9.0], [7.0, 0.2], [1.0, 1.0]):
    c1 = bc.solve_fixed_point(F, C, x0=np.array(x0), tol=1e-4)
    c2 = bc.solve_subgradient(F, C, x0=np.array(x0))
    print(f"  start {x0}: fixed-point {np.round(c1.center, 8).tolist()}"
          f"  subgradient {np.round(c2.center, 8).tolist()}")

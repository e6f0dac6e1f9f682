"""Central numeric tolerances.

Every threshold used by the library and its test suite lives here so there is
a single source of truth for how ties, residuals, and slacks are resolved.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # argmax membership: D >= value * (1 - argmax_rel) - argmax_abs
    argmax_rel: float = 1e-9
    argmax_abs: float = 1e-12
    # subdifferential vertices closer than this are merged
    vertex_dedup: float = 1e-10
    # simplex weights must sum to one within this
    simplex_sum: float = 1e-10
    # slack for the hull-projection inequality D(x,c) >= D(x,y) + D(y,c)
    pythagoras_slack: float = 1e-8


DEFAULT = Tolerances()

"""Compact subsets of U: finite point lists and uniformly sampled segments."""

import enum
import json
from collections import namedtuple
from functools import partial

import numpy as np

from .bregman import dual_data
from .errors import DomainError
from .legendre import energy


class SetKind(enum.Enum):
    FINITE = "finite"
    SEGMENT = "segment"


# The center's dual problem: max <mu, K> - E*(G^T mu), E separable, over the
# simplex with (G, K) = W.dual_data(E); ``lift`` maps C into W, ``back`` back.
DualProblem = namedtuple("DualProblem", "E W lift back")


class CompactSet:
    """A finite point set, or a segment sampled at equally spaced parameters.

    A segment stores its two endpoints and a sample count, and materializes
    its samples once, with the endpoints always included; ``enumerate``
    returns that read-only array.

    Two slots each cache a value for the last generator asked about, so
    queries and solves on one set do not evict each other: ``dual_data(F)``,
    the read-only G = grad f(C) and K_c = <G_c, c> - f(c), so a farthest
    query costs one small product, and ``dual_problem(F)`` for
    ``quadratic``, with the whitened set.  Instances are immutable: points,
    samples and cached arrays never change, and a cache is a pure function
    of the set and the generator, so it changes no answer.  Each slot is set
    by one attribute assignment, so a race only computes a value twice.
    """

    def __init__(self, kind, points, samples=None):
        kind = SetKind(kind)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            raise ValueError("a compact set needs at least one point")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if kind is SetKind.SEGMENT:
            if points.shape[0] != 2:
                raise ValueError("a segment is given by exactly two endpoints")
            if np.array_equal(points[0], points[1]):
                raise ValueError("segment endpoints must be distinct")
            samples = int(samples)
            if samples < 2:
                raise ValueError("a segment needs at least 2 samples")
        elif samples is not None:
            raise ValueError("samples is only valid for segments")
        points.setflags(write=False)
        self.kind = kind
        self.points = points
        self.samples = samples
        if kind is SetKind.SEGMENT:
            lam = np.linspace(0.0, 1.0, samples)[:, None]
            self._enumerated = (1.0 - lam) * points[0] + lam * points[1]
            self._enumerated.setflags(write=False)
        else:
            self._enumerated = points
        self._dual = self._problem = None

    @classmethod
    def finite(cls, points):
        return cls(SetKind.FINITE, points)

    @classmethod
    def segment(cls, c0, c1, samples):
        return cls(SetKind.SEGMENT, [c0, c1], samples)

    def enumerate(self):
        """All represented points, in deterministic order.

        Finite sets keep insertion order; segments are listed by increasing
        parameter from the first endpoint to the second.
        """
        return self._enumerated

    def _cached(self, slot, F, build):
        """build(F), computed once and reused while later calls pass F again
        or a generator ``==`` to it."""
        cached = getattr(self, slot)
        if cached is None or not (cached[0] is F or cached[0] == F):
            cached = (F, build(F))
            setattr(self, slot, cached)
        return cached[1]

    def dual_data(self, F):
        """``bregman.dual_data`` of the enumerated points under F."""
        return self._cached("_dual", F, lambda F: dual_data(F, self._enumerated))

    def dual_problem(self, F):
        """The ``DualProblem`` of the set under F: (F, C) for a separable F,
        whose maps return an array as it is.  For ``quadratic`` with
        A = L L^T, D_A(x, c) = |x L - c L|^2 / 2: energy on the whitened
        points C L, lifted by x -> x L and mapped back by solving L^T z = u
        (maps that pickle, as the set does)."""
        L = F.quad_factor
        if L is None:
            return DualProblem(F, self, np.asarray, np.asarray)
        return self._cached("_problem", F, lambda F: DualProblem(
            energy(F.dimension), CompactSet.finite(self._enumerated @ L),
            L.__rmatmul__, partial(np.linalg.solve, L.T)))

    def __len__(self):
        return self.samples if self.kind is SetKind.SEGMENT else self.points.shape[0]

    def __iter__(self):
        return iter(self.enumerate())

    @property
    def dimension(self):
        return self.points.shape[1]

    def refined(self):
        """The same segment with samples doubled to 2s-1 (a strict superset)."""
        if self.kind is not SetKind.SEGMENT:
            raise ValueError("only segments can be refined")
        return CompactSet.segment(self.points[0], self.points[1], 2 * self.samples - 1)

    def to_json(self):
        obj = {"kind": self.kind.value, "points": self.points.tolist()}
        if self.kind is SetKind.SEGMENT:
            obj["samples"] = self.samples
        return obj

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(obj["kind"], obj["points"], obj.get("samples"))


def make_segment(F, a, samples):
    """The planar segment from (1, a) to (a, 1), sampled at ``samples`` points.

    Requires a > 1 and an odd sample count of at least 3 so the midpoint is
    always represented.  Validated against ``F`` at construction.
    """
    a = float(a)
    if not a > 1.0:
        raise ValueError("a must be > 1")
    samples = int(samples)
    if samples < 3 or samples % 2 == 0:
        raise ValueError("samples must be odd and >= 3")
    seg = CompactSet.segment([1.0, a], [a, 1.0], samples)
    validate(seg, F)
    return seg


def validate(C, F):
    """Check every represented point lies in U; raise DomainError otherwise."""
    pts = C.enumerate()
    if pts.shape[1] != F.dimension:
        raise DomainError(
            f"set has dimension {pts.shape[1]}, generator expects {F.dimension}"
        )
    ok = F.in_interior(pts)
    if not np.all(ok):
        idx = int(np.argmin(ok))
        raise DomainError(
            f"point {idx} = {pts[idx].tolist()} lies outside the interior of dom f"
        )

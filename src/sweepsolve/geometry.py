"""State-space primitives: the vector norm, read-only storage of finite
vectors and of finite numbers, the schema-document equality of shapes, paths
and families, time grids and nested refinement schedules.

Vectors are plain 1-D float64 numpy arrays.  Time grids used by refinement
schedules are dyadic subdivisions of [0, T] so that nestedness holds exactly
in floating point (multiplying a node index by 2 and halving the step are
both exact operations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DYADIC_K = 24  # the finest supported dyadic grid has 2**MAX_DYADIC_K intervals


_TINY = np.finfo(float).tiny  # the smallest normal float


def norm(u: np.ndarray) -> float:
    # What np.linalg.norm computes for a 1-D float array, without its overhead,
    # but to full precision and 0 only at 0: a nonzero u whose sum of squares
    # is subnormal (lost digits) or 0 (underflow) is scaled by its max first.
    q = u.dot(u)
    if not q < _TINY or not any(u.tolist()):
        return math.sqrt(q)
    m = float(np.abs(u).max())
    return m * norm(u / m)


def norms(U: np.ndarray) -> np.ndarray:
    # norm of each row, bit for bit: np.vecdot is each row's u.dot(u), as U @ u
    # is not, and nonzero rows whose sum of squares is below _TINY go through norm.
    q = np.vecdot(U, U)
    s = np.sqrt(q)
    for i in np.flatnonzero((q < _TINY) & U.any(axis=1)):
        s[i] = norm(U[i])
    return s


def readonly(v, ndim: int = 1) -> np.ndarray:
    """A read-only float copy of v, an ndim-dimensional array of finite
    numbers: how shapes, paths and families store vectors (and a rigid image
    its rotation)."""
    a = np.array(v, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array of numbers, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"expected finite numbers, got {a[~np.isfinite(a)][0]}")
    a.flags.writeable = False
    return a


def finite(x) -> float:
    """x as a finite float: how shapes, paths and families store numbers."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v}")
    return v


class Schema:
    """An immutable value whose identity is its schema document: two are equal
    when they have the same type and equal to_dict() documents.  Their array
    fields rule out a generated dataclass __eq__, and make them unhashable."""

    def __eq__(self, other):
        return type(self) is type(other) and self.to_dict() == other.to_dict()


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing finite subdivision of a time interval."""

    times: np.ndarray

    def __post_init__(self):
        t = readonly(self.times)
        if t.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "times", t)

    @staticmethod
    def uniform(horizon: float, intervals: int) -> "TimeGrid":
        if horizon <= 0 or intervals < 1:
            raise ValueError("horizon must be positive and intervals >= 1")
        h = horizon / intervals
        return TimeGrid(np.arange(intervals + 1) * h)

    @staticmethod
    def dyadic(horizon: float, k: int) -> "TimeGrid":
        """Uniform grid with 2**k intervals; nodes j*(T/2**k) are exactly nested across k."""
        if k < 0 or k > MAX_DYADIC_K:
            raise ValueError(f"dyadic resolution out of the supported range [0, {MAX_DYADIC_K}]")
        return TimeGrid.uniform(horizon, 2**k)

    @property
    def t_first(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    def refines(self, coarser: "TimeGrid") -> bool:
        """True when every node of `coarser` is exactly a node of this grid."""
        pos = np.searchsorted(self.times, coarser.times)
        if np.any(pos >= len(self.times)):
            return False
        return bool(np.all(self.times[pos] == coarser.times))

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return np.array_equal(self.times, other.times)

    def __repr__(self):
        return (f"TimeGrid({self.n_intervals} intervals on "
                f"[{self.t_first:g}, {self.t_last:g}], mesh={self.mesh:.3g})")


@dataclass(frozen=True)
class RefinementSchedule:
    """Nested refinement data: decreasing tolerances, step lengths and dyadic grids.

    eps[n] bounds every catching-up jump at level n; delta[n] is a step length
    certified against the family's one-sided continuity; grids[n] has mesh
    <= delta[n] and its nodes are a subset of grids[n+1]'s.  eps follows a
    geometric template eps0 * ratio**n, hence sums to a finite value.
    """

    eps: tuple
    delta: tuple
    grids: tuple
    r: float
    eps0: float
    ratio: float

    def __post_init__(self):
        if len(self.eps) != len(self.delta) or len(self.eps) != len(self.grids):
            raise ValueError("eps, delta and grids must have equal lengths")
        if len(self.eps) < 1:
            raise ValueError("a schedule needs at least one level")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("eps ratio must lie in (0, 1)")
        for n, e in enumerate(self.eps):
            if not (0.0 < e < self.r):
                raise ValueError(f"eps[{n}]={e} violates 0 < eps < r={self.r}")
            if n > 0 and not e < self.eps[n - 1]:
                raise ValueError("eps must be strictly decreasing")
            if not math.isclose(e, self.eps0 * self.ratio**n, rel_tol=1e-12):
                raise ValueError("eps must follow the geometric template")
        for n, (d, g) in enumerate(zip(self.delta, self.grids)):
            if d <= 0:
                raise ValueError(f"delta[{n}] must be positive")
            if g.mesh > d:
                raise ValueError(f"grids[{n}].mesh={g.mesh} exceeds delta[{n}]={d}")
        for n in range(len(self.grids) - 1):
            if not self.grids[n + 1].refines(self.grids[n]):
                raise ValueError(f"grids[{n + 1}] does not refine grids[{n}]")

    @property
    def levels(self) -> int:
        return len(self.eps)

    @property
    def horizon(self) -> float:
        return self.grids[0].t_last

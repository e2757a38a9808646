"""Static prox-regular set primitives.

Each shape supports exact distance, single-valued projection (the
excluded-ball center has none, and projecting it raises AtSingularity),
containment via the defining inequalities, whose defect at a member is
exactly minus its distance to the complement, a closed-form upper bound of
the normal-cone defect of a candidate normal (normal_defect), and seeded
member sampling, which serves only the audit of those bounds off 2-D
polyhedra (window_residual).  Convex shapes have
r = inf and no curvature terms; the ball complement is the nonconvex
primitive, with r its radius.  Each shape writes its projection, which also
tests the point, once over one row of a family's field table
(_project_fields, stepped along a block of rows by _steps, in 2-D Python floats
on a half-space or round shape), and its membership defects and normal-defect
bounds once over a piece's rows, one or more (_defects, _normal_defects), bit for
bit per row; a slice is its own one-row piece: solve and certify_steps build none.
A row holds arrays and numbers (and a polytope's factor cache, shared by
its translates, as is each array that does not move, a read-only view), no
shape but a rigid image's base: a polytope is its face arrays, normals and
offsets, each face stored once (polytope() builds one from half-spaces), its
interior point and that point's slacks b - A p, the start of its finite
primal active-set solve, which returns the point with its distance only
after a KKT check that lets NaN through, as every shape's projection does.
A constructor given NaN or an infinity raises ValueError.

Each shape class also owns its schema document (a tag in SHAPES plus
to_dict/from_dict), its translates by the rows of an array (_moved), its
rules for bounds of the excess of one shape over another (excess_of on the
shape the excess is taken over, _excess_over_convex on the shape it is
taken of), the distances with tol = 0.0 those rules read, of a set of
points at once (_distances: a bounded polygon's from its corners and the
points' feet on its face lines in one array pass, with no active-set solve),
its faces in the world frame where it is polyhedral (inequalities), and its
farthest point from a given point (farthest_from), known only for a bounded
shape.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AtSingularity,
    DidNotConverge,
    DimensionMismatch,
    EmptyIntersection,
    NotAMember,
)
from .geometry import _TINY, Schema, finite, norm, norms, readonly

# Absolute tolerance on the defining inequalities; distances below it snap to 0
# so the catching-up containment invariant stays testable under rounding.
CONTAINMENT_TOL = 1e-10

# Tolerance on |normal| - 1 for a half-space normal to count as unit.
UNIT_NORMAL_TOL = 1e-12

# Relative rounding floor for the active-set step: a face whose rate along the
# step is below this share of |y - x| is parallel to the working faces.
_SPAN_EPS = 64 * np.finfo(float).eps

# Rounding allowance of a normal-defect bound, per dimension and per unit of
# the magnitudes that enter it: each bound is a few dot products, norms and
# differences, each off by at most about dim * eps times their size.  Below the
# normal range a product, quotient or root is off by up to ulp(0) / 2 whatever its
# size, which a bound scales by at most R + 1 <= 16 (dim <= 25): a floor per dimension.
_DEFECT_ROUNDING, _UNDERFLOW_ROUNDING = 8 * np.finfo(float).eps, 8 * math.ulp(0.0)


def _rounding(dim: int, scale: float) -> float:
    return _DEFECT_ROUNDING * (dim + 2) * scale + (dim + 2) * _UNDERFLOW_ROUNDING


def _repeat(value, k: int):
    """value once per row of k rows: a read-only view of an array, else a list."""
    if isinstance(value, np.ndarray):
        return np.broadcast_to(value, (k, *value.shape))
    return [value] * k


def _max(a, b):
    return np.where(b > a, b, a)  # max(a, b) elementwise, NaN and -0.0 as max returns them


def _peak(values, start: float = -math.inf) -> float:
    """ndarray.max(initial=start) of a short list (NaN if one is), without its wrapper."""
    for v in values:
        if v != v:
            return v
        start = v if v > start else start
    return start


def _line_corners(A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """(k, 2) array of the pairwise intersections of the lines a_i x = b_i in
    the plane (pairs with |det| < 1e-12 skipped) where A x <= b holds up to
    tol: the vertices of {A x <= b} when it is bounded.  The batched solve
    gives each pair's vertex bit for bit as a solve of that pair alone."""
    pairs = np.array(list(itertools.combinations(range(len(b)), 2)), dtype=int).reshape(-1, 2)
    pairs = pairs[np.abs(np.linalg.det(A[pairs])) >= 1e-12]
    V = np.linalg.solve(A[pairs], b[pairs][..., None])[..., 0]
    return V[(V @ A.T - b <= tol).all(axis=1)]


class ProxSet(Schema):
    """Common interface: immutable value, pure operations.  Vector fields are
    read-only float arrays; equality compares schema documents.  r is the
    prox-regularity radius, inf (convex) unless a shape overrides it: only the
    ball complement (its radius) and a rigid image (its base's) do."""

    dim: int
    r = math.inf
    tag: str  # the "shape" value of the schema document
    # Whether the set is known to be bounded, or known to be unbounded; a
    # polytope of dimension 3 or more with more faces than dimensions is
    # neither.
    bounded = False
    unbounded = False

    def membership_defect(self, y) -> float:
        """Worst violation of the defining inequalities (<= 0 means inside), as
        _defects gives it on this slice's row.  At a member y it is exactly minus the
        distance from y to the complement, so the open ball B_rho(y) lies in
        the set iff rho + defect <= 0."""
        return float(self._defects(self._rows, self._vector(y)[None])[0])

    @classmethod
    def _defects(cls, rows, P: np.ndarray) -> np.ndarray:
        """The membership defect of each row of P on the slice of the same row
        of slice_fields' rows: bit for bit the one _project_fields tests."""
        raise NotImplementedError

    def translated(self, u: np.ndarray) -> "ProxSet":
        """The same shape moved by u: the one row of _moved."""
        moved = self._moved(self._vector(u)[None])
        return self._from_valid([values[0] for values in moved.values()])

    def _moved(self, U: np.ndarray) -> dict:
        """The fields of the shape moved by each row u of U: field name ->
        sequence of values, one per u and each computed as for that u alone."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """Schema document, read back by SHAPES[self.tag].from_dict."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, fields) -> "ProxSet":
        """Build from a schema reader (scenarios._Fields) whose num, vec,
        matrix, objects and shape methods return validated fields by name."""
        raise NotImplementedError

    def vertices(self):
        """(k, dim) array of finitely many points whose convex hull is the
        set, or None when the set is not known to be one."""
        return None

    def inequalities(self):
        """(A, b), the set as {x : A x <= b} in the world frame, the rows of A
        its faces' unit outward normals; None where it is not known as such."""
        return None

    def excess_of(self, A: "ProxSet"):
        """(lower, upper, witness) with lower <= e(A, self) <= upper and the
        witness a point of A at distance lower from self (NaN when lower is
        inf), or None when no rule applies.  Over a convex set, A's rule
        (_excess_over_convex) applies."""
        return A._excess_over_convex(self) if self.r == math.inf else None

    def _excess_over_convex(self, other: "ProxSet"):
        """excess_of's bounds of the excess of self over a convex other, or
        None.  d(., other) is convex, so over the convex hull of vertices it
        peaks at one of them; an unbounded set is infinitely far out of a
        bounded one."""
        verts = self.vertices()
        if verts is not None:
            dists = other._distances(verts)
            k = int(np.argmax(dists))
            return dists[k], dists[k], verts[k]
        if self.unbounded and other.bounded:
            return math.inf, math.inf, np.full(self.dim, math.nan)
        return None

    def farthest_from(self, p: np.ndarray):
        """(point, distance) of a point of the set farthest from p, attained
        at a vertex; None where vertices() is None: an unbounded set has no
        farthest point, and a rigid image's is not derived."""
        verts = self.vertices()
        if verts is None:
            return None
        dists = [norm(v - p) for v in verts]
        k = int(np.argmax(dists))
        return verts[k], dists[k]

    def normal_defect(self, x, n, halfwidth: float) -> float:
        """Sound upper bound of the normal-cone defect of n at x in the window:
        sup over members z with |z - x|_inf <= halfwidth of
        <n, z - x> - (|n|/(2r))|z - x|^2, the curvature term dropped when
        r = inf.  A bound <= 0 proves n a proximal normal of the set at x as
        far as the window reaches (Colombo & Thibault 2010).

        Each shape's bound rests on an inequality that holds for every
        multiplier >= 0, so it is sound however the multiplier was found, and
        carries an explicit rounding allowance.  The window enters only through
        the radius R = halfwidth*sqrt(dim) of the Euclidean ball around it, so
        a rigid image passes it on to its base unchanged.  NaN in x or n gives
        NaN.
        """
        x, n = self._vector(x), self._vector(n)
        if not (np.isfinite(x).all() and np.isfinite(n).all()):
            return math.nan
        R = halfwidth * math.sqrt(self.dim)  # the one-row _normal_defects, on this slice's row
        return float(self._normal_defects(self._rows, x[None], n[None], R)[0])

    @classmethod
    def _normal_defects(cls, rows, X: np.ndarray, N: np.ndarray, R: float) -> np.ndarray:
        """normal_defect's bounds (R the window's radius) at x, n, the rows of X, N,
        on the slice of each row of slice_fields' rows, as one array: certify_steps'
        one call per piece."""
        raise NotImplementedError

    def _vector(self, y) -> np.ndarray:
        """y as a float array, checked to be a vector of this dimension: what
        _distance and _project_with_distance take without a check."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch(f"expected dim {self.dim}, got shape {y.shape}")
        return y

    def contains(self, y) -> bool:
        return self.membership_defect(y) <= CONTAINMENT_TOL

    def distance(self, y) -> float:
        return self._distance(self._vector(y))

    def _distance(self, y: np.ndarray, tol: float = CONTAINMENT_TOL) -> float:
        """The distance of _project_with_distance(y, tol) (a rigid image's, its base's at the
        pulled-back y), and at an excluded-ball center, which has no projection, its radius."""
        try:
            return self._project_with_distance(y, tol)[1]
        except AtSingularity as err:
            return err.distance

    def _distances(self, P: np.ndarray) -> np.ndarray:
        """Array of the distances with tol = 0.0 of the finite rows of P, the
        excess rules' one call per set of points: _distance(v, 0.0) per row,
        unless the shape has an array pass (a bounded polygon's, each value
        the distance to a point of it; a rigid image's pull to its base's)."""
        return np.array([self._distance(v, 0.0) for v in P], dtype=float)

    def _nearest(self, y: np.ndarray) -> tuple:
        """(point, distance) of _project_with_distance(y, 0.0), and at the
        center of the set's own excluded ball, where every point of its
        sphere is nearest, the radius and the projection of a step of half
        of it off y, which is still inside that ball, so on the sphere."""
        try:
            return self._project_with_distance(y, 0.0)
        except AtSingularity as err:
            d = err.distance
            return self._project_with_distance(y + 0.5 * d * np.eye(self.dim)[0], 0.0)[0], d

    def project(self, y) -> np.ndarray:
        return self.project_with_distance(y)[0]

    def project_with_distance(self, y) -> tuple:
        """(projection, distance) of y; a member is its own projection."""
        return self._project_with_distance(self._vector(y))

    def _project_with_distance(self, y: np.ndarray, tol: float = CONTAINMENT_TOL) -> tuple:
        return self._project_fields(self._row, y, tol)

    @cached_property
    def _row(self) -> tuple:
        """The field values in dataclass field order: the slice's row of slice_fields."""
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    @cached_property
    def _rows(self) -> dict:
        """The slice's row as a one-row piece of slice_fields: field name -> [value]."""
        return {name: [value] for name, value in zip(self.__dataclass_fields__, self._row)}

    @classmethod
    def _from_valid(cls, fields) -> "ProxSet":
        """The instance whose field values are fields, in dataclass field order
        (one row of slice_fields), already valid, read-only and of their stored
        types, made without __post_init__: how a family builds its slices."""
        shape = object.__new__(cls)
        shape.__dict__.update(zip(cls.__dataclass_fields__, fields))
        return shape

    @classmethod
    def _project_fields(cls, fields, y: np.ndarray, tol: float) -> tuple:
        """(projection, distance) of y on the slice of fields, one row of
        slice_fields (each row that _steps steps): a copy of y at distance 0
        where the membership defect is at most tol (with tol = 0.0, where every
        defining inequality holds), else above tol."""
        raise NotImplementedError

    @classmethod
    def _steps(cls, rows, y: np.ndarray, tol: float, r: float, P: list, D: list) -> None:
        """solve's steps from y over rows, a block of slice_fields' rows: each row's
        _project_fields point and distance appended to P, D up to one at rest (0.0) or >= r.
        A 2-D half-space or round shape does the same operations in Python floats but the dot,
        which stays numpy's: a 2-D ndarray.dot is fma(a1, b1, a0 * b0), and 3.11 lacks math.fma."""
        for fields in zip(*rows.values()):
            y, d = cls._project_fields(fields, y, tol)
            P.append(y)
            D.append(d)
            if d == 0.0 or d >= r:
                return


@dataclass(frozen=True, eq=False)
class HalfSpace(ProxSet):
    """{x : <normal, x> <= offset} with a unit normal."""

    tag = "halfspace"
    unbounded = True
    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = readonly(self.normal)
        n = norm(a)
        if abs(n - 1.0) > UNIT_NORMAL_TOL:
            raise ValueError(f"half-space normal must be unit (|a|={n!r}); use halfspace()")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", finite(self.offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    @staticmethod
    def _defects(rows, P):
        return np.vecdot(np.reshape(rows["normal"], P.shape), P) - np.array(rows["offset"])

    @staticmethod
    def _project_fields(fields, y, tol):
        # One <normal, y> (ndarray.dot: the product of @, called with less
        # overhead) both tests y and projects it; a non-member's distance is
        # its defect, NaN included.
        normal, offset = fields
        excess = float(normal.dot(y)) - offset
        if excess <= tol:
            return y.copy(), 0.0
        return y - excess * normal, excess

    @classmethod
    def _steps(cls, rows, y, tol, r, P, D):
        if len(y) != 2:
            return super()._steps(rows, y, tol, r, P, D)
        (y0, y1), (a, b) = y.tolist(), np.empty((2, 2))
        for (n0, n1), offset in zip(np.asarray(rows["normal"]).tolist(), rows["offset"]):
            a[0], a[1], b[0], b[1] = n0, n1, y0, y1
            d = float(a.dot(b)) - offset
            d, y0, y1 = (0.0, y0, y1) if d <= tol else (d, y0 - d * n0, y1 - d * n1)
            P.append((y0, y1))
            D.append(d)
            if d == 0.0 or d >= r:
                return

    @classmethod
    def _normal_defects(cls, rows, X, N, R):
        # <n, z-x> <= lam (offset - <a, x>) + |n - lam a| R for any lam >= 0.
        A, b = np.reshape(rows["normal"], X.shape), np.array(rows["offset"])
        with np.errstate(all="ignore"):  # as the scalar bound, inf and NaN propagate
            lam = _max(np.vecdot(N, A), 0.0)
            value = lam * (b - np.vecdot(A, X)) + norms(N - lam[:, None] * A) * R
            return value + _rounding(A.shape[1], norms(N) * (R + np.abs(b) + norms(X)))

    def inequalities(self):
        return self.normal[None, :], np.array([self.offset])

    def boundary_anchor(self) -> np.ndarray:
        return self.offset * self.normal

    def _moved(self, U):
        # The shared normal, still unit, as a read-only view of it per row.  Per-row
        # dots, each as normal.dot(u) alone: U @ normal (a matmul) rounds differently,
        # and in 1-D np.vecdot adds the one product to +0.0, which drops a -0.0.
        dots = np.vecdot(U, self.normal) if self.dim > 1 else U[:, 0] * self.normal[0]
        return {"normal": _repeat(self.normal, len(U)), "offset": (self.offset + dots).tolist()}

    def to_dict(self):
        return {"shape": self.tag, "normal": self.normal.tolist(), "offset": self.offset}

    @classmethod
    def from_dict(cls, fields):
        return halfspace(fields.vec("normal"), fields.num("offset"))

    def _excess_over_convex(self, other):
        # A face normal m of other apart from n by more than rounding: self
        # holds the ray along m - <n, m> n (-n when m = -n), which leaves
        # that face's half-space, and so other, without bound.  Every face
        # normal equal to n: other is {<n, x> <= min offset}, as far from
        # the boundary anchor as from any point of self's boundary.  Normals
        # that differ by about rounding: parallel or not is unknown.
        normals, _ = other.inequalities() or (np.zeros((0, self.dim)), None)
        if other.bounded or (normals @ self.normal < 1.0 - 1e-12).any():
            return math.inf, math.inf, np.full(self.dim, math.nan)
        if len(normals) and (normals == self.normal).all():
            anchor = self.boundary_anchor()
            d = other._distance(anchor, 0.0)
            return d, d, anchor
        return None


def halfspace(normal, offset: float) -> HalfSpace:
    """Build a half-space, normalizing the normal (and scaling the offset)."""
    a = readonly(normal)
    n = norm(a)
    if n == 0.0:
        raise ValueError("half-space normal must be nonzero")
    if abs(n - 1.0) <= UNIT_NORMAL_TOL:
        # Already unit: avoid perturbing the stored floats (round-trip stability).
        return HalfSpace(a, float(offset))
    return HalfSpace(a / n, float(offset) / n)


@dataclass(frozen=True, eq=False)
class _Round(ProxSet):
    """Center and radius of the ball and the excluded ball, with their schema
    document, translate, projection and distance; subclasses set tag, noun
    and _sign, +1 for the ball and -1 for its complement: the membership
    defect is _sign * (|y - center| - radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        radius = finite(self.radius)
        if radius <= 0:
            raise ValueError(f"{self.noun} radius must be positive")
        object.__setattr__(self, "center", readonly(self.center))
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return len(self.center)

    @classmethod
    def _defects(cls, rows, P):
        centers, radii = np.reshape(rows["center"], P.shape), np.array(rows["radius"])
        return cls._sign * (norms(P - centers) - radii)

    @classmethod
    def _project_fields(cls, fields, y, tol):
        # One |y - c| both tests y and projects it.
        center, radius = fields
        d = y - center
        dist = norm(d)
        if cls._sign * (dist - radius) <= tol:
            return y.copy(), 0.0
        # A ball projects outside points, its complement inside ones: either
        # way the distance is |dist - radius| (the defect; NaN stays NaN).
        if radius * dist < _TINY:
            # Only the excluded ball gets its center here: every sphere point
            # is nearest, so no projection, at distance radius.  Within about
            # 1e-308 of it, radius * d would underflow and lose its digits.
            if dist == 0.0:
                raise AtSingularity(radius)
            return center + radius * (d / dist), abs(dist - radius)
        return center + radius * d / dist, abs(dist - radius)

    @classmethod
    def _steps(cls, rows, y, tol, r, P, D):
        if len(y) != 2:
            return super()._steps(rows, y, tol, r, P, D)
        (y0, y1), g, tiny = y.tolist(), np.empty(2), float(_TINY)
        for (c0, c1), radius in zip(np.asarray(rows["center"]).tolist(), rows["radius"]):
            g0, g1 = g[0], g[1] = y0 - c0, y1 - c1
            dist = norm(g)
            d = abs(dist - radius)
            if cls._sign * (dist - radius) <= tol:
                d = 0.0
            elif dist == 0.0:
                raise AtSingularity(radius)
            elif radius * dist < tiny:
                y0, y1 = c0 + radius * (g0 / dist), c1 + radius * (g1 / dist)
            else:
                y0, y1 = c0 + radius * g0 / dist, c1 + radius * g1 / dist
            P.append((y0, y1))
            D.append(d)
            if d == 0.0 or d >= r:
                return

    def _moved(self, U):
        # The radius, still positive, is kept.
        return {"center": readonly(self.center + U, 2), "radius": _repeat(self.radius, len(U))}

    def to_dict(self):
        return {"shape": self.tag, "center": self.center.tolist(), "radius": self.radius}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.vec("center"), fields.num("radius"))


class Ball(_Round):
    tag = "ball"
    noun = "ball"
    _sign = 1.0
    bounded = True

    @classmethod
    def _normal_defects(cls, rows, X, N, R):
        # With u = (x-c)/|x-c|, every member has <u, z-x> <= radius - |x-c|, so
        # <n, z-x> <= s (radius - |x-c|) + |n - s u| R for any s >= 0.
        V, radius = X - np.reshape(rows["center"], X.shape), np.array(rows["radius"])
        with np.errstate(all="ignore"):  # u = 0 at the center; inf and NaN propagate
            dist = norms(V)
            U = np.where(dist[:, None] > 0, V / dist[:, None], 0.0)
            s = _max(np.vecdot(N, U), 0.0)
            value = s * (radius - dist) + norms(N - s[:, None] * U) * R
            return value + _rounding(V.shape[1], norms(N) * (R + dist + radius))

    def farthest_from(self, p):
        gap = self.center - p
        dist = norm(gap)
        direction = gap / dist if dist > 0 else np.eye(self.dim)[0]
        return self.center + self.radius * direction, dist + self.radius

    def excess_of(self, A):
        # d(x, self) = (|x - center| - radius)^+ peaks at the point of A
        # farthest from the center: (far - radius)^+ is exact.
        far = A.farthest_from(self.center)
        if far is None:
            return super().excess_of(A)
        x, dist = far
        value = max(dist - self.radius, 0.0)
        return value, value, x

    def _excess_over_convex(self, other):
        c = self.center
        p, d = other._project_with_distance(c, 0.0)
        if d > CONTAINMENT_TOL:
            # d(., other) grows at rate 1 along the outward normal (c - p)/|c - p|
            # (not /d: p's rounding, as a rigid image moves it back, swamps a
            # tiny d) and at most at rate 1 anywhere: d + radius is exact.
            return d + self.radius, d + self.radius, c + (self.radius / norm(c - p)) * (c - p)
        # The center is in other or within rounding of it: probe the far
        # points along other's face normals and +-e_i; d(., other) is 1-Lipschitz,
        # so d + radius bounds it above.  Exact for one face: (<n, c> + radius - b)^+;
        # and 0 when every probe is a member, for then the ball lies in other.
        normals, _ = other.inequalities() or (np.zeros((0, self.dim)), None)
        dirs = np.vstack([normals, np.eye(self.dim), -np.eye(self.dim)])
        far = c + self.radius * (dirs / np.linalg.norm(dirs, axis=1)[:, None])
        dists = other._distances(far)
        k = int(np.argmax(dists))
        exact = len(normals) == 1 or (len(normals) > 1 and dists[k] == 0.0)
        return dists[k], dists[k] if exact else d + self.radius, far[k]


@dataclass(frozen=True, eq=False)
class Box(ProxSet):
    tag = "box"
    bounded = True
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = readonly(self.lo), readonly(self.hi)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box requires lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def _defects(rows, P):
        lo, hi = np.reshape(rows["lo"], P.shape), np.reshape(rows["hi"], P.shape)
        return np.maximum(lo - P, P - hi).max(axis=1)

    @staticmethod
    def _project_fields(fields, y, tol):
        lo, hi = fields
        if float(np.maximum(lo - y, y - hi).max()) <= tol:
            return y.copy(), 0.0
        p = np.clip(y, lo, hi)
        return p, norm(y - p)

    @classmethod
    def _normal_defects(cls, rows, X, N, R):
        # Coordinate by coordinate: n_i (z_i - x_i) is at most |n_i| times the
        # room up to the face that n_i points at, and at most |n_i| R.
        lo, hi, dim = np.reshape(rows["lo"], X.shape), np.reshape(rows["hi"], X.shape), X.shape[1]
        with np.errstate(all="ignore"):  # as the scalar bound, inf and NaN propagate
            room = np.where(N >= 0.0, hi - X, X - lo)
            return np.vecdot(np.abs(N), np.minimum(room, R)) + _rounding(dim, norms(N) * R * dim)

    def _moved(self, U):
        # Both corners move by u, so lo < hi still holds.
        return {"lo": readonly(self.lo + U, 2), "hi": readonly(self.hi + U, 2)}

    def to_dict(self):
        return {"shape": self.tag, "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.vec("lo"), fields.vec("hi"))

    def vertices(self):
        return np.array(list(itertools.product(*zip(self.lo, self.hi))))

    def inequalities(self):
        return np.vstack([np.eye(self.dim), -np.eye(self.dim)]), np.concatenate([self.hi, -self.lo])


@dataclass(frozen=True, eq=False)
class Polytope(ProxSet):
    """{x : A x <= b} for the unit rows A of normals and b = offsets, with a
    stored strictly feasible interior point; polytope() builds one from faces.

    Projection is a primal active-set solve from the interior point p, whose
    slack b - A p is stored (_slack), and returns only a KKT-checked point.
    Products over the space dimension use ndarray.dot, @'s bits without
    matmul's dispatch; on an inner dimension of 1 the two can differ, so @
    stays on products over the working faces and on every product in 1-D.
    """

    tag = "polytope"
    normals: np.ndarray
    offsets: np.ndarray
    interior: np.ndarray
    _slack: tuple = field(init=False, repr=False)
    _max_steps: int = field(init=False, repr=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        A, b, p = readonly(self.normals, 2), readonly(self.offsets), readonly(self.interior)
        m, dim = A.shape
        if m < 1 or b.shape != (m,) or p.shape != (dim,):
            raise ValueError("polytope needs m >= 1 normals, m offsets and a point of their dim")
        if (np.abs(norms(A) - 1.0) > UNIT_NORMAL_TOL).any():
            raise ValueError("polytope normals must be unit; use polytope()")
        slack = b - A @ p
        if not slack.min() > 0.0:
            raise ValueError(f"interior point is not strictly feasible (defect {-slack.min():.3e})")
        # Step bound of the active-set solve: between two full steps it adds at
        # most dim faces, and since the objective falls from one full step to
        # the next, each working set (at most dim faces) ends one at most once.
        working_sets = sum(math.comb(m, k) for k in range(min(m, dim) + 1))
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "interior", p)
        object.__setattr__(self, "_slack", tuple(slack.tolist()))
        object.__setattr__(self, "_max_steps", (dim + 1) * working_sets)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def faces(self) -> tuple:
        """The faces as half-spaces, built when asked."""
        return tuple(HalfSpace(a, b) for a, b in zip(self.normals, self.offsets.tolist()))

    @staticmethod
    def _defects(rows, P):
        # One stacked matmul: each row's A y, bit for bit as A @ y alone (P @ A.T is not).
        A, b = np.asarray(rows["normals"]), np.asarray(rows["offsets"])
        return (np.matmul(A, P[:, :, None])[..., 0] - b).max(axis=1)

    @classmethod
    def _solve(cls, fields, y):
        """Nearest point to y: primal active-set method for min |x - y|^2, Ax <= b.

        The iterate x stays feasible.  Each step heads for the nearest point
        to y on the faces of the working set and stops at the first face it
        would cross, which joins the set.  At that nearest point a face with
        a negative multiplier leaves the set; when none has one, the KKT
        conditions are checked before x is returned, and let NaN through.

        Returns (x, |y - x|, W, lam): the nearest point, its distance, the
        indices W of its working faces and their multipliers lam >= 0.
        """
        A, b, x, slack, max_steps, _ = fields
        dot = np.ndarray.dot if len(x) > 1 else np.matmul
        work: list = []
        for _ in range(max_steps):
            Aw, N, M, P = cls._working_faces(fields, tuple(work))
            r = y - x
            # The step drops the part of r in the span of the working faces,
            # so x stays on them.
            step = dot(N, r)
            rate = dot(A, step)
            # A face whose normal lies in the span of the working faces sees
            # only rounding in its rate and must not block.
            floor = _SPAN_EPS * math.sqrt(float(dot(r, r)))
            alpha, blocking = 1.0, -1
            for i, rate_i in enumerate(rate.tolist()):
                if rate_i > floor and i not in work:
                    if slack is None:
                        slack = (b - dot(A, x)).tolist()
                    ratio = max(slack[i], 0.0) / rate_i
                    if ratio < alpha:
                        alpha, blocking = ratio, i
            if blocking >= 0:
                x = x + alpha * step
                work.append(blocking)
            else:
                # A long step loses about eps * |y - x| to cancellation across
                # the working faces; put x back on them.
                x, bw = x + step, b[work]
                x = x - P @ (dot(Aw, x) - bw)
                d = y - x
                lam = dot(M, d)  # least-norm multipliers at the corrected x: d = A_W^T lam
                if all(v >= 0.0 for v in lam.tolist()):
                    # A_W x is read on its own: far out, rows of A x round apart from it.
                    infeasible = _peak((dot(A, x) - b).tolist())
                    off_face = _peak([abs(v) for v in (dot(Aw, x) - bw).tolist()], 0.0)
                    dist, stationarity = norm(d), norm(d - lam @ Aw)
                    if (infeasible > CONTAINMENT_TOL or off_face > CONTAINMENT_TOL
                            or stationarity > CONTAINMENT_TOL * max(1.0, dist)):
                        raise DidNotConverge(f"projection failed its KKT check (infeasibility "
                                             f"{infeasible:.3e}, off-face {off_face:.3e}, "
                                             f"stationarity {stationarity:.3e})")
                    return x, dist, tuple(work), lam
                del work[int(np.argmin(lam))]
            slack = None
        raise DidNotConverge(f"active-set projection exceeded {max_steps} steps for {len(A)} faces")

    @staticmethod
    def _working_faces(fields, work: tuple):
        """(A_W, N, M, P) for the faces W, which depend on A alone: cached per W
        in the factor cache that the translates of one polytope share, which
        read their own b_W from the row.  From A_W^T = QR:
        N = I - QQ^T projects onto their null space, M = R^-1 Q^T gives the
        least-norm multipliers and P = QR^-T maps a face residual back onto
        the faces.  QR, unlike inverting A_W A_W^T, does not square the
        condition number, so faces 1e-9 rad apart still factor."""
        A, factors = fields[0], fields[-1]
        cached = factors.get(work)
        if cached is None:
            Aw = A[list(work)]
            Q, R = np.linalg.qr(Aw.T)
            diag = np.abs(np.diag(R))
            if len(work) and diag.min() <= _SPAN_EPS * diag.max():
                raise DidNotConverge(f"faces {list(work)} are numerically dependent")
            Rinv = np.linalg.inv(R)
            cached = factors[work] = (Aw, np.eye(A.shape[1]) - Q @ Q.T, Rinv @ Q.T, Q @ Rinv.T)
        return cached

    @classmethod
    def _project_fields(cls, fields, y, tol):
        # NaN: a non-member.  Each row is only compared with tol, so dot serves in 1-D too.
        if all(v <= tol for v in (fields[0].dot(y) - fields[1]).tolist()):
            return y.copy(), 0.0
        return cls._solve(fields, y)[:2]

    @staticmethod
    def _face_bounds(Aw, bw, lam, X, N, R):
        """(bound, |n - A_W^T lam|) at each row x, n of X, N from the faces A_W,
        with that row's offsets b_W and multipliers lam (rows of bw and lam):
        one stacked product per term, each row rounded as alone."""
        off = norms(N - np.matmul(lam[:, None], Aw)[:, 0])
        value = np.matmul(lam[:, None], (bw - np.matmul(Aw, X[:, :, None])[..., 0])[..., None])
        scale = norms(N) * R + lam.sum(axis=1) * (R + norms(X) + np.abs(bw).sum(axis=1))
        return value[:, 0, 0] + off * R + _rounding(X.shape[1], scale), off

    @classmethod
    def _normal_defects(cls, rows, X, N, R):
        # For any lam >= 0 on faces W, every member has
        # <n, z-x> <= lam^T (b_W - A_W x) + |n - A_W^T lam| R.  For a true
        # normal the 1 to dim faces W active at x serve, lam = M n: all the rows
        # with one W at once, as a piece's rows share A and its factor cache.
        # Where they fail (dependent, lam < 0, or n off their span by more than
        # the rounding of n = x_prev - x, on the scale of |x| + |n|), the
        # multipliers of the projection of x + n do, or lam = 0 (the bound |n| R)
        # for a member or where that projection does not converge.
        A, b = np.asarray(rows["normals"]), np.asarray(rows["offsets"])  # views when shared
        first = next(zip(*rows.values()))
        faces, group = np.unique(b - np.matmul(A, X[:, :, None])[..., 0] <= CONTAINMENT_TOL,
                                 axis=0, return_inverse=True)
        bounds, fit, dim = np.zeros(len(X)), np.zeros(len(X), dtype=bool), X.shape[1]
        for i, work in enumerate(np.flatnonzero(face_set).tolist() for face_set in faces):
            if not 0 < len(work) <= dim:
                continue
            try:
                Aw, _, M, _ = cls._working_faces(first, tuple(work))
            except DidNotConverge:  # dependent faces
                continue
            g = np.flatnonzero(group == i)
            lam = np.matmul(M, N[g, :, None])[..., 0]
            bounds[g], off = cls._face_bounds(Aw, b[g][:, work], lam, X[g], N[g], R)
            fit[g] = (lam >= 0.0).all(axis=1) & (off <= _rounding(dim, norms(X[g]) + norms(N[g])))
        for k in np.flatnonzero(~fit).tolist():
            fields, work, lam = tuple(values[k] for values in rows.values()), (), np.zeros(0)
            with contextlib.suppress(DidNotConverge):
                if float((fields[0] @ (X[k] + N[k]) - fields[1]).max()) > CONTAINMENT_TOL:
                    _, _, work, lam = cls._solve(fields, X[k] + N[k])
            Aw, bw = fields[0][list(work)], fields[1][list(work)][None]
            bounds[k] = cls._face_bounds(Aw, bw, lam[None], X[k:k + 1], N[k:k + 1], R)[0][0]
        return bounds

    def _recedes(self, slack: float) -> bool:
        """Whether a nonempty 2-D polytope is unbounded: iff A d <= 0 for a face
        direction d = ±(-a_2, a_1), each rate A d counted as <= 0 up to slack.
        Elementwise products (a matrix product may fuse them) make the rate of
        a face along its own direction, or its negation's, exactly 0."""
        a1, a2 = self.normals[:, 0], self.normals[:, 1]
        rates = np.outer(a2, a1) - np.outer(a1, a2)  # column k: A d_k
        return bool((rates <= slack).all(axis=0).any() or (rates >= -slack).all(axis=0).any())

    @cached_property
    def bounded(self) -> bool:
        # Rounding counts as <= 0: a doubtful polytope is not known bounded.
        return self.dim == 2 and not self._recedes(_SPAN_EPS)

    @cached_property
    def unbounded(self) -> bool:
        # At most dim faces always leave a recession direction; in 2-D the
        # rates decide, and a doubtful polytope is not known unbounded.
        return len(self.offsets) <= self.dim or (self.dim == 2 and self._recedes(0.0))

    @cached_property
    def _corners(self) -> np.ndarray:
        """Read-only (k, dim) array of _line_corners of a 2-D polytope, once
        (k = 0 in other dimensions): its vertices when it is bounded."""
        corners = _line_corners(self.normals, self.offsets, 1e-9) if self.dim == 2 else ()
        return readonly(np.reshape(corners, (-1, self.dim)), 2)

    def vertices(self):
        return self._corners if self.bounded and len(self._corners) else None

    def _distances(self, P):
        # A bounded polygon's nearest point to v is v, a corner, or the foot
        # v - (s_i / |a_i|^2) a_i on a face line that meets every face up to
        # its rounding, at |s_i| / |a_i|: each a point of the polygon (an upper
        # bound, as the excess rules need), and none nearer than a face's half-
        # plane, s_i / |a_i|.  The slacks s = A v - b round as _project_fields'.
        if self.vertices() is None:
            return super()._distances(P)
        A, b = self.normals, self.offsets
        s, lengths = np.matmul(A, P[:, :, None])[..., 0] - b, np.sqrt(np.vecdot(A, A))
        feet = P[:, None, :] - (s / lengths**2)[:, :, None] * A
        tol = _rounding(2, np.abs(P).sum(axis=1) + float(np.abs(b).max()))  # |foot| <= 2|v| + |b|
        kept = (np.matmul(feet, A.T) - b <= tol[:, None, None]).all(axis=2)
        D = P[:, None, :] - self._corners
        dists = np.minimum(np.where(kept, np.abs(s) / lengths, math.inf).min(axis=1),
                           np.hypot(D[..., 0], D[..., 1]).min(axis=1))
        dists = np.maximum(dists, (s / lengths).max(axis=1))
        return np.where((s <= 0.0).all(axis=1), 0.0, dists)

    def inequalities(self):
        return self.normals, self.offsets

    def _moved(self, U):
        # Offsets b_i + <a_i, u> (per-row dots, as a face's translate): still strictly
        # feasible.  The factors of the faces depend on A alone: one cache for all rows.
        # Each slack b - A p from one stacked matmul, rounded as that row's alone.
        A, P = _repeat(self.normals, len(U)), readonly(self.interior + U, 2)
        offsets = readonly(self.offsets + np.vecdot(U[:, None, :], self.normals), 2)
        slack = (offsets - np.matmul(A, P[:, :, None])[..., 0]).tolist()
        return {"normals": A, "offsets": offsets, "interior": P, "_slack": list(map(tuple, slack)),
                "_max_steps": _repeat(self._max_steps, len(U)),
                "_factors": _repeat(self._factors, len(U))}

    def to_dict(self):
        faces = zip(self.normals.tolist(), self.offsets.tolist())
        return {"shape": self.tag, "faces": [{"normal": a, "offset": b} for a, b in faces],
                "interior": self.interior.tolist()}

    @classmethod
    def from_dict(cls, fields):
        faces = [halfspace(f.vec("normal"), f.num("offset")) for f in fields.objects("faces")]
        return polytope(faces, fields.vec("interior"))


def polytope(faces, interior) -> Polytope:
    """Build a polytope from half-spaces (see halfspace()) and an interior point."""
    faces = tuple(faces)
    if len({f.dim for f in faces}) != 1:
        raise ValueError("polytope needs at least one face, all of one dimension")
    return Polytope([f.normal for f in faces], [f.offset for f in faces], interior)


class BallComplement(_Round):
    """{x : |x - center| >= radius}; prox-regular with r equal to the radius."""

    tag = "ball_complement"
    noun = "excluded-ball"
    _sign = -1.0
    unbounded = True

    @property
    def r(self) -> float:
        return self.radius

    @classmethod
    def _normal_defects(cls, rows, X, N, R):
        # With u = (c-x)/d, d = |c-x|, every member (|z-c| >= radius) has
        # <u, z-x> <= |z-x|^2/(2d) + (d^2 - radius^2)/(2d); for any s >= 0 the
        # defect is then at most s(d^2 - radius^2)/(2d) + |n - s u| R
        # + max(s/(2d) - |n|/(2 radius), 0) R^2.  At d = 0 (no u) it is |n| R.
        V, radius = np.reshape(rows["center"], X.shape) - X, np.array(rows["radius"])
        with np.errstate(all="ignore"):  # d = 0 ends as NaN, then replaced
            dist, n_norm = norms(V), norms(N)
            # sample_points projects rejected draws onto the sphere, up to
            # dist + radius from x and possibly outside the window: R grows to
            # cover them, so an audit compares the bound with members it covers.
            R = _max(R, dist + radius)
            U = V / dist[:, None]
            s = _max(np.vecdot(N, U), 0.0)
            curvature = _max(s / (2.0 * dist) - n_norm / (2.0 * radius), 0.0)
            value = np.where(dist > 0, s * (dist - radius) * (dist + radius) / (2.0 * dist)
                             + norms(N - s[:, None] * U) * R + curvature * R * R, n_norm * R)
            return value + _rounding(V.shape[1], n_norm * R * (1.0 + R / radius))

    def excess_of(self, A):
        # d(x, self) = (radius - |x - center|)^+ peaks at the point of A
        # nearest the center: (radius - d(center, A))^+ is exact.
        x, d = A._nearest(self.center)
        value = max(self.radius - d, 0.0)
        return value, value, x

    def _excess_over_convex(self, other):
        # Every convex shape lies in a half-space <n, x> <= b, and the points
        # center + t n, members for t >= radius, leave it without bound.
        return math.inf, math.inf, np.full(self.dim, math.nan)


@dataclass(frozen=True, eq=False)
class RigidImage(ProxSet):
    """Q*base + u for an orthogonal Q; inherits the base prox-regularity radius."""

    tag = "rigid_image"
    base: ProxSet
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        Q, u = readonly(self.rotation, 2), readonly(self.translation)
        d = self.base.dim
        if Q.shape != (d, d) or u.shape != (d,):
            raise ValueError("rotation/translation dimensions do not match the base")
        if norm((Q.T @ Q - np.eye(d)).ravel()) > 1e-10:
            raise ValueError("rotation matrix is not orthogonal")
        object.__setattr__(self, "rotation", Q)
        object.__setattr__(self, "translation", u)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def r(self) -> float:
        return self.base.r

    @property
    def bounded(self) -> bool:
        return self.base.bounded

    def inequalities(self):
        # Q w + u with A w <= b: (A Q^T) z <= b + (A Q^T) u; None with the base's.
        faces = self.base.inequalities()
        if faces is not None:
            A = faces[0] @ self.rotation.T
            return A, faces[1] + A @ self.translation

    @staticmethod
    def _pull(rotation, translation, y):
        z = y - translation
        return rotation.T.dot(z) if len(z) > 1 else rotation.T @ z  # see Polytope on dot

    def _excess_over_convex(self, other):
        # e(Q K + u, B) = e(K, Q^T (B - u)): the base's rule over other moved
        # by the inverse motion, its witness moved back.
        Q = self.rotation
        pulled = RigidImage._from_valid((other, readonly(Q.T, 2),
                                         readonly(-(self.translation @ Q))))
        bounds = self.base._excess_over_convex(pulled)
        if bounds is None:
            return None
        lower, upper, witness = bounds
        return lower, upper, Q @ witness + self.translation

    def _distances(self, P):
        # Every row pulled back by one stacked matmul, each rounded as _pull's alone.
        pulled = np.matmul(self.rotation.T, (P - self.translation)[:, :, None])[..., 0]
        return self.base._distances(pulled)

    @staticmethod
    def _project_fields(fields, y, tol):
        base, rotation, translation = fields
        p, d = base._project_fields(base._row, RigidImage._pull(rotation, translation, y), tol)
        # Every shape puts a non-member above tol >= 0: d = 0.0 is a member, kept bit for bit.
        # Q @ p, as Q.dot(p) in 1-D is -0.0 at Q = -1, p = +0.0.
        return (y.copy(), 0.0) if d == 0.0 else (rotation @ p + translation, d)

    @staticmethod
    def _pulls(rows, X, *vectors):
        """The base that a piece's rows share, its row once per row (an array
        field as a read-only view), V = X - u and Q^T v for each row v of V and
        of vectors, rounded as Q.T @ v alone is."""
        base, V = rows["base"][0], X - np.reshape(rows["translation"], X.shape)
        Qt = np.reshape(rows["rotation"], (-1, base.dim, base.dim)).transpose(0, 2, 1)
        base_rows = {name: _repeat(value, len(V)) for name, (value,) in base._rows.items()}
        return base, base_rows, V, *(np.matmul(Qt, W[:, :, None])[..., 0] for W in (V, *vectors))

    @classmethod
    def _defects(cls, rows, P):
        base, base_rows, _, pulled = cls._pulls(rows, P)
        return base._defects(base_rows, pulled)

    @classmethod
    def _normal_defects(cls, rows, X, N, R):
        # The rotation keeps inner products and the Euclidean window radius: each
        # row's bound is its base's at the pulled-back x and n.
        base, base_rows, V, x, n = cls._pulls(rows, X, N)
        extra = _rounding(base.dim, norms(N) * (R + norms(V)) * (1.0 + R / base.r))
        return base._normal_defects(base_rows, x, n, R) + extra

    def _moved(self, U):
        return {"base": _repeat(self.base, len(U)), "rotation": _repeat(self.rotation, len(U)),
                "translation": readonly(self.translation + U, 2)}

    def to_dict(self):
        return {
            "shape": self.tag,
            "base": self.base.to_dict(),
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.shape("base"), fields.matrix("rotation"), fields.vec("translation"))


# Schema tag -> shape class: a new shape is one class plus one entry here.
SHAPES = {cls.tag: cls for cls in (HalfSpace, Ball, Box, Polytope, BallComplement, RigidImage)}


def rotation_matrix_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class NormalResidualReport:
    """Worst hypo-monotonicity defect of a candidate normal over sampled
    members, or, of kind "exact", over the vertices where it peaks (window_residual)."""

    worst_residual: float
    samples: int  # the members it was taken at: the vertices when exact
    kind: str = "sampled"


def normal_residual(s: ProxSet, x, n, z_samples) -> NormalResidualReport:
    """Max over z of <n, z-x> - (|n|/(2r))|z-x|^2; convex shapes drop the curvature term.

    A nonpositive worst residual is consistent with n being a proximal normal
    at x.  Raises NotAMember when x (or any sample) fails containment.
    """
    z = np.atleast_2d(np.asarray(z_samples, dtype=float))
    for zi in z:
        if not s.contains(zi):
            raise NotAMember(f"sample has containment defect {s.membership_defect(zi):.3e}")
    return _normal_residual(s, x, n, z)


def _normal_residual(s: ProxSet, x, n, z, kind: str = "sampled") -> NormalResidualReport:
    """normal_residual with the rows of z taken as members unchecked: x alone is tested."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    if not s.contains(x):
        raise NotAMember(f"x has containment defect {s.membership_defect(x):.3e}")
    diffs = np.asarray(z, dtype=float) - x
    # With r = inf the curvature term is exactly 0.
    residuals = diffs @ n - (norm(n) / (2.0 * s.r)) * np.einsum("ij,ij->i", diffs, diffs)
    return NormalResidualReport(float(residuals.max()), len(z), kind)


def window_residual(s: ProxSet, x, n, halfwidth: float, count: int, seed: int):
    """The residual of n at x over the members of s in the window x +-
    halfwidth.  Exact for a 2-D polyhedral s: with r = inf it is linear, so
    it peaks at a vertex of s and the window.  Else over count samples."""
    faces = s.inequalities() if s.dim == 2 else None
    if faces is not None:
        A = np.vstack([faces[0], np.eye(2), -np.eye(2)])
        b = np.concatenate([faces[1], x + halfwidth, halfwidth - x])
        tol = _rounding(2, 3.0 * float(np.abs(b).max()))  # of a_i v - b_i: |v|_inf <= max|b|
        return _normal_residual(s, x, n, _line_corners(A, b, tol), "exact")
    return _normal_residual(s, x, n, sample_points(s, (x - halfwidth, x + halfwidth), count, seed))


def sample_points(s: ProxSet, region, count: int, seed: int) -> list:
    """Seeded member samples, one per uniform draw in an axis-aligned window.

    Each draw is projected once (a member is its own projection), so
    boundaries are represented and a sample can lie outside the window; a
    draw at the excluded-ball center is replaced by the next draw.  For a
    convex set whose window center is a member, the projection is
    nonexpansive, so every sample stays within halfwidth*sqrt(dim) of the
    center: the Euclidean radius normal_defect uses.  A nonconvex set (a ball
    complement) has no such bound.  Raises EmptyIntersection when no sample
    lies in the closed window, as always when the window misses the set: a
    sample there is a member in the window.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    if lo.shape != (s.dim,) or hi.shape != (s.dim,) or np.any(lo >= hi):
        raise ValueError("region must be a nonempty axis-aligned box of matching dimension")
    rng = np.random.default_rng(seed)
    points: list = []
    while len(points) < count:  # the draws still missing, in one call: the same stream
        for y in lo + rng.random((count - len(points), s.dim)) * (hi - lo):
            try:
                points.append(s._project_with_distance(y)[0])
            except AtSingularity:
                continue
    if not ((lo <= points) & (points <= hi)).all(axis=1).any():
        raise EmptyIntersection(f"none of {count} samples lies in the window")
    return points

"""Static prox-regular set primitives.

Each shape supports exact distance, single-valued projection (only the
excluded-ball center has no unique nearest point, and projecting it raises
AtSingularity), containment via the defining inequalities, whose defect at a
member is exactly minus its distance to the complement, a closed-form upper
bound of the normal-cone defect of a candidate normal (normal_defect), and
seeded member sampling, which serves only the residual that audits those
bounds and the sampled excess lower bounds.  Convex shapes carry r = inf and
bypass curvature terms entirely; the ball complement is the nonconvex
primitive with r equal to its radius.  Polytopes project by a finite primal
active-set solve whose result is accepted only after an explicit KKT check.

Each shape class also owns its schema document (a tag in SHAPES plus
to_dict/from_dict), its translate, its closed-form excess over a shape of
the same type where one is known, its rules for bounds of the excess over a
shape of another type (excess_of on the shape the excess is taken over,
_excess_over_convex on the shape it is taken of), and its circumradius about
a pivot, which is finite only for a bounded shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtSingularity,
    DidNotConverge,
    DimensionMismatch,
    EmptyIntersection,
    NotAMember,
)
from .geometry import Schema, norm, readonly

# Absolute tolerance on the defining inequalities; distances below it snap to 0
# so the catching-up containment invariant stays testable under rounding.
CONTAINMENT_TOL = 1e-10

# Tolerance on |normal| - 1 for a half-space normal to count as unit.
UNIT_NORMAL_TOL = 1e-12

# Margin around the set of each shape's bounding_region.
_REGION_PAD = 0.5

# Relative rounding floor for the active-set step: a face whose rate along the
# step is below this share of |y - x| is parallel to the working faces.
_SPAN_EPS = 64 * np.finfo(float).eps

# Rounding allowance of a normal-defect bound, per dimension and per unit of
# the magnitudes that enter it: each bound is a few dot products, norms and
# differences, each off by at most about dim * eps times their size.
_DEFECT_ROUNDING = 8 * np.finfo(float).eps


def _rounding(dim: int, scale: float) -> float:
    return _DEFECT_ROUNDING * (dim + 2) * scale


class ProxSet(Schema):
    """Common interface: immutable value, pure operations.  Vector fields are
    read-only float arrays; equality compares schema documents."""

    dim: int
    r: float
    tag: str  # the "shape" value of the schema document
    # Whether the set is known to be bounded, or known to be unbounded; a
    # polytope of dimension 3 or more with more faces than dimensions is
    # neither.
    bounded = False
    unbounded = False

    def membership_defect(self, y: np.ndarray) -> float:
        """Worst violation of the defining inequalities (<= 0 means inside).

        At a member y it is exactly minus the distance from y to the
        complement, so the open ball B_rho(y) lies in the set iff
        rho + defect <= 0.
        """
        raise NotImplementedError

    def _raw_project_with_distance(self, y: np.ndarray) -> tuple:
        """(nearest point, distance) of a non-member y."""
        raise NotImplementedError

    def _raw_distance(self, y: np.ndarray) -> float:
        """Distance of a non-member y; shapes override it where a closed form
        is cheaper than the projection."""
        return self._raw_project_with_distance(y)[1]

    def bounding_region(self):
        """Axis-aligned window enclosing (a representative part of) the set."""
        raise NotImplementedError

    def translated(self, u: np.ndarray) -> "ProxSet":
        """The same shape moved by u."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """Schema document, read back by SHAPES[self.tag].from_dict."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, fields) -> "ProxSet":
        """Build from a schema reader (scenarios._Fields) whose num, vec,
        matrix, objects and shape methods return validated fields by name."""
        raise NotImplementedError

    def analytic_excess(self, other: "ProxSet"):
        """(value, witness) of the excess of self over other, a shape of the
        same type, where a closed form is known; None otherwise."""
        return None

    def vertices(self):
        """(k, dim) array of finitely many points whose convex hull is the
        set, or None when the set is not known to be one."""
        return None

    def face_normals(self) -> np.ndarray:
        """(k, dim) array of the unit outward normals of the faces."""
        return np.zeros((0, self.dim))

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
            dists = [other._distance(v, 0.0) for v in verts]
            k = int(np.argmax(dists))
            return dists[k], dists[k], verts[k]
        if self.unbounded and other.bounded:
            return math.inf, math.inf, np.full(self.dim, math.nan)
        return None

    def circumradius_about(self, p: np.ndarray) -> float:
        """Largest distance from p to a point of the set, attained at a
        vertex; ValueError when it is infinite (a half-space, a ball
        complement) or not derived."""
        verts = self.vertices()
        if verts is None:
            raise ValueError(f"the {self.tag} base is unbounded or has no derived circumradius: "
                             "no finite rigid-motion rate")
        return max(norm(v - p) for v in verts)

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
        return float(self._normal_defect(x, n, halfwidth * math.sqrt(self.dim)))

    def _normal_defect(self, x: np.ndarray, n: np.ndarray, R: float) -> float:
        raise NotImplementedError

    def _vector(self, y) -> np.ndarray:
        """y as a float array, checked to be a vector of this dimension: what
        _distance and _project_with_distance take without a check."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch(f"expected dim {self.dim}, got shape {y.shape}")
        return y

    def contains(self, y) -> bool:
        return self.membership_defect(self._vector(y)) <= CONTAINMENT_TOL

    def distance(self, y) -> float:
        return self._distance(self._vector(y))

    def _distance(self, y: np.ndarray, tol: float = CONTAINMENT_TOL) -> float:
        """Distance of y, snapped to 0 where the membership defect is at most
        tol; with tol = 0.0, 0 only where every defining inequality holds."""
        if self.membership_defect(y) <= tol:
            return 0.0
        return self._raw_distance(y)

    def project(self, y) -> np.ndarray:
        return self.project_with_distance(y)[0]

    def project_with_distance(self, y) -> tuple:
        """(projection, distance) of y; a member is its own projection."""
        return self._project_with_distance(self._vector(y))

    def _project_with_distance(self, y: np.ndarray, tol: float = CONTAINMENT_TOL) -> tuple:
        """(projection, distance) of y, y itself at distance 0 where the
        membership defect is at most tol."""
        if self.membership_defect(y) <= tol:
            return y.copy(), 0.0
        return self._raw_project_with_distance(y)

    @classmethod
    def _from_valid(cls, **fields) -> "ProxSet":
        """An instance of fields already valid, read-only and of their stored
        types, made without __post_init__: how a family builds its slices."""
        shape = object.__new__(cls)
        shape.__dict__.update(fields)
        return shape


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
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    @property
    def r(self) -> float:
        return math.inf

    def membership_defect(self, y):
        return float(self.normal @ y) - self.offset

    def _raw_project_with_distance(self, y):
        excess = max(float(self.normal @ y) - self.offset, 0.0)
        return y - excess * self.normal, excess

    def _normal_defect(self, x, n, R):
        # <n, z-x> <= lam (offset - <a, x>) + |n - lam a| R for any lam >= 0.
        lam = max(float(n @ self.normal), 0.0)
        value = lam * (self.offset - float(self.normal @ x)) + norm(n - lam * self.normal) * R
        return value + _rounding(self.dim, norm(n) * (R + abs(self.offset) + norm(x)))

    def face_normals(self):
        return self.normal[None, :]

    def boundary_anchor(self) -> np.ndarray:
        return self.offset * self.normal

    def bounding_region(self):
        anchor = self.boundary_anchor()
        half = 1.0 + _REGION_PAD
        return anchor - half, anchor + half

    def translated(self, u):
        # The shared normal is still unit.
        return self._from_valid(normal=self.normal, offset=self.offset + float(self.normal @ u))

    def to_dict(self):
        return {"shape": self.tag, "normal": self.normal.tolist(), "offset": self.offset}

    @classmethod
    def from_dict(cls, fields):
        return halfspace(fields.vec("normal"), fields.num("offset"))

    def analytic_excess(self, other):
        # Equal normals: the offsets differ.  Normals apart by more than
        # rounding: self holds the ray along n2 - <n1, n2> n1 (-n1 when
        # n2 = -n1), which leaves other without bound.  Normals that differ
        # by about rounding have no closed form: parallel or not is unknown.
        if np.array_equal(self.normal, other.normal):
            return max(self.offset - other.offset, 0.0), self.boundary_anchor()
        if float(self.normal @ other.normal) < 1.0 - 1e-12:
            return math.inf, np.full(self.dim, math.nan)
        return None


def halfspace(normal, offset: float) -> HalfSpace:
    """Build a half-space, normalizing the normal (and scaling the offset)."""
    a = np.asarray(normal, dtype=float)
    n = norm(a)
    if n == 0.0:
        raise ValueError("half-space normal must be nonzero")
    if abs(n - 1.0) <= UNIT_NORMAL_TOL:
        # Already unit: avoid perturbing the stored floats (round-trip stability).
        return HalfSpace(a, float(offset))
    return HalfSpace(a / n, float(offset) / n)


@dataclass(frozen=True, eq=False)
class _Round(ProxSet):
    """Center and radius, shared by the ball and the excluded ball with their
    schema document, translate and projection; subclasses set tag and noun."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"{self.noun} radius must be positive")
        object.__setattr__(self, "center", readonly(self.center))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return len(self.center)

    def _raw_project_with_distance(self, y):
        d = y - self.center
        dist = norm(d)
        if dist == 0.0:
            # Only the excluded ball projects its center: every sphere point is nearest.
            raise AtSingularity("projection from the excluded-ball center is multi-valued")
        # A ball projects outside points, its complement inside ones: either
        # way the distance is |dist - radius|.
        return self.center + self.radius * d / dist, abs(dist - self.radius)

    def translated(self, u):
        # The radius, still positive, is kept.
        return self._from_valid(center=readonly(self.center + u), radius=self.radius)

    def to_dict(self):
        return {"shape": self.tag, "center": self.center.tolist(), "radius": self.radius}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.vec("center"), fields.num("radius"))


class Ball(_Round):
    tag = "ball"
    noun = "ball"
    bounded = True

    @property
    def r(self) -> float:
        return math.inf

    def membership_defect(self, y):
        return norm(y - self.center) - self.radius

    def _raw_distance(self, y):
        return max(norm(y - self.center) - self.radius, 0.0)

    def bounding_region(self):
        half = self.radius + _REGION_PAD
        return self.center - half, self.center + half

    def _normal_defect(self, x, n, R):
        # With u = (x-c)/|x-c|, every member has <u, z-x> <= radius - |x-c|, so
        # <n, z-x> <= s (radius - |x-c|) + |n - s u| R for any s >= 0.
        v = x - self.center
        dist = norm(v)
        u = v / dist if dist > 0 else np.zeros(self.dim)
        s = max(float(n @ u), 0.0)
        value = s * (self.radius - dist) + norm(n - s * u) * R
        return value + _rounding(self.dim, norm(n) * (R + dist + self.radius))

    def analytic_excess(self, other):
        gap = self.center - other.center
        dist = norm(gap)
        value = max(dist + self.radius - other.radius, 0.0)
        direction = gap / dist if dist > 0 else np.eye(self.dim)[0]
        if value > 0:
            witness = self.center + self.radius * direction
        else:
            witness = self.center.copy()
        return value, witness

    def circumradius_about(self, p):
        return norm(self.center - p) + self.radius

    def _excess_over_convex(self, other):
        c = self.center
        p, d = other._project_with_distance(c, 0.0)
        if d > 0.0:
            # d(., other) grows at rate 1 along the outward normal (c - p)/d
            # and at most at rate 1 anywhere: d(c, other) + radius is exact.
            return d + self.radius, d + self.radius, c + (self.radius / d) * (c - p)
        # The center is a member: probe the far points along other's face
        # normals and +-e_i (a box's normals are among them); d(., other) is 0
        # at c and 1-Lipschitz, so the radius bounds it above.
        dirs = np.vstack([other.face_normals(), np.eye(self.dim), -np.eye(self.dim)])
        far = c + self.radius * (dirs / np.linalg.norm(dirs, axis=1)[:, None])
        dists = [other._distance(x, 0.0) for x in far]
        k = int(np.argmax(dists))
        return dists[k], self.radius, far[k]


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

    @property
    def r(self) -> float:
        return math.inf

    def membership_defect(self, y):
        return float(np.max(np.maximum(self.lo - y, y - self.hi)))

    def _raw_project_with_distance(self, y):
        p = np.clip(y, self.lo, self.hi)
        return p, norm(y - p)

    def bounding_region(self):
        return self.lo - _REGION_PAD, self.hi + _REGION_PAD

    def _normal_defect(self, x, n, R):
        # Coordinate by coordinate: n_i (z_i - x_i) is at most |n_i| times the
        # room up to the face that n_i points at, and at most |n_i| R.
        room = np.where(n >= 0.0, self.hi - x, x - self.lo)
        value = float(np.abs(n) @ np.minimum(room, R))
        return value + _rounding(self.dim, norm(n) * R * self.dim)

    def translated(self, u):
        return Box(self.lo + u, self.hi + u)

    def to_dict(self):
        return {"shape": self.tag, "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.vec("lo"), fields.vec("hi"))

    def analytic_excess(self, other):
        # Boxes of equal extents: the excess is the length of the shift.
        if norm((self.hi - self.lo) - (other.hi - other.lo)) <= 1e-12:
            shift = self.lo - other.lo
            witness = np.where(shift >= 0, self.hi, self.lo).astype(float)
            return norm(shift), witness
        return None

    def vertices(self):
        return np.array(list(itertools.product(*zip(self.lo, self.hi))))


@dataclass(frozen=True, eq=False)
class Polytope(ProxSet):
    """Intersection of half-spaces with a stored strictly feasible interior point.

    Projection is a primal active-set solve started at the interior point; the
    result is returned only after the KKT conditions have been checked.
    """

    tag = "polytope"
    faces: tuple
    interior: np.ndarray
    _A: np.ndarray = field(init=False, repr=False)
    _b: np.ndarray = field(init=False, repr=False)
    _max_steps: int = field(init=False, repr=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.faces) < 1:
            raise ValueError("polytope needs at least one face")
        dims = {f.dim for f in self.faces}
        if len(dims) != 1:
            raise ValueError("polytope faces must share a dimension")
        dim = dims.pop()
        p = readonly(self.interior)
        if p.shape != (dim,):
            raise ValueError("interior point has wrong dimension")
        worst = max(f.membership_defect(p) for f in self.faces)
        if worst >= 0:
            raise ValueError(f"interior point is not strictly feasible (defect {worst:.3e})")
        m = len(self.faces)
        # Step bound of the active-set solve: between two full steps it adds at
        # most dim faces, and since the objective falls from one full step to
        # the next, each working set (at most dim faces) ends one at most once.
        working_sets = sum(math.comb(m, k) for k in range(min(m, dim) + 1))
        object.__setattr__(self, "faces", tuple(self.faces))
        object.__setattr__(self, "interior", p)
        object.__setattr__(self, "_A", readonly([f.normal for f in self.faces], 2))
        object.__setattr__(self, "_b", readonly([f.offset for f in self.faces]))
        object.__setattr__(self, "_max_steps", (dim + 1) * working_sets)

    @property
    def dim(self) -> int:
        return self.faces[0].dim

    @property
    def r(self) -> float:
        return math.inf

    def membership_defect(self, y):
        return float(np.max(self._A @ y - self._b))

    def _solve(self, y):
        """Nearest point to y: primal active-set method for min |x - y|^2, Ax <= b.

        The iterate x stays feasible.  Each step heads for the nearest point
        to y on the faces of the working set and stops at the first face it
        would cross, which joins the set.  At that nearest point a face with
        a negative multiplier leaves the set; when none has one, the KKT
        conditions hold and are checked before x is returned.

        Returns (x, W, lam): the nearest point, the indices W of its working
        faces and their multipliers lam >= 0, with y - x = A_W^T lam.
        """
        A, b = self._A, self._b
        x = self.interior
        work: list = []
        for _ in range(self._max_steps):
            Aw, bw, N, M, P = self._working_faces(tuple(work))
            r = y - x
            # The step drops the part of r in the span of the working faces,
            # so x stays on them.
            step = N @ r
            rate = A @ step
            # A face whose normal lies in the span of the working faces sees
            # only rounding in its rate and must not block.
            floor = _SPAN_EPS * math.sqrt(float(r @ r))
            alpha, blocking = 1.0, -1
            for i, (rate_i, slack_i) in enumerate(zip(rate.tolist(), (b - A @ x).tolist())):
                if rate_i > floor and i not in work:
                    ratio = max(slack_i, 0.0) / rate_i
                    if ratio < alpha:
                        alpha, blocking = ratio, i
            if blocking >= 0:
                x = x + alpha * step
                work.append(blocking)
                continue
            # A long step loses about eps * |y - x| to cancellation across the
            # working faces; put x back on them.
            x = x + step
            x = x - P @ (Aw @ x - bw)
            # Least-norm multipliers at the corrected x: y - x = A_W^T lam.
            lam = M @ (y - x)
            if (lam >= 0.0).all():
                self._certify(y, x, work, Aw, lam)
                return x, tuple(work), lam
            del work[int(np.argmin(lam))]
        raise DidNotConverge(
            f"active-set projection exceeded {self._max_steps} steps for {len(self.faces)} faces"
        )

    def _working_faces(self, work: tuple):
        """(A_W, b_W, N, M, P) for the faces W, cached per W.  From A_W^T = QR:
        N = I - QQ^T projects onto their null space, M = R^-1 Q^T gives the
        least-norm multipliers and P = QR^-T maps a face residual back onto
        the faces.  QR, unlike inverting A_W A_W^T, does not square the
        condition number, so faces 1e-9 rad apart still factor."""
        cached = self._factors.get(work)
        if cached is None:
            Aw = self._A[list(work)]
            Q, R = np.linalg.qr(Aw.T)
            diag = np.abs(np.diag(R))
            if len(work) and diag.min() <= _SPAN_EPS * diag.max():
                raise DidNotConverge(f"faces {list(work)} are numerically dependent")
            Rinv = np.linalg.inv(R)
            cached = (Aw, self._b[list(work)], np.eye(self.dim) - Q @ Q.T, Rinv @ Q.T, Q @ Rinv.T)
            self._factors[work] = cached
        return cached

    def _certify(self, y, x, work, Aw, lam) -> None:
        """Check the KKT conditions of x as the projection of y, with multipliers
        lam on the working faces; raise DidNotConverge when one fails."""
        residual = self._A @ x - self._b
        infeasible = float(residual.max())
        off_face = float(np.abs(residual[work]).max(initial=0.0))
        stationarity = norm(y - x - lam @ Aw)
        if (
            infeasible > CONTAINMENT_TOL
            or off_face > CONTAINMENT_TOL
            or (lam < 0.0).any()
            or stationarity > CONTAINMENT_TOL * max(1.0, norm(y - x))
        ):
            raise DidNotConverge(
                f"projection failed its KKT check (infeasibility {infeasible:.3e}, "
                f"off-face {off_face:.3e}, stationarity {stationarity:.3e})"
            )

    def _raw_project_with_distance(self, y):
        p = self._solve(y)[0]
        return p, norm(y - p)

    def _normal_defect(self, x, n, R):
        # For any lam >= 0 on faces W, every member has
        # <n, z-x> <= lam^T (b_W - A_W x) + |n - A_W^T lam| R.  The multipliers
        # of the projection of x + n serve: for a true normal it is x itself
        # and n = A_W^T lam.  When x + n is a member, lam = 0.
        y = x + n
        work, lam = (), np.zeros(0)
        if self.membership_defect(y) > CONTAINMENT_TOL:
            _, work, lam = self._solve(y)
        Aw, bw = self._A[list(work)], self._b[list(work)]
        value = float(lam @ (bw - Aw @ x)) + norm(n - lam @ Aw) * R
        scale = norm(n) * R + float(lam.sum()) * (R + norm(x) + float(np.abs(bw).sum()))
        return value + _rounding(self.dim, scale)

    def _recedes(self, slack: float) -> bool:
        """Whether a nonempty 2-D polytope is unbounded: iff A d <= 0 for a face
        direction d = ±(-a_2, a_1), each rate A d counted as <= 0 up to slack.
        Elementwise products (a matrix product may fuse them) make the rate of
        a face along its own direction, or its negation's, exactly 0."""
        a1, a2 = self._A[:, 0], self._A[:, 1]
        rates = np.outer(a2, a1) - np.outer(a1, a2)  # column k: A d_k
        return bool((rates <= slack).all(axis=0).any() or (rates >= -slack).all(axis=0).any())

    @property
    def bounded(self) -> bool:
        # Rounding counts as <= 0: a doubtful polytope is not known bounded.
        return self.dim == 2 and not self._recedes(_SPAN_EPS)

    @property
    def unbounded(self) -> bool:
        # At most dim faces always leave a recession direction; in 2-D the
        # rates decide, and a doubtful polytope is not known unbounded.
        return len(self.faces) <= self.dim or (self.dim == 2 and self._recedes(0.0))

    def vertices(self):
        verts = self.vertices_2d() if self.bounded else []
        return np.array(verts) if verts else None

    def face_normals(self):
        return self._A

    def vertices_2d(self) -> list:
        """Vertices of a 2-D polytope via pairwise face intersections."""
        if self.dim != 2:
            raise ValueError("vertex enumeration is implemented for dim 2 only")
        verts = []
        m = len(self.faces)
        for i in range(m):
            for j in range(i + 1, m):
                A = np.array([self.faces[i].normal, self.faces[j].normal])
                b = np.array([self.faces[i].offset, self.faces[j].offset])
                if abs(np.linalg.det(A)) < 1e-12:
                    continue
                v = np.linalg.solve(A, b)
                if self.membership_defect(v) <= 1e-9:
                    verts.append(v)
        return verts

    def bounding_region(self):
        verts = self.vertices_2d() if self.dim == 2 else []
        if verts:
            vs = np.array(verts)
            return vs.min(axis=0) - _REGION_PAD, vs.max(axis=0) + _REGION_PAD
        half = 1.0 + _REGION_PAD
        return self.interior - half, self.interior + half

    def translated(self, u):
        return Polytope(tuple(f.translated(u) for f in self.faces), self.interior + u)

    def to_dict(self):
        return {
            "shape": self.tag,
            "faces": [{"normal": f.normal.tolist(), "offset": f.offset} for f in self.faces],
            "interior": self.interior.tolist(),
        }

    @classmethod
    def from_dict(cls, fields):
        faces = tuple(halfspace(f.vec("normal"), f.num("offset")) for f in fields.objects("faces"))
        return cls(faces, fields.vec("interior"))


class BallComplement(_Round):
    """{x : |x - center| >= radius}; prox-regular with r equal to the radius."""

    tag = "ball_complement"
    noun = "excluded-ball"
    unbounded = True

    @property
    def r(self) -> float:
        return self.radius

    def membership_defect(self, y):
        return self.radius - norm(y - self.center)

    def _raw_distance(self, y):
        return max(self.radius - norm(y - self.center), 0.0)

    def bounding_region(self):
        half = 2.5 * self.radius + _REGION_PAD
        return self.center - half, self.center + half

    def _normal_defect(self, x, n, R):
        # With u = (c-x)/d, d = |c-x|, every member (|z-c| >= radius) has
        # <u, z-x> <= |z-x|^2/(2d) + (d^2 - radius^2)/(2d); for any s >= 0 the
        # defect is then at most s(d^2 - radius^2)/(2d) + |n - s u| R
        # + max(s/(2d) - |n|/(2 radius), 0) R^2.
        v = self.center - x
        dist = norm(v)
        n_norm = norm(n)
        # sample_points projects rejected draws onto the sphere, up to
        # dist + radius from x and possibly outside the window: R grows to
        # cover them, so an audit compares the bound with members it covers.
        R = max(R, dist + self.radius)
        value = n_norm * R
        if dist > 0:
            u = v / dist
            s = max(float(n @ u), 0.0)
            curvature = max(s / (2.0 * dist) - n_norm / (2.0 * self.radius), 0.0)
            value = (s * (dist - self.radius) * (dist + self.radius) / (2.0 * dist)
                     + norm(n - s * u) * R + curvature * R * R)
        return value + _rounding(self.dim, n_norm * R * (1.0 + R / self.radius))

    def excess_of(self, A):
        # d(x, self) = (radius - |x - center|)^+ peaks at the point of A
        # nearest the center: (radius - d(center, A))^+ is exact.
        try:
            x, d = A._project_with_distance(self.center, 0.0)
        except AtSingularity:
            return None  # the center of A's own excluded ball: no single witness
        value = max(self.radius - d, 0.0)
        return value, value, x

    def _excess_over_convex(self, other):
        # Every convex shape lies in a half-space <n, x> <= b, and the points
        # center + t n, members for t >= radius, leave it without bound.
        return math.inf, math.inf, np.full(self.dim, math.nan)

    def analytic_excess(self, other):
        gap = other.center - self.center
        dist = norm(gap)
        nearest = max(self.radius - dist, 0.0)
        value = max(other.radius - nearest, 0.0)
        if dist >= self.radius:
            witness = other.center.copy()
        else:
            direction = gap / dist if dist > 0 else np.eye(self.dim)[0]
            witness = self.center + self.radius * direction
        return value, witness


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
        if not (np.isfinite(Q).all() and np.isfinite(u).all()):
            raise ValueError("rotation and translation must be finite")
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

    def face_normals(self):
        return self.base.face_normals() @ self.rotation.T

    def _pull(self, y):
        return self.rotation.T @ (y - self.translation)

    def _excess_over_convex(self, other):
        # e(Q K + u, B) = e(K, Q^T (B - u)): the base's rule over other moved
        # by the inverse motion, its witness moved back.
        Q = self.rotation
        pulled = RigidImage._from_valid(base=other, rotation=readonly(Q.T, 2),
                                        translation=readonly(-(self.translation @ Q)))
        bounds = self.base._excess_over_convex(pulled)
        if bounds is None:
            return None
        lower, upper, witness = bounds
        return lower, upper, Q @ witness + self.translation

    def membership_defect(self, y):
        return self.base.membership_defect(self._pull(y))

    def _raw_distance(self, y):
        return self.base._raw_distance(self._pull(y))

    def _raw_project_with_distance(self, y):
        p, d = self.base._raw_project_with_distance(self._pull(y))
        return self.rotation @ p + self.translation, d

    def _normal_defect(self, x, n, R):
        # The rotation keeps inner products and the Euclidean window radius.
        value = self.base._normal_defect(self._pull(x), self.rotation.T @ n, R)
        pulled = norm(n) * (R + norm(x - self.translation)) * (1.0 + R / self.r)
        return value + _rounding(self.dim, pulled)

    def bounding_region(self):
        lo, hi = self.base.bounding_region()
        corners = np.array([[lo[i] if (k >> i) & 1 == 0 else hi[i] for i in range(self.dim)]
                            for k in range(2**self.dim)])
        moved = corners @ self.rotation.T + self.translation
        return moved.min(axis=0), moved.max(axis=0)

    def translated(self, u):
        return self._from_valid(base=self.base, rotation=self.rotation,
                                translation=readonly(self.translation + u))

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
    """Worst hypo-monotonicity defect of a candidate normal over sampled members."""

    worst_residual: float
    samples: int


def normal_residual(s: ProxSet, x, n, z_samples) -> NormalResidualReport:
    """Max over z of <n, z-x> - (|n|/(2r))|z-x|^2; convex shapes drop the curvature term.

    A nonpositive worst residual is consistent with n being a proximal normal
    at x.  Raises NotAMember when x (or any sample) fails containment.
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    if not s.contains(x):
        raise NotAMember(f"x has containment defect {s.membership_defect(x):.3e}")
    z = np.asarray(z_samples, dtype=float)
    if z.ndim == 1:
        z = z[None, :]
    for zi in z:
        if not s.contains(zi):
            raise NotAMember(f"sample has containment defect {s.membership_defect(zi):.3e}")
    diffs = z - x
    # With r = inf the curvature term is exactly 0.
    residuals = diffs @ n - (norm(n) / (2.0 * s.r)) * np.einsum("ij,ij->i", diffs, diffs)
    return NormalResidualReport(float(residuals.max()), len(z))


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
    while len(points) < count:
        try:
            points.append(s.project_with_distance(lo + rng.random(s.dim) * (hi - lo))[0])
        except AtSingularity:
            continue
    if not any(np.all((lo <= q) & (q <= hi)) for q in points):
        raise EmptyIntersection(f"none of {count} samples lies in the window")
    return points

"""Time-parametrized set families, the one-sided excess semidistance, its
continuity modulus, inner-ball persistence horizons and checks, and
refinement schedules.

The excess of A over B is sup_{a in A} d(a, B): zero iff A is contained in
the closure of B, asymmetric otherwise.  excess gives it as an interval
lower <= e(A, B) <= upper from one rule call, B.excess_of(A).  It is exact
for any A over a ball complement; for a ball, a box or a bounded 2-D
polytope over a ball (from A's farthest point); for a half-space over a
convex B that is bounded, has a face normal not parallel to its own, or has
only its own; over any other convex B for a box, a bounded 2-D polytope, a
ball whose center lies outside B, a ball inside a polyhedral B or with its
center in a half-space, and an unbounded set over a bounded one; and for
rigid images of these.  Any other ball whose center lies in B gets a
two-sided bound.  Only the pairs left (another unbounded polyhedron over an
unbounded convex set; a half-space over a B whose face normals agree with
its own only up to rounding; a polytope in dimension 3 or more; a rigid
image of a ball complement as B) are sampled, a lower bound with upper = inf.
Families built from the declared path forms carry an analytic linear modulus
omega(delta) = rate * delta, an upper bound that sets the schedule step
lengths; validate_analytic_modulus certifies it against excess upper bounds.
A Modulus takes one delta or an array of them (certify_steps' one call per
trajectory), elementwise as each scalar call rounds.
An inner ball is checked by one exact depth evaluation per slice (a member's
depth is minus its membership defect) at INNER_BALL_TIMES times; between
them it is not checked.

Every slice comes from one field table, MovingFamily.slice_fields(times),
which checks the times once and evaluates each path once on the whole array.
Its rows list the fields in the shape's dataclass order, the order in which
ProxSet._from_valid builds a slice from a row (slices(times) does so for
each row, and at(t) is slices over one time), and in which the shape's
_project_fields, _defects and _normal_defects, which solve and
certify_steps call, read a row.  What the rows share is stored once: a
rigid family's base, a translate's arrays that do not move as read-only
views of one array, and a polytope translate's factor cache.  No
shape's checks run: the family checked its base and paths once, and moving
them keeps them valid (a translate keeps a unit normal, a box's lo < hi and
a polytope's strictly feasible interior point, a radius stays above the
schedule's checked minimum, a rotation_matrix_2d is orthogonal).

Each schema family class owns its schema document (a kind tag in FAMILIES
plus to_dict/from_dict): a new family kind is one class plus one entry there.
The base class writes declared_r and stores r after checking the horizon and
declared_r against the family's natural r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AtSingularity,
    DimensionMismatch,
    ModulusUnavailable,
    NoPositiveTau,
    OutOfRange,
)
from .geometry import MAX_DYADIC_K, RefinementSchedule, Schema, TimeGrid, finite, readonly
from .paths import Path, piece_index
from .sets import Ball, BallComplement, ProxSet, RigidImage, sample_points

# Admissible discontinuities may only expand the set: an upper bound of the
# excess of the left slice over the right slice must vanish to this tolerance.
JUMP_TOL = 1e-9

TAU_MARGIN = 1e-9

# Slack of a family's horizon against the end of its piece or its scenario's horizon.
HORIZON_TOL = 1e-12

# Evenly spaced times of [0, horizon] at which verify_inner_ball checks depth.
INNER_BALL_TIMES = 50

# Large finite stand-in for r = inf, used when validating schedules and inside
# the variation-bound formulas of convex scenarios (the bounds shrink as r
# grows, so the cap is conservative).
CONVEX_R_CAP = 1e9


@dataclass(frozen=True)
class SamplingBudget:
    """Member draws and hill-climbing steps of a sampled excess, and its seed."""

    count: int = 160
    hill_steps: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sampling count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"sampling seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExcessEstimate:
    """lower <= e(A, B) <= upper, with a witness: a point of A at distance
    lower from B (NaN where lower is inf).  method is "analytic" when
    lower == upper, "interval" for a two-sided bound and "sampled" for a
    sampled lower bound, whose upper is inf."""

    lower: float
    upper: float
    witness: np.ndarray
    method: str


def _sampled_excess(A: ProxSet, B: ProxSet, budget: SamplingBudget) -> ExcessEstimate:
    region = A.bounding_region()
    pts = sample_points(A, region, budget.count, budget.seed)
    dists = [B.distance(p) for p in pts]
    best_i = int(np.argmax(dists))
    best, x = dists[best_i], pts[best_i]
    rng = np.random.default_rng(budget.seed + 1)
    lo, hi = np.asarray(region[0], float), np.asarray(region[1], float)
    scale = float(np.mean(hi - lo)) / 8.0
    for _ in range(budget.hill_steps):
        try:
            prop = A.project(x + scale * rng.standard_normal(A.dim))
        except AtSingularity:
            scale *= 0.7
            continue
        d = B.distance(prop)
        if d > best:
            best, x = d, prop
        else:
            scale *= 0.9
    return ExcessEstimate(float(best), math.inf, x, "sampled")


def excess(A: ProxSet, B: ProxSet, budget: SamplingBudget | None = None) -> ExcessEstimate:
    """One-sided excess of A over B as an interval: the shapes' rules
    (B.excess_of(A)), else a sampled lower bound (member sampling plus local
    hill-climbing, as the budget sets).

    The rules take each shape's one projection and distances with tol = 0.0
    (_distances), no CONTAINMENT_TOL snap: a point is at distance 0 only where
    it meets every defining inequality, so upper carries no containment allowance.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"excess between dim {A.dim} and dim {B.dim}")
    bounds = B.excess_of(A)
    if bounds is not None:
        lower, upper, witness = bounds
        method = "analytic" if lower == upper else "interval"
        return ExcessEstimate(float(lower), float(upper), witness, method)
    return _sampled_excess(A, B, budget or SamplingBudget())


@dataclass(frozen=True)
class Modulus:
    """Linear upper bound omega(delta) = rate * min(delta, horizon) on the
    excess over forward pairs at most delta apart."""

    horizon: float
    rate: float

    def __post_init__(self):
        if not self.rate >= 0.0:
            raise ModulusUnavailable(f"continuity rate {self.rate!r} is not a nonnegative number")

    def __call__(self, delta):
        """omega(delta), 0 where delta <= 0, elementwise over an array of deltas."""
        with np.errstate(invalid="ignore"):  # 0 * -inf at a delta <= 0, whose value is 0
            omega = np.where(np.less_equal(delta, 0.0), 0.0,
                             self.rate * np.minimum(delta, self.horizon))
        return omega if np.ndim(delta) else float(omega)

    def largest_delta_below(self, eps: float) -> float:
        """The horizon when omega(horizon) < eps, else the largest float
        x <= eps / rate with rate * x < eps: strictly below, as the schedule
        and the persistence horizon both need omega(x) < eps."""
        if self.rate * self.horizon < eps:
            return self.horizon
        x = eps / self.rate
        while self.rate * x >= eps:
            x = math.nextafter(x, 0.0)
        return x


class MovingFamily(Schema):
    """t -> C(t) on [0, horizon], uniformly r-prox-regular; equality compares
    schema documents."""

    horizon: float
    declared_r: float | None
    kind: str  # the "kind" value of the schema document; schema families only

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def r(self) -> float:
        return self._r

    def _set_r(self, natural_r: float):
        """Check the horizon, then store r: natural_r, or declared_r when it
        lies in (0, natural_r]."""
        if finite(self.horizon) <= 0:
            raise ValueError("horizon must be positive")
        if self.declared_r is not None and not (0.0 < self.declared_r <= natural_r):
            raise ValueError(
                f"declared r={self.declared_r} must lie in (0, natural r={natural_r}]"
            )
        r = natural_r if self.declared_r is None else float(self.declared_r)
        object.__setattr__(self, "_r", r)

    def at(self, t: float) -> ProxSet:
        return next(self.slices((t,)))

    def slices(self, times):
        """Generator of the slices at times, built from slice_fields(times),
        which checks the times before any slice is built."""
        return (cls._from_valid(row) for cls, rows in self.slice_fields(times)
                for row in zip(*rows.values()))

    def slice_fields(self, times) -> list:
        """The slices at times, a nondecreasing 1-D array within [0, horizon],
        as (shape class, rows) for each piece of the family in time order,
        rows mapping each field name to its values, one per time in the
        piece.  OutOfRange, for a time outside the horizon (NaN included) or
        out of order, is raised here."""
        ts = np.asarray(times, dtype=float)
        inside = (ts >= 0.0) & (ts <= self.horizon)
        if not inside.all():
            raise OutOfRange(f"t={ts[~inside][0]} outside [0, {self.horizon}]")
        if (ts[1:] < ts[:-1]).any():
            raise OutOfRange("slice times must be nondecreasing")
        return self._slice_fields(ts)

    def _slice_fields(self, times: np.ndarray) -> list:
        """slice_fields at checked times, each path evaluated on the whole array."""
        raise NotImplementedError

    def analytic_rate(self) -> float:
        raise NotImplementedError

    def breakpoints(self) -> tuple:
        return ()

    def modulus(self) -> Modulus:
        return Modulus(self.horizon, self.analytic_rate())

    def to_dict(self) -> dict:
        """Schema document, read back by FAMILIES[self.kind].from_dict."""
        doc = {**self._doc_fields(), "kind": self.kind}
        if self.declared_r is not None:
            doc["declared_r"] = self.declared_r
        return doc

    def _doc_fields(self) -> dict:
        """The kind-specific fields of the schema document."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, fields) -> "MovingFamily":
        """Build from a schema reader (scenarios._Fields) whose num, vec, flag,
        objects, shape, path and family methods return validated fields."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class TranslateFamily(MovingFamily):
    kind = "translate"
    base: ProxSet
    path: Path
    horizon: float
    declared_r: float | None = None

    def __post_init__(self):
        self._set_r(self.base.r)

    @property
    def dim(self):
        return self.base.dim

    def _slice_fields(self, times):
        U = np.reshape(self.path(times), (len(times), self.dim))
        return [(type(self.base), self.base._moved(U))]

    def analytic_rate(self):
        return self.path.max_speed()

    def _doc_fields(self):
        return {"base": self.base.to_dict(), "path": self.path.to_dict(), "horizon": self.horizon}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.shape("base"), fields.path("path"), fields.num("horizon"),
                   fields.optional("declared_r", fields.num))


@dataclass(frozen=True, eq=False)
class RadiusFamily(MovingFamily):
    """Ball (or ball complement) with drifting center and scheduled radius."""

    kind = "radius_schedule"
    center: Path
    radius: Path
    complement: bool
    horizon: float
    declared_r: float | None = None

    def __post_init__(self):
        if self._min_radius() <= 0:
            raise ValueError("radius schedule must stay positive on the horizon")
        self._set_r(self._min_radius() if self.complement else math.inf)

    def _min_radius(self):
        inner = (u for u in self.radius.knots() if 0.0 < u < self.horizon)
        return min(float(self.radius(t)) for t in sorted({0.0, self.horizon, *inner}))

    @property
    def dim(self):
        return len(np.atleast_1d(self.center(0.0)))

    def _slice_fields(self, times):
        centers = readonly(np.reshape(self.center(times), (len(times), self.dim)), 2)
        return [(BallComplement if self.complement else Ball,
                 {"center": centers, "radius": self.radius(times).tolist()})]

    def analytic_rate(self):
        # Excess grows when a ball shrinks, or when an excluded ball grows.
        if self.complement:
            radial = max(0.0, self.radius.max_signed_rate())
        else:
            radial = max(0.0, -self.radius.min_signed_rate())
        return self.center.max_speed() + radial

    def _doc_fields(self):
        return {"center": self.center.to_dict(), "radius": self.radius.to_dict(),
                "complement": self.complement, "horizon": self.horizon}

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.path("center"), fields.path("radius"),
                   fields.flag("complement"), fields.num("horizon"),
                   fields.optional("declared_r", fields.num))


@dataclass(frozen=True, eq=False)
class RigidFamily(MovingFamily):
    """Planar rigid motion: rotation about a fixed pivot plus a drift, of a
    base with a farthest point from the pivot (a bounded one): its distance,
    the circumradius about the pivot, sets the rate."""

    kind = "rigid"
    base: ProxSet
    angle: Path
    pivot: np.ndarray
    horizon: float
    translation: Path | None = None
    declared_r: float | None = None
    _circum: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.base.dim != 2:
            raise ValueError("rigid families are implemented for dim 2")
        self._set_r(self.base.r)
        object.__setattr__(self, "pivot", readonly(self.pivot))
        far = self.base.farthest_from(self.pivot)
        if far is None:
            raise ValueError(f"the {self.base.tag} base is unbounded or has no derived "
                             "circumradius: no finite rigid-motion rate")
        object.__setattr__(self, "_circum", far[1])

    @property
    def dim(self):
        return 2

    def _slice_fields(self, times):
        # Read-only arrays, each row rounding as rotation_matrix_2d and Q @ pivot do.
        turns = [(math.cos(a), math.sin(a)) for a in self.angle(times).tolist()]
        Qs = readonly(np.reshape([(c, -s, s, c) for c, s in turns], (-1, 2, 2)), 3)
        U = self.pivot - np.matmul(Qs, self.pivot)
        if self.translation is not None:
            U += np.reshape(self.translation(times), U.shape)
        return [(RigidImage, {"base": [self.base] * len(Qs), "rotation": Qs,
                              "translation": readonly(U, 2)})]

    def analytic_rate(self):
        # Chord length under rotation is at most angle * circumradius.
        rate = self.angle.max_speed() * self._circum
        if self.translation is not None:
            rate += self.translation.max_speed()
        return rate

    def _doc_fields(self):
        doc = {"base": self.base.to_dict(), "angle": self.angle.to_dict(),
               "pivot": self.pivot.tolist(), "horizon": self.horizon}
        if self.translation is not None:
            doc["translation"] = self.translation.to_dict()
        return doc

    @classmethod
    def from_dict(cls, fields):
        return cls(fields.shape("base"), fields.path("angle"), fields.vec("pivot"),
                   fields.num("horizon"), fields.optional("translation", fields.path),
                   fields.optional("declared_r", fields.num))


@dataclass(frozen=True, eq=False)
class PiecewiseFamily(MovingFamily):
    """Concatenation of families; slices are right-continuous at breakpoints
    and each jump must be an exact expansion (left slice inside right slice)."""

    kind = "piecewise"
    pieces: tuple  # ((until, family), ...), untils strictly increasing
    declared_r: float | None = None

    def __post_init__(self):
        if len(self.pieces) < 1:
            raise ValueError("piecewise family needs at least one piece")
        pieces = tuple((finite(u), fam) for u, fam in self.pieces)
        dims = {fam.dim for _, fam in pieces}
        if len(dims) != 1:
            raise ValueError("piece dimensions differ")
        last = 0.0
        for until, fam in pieces:
            if until <= last:
                raise ValueError("piece breakpoints must be strictly increasing")
            if fam.horizon < until - HORIZON_TOL:
                raise ValueError("piece family horizon does not cover its interval")
            last = until
        object.__setattr__(self, "pieces", pieces)
        self._set_r(min(fam.r for _, fam in pieces))
        for (t_star, left), (_, right) in zip(pieces, pieces[1:]):
            # Only an upper bound admits a jump: a sampled excess has none.
            a, b = left.at(min(t_star, left.horizon)), right.at(t_star)
            if a == b:
                continue
            est = excess(a, b)
            if est.upper > JUMP_TOL:
                known = "is" if est.lower == est.upper else "is bounded only by"
                raise ValueError(
                    f"inadmissible jump at t={t_star} from a {a.tag} slice to a {b.tag} slice: "
                    f"its excess {known} {est.upper:.3e}, above {JUMP_TOL:g}")

    @property
    def horizon(self):
        return self.pieces[-1][0]

    @property
    def dim(self):
        return self.pieces[0][1].dim

    def breakpoints(self):
        return tuple(u for u, _ in self.pieces[:-1])

    def _slice_fields(self, times):
        # Each piece checks its own times.
        which = piece_index(self.pieces, times)
        return [piece for i, (_, fam) in enumerate(self.pieces)
                for piece in fam.slice_fields(times[which == i])]

    def analytic_rate(self):
        return max(fam.modulus().rate for _, fam in self.pieces)

    def _doc_fields(self):
        return {"pieces": [{"until": u, "family": fam.to_dict()} for u, fam in self.pieces]}

    @classmethod
    def from_dict(cls, fields):
        pieces = tuple((p.num("until"), p.family("family")) for p in fields.objects("pieces"))
        return cls(pieces, fields.optional("declared_r", fields.num))


# Schema kind -> family class: a new family kind is one class plus one entry
# here.
FAMILIES = {
    cls.kind: cls for cls in (TranslateFamily, RadiusFamily, RigidFamily, PiecewiseFamily)
}


def compute_tau(omega: Modulus, r: float, rho0: float, rho: float) -> float:
    """Persistence horizon: largest delta with omega(delta) < min{eta, rho} - margin,
    eta = min{rho0 - rho, r}, capped at the horizon; over it a ball of radius
    rho0 inside a slice keeps radius rho inside all later slices."""
    if not (0.0 < rho < rho0):
        raise ValueError("require 0 < rho < rho0")
    if r <= 0:
        raise ValueError("require r > 0")
    eta = min(rho0 - rho, r)
    threshold = min(eta, rho) - TAU_MARGIN
    if threshold <= 0:
        raise NoPositiveTau(f"threshold min(eta, rho)={min(eta, rho):.3e} leaves no room")
    tau = omega.largest_delta_below(threshold)
    if tau <= 0.0:
        raise NoPositiveTau("the modulus exceeds the inner-ball threshold at every scale")
    return tau


def build_schedule(
    family: MovingFamily,
    horizon: float,
    eps0: float,
    ratio: float,
    levels: int,
    base_resolution: int = 1,
) -> RefinementSchedule:
    """Nested dyadic refinement schedule for the family on [0, horizon].

    eps follows the geometric template eps0 * ratio**n; each step length
    delta[n] is the largest one whose modulus stays below eps[n], halved once
    as a safety margin (except when the whole horizon already certifies), and
    the dyadic grid level is the coarsest one with mesh <= delta[n].
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if not (0.0 < ratio < 1.0):
        raise ValueError("eps ratio must lie in (0, 1)")
    if horizon <= 0 or horizon > family.horizon:
        raise ValueError("horizon must be positive and within the family horizon")
    if not (0.0 < eps0 < family.r):
        raise ValueError(f"eps0={eps0} violates 0 < eps0 < r={family.r}")
    omega = family.modulus()
    eps, deltas, ks = [], [], []
    for n in range(levels):
        e = eps0 * ratio**n
        d = omega.largest_delta_below(e)
        # d >= horizon exactly when the whole horizon certifies.
        d = horizon if d >= horizon else d / 2.0
        k = 0
        while k <= MAX_DYADIC_K and horizon / 2**k > d:
            k += 1
        # Each level refines the last, so the cap is checked after nesting too.
        k = max(k, base_resolution if n == 0 else ks[-1] + 1)
        if k > MAX_DYADIC_K:
            raise ModulusUnavailable(
                f"level {n} needs a dyadic grid finer than 2^{MAX_DYADIC_K} intervals")
        eps.append(e)
        deltas.append(d)
        ks.append(k)
    grids = tuple(TimeGrid.dyadic(horizon, k) for k in ks)
    return RefinementSchedule(
        eps=tuple(eps),
        delta=tuple(deltas),
        grids=grids,
        r=min(family.r, CONVEX_R_CAP),
        eps0=eps0,
        ratio=ratio,
    )


def verify_inner_ball(family: MovingFamily, w, rho: float) -> float:
    """Max of rho + membership_defect(w) over INNER_BALL_TIMES evenly spaced
    times of [0, horizon].  Each term is exact in space: it is <= 0 iff the
    open ball B_rho(w) lies in that slice."""
    w = np.asarray(w, dtype=float)
    times = np.linspace(0.0, family.horizon, INNER_BALL_TIMES)
    return max(rho + s.membership_defect(w) for s in family.slices(times))


def validate_analytic_modulus(
    family: MovingFamily,
    pairs: int = 200,
    seed: int = 0,
    budget: SamplingBudget | None = None,
) -> float:
    """Max of the excess upper bound - omega(t-s)*(1+1e-6) over forward pairs
    (s, t): a nonpositive value certifies the family's analytic modulus on
    them, and a pair whose excess is only sampled (upper = inf) gives inf.

    The pairs are `pairs` >= 0 random ones drawn from seed, then, around each
    breakpoint t* and for h in T/64, T/16, T/4, the pairs (t*-h, t*) and
    (t*-h, t*+h) clipped to [0, T], where a jump could show.  A sampled pair i
    samples with seed budget.seed + i.
    """
    if pairs < 0:
        raise ValueError(f"pairs must be >= 0, got {pairs}")
    omega = family.modulus()
    T = family.horizon
    rng = np.random.default_rng(seed)
    forward = [sorted(rng.random(2) * T) for _ in range(pairs)]
    for t_star in family.breakpoints():
        for h in (T / 64.0, T / 16.0, T / 4.0):
            s = max(t_star - h, 0.0)
            forward += [(s, t_star), (s, min(t_star + h, T))]
    b = budget or SamplingBudget(count=48, hill_steps=20)
    times = np.unique(np.ravel(forward))  # every slice built once, by one slice_fields call
    at = dict(zip(times.tolist(), family.slices(times)))
    worst = -math.inf
    allowed = omega(np.array([t - s for s, t in forward], dtype=float)).tolist()
    for i, ((s, t), bound) in enumerate(zip(forward, allowed)):
        if t <= s:
            continue
        est = excess(at[s], at[t], replace(b, seed=b.seed + i))
        worst = max(worst, est.upper - bound * (1.0 + 1e-6))
    return worst

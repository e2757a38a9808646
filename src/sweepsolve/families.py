"""Time-parametrized set families, the one-sided excess semidistance, its
continuity modulus, inner-ball persistence horizons and checks, and
refinement schedules.

The excess of A over B is sup_{a in A} d(a, B): zero iff A is contained in
the closure of B, asymmetric otherwise.  excess gives it as an interval
lower <= e(A, B) <= upper: exact for a same-type closed form, for any A over
a ball complement, and over a convex B for a box, a bounded 2-D polytope, a
ball whose center lies outside B, an unbounded set over a bounded one, and
rigid images of these; a ball whose center lies in B gets a two-sided
bound.  Only the pairs left (an unbounded polyhedron over an unbounded
convex set, bar two half-spaces; a polytope in dimension 3 or more; a rigid
image of a ball complement as B) are sampled, a lower bound with
upper = inf.  Families
built from the declared path forms carry an analytic linear modulus
omega(delta) = rate * delta, an upper bound that sets the schedule step
lengths; validate_analytic_modulus certifies it against excess upper
bounds.  An inner ball is checked by one exact
depth evaluation per slice (a member's depth is minus its membership
defect) at INNER_BALL_TIMES times; between them it is not checked.

Every slice comes from one builder, MovingFamily.slices(times); at(t) is
slices over one time.  It checks the times once, evaluates each path once on
the whole array and builds each slice with ProxSet._from_valid, skipping the
shape's checks: the family checked its base and paths once, and moving them
keeps them valid (a half-space normal stays unit, a radius stays above the
schedule's checked minimum, rotation_matrix_2d is orthogonal).

Each schema family class owns its schema document (a kind tag in FAMILIES
plus to_dict/from_dict): a new family kind is one class plus one entry there.
The base class writes declared_r and stores r after checking the horizon and
declared_r against the family's natural r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import (
    AtSingularity,
    DimensionMismatch,
    ModulusUnavailable,
    NoPositiveTau,
    OutOfRange,
)
from .geometry import MAX_DYADIC_K, RefinementSchedule, Schema, TimeGrid, readonly
from .paths import Path, piece_index
from .sets import Ball, BallComplement, ProxSet, RigidImage, rotation_matrix_2d, sample_points

# Admissible discontinuities may only expand the set: an upper bound of the
# excess of the left slice over the right slice must vanish to this tolerance.
JUMP_TOL = 1e-9

TAU_MARGIN = 1e-9

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
    """One-sided excess of A over B as an interval: the same-type closed form,
    else the shapes' rules (B.excess_of(A)), else a sampled lower bound
    (member sampling plus local hill-climbing, as the budget sets).

    The rules take distances with no CONTAINMENT_TOL snap (tol = 0.0): a point
    is at distance 0 only where it meets every defining inequality, so upper
    carries no containment allowance, and both ends are exact up to rounding.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"excess between dim {A.dim} and dim {B.dim}")
    analytic = A.analytic_excess(B) if type(A) is type(B) else None
    if analytic is not None:
        value, witness = analytic
        return ExcessEstimate(float(value), float(value), witness, "analytic")
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

    def __call__(self, delta: float) -> float:
        if delta <= 0:
            return 0.0
        return float(self.rate * min(delta, self.horizon))

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
        if self.horizon <= 0:
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
        """Generator of the slices at times, a nondecreasing 1-D array within
        [0, horizon].  OutOfRange, for a time outside it (NaN included) or out
        of order, is raised here, before any slice is built."""
        ts = np.asarray(times, dtype=float)
        inside = (ts >= 0.0) & (ts <= self.horizon)
        if not inside.all():
            raise OutOfRange(f"t={ts[~inside][0]} outside [0, {self.horizon}]")
        if np.any(ts[1:] < ts[:-1]):
            raise OutOfRange("slice times must be nondecreasing")
        return self._slices(ts)

    def _slices(self, times: np.ndarray):
        """The slices at checked times: each path evaluated once on the whole
        array, each slice built by ProxSet._from_valid."""
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

    def _slices(self, times):
        return map(self.base.translated, np.reshape(self.path(times), (len(times), self.dim)))

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

    def _slices(self, times):
        shape = BallComplement if self.complement else Ball
        centers = np.reshape(self.center(times), (len(times), self.dim))
        centers.flags.writeable = False
        for c, rad in zip(centers, self.radius(times)):
            yield shape._from_valid(center=c, radius=float(rad))

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
    base whose circumradius about the pivot is finite (a bounded one)."""

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
        object.__setattr__(self, "_circum", self.base.circumradius_about(self.pivot))

    @property
    def dim(self):
        return 2

    def _slices(self, times):
        shifts = None if self.translation is None else self.translation(times)
        for k, angle in enumerate(self.angle(times)):
            Q = rotation_matrix_2d(angle)
            u = self.pivot - Q @ self.pivot
            if shifts is not None:
                u = u + shifts[k]
            yield RigidImage._from_valid(base=self.base, rotation=readonly(Q, 2),
                                         translation=readonly(u))

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
        pieces = tuple((float(u), fam) for u, fam in self.pieces)
        dims = {fam.dim for _, fam in pieces}
        if len(dims) != 1:
            raise ValueError("piece dimensions differ")
        last = 0.0
        for until, fam in pieces:
            if until <= last:
                raise ValueError("piece breakpoints must be strictly increasing")
            if fam.horizon < until - 1e-12:
                raise ValueError("piece family horizon does not cover its interval")
            last = until
        object.__setattr__(self, "pieces", pieces)
        self._set_r(min(fam.r for _, fam in pieces))
        for (t_star, left), (_, right) in zip(pieces, pieces[1:]):
            # Only an upper bound admits a jump: a sampled excess has none.
            a, b = left.at(min(t_star, left.horizon)), right.at(t_star)
            if a == b:
                continue
            upper = excess(a, b).upper
            if upper > JUMP_TOL:
                raise ValueError(
                    f"inadmissible jump at t={t_star} from a {a.tag} slice to a {b.tag} slice: "
                    f"its excess is bounded only by {upper:.3e}, above {JUMP_TOL:g}")

    @property
    def horizon(self):
        return self.pieces[-1][0]

    @property
    def dim(self):
        return self.pieces[0][1].dim

    def breakpoints(self):
        return tuple(u for u, _ in self.pieces[:-1])

    def _slices(self, times):
        # Each piece checks its times before the first slice is built.
        which = piece_index(self.pieces, times)
        return chain.from_iterable(
            [fam.slices(times[which == i]) for i, (_, fam) in enumerate(self.pieces)])

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

    The pairs are `pairs` random ones drawn from seed, then, around each
    breakpoint t* and for h in T/64, T/16, T/4, the pairs (t*-h, t*) and
    (t*-h, t*+h) clipped to [0, T], where a jump could show.  A sampled pair i
    samples with seed budget.seed + i.
    """
    omega = family.modulus()
    T = family.horizon
    rng = np.random.default_rng(seed)
    forward = [sorted(rng.random(2) * T) for _ in range(pairs)]
    for t_star in family.breakpoints():
        for h in (T / 64.0, T / 16.0, T / 4.0):
            s = max(t_star - h, 0.0)
            forward += [(s, t_star), (s, min(t_star + h, T))]
    b = budget or SamplingBudget(count=48, hill_steps=20)
    worst = -math.inf
    for i, (s, t) in enumerate(forward):
        if t <= s:
            continue
        est = excess(family.at(s), family.at(t), replace(b, seed=b.seed + i))
        worst = max(worst, est.upper - omega(t - s) * (1.0 + 1e-6))
    return worst

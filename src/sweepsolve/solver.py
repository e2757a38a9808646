"""Catching-up solver: implicit time stepping by projection onto the moving set.

Each step projects the previous iterate onto the next slice, so the step
vector is (minus) a proximal normal there and its length equals the distance
to the slice.  Certification re-checks that normal-cone membership a
posteriori: each slice bounds the hypo-monotonicity defect of the step vector
from above in closed form (ProxSet.normal_defect), and the verdict rests on
that bound.  Sampled residuals, lower bounds of the same defect, only audit
the bounds on NORMAL_AUDIT_STEPS steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AtSingularity,
    CertificationFailed,
    InfeasibleInitialPoint,
    OutOfRange,
    TubeViolation,
)
from .families import MovingFamily
from .geometry import TimeGrid, readonly
from .sets import NormalResidualReport, normal_residual, sample_points

# Rounding slack of the strict jump bound eps and of each step's excess bound.
JUMP_EPS_SLACK = 1e-12

CERTIFICATION_TOL = 1e-6
# Moving steps whose defect bound is audited against sampled members, the
# members sampled per audited step, and the halfwidth of the window x +- it
# around the new iterate x that bounds and audits cover.
NORMAL_AUDIT_STEPS = 4
NORMAL_AUDIT_SAMPLES = 60
NORMAL_WINDOW = 3.0


@dataclass(frozen=True, eq=False)
class DiscreteTrajectory:
    """Catching-up output on a grid: points[j] lies in the slice at times[j]
    and consecutive points differ by strictly less than eps_level.

    dist_to_set[j] is the distance from points[j] to the slice at times[j],
    recorded by the solver at the slice it projected onto.  jump_norms[j-1]
    is |points[j] - points[j-1]|, computed once here.
    """

    grid: TimeGrid
    points: np.ndarray
    level: int
    eps_level: float
    dist_to_set: np.ndarray
    jump_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = len(self.grid.times)
        pts = readonly(self.points, 2)
        if pts.shape[0] != nodes:
            raise ValueError("points must be a (nodes, dim) array matching the grid")
        dist = readonly(self.dist_to_set)
        if dist.shape != (nodes,):
            raise ValueError("dist_to_set must hold one value per grid node")
        jumps = readonly(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dist_to_set", dist)
        object.__setattr__(self, "jump_norms", jumps)
        if self.eps_level <= 0:
            raise ValueError("eps_level must be positive")
        worst = int(np.argmax(jumps))  # a grid has two nodes at least
        if jumps[worst] >= self.eps_level * (1.0 + JUMP_EPS_SLACK):
            raise CertificationFailed(worst + 1, float(jumps[worst]), self.eps_level,
                                      what="jump norm (strict bound eps)")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def variation_total(self) -> float:
        return float(np.sum(self.jump_norms))


def solve(
    family: MovingFamily,
    y0,
    grid: TimeGrid,
    eps_level: float,
    level: int = 0,
) -> DiscreteTrajectory:
    """Run the catching-up recursion y_j = P_{C(t_j)}(y_{j-1}) along the grid.

    Raises InfeasibleInitialPoint when y0 lies outside the initial slice and
    TubeViolation(j) when an iterate is at distance >= r from the next slice
    (the grid is too coarse for this family; refinement is the caller's call).
    """
    y0 = np.asarray(y0, dtype=float)
    if grid.t_first != 0.0:
        raise ValueError("the grid must start at t=0")
    if grid.t_last > family.horizon:
        raise ValueError("the grid extends beyond the family horizon")
    first = family.at(grid.t_first)
    if not first.contains(y0):
        raise InfeasibleInitialPoint(first.membership_defect(y0))
    points = np.empty((len(grid.times), len(y0)))
    dist_to_set = np.zeros(len(grid.times))  # 0 at members: y0 and every unmoved iterate
    points[0] = y0
    y = y0
    for j, t in enumerate(grid.times[1:], start=1):
        slice_t = family.at(float(t))
        try:
            y, d = slice_t.project_with_distance(y)
        except AtSingularity as err:
            # Only an excluded-ball center gets here, at distance radius >= r.
            raise TubeViolation(j, slice_t.distance(y), family.r) from err
        if d >= family.r:
            raise TubeViolation(j, d, family.r)
        points[j] = y
        dist_to_set[j] = slice_t.distance(y) if d != 0.0 else 0.0
    return DiscreteTrajectory(
        grid=grid, points=points, level=level, eps_level=eps_level, dist_to_set=dist_to_set
    )


def _evaluate(times: np.ndarray, t, last: int, value):
    """value(ts, idx) at t, a time or an array of times within [times[0],
    times[-1]]: ts is t as a 1-D array and idx[k] the last node at or before
    ts[k], clipped to [0, last].  A scalar t gives a single value."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < times[0]) or np.any(ts > times[-1]):
        raise OutOfRange("evaluation outside the trajectory span")
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, last)
    out = value(ts, idx)
    return out if np.ndim(t) else out[0]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step interpolant: the value on [t_{j-1}, t_j) is
    points[j-1], and the final point at the right endpoint."""

    times: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        return _evaluate(self.times, t, len(self.times) - 1, lambda ts, idx: self.values[idx])


@dataclass(frozen=True, eq=False)
class AffineFunction:
    """Continuous piecewise-affine interpolant through (times[j], values[j])."""

    times: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        def value(ts, idx):
            frac = (ts - self.times[idx]) / (self.times[idx + 1] - self.times[idx])
            return self.values[idx] + frac[:, None] * (self.values[idx + 1] - self.values[idx])

        return _evaluate(self.times, t, len(self.times) - 2, value)


def step_interpolant(traj: DiscreteTrajectory) -> StepFunction:
    return StepFunction(traj.grid.times, traj.points)


def affine_interpolant(traj: DiscreteTrajectory) -> AffineFunction:
    return AffineFunction(traj.grid.times, traj.points)


@dataclass(frozen=True)
class StepCertificate:
    """Per-step evidence that the step vector is an inward proximal normal:
    an upper bound of its normal-cone defect at the new iterate and, on
    audited steps, the sampled residual, which must not exceed it."""

    j: int
    distance_moved: float
    excess_bound_used: float
    defect_bound: float
    audit: NormalResidualReport | None = None

    def __post_init__(self):
        if self.distance_moved > self.excess_bound_used * (1.0 + JUMP_EPS_SLACK):
            raise CertificationFailed(
                self.j, self.distance_moved, self.excess_bound_used,
                what="distance moved (the modulus is unsound)",
            )


def certify_steps(family: MovingFamily, traj: DiscreteTrajectory, seed: int = 0) -> list:
    """Certify -step_vector as a proximal normal of the slice at every nonzero step.

    Zero steps are skipped (the zero vector lies in every normal cone).  Each
    moving step's verdict comes from the slice's normal_defect, a sound
    closed-form upper bound of the defect over members in the window
    x +- NORMAL_WINDOW, with the slice's finite r when it has one;
    CertificationFailed is raised when a bound is not <= CERTIFICATION_TOL
    (NaN included): that indicates a projection bug, not a modeling
    problem.  The sampled residual over
    NORMAL_AUDIT_SAMPLES members of the same window audits NORMAL_AUDIT_STEPS
    steps: the one with the largest bound and others drawn from seed.  An
    audited residual above its step's bound means the bound is unsound and
    raises CertificationFailed naming the step.
    """
    omega = family.modulus()
    certificates, slices = [], []
    for j in range(1, len(traj.grid.times)):
        moved = float(traj.jump_norms[j - 1])
        if moved == 0.0:
            continue
        t = float(traj.grid.times[j])
        dt = t - float(traj.grid.times[j - 1])
        excess = omega(dt)
        slice_t = family.at(t)
        n_vec = traj.points[j - 1] - traj.points[j]
        bound = slice_t.normal_defect(traj.points[j], n_vec, NORMAL_WINDOW)
        if not bound <= CERTIFICATION_TOL:
            raise CertificationFailed(j, bound, CERTIFICATION_TOL)
        certificates.append(StepCertificate(j, moved, excess, bound))
        slices.append(slice_t)
    if not certificates:
        return certificates
    worst = max(range(len(certificates)), key=lambda k: certificates[k].defect_bound)
    others = [k for k in range(len(certificates)) if k != worst]
    drawn = np.random.default_rng(seed).choice(
        others, size=min(NORMAL_AUDIT_STEPS - 1, len(others)), replace=False
    )
    for k in sorted({worst, *drawn.tolist()}):
        cert = certificates[k]
        x = traj.points[cert.j]
        region = (x - NORMAL_WINDOW, x + NORMAL_WINDOW)
        z = sample_points(slices[k], region, NORMAL_AUDIT_SAMPLES, seed + cert.j)
        audit = normal_residual(slices[k], x, traj.points[cert.j - 1] - x, z)
        if not audit.worst_residual <= cert.defect_bound:
            raise CertificationFailed(
                cert.j, audit.worst_residual, cert.defect_bound,
                what="sampled residual (the defect bound is unsound)",
            )
        certificates[k] = replace(cert, audit=audit)
    return certificates


def write_trajectory_csv(traj: DiscreteTrajectory, path) -> None:
    """Node table: t, coordinates, arriving jump norm, distance to the slice."""
    header = "t," + ",".join(f"x_{i}" for i in range(traj.dim)) + ",jump_norm,dist_to_set"
    arriving = np.concatenate(([0.0], traj.jump_norms))
    table = np.column_stack((traj.grid.times, traj.points, arriving, traj.dist_to_set))
    # %-formatting and format() share Python's float formatter: same bytes.
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [header] + [row % tuple(cells) for cells in table.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

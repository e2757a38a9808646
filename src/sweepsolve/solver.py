"""Catching-up solver: implicit time stepping by projection onto the moving set.

Each step projects the previous iterate onto the next slice, so the step
vector is (minus) a proximal normal there and its length equals the distance
to the slice.  solve walks each piece of the family's field table in blocks
of rows that step (the shapes' _steps) or rest, no slice built, and reads the
residuals of each block's moved rows by one array defect call.
Certification re-checks that normal-cone membership a posteriori: each slice
bounds the hypo-monotonicity defect of the step vector from above in closed
form (ProxSet.normal_defect, over each piece of the same table at once; a
polytope's from the faces active at the new iterate, by groups of rows with
the same faces, with no second solve), and the verdict rests on that bound.
certify_steps returns one record of arrays over the moving steps.  The
residual over the window, exact on a 2-D polyhedral slice and a sampled lower
bound on any other, audits the bounds on NORMAL_AUDIT_STEPS steps, the only
slices built; the steps and the samples are drawn from fixed seeds, so a
certificate is a function of the family and the trajectory alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtSingularity,
    CertificationFailed,
    DimensionMismatch,
    InfeasibleInitialPoint,
    OutOfRange,
    TubeViolation,
)
from .families import MovingFamily
from .geometry import TimeGrid, readonly
from .sets import CONTAINMENT_TOL, window_residual

# Rounding slack of the strict jump bound eps and of each step's excess bound.
JUMP_EPS_SLACK = 1e-12

CERTIFICATION_TOL = 1e-6
# Moving steps whose defect bound is audited against sampled members (the
# largest bound's and others drawn by default_rng(0)), the members sampled per
# audited step j (seeded by j), and the halfwidth of the window x +- it around
# the new iterate x that bounds and audits cover.
NORMAL_AUDIT_STEPS = 4
NORMAL_AUDIT_SAMPLES = 60
NORMAL_WINDOW = 3.0
# Most rows of one block of solve, stepping or resting: a block of 8 rows doubles
# up to this while it does what the last one did, and is 8 again when that switches.
DEFECT_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class DiscreteTrajectory:
    """Catching-up output on a grid: points[j] lies in the slice at times[j]
    and consecutive points differ by strictly less than eps_level.

    dist_to_set[j] is the distance from points[j] to the slice at times[j],
    0.0 where the solver found that row's defect at most CONTAINMENT_TOL.
    jump_norms[j-1] is |points[j] - points[j-1]|.  Every point is finite.
    """

    grid: TimeGrid
    points: np.ndarray
    level: int
    eps_level: float
    dist_to_set: np.ndarray
    jump_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = len(self.grid.times)
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != nodes:
            raise ValueError("points must be a (nodes, dim) array matching the grid")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise ValueError(f"point {int(np.argmin(finite))} is not finite")
        pts = readonly(pts, 2)
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


def solve(family: MovingFamily, y0, grid: TimeGrid, eps_level: float,
          level: int = 0) -> DiscreteTrajectory:
    """Run the catching-up recursion y_j = P_{C(t_j)}(y_{j-1}) along the rows of
    family.slice_fields, one block of rows at a time: shape._steps steps y over
    a block and one shape._defects call reads its moved rows' residuals; after
    a rest, one shape._defects call tests y over a block and y is copied over
    the rows whose slices hold it, as their projections would.  Blocks double
    from 8 rows up to DEFECT_BLOCK_ROWS while each does what the last one did.

    Raises ValueError for a non-finite y0, DimensionMismatch for one of
    another length, InfeasibleInitialPoint for one outside the initial slice
    and TubeViolation(j) when an iterate is at distance >= r from the next
    slice (the grid is too coarse for this family; refinement is the caller's).
    """
    y0 = np.asarray(y0, dtype=float)
    if grid.t_first != 0.0:
        raise ValueError("the grid must start at t=0")
    if grid.t_last > family.horizon:
        raise ValueError("the grid extends beyond the family horizon")
    if not np.isfinite(y0).all():
        raise ValueError("the initial point must be finite")
    if y0.shape != (family.dim,):  # y0's dimension, and so every iterate's
        raise DimensionMismatch(f"expected dim {family.dim}, got shape {y0.shape}")
    shape, rows = family.slice_fields(grid.times[:1])[0]
    defect = float(shape._defects(rows, y0[None])[0])
    if not defect <= CONTAINMENT_TOL:  # y0's defect on the t = 0 row, NaN included
        raise InfeasibleInitialPoint(defect)
    r = family.r
    points = np.empty((len(grid.times), len(y0)))
    dist_to_set = np.zeros(len(grid.times))  # 0 at members: y0 and every resting iterate
    points[0], j = y0, 0
    for shape, rows in family.slice_fields(grid.times[1:]):
        start, end, size, rests = j + 1, j + len(next(iter(rows.values()))), 8, False
        while j < end:  # one block of the piece's rows from row k, nodes j + 1 on
            k = j + 1 - start
            block = {name: values[k:k + size] for name, values in rows.items()}
            if rests:  # y stays up to the first row whose slice does not hold it
                Y = np.broadcast_to(points[j], (min(size, end - j), len(y0)))
                n = int(np.argmin(np.append(shape._defects(block, Y) <= CONTAINMENT_TOL, False)))
                points[j + 1:j + 1 + n], again = points[j], n == len(Y)
            else:
                P, D = [], []
                try:
                    shape._steps(block, points[j], CONTAINMENT_TOL, r, P, D)
                except AtSingularity as err:  # an excluded-ball center, at distance radius >= r
                    raise TubeViolation(j + len(D) + 1, err.distance, r) from err
                if D[-1] >= r:
                    raise TubeViolation(j + len(D), D[-1], r)
                n, m, again = len(D), len(D) - (D[-1] == 0.0), D[-1] != 0.0
                points[j + 1:j + 1 + n], X = P, points[j + 1:j + 1 + m]
                # The m moved rows, all but a final resting one: 0.0 at a defect
                # <= CONTAINMENT_TOL, else (NaN included) the scalar distance.
                moved = {name: values[:m] for name, values in block.items()}
                for i in np.flatnonzero(~(shape._defects(moved, X) <= CONTAINMENT_TOL)).tolist():
                    dist_to_set[j + 1 + i] = shape._project_fields(
                        [v[i] for v in moved.values()], X[i], CONTAINMENT_TOL)[1]
            # again: the next block does what this one did, on twice the rows; else the other, on 8.
            j, size, rests = j + n, min(2 * size, DEFECT_BLOCK_ROWS) if again else 8, rests == again
    return DiscreteTrajectory(grid=grid, points=points, level=level, eps_level=eps_level,
                              dist_to_set=dist_to_set)


def affine_interpolant(traj: DiscreteTrajectory):
    """The continuous piecewise-affine interpolant through (times[j],
    points[j]): a function of a time, or of an array of times, in the span."""
    times, values = traj.grid.times, traj.points

    def interpolant(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not ((ts >= times[0]) & (ts <= times[-1])).all():  # NaN included
            raise OutOfRange("evaluation outside the trajectory span")
        idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
        frac = (ts - times[idx]) / (times[idx + 1] - times[idx])
        out = values[idx] + frac[:, None] * (values[idx + 1] - values[idx])
        return out if np.ndim(t) else out[0]

    return interpolant


@dataclass(frozen=True, eq=False)
class StepCertificates:
    """Evidence that each moving step vector is an inward proximal normal, as read-only
    arrays over the moving steps in order: the step j, the distance moved, its allowance
    omega(t_j - t_{j-1}) and the upper bound of its normal-cone defect at x_j.  audits
    maps each audited step j to its residual report, at most its bound.  len() counts."""

    steps: np.ndarray
    moved: np.ndarray
    allowed: np.ndarray
    bounds: np.ndarray
    audits: dict

    def __len__(self) -> int:
        return len(self.steps)


def certify_steps(family: MovingFamily, traj: DiscreteTrajectory) -> StepCertificates:
    """Certify -step_vector as a proximal normal of the slice at every nonzero step.

    Zero steps are skipped (the zero vector lies in every normal cone).  Each
    moving step's verdict comes from the slice's normal_defect, a sound
    closed-form upper bound of the defect over members in the window
    x +- NORMAL_WINDOW with the slice's finite r, from one
    shape._normal_defects call per piece of family.slice_fields: an array,
    or a generator over rows where a polytope row needs a solve, made only
    after every earlier step has passed.  CertificationFailed names the first
    step whose bound is not <= CERTIFICATION_TOL (NaN included), a projection
    bug, or whose move exceeds the modulus at its time step, the bound first.
    sets.window_residual, exact on a 2-D polyhedral slice and else over
    NORMAL_AUDIT_SAMPLES samples, audits NORMAL_AUDIT_STEPS steps, the only
    slices built: the largest bound's and others drawn by default_rng(0), step j
    sampled with seed j.  An audited residual above its bound raises
    CertificationFailed too.
    """
    if traj.dim != family.dim:
        raise DimensionMismatch(f"expected dim {family.dim}, got shape {(traj.dim,)}")
    times = traj.grid.times
    steps = np.flatnonzero(traj.jump_norms) + 1
    moved, allowed = traj.jump_norms[steps - 1], family.modulus()(times[steps] - times[steps - 1])
    over = moved > allowed * (1.0 + JUMP_EPS_SLACK)
    X, N = traj.points[steps], traj.points[steps - 1] - traj.points[steps]
    R = NORMAL_WINDOW * np.sqrt(traj.dim)  # as normal_defect's halfwidth * math.sqrt(dim)
    bounds, done = np.empty(len(steps)), 0
    for shape, rows in family.slice_fields(times[steps]):
        end = done + len(next(iter(rows.values())))
        found = shape._normal_defects(rows, X[done:end], N[done:end], R)
        # A generator's rows one at a time (zip makes each a 1-tuple), each checked when made.
        for chunk in (found,) if isinstance(found, np.ndarray) else zip(found):
            a, done = done, done + len(chunk)
            bounds[a:done] = chunk
            failed = np.flatnonzero(~(bounds[a:done] <= CERTIFICATION_TOL) | over[a:done])
            if len(failed):
                k = a + int(failed[0])
                if not bounds[k] <= CERTIFICATION_TOL:
                    raise CertificationFailed(int(steps[k]), float(bounds[k]), CERTIFICATION_TOL)
                raise CertificationFailed(int(steps[k]), float(moved[k]), float(allowed[k]),
                                          what="distance moved (the modulus is unsound)")
    audits = {}
    if len(steps):
        worst = int(np.argmax(bounds))
        others = np.delete(np.arange(len(steps)), worst)
        drawn = np.random.default_rng(0).choice(
            others, size=min(NORMAL_AUDIT_STEPS - 1, len(others)), replace=False)
        audited = sorted({worst, *drawn.tolist()})
        for k, slice_t in zip(audited, family.slices(times[steps[audited]])):
            j, x = int(steps[k]), traj.points[steps[k]]
            audits[j] = audit = window_residual(slice_t, x, traj.points[j - 1] - x, NORMAL_WINDOW,
                                                NORMAL_AUDIT_SAMPLES, j)
            if not audit.worst_residual <= bounds[k]:
                raise CertificationFailed(j, audit.worst_residual, float(bounds[k]), what=(
                    f"{audit.kind} residual (the defect bound is unsound)"))
    for values in (steps, moved, allowed, bounds):
        values.flags.writeable = False
    return StepCertificates(steps, moved, allowed, bounds, audits)


def write_trajectory_csv(traj: DiscreteTrajectory, path) -> None:
    """Node table: t, coordinates, arriving jump norm, distance to the slice."""
    header = "t," + ",".join(f"x_{i}" for i in range(traj.dim)) + ",jump_norm,dist_to_set"
    arriving = np.concatenate(([0.0], traj.jump_norms))
    table = np.column_stack((traj.grid.times, traj.points, arriving, traj.dist_to_set))
    # One %-call for the table; %-formatting and format() share Python's float formatter.
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))

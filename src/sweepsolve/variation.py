"""Pointwise variation, a-priori variation bounds and the empirical
convergence harness over a refinement schedule.

The ball bound applies when a fixed ball B_rho(w) sits inside every slice and
the compatibility margin 2*r*rho - alpha^2 is positive; the cone bound covers
interior-cone families via the persistence horizon tau.  Convergence is
checked empirically: squared sup-norm gaps between consecutive interpolants,
divided by the level tolerance, must stay bounded.  ConvergenceReport is the
one per-level record: it stores the trajectories and the levels - 1 gaps, and
derives every other per-level value.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InapplicableBound, NoFeasibleEps, TubeViolation
from .families import Modulus, MovingFamily, compute_tau
from .geometry import RefinementSchedule, norm
from .solver import DiscreteTrajectory, affine_interpolant, solve

def variation(traj: DiscreteTrajectory, t_from: float, t_to: float) -> float:
    """Sum of jump norms over grid nodes in (t_from, t_to]; exact for the
    right-continuous step output of the solver."""
    T = traj.grid.t_last
    if not (0.0 <= t_from <= t_to <= T):
        raise ValueError(f"window [{t_from}, {t_to}] not inside [0, {T}]")
    times = traj.grid.times[1:]
    mask = (times > t_from) & (times <= t_to)
    return float(np.sum(traj.jump_norms[mask]))


def ball_variation_bound(r: float, y0, w, rho: float, slack: float) -> float:
    """max{ r*(|y0-w|^2 - rho^2) / (2*r*rho - alpha^2), 0 } with
    alpha = slack + |y0-w| + rho, the slack covering the initial distance and
    every one-step excess along the run (eps of the level suffices)."""
    if r <= 0 or rho <= 0:
        raise ValueError("r and rho must be positive")
    dist = norm(np.asarray(y0, float) - np.asarray(w, float))
    alpha = slack + dist + rho
    denom = 2.0 * r * rho - alpha**2
    if denom <= 0:
        raise InapplicableBound(f"alpha^2={alpha**2:.6g} >= 2*r*rho={2 * r * rho:.6g}")
    if denom < 1e-9 * 2.0 * r * rho:
        warnings.warn("ball variation bound evaluated near its applicability pole",
                      RuntimeWarning, stacklevel=2)
    return max(r * (dist**2 - rho**2) / denom, 0.0)


@dataclass(frozen=True)
class ConeBoundParams:
    """Inputs of the interior-cone variation bound."""

    r: float
    R: float
    d: float
    lam: float
    tau: float
    eps_bar: float

    def __post_init__(self):
        if min(self.r, self.R, self.d) <= 0:
            raise ValueError("r, R, d must be positive")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lambda must lie in (0, 1)")
        if self.eps_bar < 0:
            raise ValueError("eps_bar must be nonnegative")

    @property
    def alpha(self) -> float:
        return self.lam * self.d + self.lam * self.R / 2.0 + self.eps_bar


def cone_variation_bound(params: ConeBoundParams, horizon: float) -> float:
    """ceil(2T/tau) * ( r*(d^2 - (lam*R/2)^2) / (lam*r*R - alpha^2) + eps_bar )."""
    if horizon == 0.0:
        return 0.0
    if params.tau <= 0:
        raise InapplicableBound("tau must be positive")
    if params.lam * (params.d + params.R / 2.0) ** 2 >= params.r * params.R:
        raise InapplicableBound("lambda*(d + R/2)^2 must stay below r*R")
    half_rho = params.lam * params.R / 2.0
    if params.d < half_rho:
        raise InapplicableBound("d must be at least lambda*R/2 for a nonnegative numerator")
    denom = params.lam * params.r * params.R - params.alpha**2
    if denom <= 0:
        raise InapplicableBound(f"alpha^2={params.alpha**2:.6g} >= "
                                f"lambda*r*R={params.lam * params.r * params.R:.6g}")
    windows = math.ceil(2.0 * horizon / params.tau)
    per_window = params.r * (params.d**2 - half_rho**2) / denom
    return windows * (per_window + params.eps_bar)


def choose_cone_params(r: float, R: float, d: float, omega: Modulus,
                       eps_candidates) -> ConeBoundParams:
    """Pick lambda = 0.9*r*R/(d+R/2)^2 (capped below 1), tau from the
    inner-ball persistence recipe with rho0 = lam*R, rho = lam*R/2, and the
    largest feasible tolerance among eps_candidates."""
    if min(r, R, d) <= 0:
        raise ValueError("r, R, d must be positive")
    lam = min(0.9 * r * R / (d + R / 2.0) ** 2, 0.99)
    tau = compute_tau(omega, r, lam * R, lam * R / 2.0)
    headroom = math.sqrt(lam * r * R) - lam * (d + R / 2.0)
    eps_max = min(r / 2.0, headroom)
    if eps_max <= 0:
        raise NoFeasibleEps("no positive tolerance satisfies the smallness conditions")
    feasible = [e for e in eps_candidates if 0.0 < e < eps_max]
    if not feasible:
        raise NoFeasibleEps(f"no candidate tolerance lies below the feasibility cap {eps_max:.6g}")
    return ConeBoundParams(r=r, R=R, d=d, lam=lam, tau=tau, eps_bar=max(feasible))


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """The one per-level record of a convergence study.

    Stored: the schedule, one trajectory and one solve time per level, and
    sup_diffs[n], the exact sup-norm gap between levels n and n+1 (levels - 1
    entries, so no NaN pads them).  Derived once from these: variations,
    constraint_residuals and cauchy_ratios (gap^2 / eps, levels - 1 entries).
    rows() and to_json_dict() write the two per-level views of report.json;
    only the JSON has the finest level's gap and ratio, as null.
    """

    schedule: RefinementSchedule
    trajectories: tuple = field(repr=False)
    sup_diffs: tuple
    wall_seconds: tuple

    @cached_property
    def variations(self) -> tuple:
        return tuple(traj.variation_total for traj in self.trajectories)

    @cached_property
    def constraint_residuals(self) -> tuple:
        return tuple(float(traj.dist_to_set.max()) for traj in self.trajectories)

    @cached_property
    def cauchy_ratios(self) -> tuple:
        return tuple(gap**2 / eps for gap, eps in zip(self.sup_diffs, self.schedule.eps))

    def rows(self) -> tuple:
        """One dict per level: the "levels" rows of report.json."""
        s = self.schedule
        return tuple({"level": n, "eps": s.eps[n], "delta": s.delta[n],
                      "intervals": s.grids[n].n_intervals, "mesh": s.grids[n].mesh,
                      "variation": self.variations[n],
                      "constraint_residual": self.constraint_residuals[n],
                      "wall_seconds": self.wall_seconds[n]} for n in range(s.levels))

    def to_json_dict(self) -> dict:
        """The "convergence" arrays of report.json, one entry per level; the
        finest level has no successor, so its gap and ratio are null."""
        return {
            "levels": list(range(self.schedule.levels)),
            "eps": list(self.schedule.eps),
            "sup_diffs": [*self.sup_diffs, None],
            "variations": list(self.variations),
            "cauchy_ratios": [*self.cauchy_ratios, None],
            "constraint_residuals": list(self.constraint_residuals),
            "wall_seconds": list(self.wall_seconds),
        }


def sup_norm_gap(a: DiscreteTrajectory, b: DiscreteTrajectory) -> float:
    """Exact sup-norm distance between the affine interpolants of a and b.

    Between consecutive nodes of either grid both interpolants are affine, so
    the norm of their difference is convex there and peaks at a node: the
    maximum over the union of both node sets is the supremum.
    """
    ts = np.union1d(a.grid.times, b.grid.times)
    diff = affine_interpolant(a)(ts) - affine_interpolant(b)(ts)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def converge_study(family: MovingFamily, y0, schedule: RefinementSchedule) -> ConvergenceReport:
    """Solve at every schedule level and record each trajectory, its solve
    time and the exact sup-norm gap to the next level; the report derives the
    variations, node residuals and squared-gap-to-tolerance ratios (the ratios
    staying bounded is the empirical convergence law)."""
    trajectories, wall = [], []
    for n in range(schedule.levels):
        start = time.perf_counter()
        try:
            traj = solve(family, y0, schedule.grids[n], schedule.eps[n], level=n)
        except TubeViolation as err:
            err.level = n
            raise
        wall.append(time.perf_counter() - start)
        trajectories.append(traj)
    gaps = tuple(sup_norm_gap(b, a) for a, b in zip(trajectories, trajectories[1:]))
    return ConvergenceReport(schedule=schedule, trajectories=tuple(trajectories),
                             sup_diffs=gaps, wall_seconds=tuple(wall))

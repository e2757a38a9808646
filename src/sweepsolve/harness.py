"""Scenario runner: builds the refinement schedule, solves every level,
evaluates the checks that the scenario names (keys of CHECKS, the one table of
check functions) and writes CSV / JSON / SVG artifacts.

Check verdicts are "pass", "fail" or "inapplicable"; an inapplicable bound is
never reported as a pass.  All sampling seeds derive from the scenario seed,
overridable through the SWEEP_SEED environment variable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CertificationFailed,
    InapplicableBound,
    NoFeasibleEps,
    NoPositiveTau,
    SchemaError,
)
from .families import MovingFamily, build_schedule, verify_inner_ball
from .geometry import RefinementSchedule, norm
from .solver import CERTIFICATION_TOL, DiscreteTrajectory, certify_steps, write_trajectory_csv
from .svgplot import write_convergence_svg, write_trajectory_svg
from .variation import (
    BallBoundParams,
    ball_alpha,
    ball_variation_bound,
    choose_cone_params,
    cone_variation_bound,
)
from .variation import converge_study

if TYPE_CHECKING:
    from .scenarios import Scenario

CONSTRAINT_TOL = 1e-9
INNER_BALL_TOL = 1e-9
# Consecutive sup-norm gaps at or below this floor count as exactly converged:
# scenarios whose discrete solutions are exact on every dyadic grid produce
# gaps at roundoff scale where a strict decrease is meaningless.
CAUCHY_NOISE_FLOOR = 1e-14


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str  # "pass" | "fail" | "inapplicable"
    margin: float | None
    note: str = ""

    def to_json_dict(self) -> dict:
        margin = self.margin
        if margin is not None and math.isnan(margin):
            margin = None
        return {"name": self.name, "verdict": self.verdict, "margin": margin, "note": self.note}


@dataclass(frozen=True)
class RunReport:
    scenario: str
    horizon: float
    level_rows: tuple  # one dict per level
    checks: tuple
    bounds: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def failed(self) -> bool:
        return any(c.verdict == "fail" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "horizon": self.horizon,
            "levels": list(self.level_rows),
            "checks": [c.to_json_dict() for c in self.checks],
            "bounds": self.bounds,
            "notes": list(self.notes),
        }


def effective_seed(scenario: Scenario) -> int:
    env = os.environ.get("SWEEP_SEED")
    if env is None:
        return scenario.seed
    try:
        return int(env)
    except ValueError:
        raise SchemaError("SWEEP_SEED", f"expected an integer, got {env!r}") from None


def check_constraint(residuals) -> CheckResult:
    """Worst of the given node distances to their slices against CONSTRAINT_TOL."""
    worst = float(max(residuals))
    ok = worst <= CONSTRAINT_TOL
    return CheckResult(
        "constraint",
        "pass" if ok else "fail",
        CONSTRAINT_TOL - worst,
        f"worst node containment residual {worst:.3e}",
    )


def check_normal(family: MovingFamily, traj: DiscreteTrajectory, seed: int) -> CheckResult:
    """Normal-cone certificates of every moving step of traj: the margin is
    CERTIFICATION_TOL minus the worst closed-form defect bound; the note adds the
    sampled audit of the bounds."""
    try:
        certs = certify_steps(family, traj, seed=seed)
    except CertificationFailed as err:
        return CheckResult("normal", "fail", err.tol - err.value, str(err))
    worst = max((c.defect_bound for c in certs), default=0.0)
    audits = [c.audit for c in certs if c.audit is not None]
    note = f"worst defect bound {worst:.3e} over {len(certs)} moving steps"
    if audits:
        note += (
            f"; audit: worst sampled residual "
            f"{max(a.worst_residual for a in audits):.3e} on {len(audits)} steps, "
            f"{sum(a.samples for a in audits)} samples"
        )
    return CheckResult("normal", "pass", CERTIFICATION_TOL - worst, note)


def _check_ball_bound(scenario: Scenario, schedule, report, seed, bounds: dict) -> CheckResult:
    if scenario.ball_params is None:
        return CheckResult("ball_bound", "inapplicable", None, "no inner ball declared")
    w, rho = scenario.ball_params.w, scenario.ball_params.rho
    defect = verify_inner_ball(scenario.family, w, rho)
    if defect > INNER_BALL_TOL:
        return CheckResult(
            "ball_bound", "fail", INNER_BALL_TOL - defect,
            f"declared inner ball leaves the set (defect {defect:.3e})",
        )
    gap = norm(np.array(scenario.y0) - np.array(w))
    compat = 2.0 * schedule.r * rho - (gap + rho) ** 2
    if compat <= 0:
        return CheckResult(
            "ball_bound", "inapplicable", compat,
            f"compatibility condition violated: (|y0-w|+rho)^2 exceeds 2*r*rho by {-compat:.3e}",
        )
    margins, per_level = [], []
    for n, eps in enumerate(schedule.eps):
        alpha = ball_alpha(scenario.y0, w, rho, eps)
        try:
            bound = ball_variation_bound(
                BallBoundParams(r=schedule.r, w=w, rho=rho, alpha=alpha, y0=scenario.y0)
            )
        except InapplicableBound:
            per_level.append(None)
            continue
        per_level.append(bound)
        margins.append(bound - report.variations[n])
    bounds["ball"] = {"per_level": per_level, "rho": rho, "w": list(w), "r": schedule.r}
    if not margins:
        return CheckResult(
            "ball_bound", "inapplicable", None,
            "no schedule level satisfies the eps-augmented applicability condition",
        )
    worst = min(margins)
    return CheckResult(
        "ball_bound", "pass" if worst >= 0 else "fail", worst,
        f"min margin bound-minus-variation {worst:.3e} over {len(margins)} applicable levels",
    )


def _check_cone_bound(scenario: Scenario, schedule, report, seed, bounds: dict) -> CheckResult:
    if scenario.cone_params is None:
        return CheckResult("cone_bound", "inapplicable", None, "no interior cone declared")
    R, d = scenario.cone_params.R, scenario.cone_params.d
    omega = scenario.family.modulus()
    try:
        params = choose_cone_params(schedule.r, R, d, omega, eps_candidates=schedule.eps)
    except (NoPositiveTau, NoFeasibleEps) as err:
        return CheckResult("cone_bound", "inapplicable", None, str(err))
    n_bar = next(
        (
            n
            for n in range(schedule.levels)
            if schedule.eps[n] <= params.eps_bar and schedule.delta[n] < params.tau / 2.0
        ),
        None,
    )
    if n_bar is None:
        return CheckResult(
            "cone_bound", "inapplicable", None,
            "no schedule level satisfies the smallness conditions (eps and delta)",
        )
    try:
        bound = cone_variation_bound(params, scenario.horizon)
    except InapplicableBound as err:
        return CheckResult("cone_bound", "inapplicable", None, str(err))
    margins = [bound - report.variations[n] for n in range(n_bar, schedule.levels)]
    worst = min(margins)
    bounds["cone"] = {
        "bound": bound,
        "lambda": params.lam,
        "tau": params.tau,
        "eps_bar": params.eps_bar,
        "n_bar": n_bar,
        "R": R,
        "d": d,
        "r": schedule.r,
    }
    return CheckResult(
        "cone_bound", "pass" if worst >= 0 else "fail", worst,
        f"min margin {worst:.3e} over levels {n_bar}..{schedule.levels - 1}",
    )


def _check_cauchy(report) -> CheckResult:
    diffs = [d for d in report.sup_diffs if not math.isnan(d)]
    if len(diffs) < 2:
        return CheckResult("cauchy", "inapplicable", None, "needs at least three levels")
    ratios = [r for r in report.cauchy_ratios if not math.isnan(r)]
    k = min(3, len(ratios))
    head, tail = max(ratios[:k]), max(ratios[-k:])
    growth_ok = tail <= 2.0 * head
    decreasing_ok = all(
        b < a or max(a, b) <= CAUCHY_NOISE_FLOOR for a, b in zip(diffs, diffs[1:])
    )
    verdict = "pass" if (growth_ok and decreasing_ok) else "fail"
    note = (
        f"ratio head {head:.3e} tail {tail:.3e}; "
        f"gaps {'strictly decreasing' if decreasing_ok else 'NOT decreasing'}"
        + (" (at roundoff floor)" if max(diffs) <= CAUCHY_NOISE_FLOOR else "")
    )
    return CheckResult("cauchy", verdict, 2.0 * head - tail, note)


# Every check of a run: (scenario, schedule, convergence report, effective seed,
# bounds to fill in report.json) -> CheckResult.
CHECKS = {
    "constraint": lambda scenario, schedule, report, seed, bounds: check_constraint(
        report.constraint_residuals),
    "normal": lambda scenario, schedule, report, seed, bounds: check_normal(
        scenario.family, report.trajectories[-1], seed),
    "ball_bound": _check_ball_bound,
    "cone_bound": _check_cone_bound,
    "cauchy": lambda scenario, schedule, report, seed, bounds: _check_cauchy(report),
}


def scenario_schedule(scenario: Scenario, levels: int | None = None) -> RefinementSchedule:
    """The scenario's refinement schedule, cut or extended to levels when given."""
    sp = scenario.schedule
    return build_schedule(scenario.family, scenario.horizon, sp.eps0, sp.ratio,
                          sp.levels if levels is None else levels,
                          base_resolution=sp.base_resolution)


def run(
    scenario: Scenario,
    out_dir,
    levels: int | None = None,
    svg: bool = False,
) -> RunReport:
    """Run the full pipeline for one scenario and write its artifacts."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise SchemaError("--out", f"cannot create the output directory: {err}") from err
    seed = effective_seed(scenario)
    schedule = scenario_schedule(scenario, levels)
    report = converge_study(scenario.family, scenario.y0, schedule)

    level_rows = []
    for n, traj in enumerate(report.trajectories):
        write_trajectory_csv(traj, out / f"{scenario.name}_level{n}.csv")
        level_rows.append({
            "level": n,
            "eps": schedule.eps[n],
            "delta": schedule.delta[n],
            "intervals": schedule.grids[n].n_intervals,
            "mesh": schedule.grids[n].mesh,
            "variation": report.variations[n],
            "constraint_residual": report.constraint_residuals[n],
            "wall_seconds": report.wall_seconds[n],
        })

    bounds: dict = {}
    checks = [CHECKS[name](scenario, schedule, report, seed, bounds) for name in scenario.checks]

    notes = []
    breakpoints = scenario.family.breakpoints()
    if breakpoints:
        rate = scenario.family.analytic_rate()
        notes.append(
            f"set jumps at t={list(breakpoints)} are admissible expansions: the one-sided "
            f"continuity modulus (rate {rate:g}) is unaffected by them"
        )

    run_report = RunReport(
        scenario=scenario.name,
        horizon=scenario.horizon,
        level_rows=tuple(level_rows),
        checks=tuple(checks),
        bounds=bounds,
        notes=tuple(notes),
    )
    payload = run_report.to_json_dict()
    payload["convergence"] = report.to_json_dict()
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if svg:
        write_trajectory_svg(out / "trajectory.svg", report.trajectories[-1])
        write_convergence_svg(out / "convergence.svg", report)
    return run_report

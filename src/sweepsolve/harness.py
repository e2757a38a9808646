"""Scenario runner: builds the refinement schedule, solves every level,
evaluates the checks that the scenario names (keys of CHECKS, the one table of
check functions) and writes CSV / JSON / SVG artifacts.  Every per-level value
comes from the study's ConvergenceReport: it is what each check reads, and it
writes both the "levels" rows and the "convergence" arrays of report.json.

Check verdicts are "pass", "fail" or "inapplicable"; an inapplicable bound is
never reported as a pass.
"""

from __future__ import annotations

import json
import math
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
    ball_variation_bound,
    choose_cone_params,
    cone_variation_bound,
    converge_study,
)

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
        return {"scenario": self.scenario, "horizon": self.horizon,
                "levels": list(self.level_rows), "checks": [c.to_json_dict() for c in self.checks],
                "bounds": self.bounds, "notes": list(self.notes)}


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


def check_normal(family: MovingFamily, traj: DiscreteTrajectory) -> CheckResult:
    """Normal-cone certificates of every moving step of traj: the margin is
    CERTIFICATION_TOL minus the worst closed-form defect bound (the largest of
    the record's bounds, 0.0 with no moving step); the note adds the audit
    of the bounds, exact (over vertices) or sampled."""
    try:
        certs = certify_steps(family, traj)
    except CertificationFailed as err:
        return CheckResult("normal", "fail", err.tol - err.value, str(err))
    worst = float(certs.bounds.max()) if len(certs) else 0.0
    audits = list(certs.audits.values())
    note = f"worst defect bound {worst:.3e} over {len(certs)} moving steps"
    if audits:
        kinds = sorted({a.kind for a in audits})  # "exact", "sampled" or both
        counts = " and ".join(f"{sum(a.samples for a in audits if a.kind == kind)} "
                              f"{'vertices' if kind == 'exact' else 'samples'}" for kind in kinds)
        note += (f"; audit: worst {' and '.join(kinds)} residual "
                 f"{max(a.worst_residual for a in audits):.3e} on {len(audits)} steps, {counts}")
    return CheckResult("normal", "pass", CERTIFICATION_TOL - worst, note)


def _check_ball_bound(scenario: Scenario, report, bounds: dict) -> CheckResult:
    if scenario.ball_params is None:
        return CheckResult("ball_bound", "inapplicable", None, "no inner ball declared")
    w, rho = scenario.ball_params.w, scenario.ball_params.rho
    defect = verify_inner_ball(scenario.family, w, rho)
    if defect > INNER_BALL_TOL:
        return CheckResult(
            "ball_bound", "fail", INNER_BALL_TOL - defect,
            f"declared inner ball leaves the set (defect {defect:.3e})",
        )
    schedule = report.schedule
    gap = norm(np.array(scenario.y0) - np.array(w))
    compat = 2.0 * schedule.r * rho - (gap + rho) ** 2
    if compat <= 0:
        return CheckResult(
            "ball_bound", "inapplicable", compat,
            f"compatibility condition violated: (|y0-w|+rho)^2 exceeds 2*r*rho by {-compat:.3e}",
        )
    per_level = []
    for eps in schedule.eps:
        try:
            per_level.append(ball_variation_bound(schedule.r, scenario.y0, w, rho, eps))
        except InapplicableBound:
            per_level.append(None)
    margins = [b - v for b, v in zip(per_level, report.variations) if b is not None]
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


def _check_cone_bound(scenario: Scenario, report, bounds: dict) -> CheckResult:
    if scenario.cone_params is None:
        return CheckResult("cone_bound", "inapplicable", None, "no interior cone declared")
    schedule = report.schedule
    R, d = scenario.cone_params.R, scenario.cone_params.d
    omega = scenario.family.modulus()
    try:
        lam, tau, eps_bar = choose_cone_params(schedule.r, R, d, omega,
                                               eps_candidates=schedule.eps)
    except (NoPositiveTau, NoFeasibleEps) as err:
        return CheckResult("cone_bound", "inapplicable", None, str(err))
    n_bar = next((n for n in range(schedule.levels)
                  if schedule.eps[n] <= eps_bar and schedule.delta[n] < tau / 2.0), None)
    if n_bar is None:
        return CheckResult(
            "cone_bound", "inapplicable", None,
            "no schedule level satisfies the smallness conditions (eps and delta)",
        )
    try:
        bound = cone_variation_bound(schedule.r, R, d, lam, tau, eps_bar, scenario.horizon)
    except InapplicableBound as err:
        return CheckResult("cone_bound", "inapplicable", None, str(err))
    margins = [bound - report.variations[n] for n in range(n_bar, schedule.levels)]
    worst = min(margins)
    bounds["cone"] = {"bound": bound, "lambda": lam, "tau": tau, "eps_bar": eps_bar,
                      "n_bar": n_bar, "R": R, "d": d, "r": schedule.r}
    return CheckResult(
        "cone_bound", "pass" if worst >= 0 else "fail", worst,
        f"min margin {worst:.3e} over levels {n_bar}..{schedule.levels - 1}",
    )


def _check_cauchy(report) -> CheckResult:
    diffs, ratios = report.sup_diffs, report.cauchy_ratios
    if len(diffs) < 2:
        return CheckResult("cauchy", "inapplicable", None, "needs at least three levels")
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


# Every check of a run: (scenario, convergence report, bounds to fill in
# report.json) -> CheckResult.  The schedule is the report's own.
CHECKS = {
    "constraint": lambda scenario, report, bounds: check_constraint(report.constraint_residuals),
    "normal": lambda scenario, report, bounds: check_normal(scenario.family,
                                                            report.trajectories[-1]),
    "ball_bound": _check_ball_bound,
    "cone_bound": _check_cone_bound,
    "cauchy": lambda scenario, report, bounds: _check_cauchy(report),
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
    report = converge_study(scenario.family, scenario.y0, scenario_schedule(scenario, levels))
    for n, traj in enumerate(report.trajectories):
        write_trajectory_csv(traj, out / f"{scenario.name}_level{n}.csv")

    bounds: dict = {}
    checks = [CHECKS[name](scenario, report, bounds) for name in scenario.checks]

    notes = []
    breakpoints = scenario.family.breakpoints()
    if breakpoints:
        rate = scenario.family.analytic_rate()
        notes.append(
            f"set jumps at t={list(breakpoints)} are admissible expansions: the one-sided "
            f"continuity modulus (rate {rate:g}) is unaffected by them"
        )

    run_report = RunReport(scenario=scenario.name, horizon=scenario.horizon,
                           level_rows=report.rows(), checks=tuple(checks), bounds=bounds,
                           notes=tuple(notes))
    payload = run_report.to_json_dict()
    payload["convergence"] = report.to_json_dict()
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if svg:
        write_trajectory_svg(out / "trajectory.svg", report.trajectories[-1])
        write_convergence_svg(out / "convergence.svg", report)
    return run_report

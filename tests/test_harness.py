import json

import numpy as np
import pytest

from sweepsolve.families import PiecewiseFamily, TranslateFamily
from sweepsolve.geometry import TimeGrid
from sweepsolve.harness import INNER_BALL_TOL, check_normal, run, scenario_schedule
from sweepsolve.paths import LinearPath
from sweepsolve.sets import Ball, HalfSpace, ProxSet
from sweepsolve.solver import NORMAL_AUDIT_STEPS, solve
from sweepsolve.scenarios import builtin_text, load_builtin, parse_scenario


def test_static_ball_every_check_passes(tmp_path):
    report = run(load_builtin("static_ball"), tmp_path)
    assert not report.failed
    assert all(c.verdict == "pass" for c in report.checks)
    for row in report.level_rows:
        assert dict(row)["variation"] == 0.0


def test_sweep_report_contents(tmp_path):
    report = run(load_builtin("sweep_halfspace"), tmp_path, levels=5)
    assert not report.failed
    assert all(dict(row)["constraint_residual"] < 1e-9 for row in report.level_rows)
    ball = report.check("ball_bound")
    assert ball.verdict == "inapplicable"
    assert "no inner ball declared" in ball.note
    assert report.check("cauchy").verdict == "pass"
    assert len(report.level_rows) == 5
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["scenario"] == "sweep_halfspace"
    assert len(payload["levels"]) == 5
    assert {c["name"] for c in payload["checks"]} == {"constraint", "normal", "cauchy", "ball_bound"}


def test_shrinking_ball_bound_passes_with_margin(tmp_path):
    report = run(load_builtin("shrinking_ball_inner_cert"), tmp_path)
    ball = report.check("ball_bound")
    assert ball.verdict == "pass"
    assert ball.margin is not None and ball.margin > 0
    per_level = report.bounds["ball"]["per_level"]
    assert all(b is not None for b in per_level)
    variations = [dict(row)["variation"] for row in report.level_rows]
    assert all(v <= b for v, b in zip(variations, per_level))


def test_violating_ball_config_is_inapplicable_not_pass(tmp_path):
    doc = json.loads(builtin_text("shrinking_ball_inner_cert"))
    doc["y0"] = [0.9, 0.0]
    doc["family"]["declared_r"] = 1.0
    scenario = parse_scenario(json.dumps(doc))
    report = run(scenario, tmp_path)
    ball = report.check("ball_bound")
    assert ball.verdict == "inapplicable"
    assert "compatibility" in ball.note


def test_bad_inner_ball_fails(tmp_path):
    doc = json.loads(builtin_text("shrinking_ball_inner_cert"))
    doc["bound_params"]["ball"]["rho"] = 0.9  # leaves the shrinking ball
    scenario = parse_scenario(json.dumps(doc))
    report = run(scenario, tmp_path)
    assert report.check("ball_bound").verdict == "fail"
    assert report.failed


def test_inner_ball_crossing_a_face_fails(tmp_path):
    # B_0.5((0.5001, 0)) crosses the face x = 1 of the box [-1, 1]^2 by 1e-4.
    doc = json.loads(builtin_text("static_ball"))
    doc["family"]["base"] = {"shape": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
    doc["checks"] = ["ball_bound"]
    doc["bound_params"] = {"ball": {"w": [0.5001, 0.0], "rho": 0.5}}
    ball = run(parse_scenario(json.dumps(doc)), tmp_path).check("ball_bound")
    assert ball.verdict == "fail"
    assert ball.margin == pytest.approx(INNER_BALL_TOL - 1e-4, abs=1e-12)


def test_cone_bound_scenarios(tmp_path):
    for name in ("moving_obstacle", "polytope_rotation"):
        report = run(load_builtin(name), tmp_path / name)
        cone = report.check("cone_bound")
        assert cone.verdict == "pass", cone.note
        info = report.bounds["cone"]
        assert 0.0 < info["lambda"] < 1.0
        assert info["tau"] > 0
        assert info["n_bar"] >= 0


@pytest.mark.parametrize("name, fields, check, note", [
    ("static_ball", {"checks": ["constraint", "cone_bound"]},
     "cone_bound", "no interior cone declared"),
    # A static ball certifies the whole horizon at every level: no step is
    # shorter than half the persistence horizon.
    ("static_ball", {"checks": ["constraint", "cone_bound"],
                     "bound_params": {"cone": {"R": 0.5, "d": 0.5}}},
     "cone_bound", "no schedule level satisfies the smallness conditions (eps and delta)"),
    ("polytope_rotation", {"bound_params": {"cone": {"R": 0.25, "d": 0.05}}},
     "cone_bound", "d must be at least lambda*R/2 for a nonnegative numerator"),
    # A static excluded ball, r = 0.5: (|y0-w| + rho)^2 = 0.098^2 < 2*r*rho
    # = 0.01, but the slack of the finest level, eps = 0.0125, breaks the
    # condition at every level.
    ("static_ball", {"y0": [2.0, 0.0], "checks": ["ball_bound"],
                     "family": {"kind": "translate", "horizon": 1.0,
                                "base": {"shape": "ball_complement", "center": [0.0, 0.0],
                                         "radius": 0.5},
                                "path": {"form": "constant", "value": [0.0, 0.0]}},
                     "bound_params": {"ball": {"w": [2.088, 0.0], "rho": 0.01}}},
     "ball_bound", "no schedule level satisfies the eps-augmented applicability condition"),
], ids=["no_cone", "no_small_level", "cone_bound_raises", "no_ball_level"])
def test_an_inapplicable_bound_never_reads_pass(name, fields, check, note, tmp_path):
    doc = {**json.loads(builtin_text(name)), **fields}
    result = run(parse_scenario(json.dumps(doc)), tmp_path).check(check)
    assert (result.verdict, result.margin, result.note) == ("inapplicable", None, note)


def test_svg_artifacts(tmp_path):
    import xml.etree.ElementTree as ET

    run(load_builtin("moving_obstacle"), tmp_path, svg=True)
    traj_svg = (tmp_path / "trajectory.svg").read_text()
    conv_svg = (tmp_path / "convergence.svg").read_text()
    assert "polyline" in traj_svg
    assert "rect" in conv_svg
    for text in (traj_svg, conv_svg):
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")


def test_csv_determinism_across_runs(tmp_path):
    scenario = load_builtin("jump_expansion")
    run(scenario, tmp_path / "a")
    run(scenario, tmp_path / "b")
    for n in range(scenario.schedule.levels):
        fa = (tmp_path / "a" / f"jump_expansion_level{n}.csv").read_bytes()
        fb = (tmp_path / "b" / f"jump_expansion_level{n}.csv").read_bytes()
        assert fa == fb


@pytest.mark.parametrize("name", ["shrinking_ball_inner_cert", "moving_obstacle",
                                  "jump_expansion"])
def test_a_run_reads_no_seed(name, tmp_path, monkeypatch):
    # The solution is unique, so what a run reports is a function of the
    # scenario alone: neither the document's seed nor the environment moves
    # a verdict, a margin, a note (the sampled audits' included) or a CSV byte.
    outcomes = []
    for seed, env in ((0, None), (7, "abc")):
        if env is None:
            monkeypatch.delenv("SWEEP_SEED", raising=False)
        else:
            monkeypatch.setenv("SWEEP_SEED", env)
        doc = json.loads(builtin_text(name))
        doc["seed"] = seed
        out = tmp_path / str(seed)
        report = run(parse_scenario(json.dumps(doc)), out)
        checks = [(c.name, c.verdict, c.margin, c.note) for c in report.checks]
        outcomes.append((checks, [(out / f"{name}_level{n}.csv").read_bytes()
                                  for n in range(len(report.level_rows))]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_level_count_edges_of_the_convergence_report(levels, tmp_path):
    report = run(load_builtin("moving_obstacle"), tmp_path, levels=levels, svg=True)
    cauchy = report.check("cauchy")
    if levels < 3:
        assert cauchy.verdict == "inapplicable"
        assert cauchy.note == "needs at least three levels"
    else:
        assert cauchy.verdict == "pass"
    convergence = json.loads((tmp_path / "report.json").read_text())["convergence"]
    for key in ("sup_diffs", "cauchy_ratios"):
        assert len(convergence[key]) == levels
        assert convergence[key][-1] is None
        assert None not in convergence[key][:-1]
    svg = (tmp_path / "convergence.svg").read_text()
    # Two frame rectangles, then one eps bar and one gap bar per level pair.
    assert svg.count("<rect ") == 2 + 2 * (levels - 1)
    assert svg.count(">n=") == levels - 1


def test_jump_expansion_report_notes_modulus_invariance(tmp_path):
    report = run(load_builtin("jump_expansion"), tmp_path)
    assert not report.failed
    assert any("unaffected" in note for note in report.notes)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["notes"]


def test_report_values_reproducible_from_csvs(tmp_path):
    # The report is a summary of the CSVs, not extra state: per-level variation
    # and constraint residual must be recomputable from the exported rows.
    scenario = load_builtin("moving_obstacle")
    report = run(scenario, tmp_path)
    for row in report.level_rows:
        d = dict(row)
        lines = (tmp_path / f"moving_obstacle_level{d['level']}.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        jump_col = header.index("jump_norm")
        dist_col = header.index("dist_to_set")
        jumps = [float(line.split(",")[jump_col]) for line in lines[1:]]
        dists = [float(line.split(",")[dist_col]) for line in lines[1:]]
        assert sum(jumps) == pytest.approx(d["variation"], abs=1e-12)
        assert max(dists) == pytest.approx(d["constraint_residual"], abs=1e-12)


def test_run_builds_only_the_audited_slices(tmp_path, monkeypatch):
    # Residuals and CSVs read the distances solve recorded.  solve tests y0
    # and steps through the rows of each family's field table, and neither a
    # closed-form shape nor a rigid image builds a slice object for a row, so
    # with the constraint and Cauchy checks no level builds a slice.  The
    # normal check bounds the moving steps of the finest level from the same
    # table, again building no slice on either scenario; only the audit
    # builds the slices of its NORMAL_AUDIT_STEPS steps.  Every slice is made
    # by _from_valid.
    for name, checks in (("sweep_halfspace", ["constraint", "cauchy"]),
                         ("sweep_halfspace", ["constraint", "cauchy", "normal"]),
                         ("polytope_rotation", ["constraint", "cauchy", "normal"])):
        doc = json.loads(builtin_text(name))
        doc["checks"] = checks
        scenario = parse_scenario(json.dumps(doc))
        from_valid = ProxSet._from_valid.__func__
        built = []

        def counting(cls, fields):
            built.append(cls)
            return from_valid(cls, fields)

        monkeypatch.setattr(ProxSet, "_from_valid", classmethod(counting))
        out = tmp_path / f"{name}_{len(checks)}"
        report = run(scenario, out, levels=4)
        monkeypatch.undo()
        assert len(report.level_rows) == 4
        expected = 0
        if "normal" in checks:
            finest = (out / f"{name}_level3.csv").read_text().splitlines()[1:]
            moving = sum(float(line.split(",")[-2]) != 0.0 for line in finest)
            assert moving > NORMAL_AUDIT_STEPS
            expected += NORMAL_AUDIT_STEPS
        assert len(built) == expected


def test_scenario_schedule_honours_the_level_override():
    scenario = load_builtin("jump_expansion")
    full = scenario_schedule(scenario)
    assert len(full.grids) == scenario.schedule.levels
    two = scenario_schedule(scenario, 2)
    assert two.eps == full.eps[:2] and two.delta == full.delta[:2]
    assert [g.n_intervals for g in two.grids] == [g.n_intervals for g in full.grids[:2]]


def _sweep_trajectory():
    fam = TranslateFamily(HalfSpace((1.0, 0.0), 1.0), LinearPath((0.0, 0.0), (-1.0, 0.0)), 2.0)
    return fam, solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 64), eps_level=0.1)


def test_normal_check_reports_bound_and_audit():
    # A half-space slice is audited exactly, at the 4 vertices of the slice
    # in each step's window; a ball by 60 samples a step; the note of a
    # family with both kinds of slice counts each.
    fam, traj = _sweep_trajectory()
    check = check_normal(fam, traj)
    assert check.verdict == "pass"
    assert 1e-6 - 1e-13 <= check.margin <= 1e-6
    assert "over 32 moving steps" in check.note
    assert "worst exact residual" in check.note and "on 4 steps, 16 vertices" in check.note
    path, grid = LinearPath((0.0, 0.0), (-1.0, 0.0)), TimeGrid.uniform(2.0, 64)
    ball = TranslateFamily(Ball((0.0, 0.0), 1.0), path, 2.0)
    note = check_normal(ball, solve(ball, (1.0, 0.0), grid, eps_level=0.1)).note
    assert "worst sampled residual" in note and "on 4 steps, 240 samples" in note
    wall = TranslateFamily(HalfSpace((1.0, 0.0), 1.0), path, 2.0)
    both = PiecewiseFamily(((1.0, ball), (2.0, wall)))
    note = check_normal(both, solve(both, (1.0, 0.0), grid, eps_level=0.1)).note
    assert "worst exact and sampled residual" in note
    assert "on 4 steps, 12 vertices and 60 samples" in note


def test_failed_audit_is_a_fail_naming_the_step(monkeypatch):
    # A bound below the sampled residual is unsound: the audit must catch it.
    monkeypatch.setattr(HalfSpace, "_normal_defects",
                        classmethod(lambda cls, rows, X, N, R: np.full(len(X), -1.0)))
    fam, traj = _sweep_trajectory()
    check = check_normal(fam, traj)
    assert check.verdict == "fail"
    assert check.note.startswith("step ")
    assert "unsound" in check.note
    assert check.margin < 0

"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Tolerances are pinned here and nowhere else.

Criterion 1 compares library distances against a dense-grid brute-force
minimizer in VALUE (the grid argmin position drifts tangentially by
O(sqrt(h*d)) along curved boundaries, so positions are pinned by the
variational inequality check instead, which certifies the projection point
exactly).  Criterion 7's strict-decrease check treats consecutive gaps at or
below 1e-14 as exactly converged: scenarios whose discrete solutions are
bit-exact on every dyadic grid (the half-space sweep hits its kink on a grid
node at every level) produce identically-zero gaps where a strict float
decrease is meaningless.
"""

import json
import math
import time

import numpy as np
import pytest

from sweepsolve.errors import InapplicableBound
from sweepsolve.families import build_schedule, excess, validate_analytic_modulus
from sweepsolve.geometry import TimeGrid
from sweepsolve.harness import CAUCHY_NOISE_FLOOR, run, scenario_schedule
from sweepsolve.scenarios import builtin_text, load_builtin, parse_scenario, serialize_scenario
from sweepsolve.sets import (
    Ball,
    BallComplement,
    Box,
    HalfSpace,
    halfspace,
    polytope,
    sample_points,
)
from sweepsolve.solver import certify_steps, solve
from sweepsolve.variation import ball_variation_bound, converge_study, sup_norm_gap

import oracles


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


TRIANGLE = polytope(
    (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
    (0.2, 0.2),
)

PRIMITIVES = [
    ("halfspace", HalfSpace((1.0, 0.0), 0.0), ((-1.5, -1.5), (1.5, 1.5)),
     lambda X, Y: oracles.halfspace_mask(X, Y, (1.0, 0.0), 0.0)),
    ("ball", Ball((0.0, 0.0), 1.0), ((-1.5, -1.5), (1.5, 1.5)),
     lambda X, Y: oracles.ball_mask(X, Y, (0.0, 0.0), 1.0)),
    ("box", Box((-0.8, -0.5), (0.7, 0.9)), ((-1.5, -1.5), (1.5, 1.5)),
     lambda X, Y: oracles.box_mask(X, Y, (-0.8, -0.5), (0.7, 0.9))),
    ("triangle", TRIANGLE, ((-0.5, -0.5), (1.5, 1.5)),
     lambda X, Y: oracles.polytope_mask(X, Y, oracles.TRIANGLE_FACES)),
    ("ball_complement", BallComplement((0.0, 0.0), 0.5), ((-1.5, -1.5), (1.5, 1.5)),
     lambda X, Y: oracles.complement_mask(X, Y, (0.0, 0.0), 0.5)),
]


def test_criterion_1_projection_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    worst_defect = -math.inf
    for name, shape, domain, mask_fn in PRIMITIVES:
        X, Y, spacing = oracles.grid(domain, 2001)
        mask = mask_fn(X, Y)
        mx, my = X[mask], Y[mask]
        z = np.array(sample_points(shape, domain, 500, seed=42))
        lo = np.array(domain[0]) + 0.15
        hi = np.array(domain[1]) - 0.15
        done = 0
        while done < 50:
            y = lo + rng.random(2) * (hi - lo)
            d = shape.distance(y)
            if d >= shape.r:
                continue
            done += 1
            d_grid = float(np.sqrt(np.min((mx - y[0]) ** 2 + (my - y[1]) ** 2)))
            gap = abs(d - d_grid)
            assert gap <= 2 * spacing, f"{name}: |{d} - {d_grid}| > 2h at y={y}"
            worst_gap = max(worst_gap, gap)
            x = shape.project(y)
            diffs = z - x
            defect = float(np.max(diffs @ (y - x) - 0.5 * np.einsum("ij,ij->i", diffs, diffs)))
            assert defect <= 1e-9, f"{name}: variational defect {defect} at y={y}"
            worst_defect = max(worst_defect, defect)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"distance gap <= {worst_gap:.2e} (2h={2 * spacing:.2e}), "
              f"VI defect <= {worst_defect:.2e}, {elapsed:.1f}s")


def test_criterion_2_segment_projection():
    rng = np.random.default_rng(2)
    shapes = [p[1] for p in PRIMITIVES]
    worst = 0.0
    pairs = 0
    while pairs < 100:
        shape = shapes[pairs % len(shapes)]
        y = rng.uniform(-2.0, 2.0, 2)
        d = shape.distance(y)
        if not (1e-6 < d < shape.r):
            continue
        pairs += 1
        x = shape.project(y)
        for t in (0.1, 0.5, 0.9):
            back = shape.project(x + t * (y - x))
            worst = max(worst, float(np.linalg.norm(back - x)))
            assert worst <= 1e-9
    report(2, f"100 pairs x 3 interior points, reprojection drift <= {worst:.2e}")


def test_criterion_3_closed_form_sweep():
    scenario = load_builtin("sweep_halfspace")
    details = []
    for mesh in (1e-2, 1e-3, 1e-4):
        grid = TimeGrid.uniform(2.0, round(2.0 / mesh))
        traj = solve(scenario.family, scenario.y0, grid, eps_level=2 * mesh)
        sup_err = max(
            np.linalg.norm(traj.points[j] - oracles.play_sweep(float(t)))
            for j, t in enumerate(grid.times)
        )
        v_err = abs(traj.variation_total - 1.0)
        assert sup_err <= 2 * mesh
        assert v_err <= 2 * mesh
        details.append(f"h={mesh:g}: sup={sup_err:.1e}, |V-1|={v_err:.1e}")
    report(3, "; ".join(details))


def test_criterion_4_discrete_inclusion_certificates():
    worst_by_scenario = {}
    for name in ("static_ball", "sweep_halfspace", "shrinking_ball_inner_cert",
                 "moving_obstacle", "polytope_rotation", "jump_expansion"):
        scenario = load_builtin(name)
        schedule = scenario_schedule(scenario)
        finest = solve(
            scenario.family, scenario.y0, schedule.grids[-1], schedule.eps[-1],
            level=schedule.levels - 1,
        )
        certs = certify_steps(scenario.family, finest, seed=0)
        worst = float(certs.bounds.max()) if len(certs) else 0.0
        assert worst <= 1e-6, f"{name}: worst defect bound {worst}"
        bound = dict(zip(certs.steps.tolist(), certs.bounds.tolist()))
        for j, audit in certs.audits.items():
            assert audit.worst_residual <= bound[j], f"{name}: step {j}"
        worst_by_scenario[name] = worst
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst_by_scenario.items())
    report(4, f"worst hypo-monotonicity defect bounds: {summary}")


def test_criterion_5_ball_variation_bound(tmp_path):
    result = run(load_builtin("shrinking_ball_inner_cert"), tmp_path / "ok")
    ball = result.check("ball_bound")
    assert ball.verdict == "pass"
    assert ball.margin is not None and ball.margin > 0
    per_level = result.bounds["ball"]["per_level"]
    variations = [dict(row)["variation"] for row in result.level_rows]
    assert all(b is not None and v <= b for v, b in zip(variations, per_level))

    # The compatibility condition gates applicability: a violating config
    # must yield InapplicableBound, not a passing verdict.
    doc = json.loads(builtin_text("shrinking_ball_inner_cert"))
    doc["y0"] = [0.9, 0.0]
    doc["family"]["declared_r"] = 1.0
    bad = parse_scenario(json.dumps(doc))
    with pytest.raises(InapplicableBound):
        ball_variation_bound(1.0, bad.y0, (0.0, 0.0), 0.5, 0.0)
    bad_result = run(bad, tmp_path / "bad")
    assert bad_result.check("ball_bound").verdict == "inapplicable"
    report(5, f"margin {ball.margin:.3f} on all levels; violating config gated as inapplicable")


def test_criterion_6_cone_variation_bound(tmp_path):
    details = []
    for name in ("polytope_rotation", "moving_obstacle"):
        scenario = load_builtin(name)
        result = run(scenario, tmp_path / name)
        cone = result.check("cone_bound")
        assert cone.verdict == "pass", cone.note
        info = result.bounds["cone"]
        # tau must follow the inner-ball persistence recipe for a linear modulus
        rate = scenario.family.analytic_rate()
        lam, r = info["lambda"], info["r"]
        rho0, rho = lam * info["R"], lam * info["R"] / 2.0
        threshold = min(min(rho0 - rho, r), rho)
        expected_tau = min((threshold - 1e-9) / rate, scenario.horizon)
        assert info["tau"] == pytest.approx(expected_tau, rel=1e-6)
        variations = [dict(row)["variation"] for row in result.level_rows]
        for n in range(info["n_bar"], len(variations)):
            assert variations[n] <= info["bound"]
        details.append(f"{name}: V<= {max(variations):.3f} vs bound {info['bound']:.0f}, "
                       f"tau={info['tau']:.4f}, n_bar={info['n_bar']}")
    report(6, "; ".join(details))


def test_criterion_7_empirical_cauchy_law():
    details = []
    for name in ("sweep_halfspace", "moving_obstacle", "jump_expansion"):
        scenario = load_builtin(name)
        assert scenario.schedule.levels == 6
        rep = converge_study(scenario.family, scenario.y0, scenario_schedule(scenario))
        ratios = rep.cauchy_ratios
        head, tail = max(ratios[:3]), max(ratios[-3:])
        assert tail <= 2.0 * head, f"{name}: ratio growth {head} -> {tail}"
        diffs = rep.sup_diffs
        for a, b in zip(diffs, diffs[1:]):
            assert b < a or max(a, b) <= CAUCHY_NOISE_FLOOR, f"{name}: gaps {a} !> {b}"
        status = "exact-zero gaps" if max(diffs) <= CAUCHY_NOISE_FLOOR else \
            f"gaps {diffs[0]:.1e} -> {diffs[-1]:.1e}"
        details.append(f"{name}: ratio head {head:.1e} tail {tail:.1e}, {status}")
    report(7, "; ".join(details))


def test_criterion_8_novelty_jump_expansion():
    scenario = load_builtin("jump_expansion")
    # No TubeViolation at any level.
    rep = converge_study(scenario.family, scenario.y0, scenario_schedule(scenario))
    assert rep.constraint_residuals[-1] <= 1e-9

    # Jump-removed twin: same pieces, second radius continued from 0.6.
    doc = json.loads(builtin_text("jump_expansion"))
    doc["family"]["pieces"][1]["family"]["radius"]["value"] = 1.15
    twin = parse_scenario(json.dumps(doc)).family
    with_jump, without = scenario.family.modulus(), twin.modulus()
    worst_gap = max(abs(with_jump(d) - without(d)) for d in (0.05, 0.1, 0.2, 0.4))
    assert worst_gap <= 1e-9
    # On the pairs that straddle the jump, the outward jump adds no excess over
    # the twin's, and the analytic modulus still bounds the jump family's.
    T = scenario.horizon
    gap = -math.inf
    for t_star in scenario.family.breakpoints():
        for h in (T / 64.0, T / 16.0, T / 4.0):
            for s, t in ((t_star - h, t_star), (t_star - h, t_star + h)):
                jump = excess(scenario.family.at(s), scenario.family.at(t)).lower
                cont = excess(twin.at(s), twin.at(t)).lower
                gap = max(gap, jump - cont)
    assert gap <= 1e-9
    audit = validate_analytic_modulus(scenario.family, pairs=0)
    assert audit <= 1e-9
    report(8, f"finest residual {rep.constraint_residuals[-1]:.1e}; "
              f"modulus jump-invariance: analytic gap {worst_gap:.1e}, excess "
              f"over the twin's {gap:.1e}, breakpoint audit {audit:.1e}")


def test_criterion_9_refinement_consistency():
    details = []
    for name in ("sweep_halfspace", "moving_obstacle", "jump_expansion"):
        scenario = load_builtin(name)
        sched_a = build_schedule(scenario.family, scenario.horizon, 0.1, 0.5, 6)
        sched_b = build_schedule(scenario.family, scenario.horizon, 0.06, 0.5, 4)
        # The comparison must cross resolutions, not re-run the same grid.
        assert sched_a.grids[-1].n_intervals != sched_b.grids[-1].n_intervals
        fin_a = solve(scenario.family, scenario.y0, sched_a.grids[-1], sched_a.eps[-1], level=5)
        fin_b = solve(scenario.family, scenario.y0, sched_b.grids[-1], sched_b.eps[-1], level=3)
        gap = sup_norm_gap(fin_a, fin_b)
        tol = 3.0 * max(sched_a.eps[-1], sched_b.eps[-1])
        assert gap <= tol, f"{name}: {gap} > {tol}"
        details.append(f"{name}: gap {gap:.2e} <= {tol:.2e}")
    report(9, "; ".join(details))


def test_criterion_10_determinism_and_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SWEEP_SEED", "2024")
    scenario = load_builtin("moving_obstacle")
    run(scenario, tmp_path / "first")
    run(scenario, tmp_path / "second")
    n_files = 0
    for n in range(scenario.schedule.levels):
        fa = (tmp_path / "first" / f"moving_obstacle_level{n}.csv").read_bytes()
        fb = (tmp_path / "second" / f"moving_obstacle_level{n}.csv").read_bytes()
        assert fa == fb
        n_files += 1
    names = []
    for name, _ in __import__("sweepsolve").list_builtins():
        s = load_builtin(name)
        assert parse_scenario(serialize_scenario(s)) == s
        names.append(name)
    report(10, f"{n_files} CSVs byte-identical under fixed SWEEP_SEED; "
               f"parse/serialize identity on {len(names)} builtins")

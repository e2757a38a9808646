import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sweepsolve import solver as solver_mod
from sweepsolve.errors import (
    AtSingularity,
    CertificationFailed,
    DimensionMismatch,
    InfeasibleInitialPoint,
    OutOfRange,
    TubeViolation,
)
from sweepsolve.families import (
    Modulus,
    PiecewiseFamily,
    RadiusFamily,
    RigidFamily,
    TranslateFamily,
)
from sweepsolve.geometry import RefinementSchedule, TimeGrid
from sweepsolve.harness import run, scenario_schedule
from sweepsolve.paths import ConstantPath, LinearPath, PiecewisePath
from sweepsolve.scenarios import list_builtins, load_builtin
from sweepsolve.sets import (
    CONTAINMENT_TOL,
    Ball,
    BallComplement,
    Box,
    HalfSpace,
    Polytope,
    ProxSet,
    RigidImage,
    halfspace,
    polytope,
    rotation_matrix_2d,
)
from sweepsolve.solver import (
    DiscreteTrajectory,
    affine_interpolant,
    certify_steps,
    solve,
    write_trajectory_csv,
)
from sweepsolve.variation import converge_study

import oracles


def sweep_family(horizon=2.0):
    return TranslateFamily(
        HalfSpace((1.0, 0.0), 1.0), LinearPath((0.0, 0.0), (-1.0, 0.0)), horizon=horizon
    )


def obstacle_family(horizon=2.0):
    return RadiusFamily(
        LinearPath((-1.0, 0.0), (1.0, 0.0)), ConstantPath(0.5), True, horizon
    )


TRIANGLE = polytope(
    (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
    (0.2, 0.2),
)


@pytest.mark.parametrize(
    "family",
    [
        TranslateFamily(TRIANGLE, LinearPath((0.0, 0.0), (0.5, 0.0)), horizon=1.0),
        RigidFamily(TRIANGLE, LinearPath(0.0, 1.0), (1.0 / 3, 1.0 / 3), horizon=1.0),
    ],
    ids=["translate", "rigid"],
)
def test_polytope_step_solves_once(family, monkeypatch):
    # One catching-up step onto a polytope slice costs one active-set solve.
    calls = []
    solve_once = Polytope._solve

    def counting(fields, y):
        calls.append(tuple(y))
        return solve_once(fields, y)

    monkeypatch.setattr(Polytope, "_solve", staticmethod(counting))
    y0 = (0.0, 0.9)
    traj = solve(family, y0, TimeGrid.uniform(1.0, 1), eps_level=1.0)
    assert len(calls) == 1
    assert family.at(1.0).contains(traj.points[1])
    assert traj.jump_norms[0] > 0.0


def test_bundled_polytope_certificates_make_no_active_set_solve(monkeypatch):
    # Each moving step's bound comes from the multipliers of the faces active
    # at the new iterate: at most one solve per moving step, fallbacks
    # included, and none at all on the rotating triangle's finest level.
    scenario = load_builtin("polytope_rotation")
    study = converge_study(scenario.family, scenario.y0, scenario_schedule(scenario))
    calls = []
    solve_once = Polytope._solve
    monkeypatch.setattr(Polytope, "_solve", staticmethod(
        lambda fields, y: calls.append(y) or solve_once(fields, y)))
    certs = certify_steps(scenario.family, study.trajectories[-1])
    assert len(certs) == 210
    assert len(calls) <= len(certs)
    assert len(calls) == 0


def test_bundled_polytope_run_solves_416_times_in_two_passes_each(monkeypatch, tmp_path):
    # A work count, pinned: one run() of the rotating triangle makes 416
    # active-set solves, each of two passes (W empty, then the one face it
    # stops at), counted as the factor lookups inside a solve.  A change that
    # moves either count re-pins it here.
    passes, lookups = [], []
    solve_once, working_faces = Polytope._solve, Polytope._working_faces

    def solve(fields, y):
        start = len(lookups)
        result = solve_once(fields, y)
        passes.append(len(lookups) - start)
        return result

    monkeypatch.setattr(Polytope, "_solve", staticmethod(solve))
    monkeypatch.setattr(Polytope, "_working_faces", staticmethod(
        lambda fields, work: lookups.append(work) or working_faces(fields, work)))
    run(load_builtin("polytope_rotation"), tmp_path)
    assert len(passes) == 416
    assert set(passes) == {2}


def _resting_runs(traj) -> int:
    """The number of maximal runs of consecutive steps that leave the iterate in place."""
    rest = traj.jump_norms == 0.0
    return int(rest[0]) + int(np.count_nonzero(rest[1:] & ~rest[:-1]))


def _count_steps(cls, monkeypatch) -> list:
    """The distance of each row that cls._steps steps, one entry per row."""
    rows, steps = [], cls._steps

    def counting(rows_, y, tol, r, P, D):
        try:
            steps(rows_, y, tol, r, P, D)
        finally:
            rows.extend(D)
    monkeypatch.setattr(cls, "_steps", staticmethod(counting))
    return rows


@pytest.mark.parametrize(
    "family, y0", [(sweep_family(), (0.0, 0.0)), (obstacle_family(), (0.0, 0.1))],
    ids=["sweep", "obstacle"],
)
def test_steps_project_once_per_moved_step_and_resting_run(family, y0, monkeypatch):
    # A closed-form shape tests and projects the iterate from one evaluation
    # of its defining inequality, one row of _steps: one row per moved step.
    # A step that rests starts its run: the rest of the run comes from
    # _defects on the rows ahead, as do the moved steps' residuals, and y0's
    # containment check reads _defects on the t = 0 row.
    stepped = _count_steps(type(family.at(0.0)), monkeypatch)
    traj = solve(family, y0, TimeGrid.uniform(family.horizon, 64), eps_level=0.05)
    moved = int(np.any(np.diff(traj.points, axis=0) != 0.0, axis=1).sum())
    assert 0 < moved < 64
    assert len(stepped) == moved + _resting_runs(traj) < 64


def test_bundled_sweep_projects_per_moved_step_and_run_building_no_slice(monkeypatch):
    # On the finest grid of the bundled sweep, the wall first leaves the
    # iterate at rest for 1024 steps and then pushes it on every step: 1025
    # rows stepped of 2048, and no slice object built.
    scenario = load_builtin("sweep_halfspace")
    grid = scenario_schedule(scenario).grids[-1]
    stepped = _count_steps(HalfSpace, monkeypatch)
    from_valid = ProxSet._from_valid.__func__
    built = []
    monkeypatch.setattr(ProxSet, "_from_valid", classmethod(
        lambda cls, fields: built.append(cls) or from_valid(cls, fields)))
    traj = solve(scenario.family, scenario.y0, grid, eps_level=1.0)
    moved = int(np.count_nonzero(traj.jump_norms))
    assert (len(grid.times) - 1, moved, _resting_runs(traj)) == (2048, 1024, 1)
    assert len(stepped) == moved + 1 == 1025
    assert built == []


def test_bundled_polytope_steps_project_per_moved_step_and_run_and_bound_per_piece(monkeypatch):
    # On the rotating triangle, solve projects once per moved step and once
    # per resting run (210 and 1 of 256 steps), and certify_steps bounds each
    # piece of moving steps in one RigidImage._normal_defects call, with no
    # one-row base bound per step.
    scenario = load_builtin("polytope_rotation")
    grid = scenario_schedule(scenario).grids[-1]
    calls = {"_project_fields": 0, "_normal_defects": 0, "_normal_defect": 0}

    def count(owner, name, wrap=staticmethod):
        hook = getattr(owner, name)
        monkeypatch.setattr(owner, name, wrap(
            lambda *args: calls.__setitem__(name, calls[name] + 1) or hook(*args)))

    count(RigidImage, "_project_fields")
    count(RigidImage, "_normal_defects")
    count(ProxSet, "_normal_defect", wrap=lambda method: method)
    traj = solve(scenario.family, scenario.y0, grid, eps_level=1.0)
    assert len(grid.times) - 1 == 256 and _resting_runs(traj) == 1
    assert calls["_project_fields"] == int(np.count_nonzero(traj.jump_norms)) + 1 == 211
    assert len(certify_steps(scenario.family, traj)) == 210
    assert calls["_normal_defects"] == len(scenario.family.slice_fields(grid.times[1:])) == 1
    assert calls["_normal_defect"] == 0


@pytest.mark.parametrize("name, rows, moved, blocks", [("sweep_halfspace", 3065, 1024, 18),
                                                       ("moving_obstacle", 2542, 1173, 23),
                                                       ("polytope_rotation", 267, 210, 10)])
def test_bundled_solves_read_defects_on_probed_and_moved_rows_only(name, rows, moved, blocks,
                                                                   monkeypatch):
    # A work count: the rows and calls that solve passes to the piece class's
    # _defects on a bundled finest grid.  y0's check and the resting blocks
    # test one point on many rows (a broadcast, stride-0 array); each stepping
    # block reads the iterates of its moved steps only, one row each, and not
    # the resting rows.  The calls pin the block sizes: blocks that stopped
    # doubling would make more.
    scenario = load_builtin(name)
    grid = scenario_schedule(scenario).grids[-1]
    [(cls, _)] = scenario.family.slice_fields(grid.times)
    calls, defects = [], cls._defects
    monkeypatch.setattr(cls, "_defects", staticmethod(lambda table, P: calls.append(
        (len(P), P.strides[0] == 0)) or defects(table, P)))
    traj = solve(scenario.family, scenario.y0, grid, eps_level=1.0)
    assert sum(n for n, _ in calls) == rows
    residual = sum(n for n, probe in calls if not probe)
    assert residual == int(np.count_nonzero(traj.jump_norms)) == moved
    assert len(calls) == blocks


@pytest.mark.parametrize(
    "family, y0, eps_level",
    [
        (obstacle_family(), (0.0, 0.1), 0.05),
        (sweep_family(), (0.0, 0.0), 0.05),
        (RigidFamily(TRIANGLE, LinearPath(0.0, 1.0), (1.0 / 3, 1.0 / 3), horizon=1.0),
         (0.1, 0.8), 0.5),
        (TranslateFamily(TRIANGLE, LinearPath((0.0, 0.0), (0.7, 0.3)), horizon=1.0),
         (0.0, 0.5), 0.5),
        (TranslateFamily(BallComplement((-1.0, 0.05), 0.5), LinearPath((0.0, 0.0), (1.0, 0.0)),
                         horizon=2.0), (0.0, 0.0), 0.05),
    ],
    ids=["obstacle", "sweep", "rotating_triangle", "translated_triangle", "moving_hole"],
)
def test_dist_to_set_matches_independent_recomputation(family, y0, eps_level):
    # The solver records each node's distance at the slice it projected onto;
    # rebuilding the slice from the family must give the same value exactly.
    traj = solve(family, y0, TimeGrid.uniform(family.horizon, 64), eps_level=eps_level)
    assert traj.dist_to_set.shape == (65,)
    assert not traj.dist_to_set.flags.writeable
    assert traj.variation_total > 0.0
    for j, t in enumerate(traj.grid.times):
        assert traj.dist_to_set[j] == family.at(float(t)).distance(traj.points[j])


@pytest.mark.parametrize(
    "family, y0, residuals",
    [(obstacle_family(), (0.0, 0.1), 0),
     (RigidFamily(TRIANGLE, LinearPath(0.0, 1.0), (1.0 / 3, 1.0 / 3), horizon=1.0), (0.1, 0.8),
      0),
     (TranslateFamily(halfspace((3.0, 4.0), 5e6), LinearPath((0.0, 0.0), (-1.0, -0.7)),
                      horizon=1.0), (6e5, 8e5), 15)],
    ids=["obstacle", "rotating_triangle", "far_wall"],
)
@pytest.mark.parametrize("fill", [np.inf, np.nan], ids=["inf", "nan"])
def test_residuals_above_the_row_defects_take_the_scalar_projection(family, y0, residuals,
                                                                    fill, monkeypatch):
    # With every array defect of a piece at inf or NaN, each moved step's
    # residual comes from the scalar _project_fields: the same bytes as the
    # array path gives.  y0's containment check, one row, keeps the true defect.
    # The far wall's iterates round by about 1e-10 (|y| ~ 1e6), so some moved
    # rows keep a residual above CONTAINMENT_TOL, which a NaN read as 0.0 would drop.
    grid = TimeGrid.uniform(family.horizon, 64)
    expected = solve(family, y0, grid, eps_level=0.5).dist_to_set
    assert np.count_nonzero(expected) == residuals
    [(cls, _)] = family.slice_fields(grid.times[1:])
    defects = cls._defects
    monkeypatch.setattr(cls, "_defects", staticmethod(
        lambda rows, P: defects(rows, P) if len(P) == 1 else np.full(len(P), fill)))
    assert solve(family, y0, grid, eps_level=0.5).dist_to_set.tobytes() == expected.tobytes()


def test_jump_norms_are_stored_read_only():
    traj = solve(obstacle_family(), (0.0, 0.1), TimeGrid.uniform(2.0, 64), eps_level=0.05)
    assert traj.jump_norms is traj.jump_norms
    assert not traj.jump_norms.flags.writeable
    assert np.array_equal(traj.jump_norms, np.linalg.norm(np.diff(traj.points, axis=0), axis=1))
    assert traj.variation_total == float(np.sum(traj.jump_norms)) > 0.0


def test_dist_to_set_shape_checked():
    grid = TimeGrid([0.0, 1.0])
    with pytest.raises(ValueError, match="dist_to_set"):
        DiscreteTrajectory(
            grid=grid, points=np.zeros((2, 2)), level=0, eps_level=1.0, dist_to_set=np.zeros(3)
        )


def test_static_family_never_moves():
    fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
    traj = solve(fam, (0.5, 0.0), TimeGrid.uniform(1.0, 8), eps_level=0.1)
    assert np.all(traj.points == traj.points[0])
    assert traj.variation_total == 0.0


@pytest.mark.parametrize("mesh", [1e-2, 1e-3])
def test_sweep_matches_play_closed_form(mesh):
    fam = sweep_family()
    grid = TimeGrid.uniform(2.0, round(2.0 / mesh))
    traj = solve(fam, (0.0, 0.0), grid, eps_level=2 * mesh)
    worst = max(
        np.linalg.norm(traj.points[j] - oracles.play_sweep(float(t)))
        for j, t in enumerate(grid.times)
    )
    assert worst <= 2 * mesh
    assert np.allclose(traj.points[-1], (-1.0, 0.0))
    assert abs(traj.variation_total - 1.0) <= 2 * mesh


def test_obstacle_pushes_point_head_on():
    fam = obstacle_family()
    grid = TimeGrid.uniform(2.0, 2000)
    traj = solve(fam, (0.0, 0.0), grid, eps_level=0.01)
    final_center = np.array([1.0, 0.0])
    assert np.linalg.norm(traj.points[-1] - final_center) <= 0.5 + 1e-6


def test_obstacle_against_fine_grid_oracle():
    fam = obstacle_family()
    coarse = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 2000), eps_level=0.01)
    fine = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 200_000), eps_level=1e-4)
    f = affine_interpolant(fine)
    worst = max(
        np.linalg.norm(coarse.points[j] - f(float(t)))
        for j, t in enumerate(coarse.grid.times)
    )
    assert worst <= 0.05


def test_initial_infeasible():
    fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
    with pytest.raises(InfeasibleInitialPoint):
        solve(fam, (2.0, 0.0), TimeGrid.uniform(1.0, 4), eps_level=0.1)


def test_tube_violation_reports_step():
    # Excluded ball sweeping fast relative to a deliberately small declared r.
    fam = RadiusFamily(
        LinearPath((-1.0, 0.0), (1.0, 0.0)), ConstantPath(0.5), True, 2.0, declared_r=0.2
    )
    with pytest.raises(TubeViolation) as err:
        solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 4), eps_level=0.6)
    assert err.value.step >= 1
    assert err.value.distance >= 0.2


def test_iterate_on_the_excluded_center_is_a_tube_violation():
    # At t=1 the excluded ball's center has moved onto the iterate: its
    # projection is multi-valued and its distance is the radius, 0.5 = r.
    fam = TranslateFamily(BallComplement((0.0, 0.0), 0.5), LinearPath((0.0, 0.0), (1.0, 0.0)), 1.0)
    with pytest.raises(TubeViolation) as err:
        solve(fam, (1.0, 0.0), TimeGrid.uniform(1.0, 1), eps_level=1.0)
    assert err.value.step == 1
    assert err.value.distance == 0.5
    assert err.value.radius == 0.5


def growing_hole():
    # Excluded ball at the origin, radius 0.5 + 1.5t: the family r is 0.5.
    return RadiusFamily(ConstantPath((0.0, 0.0)), LinearPath(0.5, 1.5), True, 1.0)


def test_iterate_a_tube_radius_from_the_next_slice_is_a_tube_violation():
    # On one interval the radius grows to 2: (1, 0) moves to (2, 0), 1.0 >= r.
    with pytest.raises(TubeViolation) as err:
        solve(growing_hole(), (1.0, 0.0), TimeGrid.uniform(1.0, 1), eps_level=0.4)
    assert (err.value.step, err.value.distance, err.value.radius) == (1, 1.0, 0.5)
    one_interval = RefinementSchedule(eps=(0.4,), delta=(1.0,), grids=(TimeGrid.dyadic(1.0, 0),),
                                      r=0.5, eps0=0.4, ratio=0.5)
    with pytest.raises(TubeViolation) as err:
        converge_study(growing_hole(), (1.0, 0.0), one_interval)
    assert err.value.level == 0


def _solved(family, y0, grid) -> tuple:
    traj = solve(family, y0, grid, eps_level=1e9)
    return traj.points, traj.dist_to_set


def _slice_loop(family, y0, grid) -> tuple:
    """The catching-up loop over slice objects: each step projects with the
    _project_with_distance of the slice that family.slices builds at its
    node, and a moved step records that slice's _distance of the new
    iterate; at an excluded-ball center the tube violation's distance is the
    slice's _distance too."""
    points, dists, r = [np.asarray(y0, dtype=float)], [0.0], family.r
    for j, slice_j in enumerate(family.slices(grid.times[1:]), start=1):
        try:
            p, d = slice_j._project_with_distance(points[-1], CONTAINMENT_TOL)
        except AtSingularity:
            raise TubeViolation(j, slice_j._distance(points[-1], CONTAINMENT_TOL), r)
        if d >= r:
            raise TubeViolation(j, d, r)
        points.append(p)
        dists.append(0.0 if d == 0.0 else slice_j._distance(p, CONTAINMENT_TOL))
    return np.array(points), np.array(dists)


def _outcomes(family, y0, grid) -> list:
    """The outcomes of solve, which steps the rows of the family's field
    table, and of _slice_loop, bit for bit: the points and distances, or the
    TubeViolation's step, distance and radius."""
    outcomes = []
    for stepper in (_solved, _slice_loop):
        try:
            points, dists = stepper(family, y0, grid)
            outcomes.append((points.tobytes(), dists.tobytes()))
        except TubeViolation as err:
            outcomes.append((err.step, float.hex(err.distance), float.hex(err.radius)))
    return outcomes


_coords = st.floats(-2.0, 2.0)
_vectors = st.tuples(_coords, _coords)


@st.composite
def closed_form_families(draw):
    """A half-space (with a declared r, finite or not), ball or ball
    complement moving on [0, 1]; its initial point, a member; and a grid."""
    path = LinearPath(draw(_vectors), draw(_vectors))
    kind = draw(st.sampled_from(["halfspace", "ball", "ball_complement"]))
    if kind == "halfspace":
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        declared = draw(st.none() | st.floats(0.05, 2.0))
        family = TranslateFamily(halfspace((math.cos(angle), math.sin(angle)), draw(_coords)),
                                 path, 1.0, declared)
    else:
        radius = LinearPath(draw(st.floats(0.2, 1.5)), draw(st.floats(-0.15, 1.0)))
        family = RadiusFamily(path, radius, kind == "ball_complement", 1.0)
    point = np.add(path(0.0), draw(_vectors))
    assume((point != path(0.0)).any())  # the excluded ball's center projects nowhere
    return family, family.at(0.0).project(point), TimeGrid.uniform(1.0, draw(st.integers(1, 40)))


@st.composite
def pushing_families(draw):
    """A half-space with a finite declared r, or a growing excluded ball with
    a declared r or not, moving straight at its initial point on or near its
    boundary, or with its center landing on that point at a grid node; and a
    grid, coarse enough to leave the tube."""
    u = np.array(draw(st.sampled_from([(0.6, 0.8), (-1.0, 0.0)]) | _vectors))
    assume(math.hypot(*u) > 1e-3)
    u /= math.hypot(*u)
    c0, speed, gap = np.array(draw(_vectors)), draw(st.floats(0.1, 3.0)), draw(st.floats(0.0, 0.5))
    grid = TimeGrid.uniform(1.0, draw(st.integers(1, 8)))
    if draw(st.booleans()):
        family = TranslateFamily(halfspace(u, float(u @ c0)), LinearPath((0.0, 0.0), -speed * u),
                                 1.0, draw(st.floats(0.05, 1.0)))
        point = c0 - gap * u
    else:
        radius = draw(st.floats(0.2, 1.5))
        center = LinearPath(c0, speed * u)
        family = RadiusFamily(center, LinearPath(radius, draw(st.floats(0.0, 2.0))), True, 1.0,
                              draw(st.none() | st.floats(0.05, radius)))
        point = c0 + (radius + gap) * u
        if draw(st.booleans()):
            point = center(grid.times[draw(st.integers(1, len(grid.times) - 1))])
    return family, family.at(0.0).project(point), grid


@st.composite
def polygon_translates(draw):
    """A box or a triangle moving on [0, 1]; its initial point, a member; and
    a grid."""
    shape = draw(st.sampled_from([Box((-0.5, 0.0), (1.0, 0.5)), TRIANGLE]))
    family = TranslateFamily(shape, LinearPath(draw(_vectors), draw(_vectors)), 1.0)
    point = family.at(0.0).project(draw(_vectors))
    return family, point, TimeGrid.uniform(1.0, draw(st.integers(1, 40)))


@st.composite
def rigid_triangles(draw):
    """The triangle turning about a pivot, with a drift or not; its initial
    point, a member; and a grid."""
    drift = draw(st.none() | st.builds(LinearPath, _vectors, _vectors))
    family = RigidFamily(TRIANGLE, LinearPath(draw(_coords), draw(st.floats(-4.0, 4.0))),
                         draw(_vectors), 1.0, drift)
    point = family.at(0.0).project(draw(_vectors))
    return family, point, TimeGrid.uniform(1.0, draw(st.integers(1, 40)))


@st.composite
def rigid_hole_translates(draw):
    """A translate of a rigid image of a ball complement centered at the
    origin, with a declared r or not; its initial point, off the hole's
    center or on the moved center at a later grid node, where the pull-back
    lands on the base's center exactly; and a grid."""
    radius = draw(st.floats(0.2, 1.5))
    hole = RigidImage(BallComplement((0.0, 0.0), radius),
                      rotation_matrix_2d(draw(st.floats(-3.2, 3.2))), draw(_vectors))
    family = TranslateFamily(hole, LinearPath((0.0, 0.0), draw(_vectors)), 1.0,
                             draw(st.none() | st.floats(0.05, radius)))
    grid = TimeGrid.uniform(1.0, draw(st.integers(1, 8)))
    if draw(st.booleans()):
        point = family.at(float(grid.times[draw(st.integers(1, len(grid.times) - 1))])).translation
    else:
        point = hole.translation + draw(_vectors)
    assume((point != hole.translation).any())  # the center at t = 0 projects nowhere
    return family, family.at(0.0).project(point), grid


@settings(max_examples=200, deadline=None)
@given(closed_form_families() | pushing_families() | polygon_translates() | rigid_triangles()
       | rigid_hole_translates())
def test_closed_form_steppers_match_the_default_loop(case):
    family, y0, grid = case
    with_kernel, with_slices = _outcomes(family, y0, grid)
    assert with_kernel == with_slices


# A turned excluded ball moving by (1, 0) onto its center's t = 1 position.
RIGID_HOLE = TranslateFamily(RigidImage(BallComplement((0.0, 0.0), 0.5), rotation_matrix_2d(0.7),
                                        (0.3, -0.2)), LinearPath((0.0, 0.0), (1.0, 0.0)), 1.0)


@pytest.mark.parametrize("family, y0, grid", [
    # The excluded ball's center lands on the iterate: AtSingularity in both loops.
    (TranslateFamily(BallComplement((0.0, 0.0), 0.5), LinearPath((0.0, 0.0), (1.0, 0.0)), 1.0),
     (1.0, 0.0), TimeGrid.uniform(1.0, 1)),
    (growing_hole(), (1.0, 0.0), TimeGrid.uniform(1.0, 1)),
    # A half-space moving 0.5 per step, with r declared 0.3.
    (TranslateFamily(halfspace((0.6, 0.8), 0.0), LinearPath((0.0, 0.0), (-3.0, -4.0)), 1.0,
                     0.3), (0.0, 0.0), TimeGrid.uniform(1.0, 10)),
    (RIGID_HOLE, RIGID_HOLE.at(1.0).translation, TimeGrid.uniform(1.0, 1)),
], ids=["excluded_center", "growing_hole", "halfspace_declared_r", "rigid_excluded_center"])
def test_tube_violations_match_the_default_loop(family, y0, grid):
    with_kernel, with_slices = _outcomes(family, y0, grid)
    assert len(with_kernel) == 3 and with_kernel == with_slices


def _row_loop(family, y0, grid):
    """The catching-up loop with one _project_fields call per row of the field
    table, and a moved step's residual from one more call at the new iterate."""
    points, dists, y = [np.asarray(y0, dtype=float)], [0.0], np.asarray(y0, dtype=float)
    for cls, rows in family.slice_fields(grid.times[1:]):
        for fields in zip(*rows.values()):
            y, d = cls._project_fields(fields, y, CONTAINMENT_TOL)
            points.append(y)
            dists.append(0.0 if d == 0.0 else cls._project_fields(fields, y, CONTAINMENT_TOL)[1])
    return np.array(points), np.array(dists)


_CAP = solver_mod.DEFECT_BLOCK_ROWS
_RUN_LENGTHS = (1, 7, 8, 9, _CAP - 1, _CAP, _CAP + 1)
_KINDS = ("halfspace", "ball", "ball_complement", "box", "triangle", "rigid")


def _stop_and_go(kind, unit, segments):
    """A half-space, ball, ball complement, box or triangle translate, or the
    triangle turning, that moves by unit / 64 (turns by 1/64 rad) per unit
    step on each ("move", steps) segment and stands still on each ("rest",
    steps) one.  Returns the family, the grid of unit steps and the runs the
    family stands still as (first step, length).  Dyadic rates keep every
    node's position exact, so the family stands still for exactly those steps."""
    rate = np.asarray(unit) / 64.0 if kind != "rigid" else 1.0 / 64.0
    pieces, at, t, resting = [], 0.0 * rate, 0, []
    for what, steps in segments:
        if what == "rest":
            pieces.append((float(t + steps), ConstantPath(at)))
            resting.append((t + 1, steps))
        else:
            pieces.append((float(t + steps), LinearPath(at - t * rate, rate)))
            at = at + steps * rate
        t += steps
    path = PiecewisePath(tuple(pieces))
    if kind == "rigid":
        family = RigidFamily(TRIANGLE, path, (1.0 / 3, 1.0 / 3), float(t))
    else:
        base = {"halfspace": HalfSpace((1.0, 0.0), 1.0), "ball": Ball((0.0, 0.0), 1.0),
                "ball_complement": BallComplement((0.0, 0.0), 1.0),
                "box": Box((-1.0, -1.0), (1.0, 1.0)), "triangle": TRIANGLE}[kind]
        family = TranslateFamily(base, path, float(t))
    return family, TimeGrid(np.arange(t + 1.0)), resting


def _check_against_the_row_loop(family, y0, grid, resting):
    traj = solve(family, y0, grid, eps_level=1.0)
    points, dists = _row_loop(family, y0, grid)
    assert traj.points.tobytes() == points.tobytes()
    assert traj.dist_to_set.tobytes() == dists.tobytes()
    if isinstance(family.at(0.0), HalfSpace):  # the wall pushes y0 on every moving step
        rest = np.flatnonzero(traj.jump_norms == 0.0) + 1
        assert rest.tolist() == [j for first, steps in resting
                                 for j in range(first, first + steps)]


@st.composite
def resting_runs(draw):
    """_stop_and_go with one to three runs at rest of drawn lengths, before
    the first move, between moves of one to three steps and after the last,
    as drawn, and with a member initial point (the half-space's on its
    boundary, where the wall pushes it)."""
    runs = draw(st.lists(st.sampled_from(_RUN_LENGTHS) | st.integers(1, 40),
                         min_size=1, max_size=3))
    segments = []
    for length in runs:
        segments += [("move", draw(st.integers(1, 3))), ("rest", length)]
    segments.append(("move", draw(st.integers(1, 3))))
    if draw(st.booleans()):
        segments.pop(0)  # a run at rest before the first move
    if draw(st.booleans()):
        segments.pop()  # and one after the last
    kind = draw(st.sampled_from(_KINDS))
    unit = (-1.0, 0.0) if kind == "halfspace" else draw(st.sampled_from(
        [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0)]))
    family, grid, resting = _stop_and_go(kind, unit, segments)
    point = draw(_vectors) if kind != "halfspace" else (1.0, 0.0)
    assume(point != (0.0, 0.0))  # the excluded ball's center projects nowhere
    return family, family.at(0.0).project(point), grid, resting


@settings(max_examples=40, deadline=None)
@given(resting_runs())
def test_skipped_resting_runs_match_one_projection_per_row(case):
    # solve copies the iterate over each run of rows whose slices hold it, from
    # blocks of _defects doubling from 8 rows to DEFECT_BLOCK_ROWS: the same
    # points and distances, bit for bit, as projecting on every row.
    _check_against_the_row_loop(*case)


@pytest.mark.parametrize("length", _RUN_LENGTHS)
@pytest.mark.parametrize("kind", _KINDS)
def test_resting_runs_of_every_block_length_match_the_row_loop(kind, length):
    # Runs at rest at the start, in the middle and at the end, each one row
    # around a block size: bit for bit as projecting on every row.
    family, grid, resting = _stop_and_go(kind, (-1.0, 0.0), [
        ("rest", length), ("move", 2), ("rest", length), ("move", 2), ("rest", length)])
    y0 = family.at(0.0).project((1.0, 0.5))
    _check_against_the_row_loop(family, y0, grid, resting)


def _stepped(step, rows, y, tol, r) -> tuple:
    """step(rows, y, tol, r, P, D) from the first row, started again after
    each row where it stops at the last point, until the rows run out or an
    excluded-ball center raises AtSingularity: the points' and distances'
    bytes and that center's distance, or None."""
    n, P, D, at = len(next(iter(rows.values()))), [], [], None
    while len(D) < n and at is None:
        try:
            step({name: values[len(D):] for name, values in rows.items()}, y, tol, r, P, D)
        except AtSingularity as err:
            at = err.distance
        y = np.array(P[-1], dtype=float) if P else y
    return np.array(P, dtype=float).tobytes(), np.array(D).tobytes(), at


def _kernel_matches_the_row_loop(cls, rows, y, tol, r) -> tuple:
    y = np.asarray(y, dtype=float)
    row_loop = functools.partial(ProxSet._steps.__func__, cls)  # one _project_fields per row
    outcome = _stepped(cls._steps, rows, y, tol, r)
    assert outcome == _stepped(row_loop, rows, y, tol, r)
    return outcome


_SCALES = (1.0, 1e-160, 1e-310)


@st.composite
def stepping_rows(draw):
    """A half-space, ball or ball complement class; 1 to 40 rows of its fields
    in 1, 2 or 3 dimensions (mostly 2), each coordinate non-dyadic or +-0.0 and
    scaled by 1, 1e-160 or 1e-310, so that gaps' sums of squares can be
    subnormal or 0 and radius * dist below the smallest normal float; an
    iterate, a tolerance and an r."""
    cls = draw(st.sampled_from([HalfSpace, Ball, BallComplement]))
    dim, n, scale = draw(st.sampled_from([2, 2, 2, 1, 3])), draw(st.integers(1, 40)), draw(
        st.sampled_from(_SCALES))
    zeros = st.sampled_from([0.0, -0.0])
    coord = st.one_of(*[st.floats(-2.0, 2.0).map(lambda v: v * scale)] * 4, zeros)

    def points(k, coordinate=coord):
        return np.array(draw(st.lists(st.tuples(*[coordinate] * dim), min_size=k, max_size=k)),
                        dtype=float).reshape(k, dim)

    if cls is HalfSpace:  # unit normals, one shared or one per row, +-0.0 on an axis
        axes = [(1.0, -0.0), (-0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] if dim == 2 else [(1.0,) * dim]
        unit = st.floats(-1.0, -0.1) | st.floats(0.1, 1.0)
        normals = points(1 if draw(st.booleans()) else n, unit)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        if draw(st.integers(0, 4)) == 0:
            normals[:] = draw(st.sampled_from(axes))
        offsets, y = points(n)[:, 0], points(1)[0]
        if draw(st.booleans()):  # a wall pushing y by small steps: d = <n, y> - offset cancels
            offsets = float(normals[0] @ y) - np.cumsum(np.abs(offsets)) / 64.0
        rows = {"normal": np.broadcast_to(normals, (n, dim)), "offset": offsets.tolist()}
    else:
        rscale = draw(st.sampled_from([1.0, scale]))
        rows = {"center": points(n),
                "radius": [draw(st.floats(0.05, 2.0)) * rscale for _ in range(n)]}
        y = points(1)[0]
    tol = draw(st.sampled_from([CONTAINMENT_TOL, 0.0]))
    return cls, rows, y, tol, draw(st.just(math.inf) | st.floats(0.05, 3.0))


@settings(max_examples=200, deadline=None)
@given(stepping_rows())
def test_steps_are_the_project_fields_row_loop_bit_for_bit(case):
    # The 2-D half-space and round kernels step in Python floats with numpy's
    # fused dot; every other dimension takes the default row loop.
    _kernel_matches_the_row_loop(*case)


@pytest.mark.parametrize("cls, rows, y", [
    # -0.0 coordinates and normals: the signs of zero survive as in the row loop.
    (HalfSpace, {"normal": np.array([[-0.0, 1.0], [0.6, -0.8]]), "offset": [0.25, -0.3]},
     (-0.0, 0.5)),
    (Ball, {"center": np.array([[-0.0, 0.0], [0.0, -0.0]]), "radius": [0.1, 0.3]},
     (-0.0, -0.7)),
    # <n, y> where numpy's 2-D dot, fma(n1, y1, n0 * y0), and n0 * y0 + n1 * y1 differ.
    (HalfSpace, {"normal": np.array([[-0.2485154474460193, 0.9686279328930716]]),
                 "offset": [-0.05]}, (-1.9601817567708322, -0.5398153689669174)),
    # |y - c| where the square roots of the two sums of squares differ.
    (BallComplement, {"center": np.array([[0.0, 0.0]]), "radius": [2.0]}, (0.023643, 0.900927)),
    # A gap whose sum of squares is subnormal: norm's rescale by the largest coordinate.
    (BallComplement, {"center": np.array([[0.0, 0.0]]), "radius": [0.5]}, (3e-162, -4e-162)),
    # radius * dist below the smallest normal float, dist not 0: c + rho * (d / dist).
    (BallComplement, {"center": np.array([[0.0, 0.0]]), "radius": [1e-160]}, (3e-170, 4e-170)),
], ids=["negative_zero_halfspace", "negative_zero_ball", "fused_dot", "fused_norm",
        "subnormal_gap", "tiny_rho_dist"])
def test_steps_match_the_row_loop_on_edge_cases(cls, rows, y):
    _, dists, at = _kernel_matches_the_row_loop(cls, rows, y, CONTAINMENT_TOL, math.inf)
    assert at is None and len(np.frombuffer(dists)) == len(next(iter(rows.values())))


def test_an_excluded_center_mid_piece_raises_after_the_rows_before_it():
    # A hole that pushes the iterate on four rows, then whose center lands on
    # it on the fifth: the same four rows and AtSingularity in both loops.
    y, centers = np.array([0.1, 0.3]), []
    for k in range(5):
        center = y + (0.07 * k - 0.3, 0.11) if k < 4 else y.copy()
        centers.append(center)
        if k < 4:
            y = BallComplement._project_fields((center, 0.5), y, CONTAINMENT_TOL)[0]
    rows = {"center": np.array(centers), "radius": [0.5] * 5}
    _, dists, at = _kernel_matches_the_row_loop(BallComplement, rows, (0.1, 0.3),
                                                CONTAINMENT_TOL, math.inf)
    assert at == 0.5 and len(np.frombuffer(dists)) == 4 and 0.0 not in np.frombuffer(dists)


def test_an_excluded_center_after_a_resting_run_is_the_same_tube_violation(monkeypatch):
    # The hole reaches y0 at step 9 of 16 on one piece, after eight steps at
    # rest: TubeViolation(9, radius, r) from the kernel and the row loop alike.
    family = TranslateFamily(BallComplement((-9.0, 0.0), 0.5),
                             LinearPath((0.0, 0.0), (1.0, 0.0)), 16.0)
    outcomes = []
    for row_loop in (False, True):
        if row_loop:
            monkeypatch.setattr(BallComplement, "_steps", classmethod(ProxSet._steps.__func__))
        with pytest.raises(TubeViolation) as err:
            solve(family, (0.0, 0.0), TimeGrid.uniform(16.0, 16), eps_level=2.0)
        outcomes.append((err.value.step, err.value.distance, err.value.radius))
    assert outcomes == [(9, 0.5, 0.5)] * 2


@pytest.mark.parametrize("name", ["static_ball", "sweep_halfspace", "shrinking_ball_inner_cert",
                                  "moving_obstacle", "jump_expansion"])
def test_bundled_closed_form_solves_step_without_project_fields(name, monkeypatch):
    # Every level of each bundled 2-D closed-form scenario steps through the
    # float kernels: no row reaches _project_fields or the default row loop.
    def fail(*args):
        raise AssertionError("a 2-D closed-form step left the float kernel")

    for cls in (HalfSpace, Ball, BallComplement):
        monkeypatch.setattr(cls, "_project_fields", staticmethod(fail))
    monkeypatch.setattr(ProxSet, "_steps", classmethod(fail))
    scenario = load_builtin(name)
    schedule = scenario_schedule(scenario)
    study = converge_study(scenario.family, scenario.y0, schedule)
    assert len(study.trajectories) == schedule.levels


def test_y0_is_tested_on_the_t0_row():
    # solve tests y0 on the t = 0 row of the field table: the defect it
    # reports is the initial slice's membership_defect, and a y0 of another
    # length is a DimensionMismatch.
    grid = TimeGrid.uniform(1.0, 4)
    for fam, outside in (
            (TranslateFamily(TRIANGLE, LinearPath((0.0, 0.0), (0.5, 0.0)), 1.0), (2.0, 2.0)),
            (RigidFamily(TRIANGLE, LinearPath(0.0, 1.0), (1.0 / 3, 1.0 / 3), horizon=1.0),
             (2.0, 2.0)),
            (obstacle_family(), (-1.0, 0.1))):
        with pytest.raises(InfeasibleInitialPoint) as err:
            solve(fam, outside, grid, eps_level=1.0)
        assert err.value.defect == fam.at(0.0).membership_defect(outside) > 0.0
        for y0 in ((0.1,), (0.1, 0.1, 0.1)):
            with pytest.raises(DimensionMismatch, match="expected dim 2"):
                solve(fam, y0, grid, eps_level=1.0)


def test_jump_bound_enforced():
    fam = sweep_family()
    grid = TimeGrid.uniform(2.0, 10)  # jumps of 0.2 per step once engaged
    with pytest.raises(CertificationFailed, match="strict bound"):
        solve(fam, (0.0, 0.0), grid, eps_level=0.1)


def test_step_size_law():
    fam = obstacle_family()
    grid = TimeGrid.uniform(2.0, 500)
    traj = solve(fam, (0.0, 0.1), grid, eps_level=0.01)
    for j in range(1, len(grid.times)):
        d = fam.at(float(grid.times[j])).distance(traj.points[j - 1])
        assert abs(traj.jump_norms[j - 1] - d) <= 1e-10


def test_determinism():
    fam = obstacle_family()
    grid = TimeGrid.uniform(2.0, 300)
    a = solve(fam, (0.0, 0.1), grid, eps_level=0.02)
    b = solve(fam, (0.0, 0.1), grid, eps_level=0.02)
    assert np.array_equal(a.points, b.points)


def test_three_dimensional_sweep():
    # Dimension-generic solve: translating ball in R^3 drags the point along.
    fam = TranslateFamily(
        Ball((0.0, 0.0, 0.0), 1.0), LinearPath((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), horizon=2.0
    )
    grid = TimeGrid.uniform(2.0, 200)
    traj = solve(fam, (1.0, 0.0, 0.0), grid, eps_level=0.05)
    assert traj.dim == 3
    # once the moving ball pulls away, the point trails its surface
    assert fam.at(2.0).distance(traj.points[-1]) == 0.0
    assert traj.points[-1][2] > 0.9


class TestInterpolants:
    def make(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        return DiscreteTrajectory(
            grid=grid, points=pts, level=0, eps_level=1.5, dist_to_set=np.zeros(3)
        )

    def test_affine_values(self):
        x = affine_interpolant(self.make())
        assert np.allclose(x(0.5), (0.5, 0.0))
        assert np.allclose(x(1.0), (1.0, 0.0))
        assert np.allclose(x(2.0), (1.0, 1.0))
        many = x(np.array([0.0, 0.25, 2.0]))
        assert many.shape == (3, 2)
        with pytest.raises(OutOfRange):
            x(2.5)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], -0.5, [0.5, 2.5]])
    def test_affine_rejects_times_outside_the_span_nan_included(self, t):
        # As slice_fields does: NaN lies in no span.
        with pytest.raises(OutOfRange):
            affine_interpolant(self.make())(t)

    def test_gap_below_eps_on_sweep(self):
        fam = sweep_family()
        grid = TimeGrid.uniform(2.0, 128)
        traj = solve(fam, (0.0, 0.0), grid, eps_level=0.05)
        x = affine_interpolant(traj)
        ts = np.linspace(0.0, 2.0, 1000)
        # The step value on [t_{j-1}, t_j) is points[j-1], the last point at the end.
        steps = traj.points[np.searchsorted(grid.times, ts, "right") - 1]
        gap = max(np.linalg.norm(x(float(t)) - y) for t, y in zip(ts, steps))
        assert gap < traj.eps_level


def _bound_by_step(certs) -> dict:
    """Step j -> its defect bound, from a certificate record."""
    return dict(zip(certs.steps.tolist(), certs.bounds.tolist()))


class TestCertification:
    def test_static_trajectory_empty(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        traj = solve(fam, (0.5, 0.0), TimeGrid.uniform(1.0, 8), eps_level=0.1)
        certs = certify_steps(fam, traj)
        assert len(certs) == 0
        assert all(len(v) == 0 for v in (certs.steps, certs.moved, certs.allowed, certs.bounds))
        assert certs.audits == {}

    def test_sweep_normals_parallel_to_wall(self):
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 100), eps_level=0.05)
        certs = certify_steps(fam, traj)
        assert certs
        assert (certs.bounds <= 1e-9).all()
        bound = _bound_by_step(certs)
        assert all(a.worst_residual <= bound[j] for j, a in certs.audits.items())
        n = traj.points[certs.steps - 1] - traj.points[certs.steps]
        assert (np.abs(n[:, 1]) <= 1e-12).all()  # aligned with the wall normal
        assert (certs.moved <= certs.allowed * (1 + 1e-12)).all()

    def test_obstacle_finite_r_residuals(self):
        fam = obstacle_family()
        traj = solve(fam, (0.0, 0.1), TimeGrid.uniform(2.0, 400), eps_level=0.01)
        certs = certify_steps(fam, traj)
        assert certs
        assert certs.bounds.max() <= 1e-8
        bound = _bound_by_step(certs)
        assert len(certs.audits) == solver_mod.NORMAL_AUDIT_STEPS
        assert all(a.worst_residual <= bound[j] for j, a in certs.audits.items())
        assert all(a.samples == solver_mod.NORMAL_AUDIT_SAMPLES for a in certs.audits.values())

    def test_audit_covers_the_worst_bound_and_seeded_steps(self):
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 100), eps_level=0.05)
        certs = certify_steps(fam, traj)
        audited = list(certs.audits)
        assert len(audited) == solver_mod.NORMAL_AUDIT_STEPS
        assert audited == sorted(audited)
        worst = int(certs.steps[max(range(len(certs)), key=lambda k: certs.bounds[k])])
        assert worst in certs.audits
        assert list(certify_steps(fam, traj).audits) == audited
        # With fewer moving steps than the audit size, every step is audited.
        short = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 2), eps_level=1.5)
        certs = certify_steps(fam, short)
        assert list(certs.audits) == certs.steps.tolist()

    def test_the_audit_tests_only_each_audited_iterate(self, monkeypatch):
        # sample_points returns members: the audit tests x once per step.
        fam = obstacle_family()
        traj = solve(fam, (0.0, 0.1), TimeGrid.uniform(2.0, 400), eps_level=0.01)
        tested = []
        contains = ProxSet.contains
        monkeypatch.setattr(ProxSet, "contains", lambda s, y: tested.append(1) or contains(s, y))
        certs = certify_steps(fam, traj)
        audited = len(certs.audits)
        assert audited == solver_mod.NORMAL_AUDIT_STEPS
        assert len(tested) == audited

    def test_nan_bound_fails(self, monkeypatch):
        monkeypatch.setattr(HalfSpace, "_normal_defects",
                            classmethod(lambda cls, rows, X, N, R: np.full(len(X), np.nan)))
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 8), eps_level=0.5)
        with pytest.raises(CertificationFailed, match="normal-defect bound nan"):
            certify_steps(fam, traj)

    def test_a_piece_without_moving_steps(self):
        # The iterate stays put while the first piece stands still, so its
        # piece of the field table has no rows.
        wall = HalfSpace((1.0, 0.0), 1.0)
        still = TranslateFamily(wall, ConstantPath((0.0, 0.0)), 2.0)
        sweep = TranslateFamily(wall, LinearPath((1.0, 0.0), (-1.0, 0.0)), 2.0)
        fam = PiecewiseFamily(((1.0, still), (2.0, sweep)))
        traj = solve(fam, (0.5, 0.0), TimeGrid.uniform(2.0, 16), eps_level=0.5)
        certs = certify_steps(fam, traj)
        assert certs.steps.tolist() == list(range(13, 17))

    @pytest.mark.parametrize("family, y0", [
        (TranslateFamily(Box((0.0, 0.0), (1.0, 1.0)), LinearPath((0.0, 0.0), (0.5, 0.25)), 2.0),
         (0.0, 0.5)),
        (TranslateFamily(TRIANGLE, LinearPath((0.0, 0.0), (0.5, 0.0)), 2.0), (0.0, 0.9)),
        # The triangle at t = 1 lies in the box the family jumps to.
        (PiecewiseFamily((
            (1.0, TranslateFamily(TRIANGLE, LinearPath((0.0, 0.0), (0.5, 0.0)), 1.0)),
            (2.0, TranslateFamily(Box((0.4, -0.1), (1.6, 1.1)),
                                  LinearPath((-0.5, 0.0), (0.5, 0.0)), 2.0)))), (0.0, 0.9)),
    ], ids=["box", "polytope", "piecewise"])
    def test_steps_and_bounds_build_no_slice(self, family, y0, monkeypatch):
        # solve steps, and certify_steps bounds, from the rows of the field
        # table on every shape: solve builds no slice, testing y0 on the
        # t = 0 row, and certify_steps only the slices of its audited steps.
        # Every ProxSet counts: a polytope translate's row holds arrays, not
        # half-space faces.
        from_valid = ProxSet._from_valid.__func__
        built = []
        monkeypatch.setattr(ProxSet, "_from_valid", classmethod(
            lambda cls, fields: built.append(cls) or from_valid(cls, fields)))

        def slices_built():
            count = len(built)
            built.clear()
            return count

        traj = solve(family, y0, TimeGrid.uniform(2.0, 64), eps_level=0.5)
        assert slices_built() == 0
        certs = certify_steps(family, traj)
        audited = len(certs.audits)
        assert len(certs) > audited == solver_mod.NORMAL_AUDIT_STEPS
        assert slices_built() == audited
        if isinstance(family, PiecewiseFamily):
            steps = certs.steps.tolist()
            assert {type(family.at(float(traj.grid.times[j]))) for j in steps} == {Polytope, Box}

    def test_failures_name_the_first_failing_step_bound_first(self, monkeypatch):
        # The bounds of a piece come from one call, but each step is still
        # checked in order, its bound before its distance moved.  Step 5 moves
        # 0.4, beyond omega(0.25) = 0.25; the other steps move 0.1.
        fam = sweep_family()
        x = np.cumsum([0.0, 0.1, 0.1, 0.1, 0.1, 0.4, 0.1, 0.1, 0.1])
        traj = DiscreteTrajectory(TimeGrid.uniform(2.0, 8), np.column_stack((-x, 0.0 * x)),
                                  0, 0.5, np.zeros(9))
        for nan_steps, step, what in (((), 5, "distance moved"),
                                      ((3,), 3, "normal-defect bound nan"),
                                      ((5,), 5, "normal-defect bound nan")):
            def bounds(cls, rows, X, N, R, nan_steps=nan_steps):
                return np.where(np.isin(np.arange(1, len(X) + 1), nan_steps), np.nan, 0.0)

            monkeypatch.setattr(HalfSpace, "_normal_defects", classmethod(bounds))
            with pytest.raises(CertificationFailed, match=what) as err:
                certify_steps(fam, traj)
            assert err.value.step == step
        # A polytope whose faces active at x are dependent (the wall, twice)
        # falls back to a solve for its multipliers at each step; a solve
        # that raises at step 6 must not hide the failure of step 5, whose
        # x5 = -0.4 lies inside C(t5) = {x1 <= -0.25}, so that its bound is
        # positive: the bounds of a piece are made one step at a time.
        wall = polytope((HalfSpace((1.0, 0.0), 1.0),) * 2, (0.0, 0.0))
        fam = TranslateFamily(wall, LinearPath((0.0, 0.0), (-1.0, 0.0)), 2.0)
        x = np.array([1.0, 0.75, 0.5, 0.25, 0.0, -0.4, -0.5, -0.75, -1.0])
        traj = DiscreteTrajectory(TimeGrid.uniform(2.0, 8), np.column_stack((x, 0.0 * x)),
                                  0, 0.5, np.zeros(9))
        solved, polytope_solve = [], Polytope._solve

        def solve_until_step_5(fields, y):
            solved.append(y)
            if len(solved) > 5:
                raise ArithmeticError("the active-set solve did not converge")
            return polytope_solve(fields, y)

        monkeypatch.setattr(Polytope, "_solve", staticmethod(solve_until_step_5))
        with pytest.raises(CertificationFailed, match="normal-defect bound") as err:
            certify_steps(fam, traj)
        assert err.value.step == 5
        assert len(solved) == 5

    def test_a_non_finite_point_is_rejected_before_certification(self):
        # A trajectory holds finite points only, so no bound ever sees a
        # non-finite x or n: the first non-finite node is named at construction.
        x = 1.0 - np.linspace(0.0, 2.0, 9)  # on the boundary of C(t) = {x1 <= 1 - t}
        points = np.column_stack((x, 0.0 * x))
        for bad in (np.nan, np.inf):
            broken = points.copy()
            broken[6, 0] = bad
            with pytest.raises(ValueError, match="point 6 is not finite"):
                DiscreteTrajectory(TimeGrid.uniform(2.0, 8), broken, 0, 0.5, np.zeros(9))
        traj = DiscreteTrajectory(TimeGrid.uniform(2.0, 8), points, 0, 0.5, np.zeros(9))
        flat = DiscreteTrajectory(traj.grid, np.column_stack((points, np.zeros(9))), 0, 0.5,
                                  np.zeros(9))
        wall = polytope((HalfSpace((1.0, 0.0), 1.0),), (0.0, 0.0))
        path = LinearPath((0.0, 0.0), (-1.0, 0.0))
        for fam in (sweep_family(), TranslateFamily(wall, path, 2.0)):
            assert len(certify_steps(fam, traj)) == 8
            with pytest.raises(DimensionMismatch):
                certify_steps(fam, flat)
            # solve rejects a non-finite initial point before its first step.
            for y0 in ((-math.inf, 0.0), (math.nan, 0.0)):
                with pytest.raises(ValueError, match="initial point must be finite"):
                    solve(fam, y0, TimeGrid.uniform(2.0, 8), eps_level=0.5)

    def test_failure_message_shows_the_tolerance(self, monkeypatch):
        # A tolerance far below every residual fails the first moving step; the
        # message must carry the constant in force, not a copy of its value.
        monkeypatch.setattr(solver_mod, "CERTIFICATION_TOL", -1e3)
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 8), eps_level=0.5)
        with pytest.raises(CertificationFailed) as err:
            certify_steps(fam, traj)
        assert err.value.tol == -1e3
        assert "exceeds -1.000e+03" in str(err.value)


@pytest.mark.parametrize("name", [name for name, _ in list_builtins()])
def test_allowed_moves_are_the_scalar_modulus_bit_for_bit(name):
    # The record's allowances come from one array call of the modulus: on
    # every step of the finest bundled grid that is each step's own scalar
    # call, and the scalar call is rate * min(delta, horizon), 0 at delta <= 0.
    scenario = load_builtin(name)
    schedule = scenario_schedule(scenario)
    grid = schedule.grids[-1]
    omega = scenario.family.modulus()
    deltas = np.diff(grid.times)
    scalar = [omega(d) for d in deltas.tolist()]
    assert omega(deltas).view(np.int64).tolist() == np.array(scalar).view(np.int64).tolist()
    assert scalar == [omega.rate * min(d, omega.horizon) for d in deltas.tolist()]
    traj = solve(scenario.family, scenario.y0, grid, schedule.eps[-1])
    certs = certify_steps(scenario.family, traj)
    expected = [scalar[j - 1] for j in certs.steps.tolist()]
    assert np.array(expected).view(np.int64).tolist() == certs.allowed.view(np.int64).tolist()
    assert certs.moved.tolist() == traj.jump_norms[certs.steps - 1].tolist()
    assert not any(v.flags.writeable for v in (certs.steps, certs.moved, certs.allowed,
                                                 certs.bounds))
    for modulus in (omega, Modulus(1.0, 0.0), Modulus(2.0, 3.5)):
        at_most_0 = np.array([0.0, -0.0, -1e-300, -2.0, -math.inf])
        assert [modulus(d) for d in at_most_0.tolist()] == [0.0] * 5
        assert np.signbit(modulus(at_most_0)).tolist() == [False] * 5
        assert modulus(at_most_0).tolist() == [0.0] * 5
    # Beyond the horizon omega stays at rate * horizon.
    assert Modulus(2.0, 3.5)(np.array([1.0, 2.0, 5.0])).tolist() == [3.5, 7.0, 7.0]


def test_translated_polytope_rows_share_one_factor_cache(monkeypatch):
    # The rows of a translate share the face normals, so solve and
    # certify_steps factor each working set once between them, not once per row.
    triangle = polytope(TRIANGLE.faces, TRIANGLE.interior)  # an empty factor cache
    family = TranslateFamily(triangle, LinearPath((0.0, 0.0), (0.5, 0.0)), 2.0)
    factored, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: factored.append(1) or qr(a, *args))
    working_sets, working_faces = set(), Polytope._working_faces
    monkeypatch.setattr(Polytope, "_working_faces", staticmethod(
        lambda fields, work: working_sets.add(work) or working_faces(fields, work)))
    traj = solve(family, (0.0, 0.9), TimeGrid.uniform(2.0, 64), eps_level=0.5)
    certs = certify_steps(family, traj)
    assert len(certs) > solver_mod.NORMAL_AUDIT_STEPS
    assert 0 < len(factored) <= len(working_sets)


def test_csv_format_and_determinism(tmp_path):
    fam = sweep_family()
    traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 16), eps_level=0.25)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(traj, p2)
    text = p1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x_0,x_1,jump_norm,dist_to_set"
    assert len(lines) == 18
    assert p1.read_bytes() == p2.read_bytes()
    # 17 significant digits survive for an awkward value
    row9 = lines[9].split(",")
    assert float(row9[0]) == float(traj.grid.times[8])

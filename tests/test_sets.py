import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sweepsolve import sets as sets_mod
from sweepsolve.errors import (
    AtSingularity,
    DidNotConverge,
    DimensionMismatch,
    EmptyIntersection,
    NotAMember,
)
from sweepsolve.families import SamplingBudget, excess
from sweepsolve.scenarios import shape_from_dict
from sweepsolve.solver import CERTIFICATION_TOL
from sweepsolve.sets import (
    Ball,
    BallComplement,
    Box,
    HalfSpace,
    Polytope,
    RigidImage,
    halfspace,
    normal_residual,
    rotation_matrix_2d,
    sample_points,
)

import oracles

TRIANGLE = Polytope(
    (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
    (0.2, 0.2),
)

SQRT2_INV = 0.7071067811865476  # 1/sqrt(2), frozen from the local-bisection oracle


def test_distance_examples():
    assert Ball((0.0, 0.0), 1.0).distance((3.0, 0.0)) == 2.0
    assert HalfSpace((1.0, 0.0), 0.0).distance((-1.0, 5.0)) == 0.0
    assert TRIANGLE.distance((1.0, 1.0)) == pytest.approx(SQRT2_INV, abs=1e-9)


def test_triangle_distance_matches_grid_oracle():
    X, Y, h = oracles.grid(((-0.5, -0.5), (1.5, 1.5)), 501)
    mask = oracles.polytope_mask(X, Y, oracles.TRIANGLE_FACES)
    d, p = oracles.grid_min_distance(mask, X, Y, (1.0, 1.0))
    assert abs(d - SQRT2_INV) <= 2 * h

    def member(c):
        return c[0] >= 0 and c[1] >= 0 and c[0] + c[1] <= 1.0

    refined, _ = oracles.refine_local(member, (1.0, 1.0), p, h)
    assert refined == pytest.approx(SQRT2_INV, abs=1e-7)


def test_project_examples():
    assert np.allclose(HalfSpace((1.0, 0.0), 0.0).project((2.0, 3.0)), (0.0, 3.0))
    assert np.allclose(BallComplement((0.0, 0.0), 1.0).project((0.5, 0.0)), (1.0, 0.0))
    assert np.allclose(TRIANGLE.project((1.0, 1.0)), (0.5, 0.5), atol=1e-9)


def test_box_projection():
    b = Box((0.0, 0.0), (1.0, 2.0))
    assert np.allclose(b.project((2.0, -1.0)), (1.0, 0.0))
    assert b.distance((0.5, 1.0)) == 0.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Ball((0.0, 0.0), 1.0).distance((1.0, 2.0, 3.0))


def test_complement_radius_is_its_prox_constant():
    bc = BallComplement((0.3, -0.1), 0.7)
    assert bc.r == bc.radius == 0.7


def test_complement_center_is_singular():
    bc = BallComplement((0.0, 0.0), 1.0)
    with pytest.raises(AtSingularity):
        bc.project((0.0, 0.0))
    # Only the center itself is singular: a point within rounding of it projects.
    p, d = bc.project_with_distance((1e-17, 0.0))
    assert np.array_equal(p, (1.0, 0.0)) and d == 1.0


def test_containment_snapping():
    hs = HalfSpace((1.0, 0.0), 0.0)
    assert hs.distance((1e-11, 0.0)) == 0.0
    assert hs.contains((1e-11, 0.0))
    assert not hs.contains((1e-9, 0.0))


# (field, build from the caller's array, the array's values) per stored vector.
VECTOR_FIELDS = [
    pytest.param("normal", lambda v: HalfSpace(v, 1.0), (0.6, 0.8), id="halfspace"),
    pytest.param("center", lambda v: Ball(v, 1.0), (0.5, -0.5), id="ball"),
    pytest.param("center", lambda v: BallComplement(v, 1.0), (0.5, -0.5), id="complement"),
    pytest.param("lo", lambda v: Box(v, (2.0, 2.0)), (0.0, 1.0), id="box-lo"),
    pytest.param("hi", lambda v: Box((-1.0, -1.0), v), (0.0, 1.0), id="box-hi"),
    pytest.param("interior", lambda v: Polytope(TRIANGLE.faces, v), (0.2, 0.3), id="polytope"),
    pytest.param("rotation", lambda v: RigidImage(TRIANGLE, v, (0.0, 0.0)),
                 ((0.0, -1.0), (1.0, 0.0)), id="rigid-rotation"),
    pytest.param("translation", lambda v: RigidImage(TRIANGLE, np.eye(2), v), (1.0, -2.0),
                 id="rigid-translation"),
]


@pytest.mark.parametrize("name, build, value", VECTOR_FIELDS)
def test_vector_fields_are_read_only_copies(name, build, value):
    given = np.array(value)
    stored = getattr(build(given), name)
    assert isinstance(stored, np.ndarray) and stored.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 7.0
    given[...] = 7.0
    assert np.array_equal(stored, value)


def test_vector_fields_must_have_their_dimension():
    with pytest.raises(ValueError, match="expected a 1-D array"):
        Box(((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="expected a 1-D array"):
        Ball(0.0, 1.0)
    with pytest.raises(ValueError, match="expected a 2-D array"):
        RigidImage(TRIANGLE, (1.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("a, b", [
    (HalfSpace((1.0, 0.0), 0.5), HalfSpace((-1.0, 0.0), 0.5)),
    (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.5), 1.0)),
    (BallComplement((0.0, 0.0), 1.0), BallComplement((0.5, 0.0), 1.0)),
    (Box((0.0, 0.0), (1.0, 1.0)), Box((0.0, -1.0), (1.0, 1.0))),
    (Box((0.0, 0.0), (1.0, 1.0)), Box((0.0, 0.0), (2.0, 1.0))),
    (TRIANGLE, Polytope(TRIANGLE.faces, (0.2, 0.3))),
    (RigidImage(TRIANGLE, np.eye(2), (0.0, 0.0)),
     RigidImage(TRIANGLE, np.diag([1.0, -1.0]), (0.0, 0.0))),
    (RigidImage(TRIANGLE, np.eye(2), (0.0, 0.0)), RigidImage(TRIANGLE, np.eye(2), (0.0, 1.0))),
    (Ball((0.0, 0.0), 0.5), BallComplement((0.0, 0.0), 0.5)),
])
def test_equality_is_by_type_and_schema_document(a, b):
    assert a != b and b != a
    assert a == shape_from_dict(a.to_dict(), "a") and b == shape_from_dict(b.to_dict(), "b")
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_halfspace_normalization():
    hs = halfspace((3.0, 4.0), 10.0)
    assert math.isclose(np.linalg.norm(hs.normal), 1.0, rel_tol=1e-12)
    assert hs.offset == pytest.approx(2.0)
    with pytest.raises(ValueError):
        HalfSpace((3.0, 4.0), 10.0)
    with pytest.raises(ValueError):
        halfspace((0.0, 0.0), 1.0)


def test_polytope_requires_strict_interior():
    with pytest.raises(ValueError):
        Polytope((halfspace((1.0, 0.0), 0.0),), (0.0, 0.0))


def test_polytope_projection_budget():
    # The active-set step bound is derived from the face count; a solve that
    # exhausts it raises instead of returning an uncertified point.
    poly = Polytope(TRIANGLE.faces, TRIANGLE.interior)
    object.__setattr__(poly, "_max_steps", 1)
    with pytest.raises(DidNotConverge, match="exceeded 1 steps"):
        poly.project((1.0, 1.0))


def test_polytope_projection_uncertified_raises(monkeypatch):
    # With no face allowed to block, the solve walks straight to y; the KKT
    # feasibility check rejects that point.
    monkeypatch.setattr(sets_mod, "_SPAN_EPS", math.inf)
    with pytest.raises(DidNotConverge, match="KKT"):
        TRIANGLE.project((1.0, 1.0))


def test_polytope_projection_solves_once(monkeypatch):
    calls = []
    solve_once = Polytope._solve

    def counting(self, y):
        calls.append(tuple(y))
        return solve_once(self, y)

    monkeypatch.setattr(Polytope, "_solve", counting)
    TRIANGLE.project((1.0, 1.0))
    assert len(calls) == 1
    calls.clear()
    p, d = TRIANGLE.project_with_distance((1.0, 1.0))
    assert len(calls) == 1
    assert d == pytest.approx(SQRT2_INV, abs=1e-12)
    assert np.allclose(p, (0.5, 0.5), atol=1e-12)
    calls.clear()
    RigidImage(TRIANGLE, rotation_matrix_2d(0.4), (0.1, 0.0)).project((2.0, 2.0))
    assert len(calls) == 1


def test_project_with_distance_matches_separate_calls():
    for s in SHAPES:
        y = np.array([1.7, 1.3])
        p, d = s.project_with_distance(y)
        assert np.array_equal(p, s.project(y))
        assert d == pytest.approx(s.distance(y), abs=1e-14)
    inside = TRIANGLE.project_with_distance((0.2, 0.2))
    assert inside[1] == 0.0 and np.array_equal(inside[0], (0.2, 0.2))
    with pytest.raises(AtSingularity):
        BallComplement((0.0, 0.0), 1.0).project_with_distance((0.0, 0.0))


def test_normal_residual_halfspace_exact_normal():
    hs = HalfSpace((1.0, 0.0), 0.0)
    z = [(-1.0, 2.0), (0.0, 0.0), (-0.5, 3.0), (0.0, 5.0)]
    rep = normal_residual(hs, (0.0, 2.0), (1.0, 0.0), z)
    assert rep.worst_residual <= 0.0
    assert rep.samples == 4


def test_normal_residual_inward_vector_rejected():
    rep = normal_residual(Ball((0.0, 0.0), 1.0), (1.0, 0.0), (-1.0, 0.0), [(-1.0, 0.0)])
    assert rep.worst_residual == pytest.approx(2.0)


def test_normal_residual_complement_analytic_normal():
    bc = BallComplement((0.0, 0.0), 1.0)
    z = sample_points(bc, ((-3.0, -3.0), (3.0, 3.0)), 500, seed=11)
    rep = normal_residual(bc, (1.0, 0.0), (-1.0, 0.0), z)
    assert rep.worst_residual <= 1e-9


def test_normal_residual_membership_guard():
    with pytest.raises(NotAMember):
        normal_residual(Ball((0.0, 0.0), 1.0), (2.0, 0.0), (1.0, 0.0), [(0.0, 0.0)])
    with pytest.raises(NotAMember):
        normal_residual(Ball((0.0, 0.0), 1.0), (1.0, 0.0), (1.0, 0.0), [(3.0, 0.0)])


def test_sample_points_ball():
    ball = Ball((0.0, 0.0), 1.0)
    pts = sample_points(ball, ((-2.0, -2.0), (2.0, 2.0)), 10, seed=7)
    assert len(pts) == 10
    assert all(np.linalg.norm(p) <= 1.0 + 1e-10 for p in pts)


def test_sample_points_halfspace_single():
    hs = HalfSpace((1.0, 0.0), 0.0)
    pts = sample_points(hs, ((-1.0, -1.0), (1.0, 1.0)), 1, seed=0)
    assert len(pts) == 1
    assert hs.contains(pts[0])


def test_sample_points_triangle_edges_represented():
    pts = sample_points(TRIANGLE, ((-1.0, -1.0), (2.0, 2.0)), 100, seed=3)
    assert len(pts) == 100
    assert all(TRIANGLE.contains(p) for p in pts)
    for face in TRIANGLE.faces:
        dists = [abs(face.membership_defect(p)) for p in pts]
        assert min(dists) <= 1e-6, "an edge has no nearby sample"


def test_sample_points_tests_each_draw_once(monkeypatch):
    # One project_with_distance call both tests a draw and projects it when
    # rejected: one membership test per draw, however many are rejected.
    calls = []
    defect = Ball.membership_defect

    def counting(self, y):
        calls.append(1)
        return defect(self, y)

    monkeypatch.setattr(Ball, "membership_defect", counting)
    pts = sample_points(Ball((0.0, 0.0), 1.0), ((-2.0, -2.0), (2.0, 2.0)), 10, seed=7)
    radii = [np.linalg.norm(p) for p in pts]
    assert min(radii) < 1.0 - 1e-9, "no draw was a member"
    assert max(radii) == pytest.approx(1.0), "no draw was rejected"
    assert len(calls) == 10
    # A window that misses the set fails after its count draws, not 10^6.
    calls.clear()
    with pytest.raises(EmptyIntersection):
        sample_points(Ball((0.0, 0.0), 1.0), ((5.0, 5.0), (6.0, 6.0)), 10, seed=7)
    assert len(calls) == 10


def test_sample_points_window_meeting_the_set_on_an_edge():
    # No draw is a member, but every projection (1, y) lies in the window.
    box = Box((1.0, 0.0), (2.0, 1.0))
    pts = sample_points(box, ((0.0, 0.0), (1.0, 1.0)), 20, seed=4)
    assert len(pts) == 20
    assert all(p[0] == 1.0 and 0.0 <= p[1] <= 1.0 for p in pts)


def test_sample_points_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_points(Ball((0.0, 0.0), 1.0), ((-1.0, -1.0), (1.0, 1.0)), 4, seed=-1)


def test_sampling_budget_rejects_bad_inputs_at_construction():
    with pytest.raises(ValueError, match="sampling seed must be >= 0, got -1"):
        SamplingBudget(seed=-1)
    with pytest.raises(ValueError, match="sampling count must be >= 1, got 0"):
        SamplingBudget(count=0)


def test_sample_points_empty_intersection():
    ball = Ball((0.0, 0.0), 1.0)
    with pytest.raises(EmptyIntersection):
        sample_points(ball, ((5.0, 5.0), (6.0, 6.0)), 5, seed=0)


def test_polytope_agrees_with_box_closed_form():
    # A box expressed as four half-spaces projects identically to clipping.
    faces = (
        halfspace((1.0, 0.0), 1.0),
        halfspace((-1.0, 0.0), 0.5),
        halfspace((0.0, 1.0), 2.0),
        halfspace((0.0, -1.0), 0.0),
    )
    poly = Polytope(faces, (0.2, 1.0))
    box = Box((-0.5, 0.0), (1.0, 2.0))
    rng = np.random.default_rng(12)
    for _ in range(25):
        y = rng.uniform(-3.0, 4.0, 2)
        assert np.linalg.norm(poly.project(y) - box.project(y)) <= 1e-10


def test_polytope_projection_drops_a_crossed_face():
    # Two faces meet at about 166 degrees at (0, 0.5), far from the interior
    # point.  The step toward y = (x, 2) crosses the slanted face first, so the
    # solve must drop it again to reach (x, 0.5) on the top face.
    faces = (
        halfspace((0.0, 1.0), 0.5),
        halfspace((-1.0, 4.0), 2.0),
        halfspace((-1.0, 0.0), 2.0),
        halfspace((1.0, 0.0), 2.0),
        halfspace((0.0, -1.0), 2.0),
    )
    poly = Polytope(faces, (-1.8, -1.8))
    for x in (0.1, 0.5, 1.0):
        assert np.linalg.norm(poly.project((x, 2.0)) - (x, 0.5)) <= 1e-12


def test_polytope_agrees_with_cube_closed_form():
    # The same in 3-D: six half-spaces against the clipping box.
    lo, hi = np.array([-0.5, 0.0, -1.0]), np.array([1.0, 2.0, 0.25])
    faces = tuple(halfspace(tuple(e), h) for e, h in zip(np.eye(3), hi))
    faces += tuple(halfspace(tuple(-e), -l) for e, l in zip(np.eye(3), lo))
    poly = Polytope(faces, (0.2, 1.0, -0.3))
    box = Box(tuple(lo), tuple(hi))
    rng = np.random.default_rng(13)
    for _ in range(25):
        y = rng.uniform(-3.0, 4.0, 3)
        assert np.linalg.norm(poly.project(y) - box.project(y)) <= 1e-10


def test_three_dimensional_shapes():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    assert ball.distance((0.0, 0.0, 3.0)) == 2.0
    assert np.allclose(ball.project((0.0, 0.0, 3.0)), (0.0, 0.0, 1.0))
    pts = sample_points(ball, ((-2.0,) * 3, (2.0,) * 3), 20, seed=5)
    assert all(ball.contains(p) for p in pts)


def test_rigid_image_equivariance():
    Q = rotation_matrix_2d(0.7)
    u = (0.3, -0.2)
    moved = RigidImage(TRIANGLE, Q, u)
    y = np.array([1.2, 0.8])
    Qm = np.array(Q)
    direct = moved.project(Qm @ y + np.array(u))
    reference = Qm @ TRIANGLE.project(y) + np.array(u)
    assert np.linalg.norm(direct - reference) <= 1e-10


def test_rigid_image_requires_orthogonal():
    with pytest.raises(ValueError):
        RigidImage(TRIANGLE, ((1.0, 0.1), (0.0, 1.0)), (0.0, 0.0))


SHAPES = [
    Ball((0.3, -0.2), 0.8),
    HalfSpace((0.0, 1.0), 0.25),
    Box((-1.0, -0.5), (0.5, 1.0)),
    TRIANGLE,
    BallComplement((0.1, 0.1), 0.6),
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(SHAPES) - 1),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
def test_projection_idempotent_and_on_set(idx, x, y):
    s = SHAPES[idx]
    p = np.array([x, y])
    if s.distance(p) >= s.r:
        return
    proj = s.project(p)
    assert s.distance(proj) <= 1e-10
    again = s.project(proj)
    assert np.linalg.norm(again - proj) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(SHAPES) - 1),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.1, 0.5, 0.9]),
)
def test_segment_projection_property(idx, x, y, t):
    s = SHAPES[idx]
    p = np.array([x, y])
    if s.distance(p) >= s.r or s.distance(p) <= 1e-9:
        return
    proj = s.project(p)
    mid = proj + t * (p - proj)
    back = s.project(mid)
    assert np.linalg.norm(back - proj) <= 1e-9


def test_step_size_equals_distance():
    # The projection moves exactly the distance, for every primitive.
    for s in SHAPES:
        p = np.array([1.7, 1.3])
        d = s.distance(p)
        if d == 0.0 or d >= s.r:
            continue
        assert np.linalg.norm(s.project(p) - p) == pytest.approx(d, abs=1e-10)


# Polytopes the acceptance criteria never exercise: an unbounded quadrant, a
# triangle with its hypotenuse repeated, and a triangle with a redundant face
# touching it only at (1, 0).  The last two have vertices where more faces are
# active than the dimension.
_INV5 = 1 / math.sqrt(5)
DEGENERATE = {
    "quadrant": (
        Polytope((halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0)), (1.0, 1.0)),
        (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)),
    ),
    "duplicated_face": (
        Polytope(TRIANGLE.faces + (halfspace((1.0, 1.0), 1.0),), (0.2, 0.2)),
        oracles.TRIANGLE_FACES + (oracles.TRIANGLE_FACES[2],),
    ),
    "redundant_face": (
        Polytope(TRIANGLE.faces + (halfspace((2.0, 1.0), 2.0),), (0.2, 0.2)),
        oracles.TRIANGLE_FACES + (((2 * _INV5, _INV5), 2 * _INV5),),
    ),
}
_DEGENERATE_GRID = oracles.grid(((-2.5, -2.5), (2.5, 2.5)), 201)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(DEGENERATE)),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
@example("quadrant", -1.0, -1.0)  # nearest point is the corner
@example("duplicated_face", 1.0, 1.0)  # onto the repeated face
@example("duplicated_face", 2.0, -1.0)  # onto a vertex of the repeated face
@example("redundant_face", 2.0, 0.5)  # along the redundant face's normal at (1, 0)
@example("redundant_face", 1.5, -0.1)  # into the vertex where three faces meet
@example("duplicated_face", 1.58203125, 0.990234375)  # the oracle search slides along the face
def test_degenerate_polytope_projection_against_grid_oracle(name, x, y):
    poly, faces = DEGENERATE[name]
    target = np.array([x, y])
    assume(not poly.contains(target))
    p = poly.project(target)
    assert poly.contains(p)
    X, Y, h = _DEGENERATE_GRID
    mask = oracles.polytope_mask(X, Y, faces)
    members = np.stack([X[mask], Y[mask]], axis=1)
    # Variational inequality: no member lies beyond the supporting line at p.
    assert float(np.max((members - p) @ (target - p))) <= 1e-10
    d, p_grid = oracles.grid_min_distance(mask, X, Y, target)
    assert abs(d - np.linalg.norm(target - p)) <= 2 * h
    # Boundary cells lost to rounding can put the grid argmin a few cells along
    # a face from the nearest point, so the search window starts at 4h.
    refined, _ = oracles.refine_local(oracles.polytope_member(faces), target, p_grid, 4 * h)
    assert refined == pytest.approx(np.linalg.norm(target - p), abs=1e-7)
    assert oracles.polygon_distance(faces, target) == pytest.approx(
        np.linalg.norm(target - p), abs=1e-9
    )


@pytest.mark.parametrize(
    "faces, y, expected",
    [
        # Slanted faces on which refine_local stops short of the nearest point.
        ((((-1.0, 4.0), 2.0),), (-1.25, 2.0), 1.758383281513414),
        ((((-0.2, 1.0), 0.5),), (-1.0, 2.0), 1.6669871486745644),
        (oracles.TRIANGLE_FACES, (1.0, 1.0), SQRT2_INV),  # onto the hypotenuse
        (oracles.TRIANGLE_FACES, (2.0, -1.0), math.sqrt(2.0)),  # onto the vertex (1, 0)
        (oracles.TRIANGLE_FACES, (0.2, 0.2), 0.0),  # inside
    ],
)
def test_polygon_distance_oracle(faces, y, expected):
    assert oracles.polygon_distance(faces, y) == pytest.approx(expected, abs=1e-15)


# One instance of every registered shape class, keyed by its schema tag.
SHAPE_BY_TAG = {
    "halfspace": halfspace((1.0, 2.0), 0.5),
    "ball": Ball((0.3, -0.2), 0.8),
    "box": Box((-0.5, 0.0), (1.0, 0.4)),
    "polytope": TRIANGLE,
    "ball_complement": BallComplement((0.1, 0.2), 0.6),
    "rigid_image": RigidImage(TRIANGLE, rotation_matrix_2d(0.7), (0.4, -0.1)),
}
TAGS = sorted(SHAPE_BY_TAG)

# The oracles' view of the polyhedral shapes above, from their parameters:
# faces (a, b) of {<a, x> <= b} and, for the bounded ones, points along the
# boundary with the vertices among them.
_ROTATION, _SHIFT = rotation_matrix_2d(0.7), np.array([0.4, -0.1])
_FACES = {
    "halfspace": [((1.0, 2.0), 0.5)],
    "box": [((-1.0, 0.0), 0.5), ((1.0, 0.0), 1.0), ((0.0, -1.0), 0.0), ((0.0, 1.0), 0.4)],
    "polytope": list(oracles.TRIANGLE_FACES),
    "rigid_image": [(tuple(_ROTATION @ a), b + float((_ROTATION @ a) @ _SHIFT))
                    for a, b in oracles.TRIANGLE_FACES],
}
_TRIANGLE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_BOUNDARY = {
    "box": oracles.polygon_boundary([(-0.5, 0.0), (1.0, 0.0), (1.0, 0.4), (-0.5, 0.4)]),
    "polytope": oracles.polygon_boundary(_TRIANGLE_VERTICES),
    "rigid_image": oracles.polygon_boundary(_TRIANGLE_VERTICES @ _ROTATION.T + _SHIFT),
    "ball": oracles.circle((0.3, -0.2), 0.8),
}


def _oracle_distance(tag, shift=(0.0, 0.0)):
    """Exact distance to SHAPE_BY_TAG[tag] moved by shift, by the oracles."""
    if tag in ("ball", "ball_complement"):
        shape = SHAPE_BY_TAG[tag]
        exact = oracles.ball_distance if tag == "ball" else oracles.complement_distance
        return lambda y: exact(shape.center + shift, shape.radius, y)
    faces = [(a, b + float(np.dot(a, shift))) for a, b in _FACES[tag]]
    return lambda y: oracles.polygon_distance(faces, y)


def test_every_registered_shape_has_a_case():
    assert sorted(sets_mod.SHAPES) == TAGS
    for tag, shape in SHAPE_BY_TAG.items():
        assert type(shape) is sets_mod.SHAPES[tag]


@pytest.mark.parametrize("tag", TAGS)
def test_to_dict_round_trip(tag):
    shape = SHAPE_BY_TAG[tag]
    doc = json.loads(json.dumps(shape.to_dict()))
    assert doc["shape"] == tag
    back = shape_from_dict(doc, "shape")
    assert type(back) is type(shape)
    assert back == shape


@pytest.mark.parametrize("tag", TAGS)
def test_translated_moves_every_distance(tag):
    shape = SHAPE_BY_TAG[tag]
    u = np.array([0.7, -1.3])
    moved = shape.translated(u)
    assert type(moved) is type(shape)
    rng = np.random.default_rng(11)
    for y in rng.normal(scale=2.0, size=(50, 2)):
        assert abs(moved.distance(y + u) - shape.distance(y)) <= 1e-12


def _brute_circumradius(shape, p):
    """Largest distance from p over the corners, vertices or a fine boundary sampling."""
    if isinstance(shape, Box):
        points = list(itertools.product(*zip(shape.lo, shape.hi)))
    elif isinstance(shape, Polytope):
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]  # the vertices of TRIANGLE
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        points = np.array(shape.center) + shape.radius * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
    return max(float(np.linalg.norm(np.asarray(q) - p)) for q in points)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("pivot", [(0.25, -0.75), (0.9, 0.1)])
def test_circumradius_about_against_brute_force(tag, pivot):
    shape = SHAPE_BY_TAG[tag]
    p = np.array(pivot)
    if tag not in ("ball", "box", "polytope"):
        with pytest.raises(ValueError, match=f"the {tag} base is unbounded or has no derived"):
            shape.circumradius_about(p)
        return
    exact = shape.circumradius_about(p)
    brute = _brute_circumradius(shape, p)
    # Corners and vertices are exact; the sampled circle falls short by < R(1 - cos(pi/3600)).
    assert brute - 1e-12 <= exact <= brute + 1e-6


def test_circumradius_of_a_polytope_without_vertices():
    half_plane = Polytope((halfspace((1.0, 0.0), 0.0),), (-1.0, 0.0))
    with pytest.raises(ValueError, match="the polytope base is unbounded"):
        half_plane.circumradius_about(np.zeros(2))


@pytest.mark.parametrize("faces, interior, bounded", [
    pytest.param((((0, -1), 0), ((-1, 0), 0), ((1, 1), 1)), (0.2, 0.2), True, id="triangle"),
    pytest.param((((0, -1), 0), ((-1, 0), 0), ((1, 0), 1), ((0, 1), 1)), (0.5, 0.5), True,
                 id="square"),
    pytest.param((((1, 0), 0), ((0, 1), 0)), (-1, -1), False, id="wedge"),
    pytest.param((((1, 0), 0), ((-1, 0), 1)), (-0.5, 0), False, id="strip"),
    pytest.param((((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)), (0, 0), False, id="three-face-slab"),
])
def test_circumradius_is_finite_exactly_for_bounded_polytopes(faces, interior, bounded):
    shape = Polytope(tuple(halfspace(a, b) for a, b in faces), interior)
    pivot = np.array([0.5, 0.5])
    if bounded:
        corners = shape.vertices_2d()
        assert shape.circumradius_about(pivot) == max(math.dist(v, pivot) for v in corners)
    else:
        with pytest.raises(ValueError, match="the polytope base is unbounded"):
            shape.circumradius_about(pivot)


@pytest.mark.parametrize("tag", TAGS)
def test_excess_method_for_same_type_pairs(tag):
    shape = SHAPE_BY_TAG[tag]
    # A translate keeps half-spaces parallel and boxes of equal extents.
    shift = np.array([0.2, 0.1])
    est = excess(shape, shape.translated(shift), SamplingBudget(count=20, hill_steps=5, seed=3))
    assert est.method == "analytic"
    assert est.lower == est.upper
    if tag in ("polytope", "rigid_image"):
        # The vertex rule: a convex body sticks out of its translate by |shift|.
        oracle = oracles.cloud_excess(_BOUNDARY[tag], _oracle_distance(tag, shift))
        assert est.lower == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(math.hypot(0.2, 0.1), abs=1e-12)


@pytest.mark.parametrize(
    "a, b",
    [("ball", "box"), ("box", "polytope"), ("ball", "ball_complement"),
     ("polytope", "rigid_image"), ("halfspace", "ball")],
)
def test_excess_is_sampled_for_mixed_pairs(a, b):
    """Mixed pairs that were once only sampled: each now has an exact value,
    checked against the oracles."""
    A, B = SHAPE_BY_TAG[a], SHAPE_BY_TAG[b]
    est = excess(A, B, SamplingBudget(count=20, hill_steps=5, seed=3))
    assert est.method == "analytic"
    assert est.lower == est.upper
    distance = _oracle_distance(b)
    if a == "halfspace":
        # Unbounded over bounded: members of A run arbitrarily far from B.
        assert est.lower == math.inf and np.isnan(est.witness).all()
        unit = A.normal / np.linalg.norm(A.normal)
        assert distance(A.boundary_anchor() - 1e6 * unit) >= 1e6 - 2.0
        return
    assert distance(est.witness) == pytest.approx(est.lower, abs=1e-12)
    if b == "ball_complement":
        # The point of A nearest the excluded center lies deepest in the excluded ball.
        oracle = B.radius - oracles.ball_distance(A.center, A.radius, B.center)
        assert est.lower == pytest.approx(oracle, abs=1e-12)
        assert oracles.cloud_excess(_BOUNDARY[a], distance) <= est.upper
    elif a == "ball":
        # The center lies outside the box: the farthest point is radius beyond it.
        assert est.lower == pytest.approx(distance(A.center) + A.radius, abs=1e-12)
        gap = math.pi * A.radius / len(_BOUNDARY[a])
        assert est.lower - gap <= oracles.cloud_excess(_BOUNDARY[a], distance) <= est.upper
    else:
        assert est.lower == pytest.approx(oracles.cloud_excess(_BOUNDARY[a], distance), abs=1e-12)


@pytest.mark.parametrize("normal", [(0.0, 1.0), (-1.0, 0.0), (1.0, 1e-5)])
def test_half_spaces_that_are_not_parallel_are_infinitely_far(normal):
    A, B = HalfSpace((1.0, 0.0), 0.0), halfspace(normal, 5.0)
    est = excess(A, B)
    assert est.method == "analytic" and est.lower == est.upper == math.inf
    # A holds the ray along n2 - <n1, n2> n1 (along -n1 when n2 = -n1).
    n2 = np.array(normal) / np.linalg.norm(normal)
    ray = n2 - (n2 @ A.normal) * A.normal if n2 @ A.normal > -1.0 else -A.normal
    far = 1e9 * ray / np.linalg.norm(ray)
    assert A.contains(far)
    assert oracles.polygon_distance([(normal, 5.0 * np.linalg.norm(normal))], far) > 1e2


def test_half_spaces_parallel_only_up_to_rounding_have_no_closed_form():
    # 1e-7 rad apart: once counted parallel, with excess 0 where it is inf.
    est = excess(HalfSpace((1.0, 0.0), 0.0), halfspace((1.0, 1e-7), 5.0),
                 SamplingBudget(count=20, hill_steps=5, seed=3))
    assert est.method == "sampled" and est.upper == math.inf


def test_leftover_pairs_are_sampled_lower_bounds():
    # An unbounded polyhedron over an unbounded convex set, and a 3-D polytope.
    wedge = Polytope((halfspace((1.0, 0.0), 0.0), halfspace((0.0, 1.0), 0.0)), (-1.0, -1.0))
    cube = Polytope(tuple(halfspace(a, 1.0) for a in np.vstack([np.eye(3), -np.eye(3)])),
                    (0.0, 0.0, 0.0))
    budget = SamplingBudget(count=20, hill_steps=5, seed=3)
    for A, B in ((wedge, halfspace((1.0, 1.0), 0.5)), (cube, Ball((0.0, 0.0, 0.0), 1.0))):
        est = excess(A, B, budget)
        assert est.method == "sampled"
        assert 0.0 <= est.lower <= est.upper == math.inf


def test_rigid_image_rejects_non_finite_motion():
    with pytest.raises(ValueError, match="finite"):
        RigidImage(Ball((0.0, 0.0), 1.0), ((math.nan, 0.0), (0.0, 1.0)), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        RigidImage(Ball((0.0, 0.0), 1.0), rotation_matrix_2d(0.3), (math.inf, 0.0))


# Two faces about 1e-9 rad apart meet at the origin; their Gram matrix is
# singular in double precision, so the working faces are factored by QR.
NEAR_PARALLEL = Polytope(
    (halfspace((0.0, 1.0), 0.0), halfspace((1e-9, 1.0), 0.0), halfspace((-1.0, 0.0), 1.0)),
    (-0.5, -0.5),
)
_SCALES = [10.0 ** k for k in range(-9, 7)]


def _near_vertex_points(seed):
    """Points above the origin, a few 1e-9 of their height to either side, so
    that they project onto either face or onto the vertex between them."""
    rng = np.random.default_rng(seed)
    for scale in _SCALES:
        for _ in range(75):
            b = rng.uniform(0.1, 1.0) * scale
            yield np.array([rng.uniform(-1.0, 2.0) * 1e-9 * b, b])


def _surrounding_points(seed):
    """Points in every direction around the origin at the same scales."""
    rng = np.random.default_rng(seed)
    for scale in _SCALES:
        for _ in range(77):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            yield rng.uniform(0.1, 1.0) * scale * np.array([math.cos(angle), math.sin(angle)])


@pytest.mark.parametrize("points", [_near_vertex_points, _surrounding_points])
def test_near_parallel_faces_project(points):
    # Every point projects (the KKT check passed), and its distance matches the
    # nearest point of the faces and their vertices computed in closed form.
    a1 = np.array(NEAR_PARALLEL.faces[1].normal)
    for y in points(0):
        p = NEAR_PARALLEL.project(y)
        if NEAR_PARALLEL.membership_defect(y) <= sets_mod.CONTAINMENT_TOL:
            expected = y  # inside, or snapped to the set
        elif y[0] < -1.0:
            expected = np.array([-1.0, min(y[1], 0.0)])  # onto the left face or its corner
        elif y[0] <= 0.0:
            expected = np.array([y[0], 0.0])  # onto the top face
        else:
            on_slant = y - float(a1 @ y) * a1
            expected = on_slant if on_slant[0] >= 0.0 else np.zeros(2)
        # Where the faces meet, the position along them is ill-conditioned
        # (a slack of 1e-20 moves the vertex by 1e-11); the distance is not.
        assert NEAR_PARALLEL.contains(p)
        gap = np.linalg.norm(y - p) - np.linalg.norm(y - expected)
        assert abs(gap) <= 1e-12 * max(1.0, np.linalg.norm(y))


# Each shape of SHAPE_BY_TAG as a grid mask built from its parameters alone.
_Q07 = np.array(rotation_matrix_2d(0.7))
DEPTH_MASKS = {
    "halfspace": lambda X, Y: oracles.halfspace_mask(X, Y, (1.0, 2.0), 0.5),
    "ball": lambda X, Y: oracles.ball_mask(X, Y, (0.3, -0.2), 0.8),
    "box": lambda X, Y: oracles.box_mask(X, Y, (-0.5, 0.0), (1.0, 0.4)),
    "polytope": lambda X, Y: oracles.polytope_mask(X, Y, oracles.TRIANGLE_FACES),
    "ball_complement": lambda X, Y: oracles.complement_mask(X, Y, (0.1, 0.2), 0.6),
    # Pull the grid back through x -> Q x + u onto the triangle.
    "rigid_image": lambda X, Y: oracles.polytope_mask(
        _Q07[0, 0] * (X - 0.4) + _Q07[1, 0] * (Y + 0.1),
        _Q07[0, 1] * (X - 0.4) + _Q07[1, 1] * (Y + 0.1), oracles.TRIANGLE_FACES),
}
_DEPTH_GRID = oracles.grid(((-4.0, -4.0), (4.0, 4.0)), 801)
_DEPTH_COMPLEMENTS: dict = {}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TAGS), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_depth_is_minus_the_membership_defect(tag, u, v):
    # At a member w, -membership_defect(w) is the distance from w to the
    # complement: verify_inner_ball rests on it.  The grid points outside the
    # mask lie in the complement, so their distance is never below the depth,
    # and one of them lies within a cell diagonal of the nearest point.
    shape = SHAPE_BY_TAG[tag]
    lo, hi = shape.bounding_region()
    w = lo + np.array([u, v]) * (hi - lo)
    depth = -shape.membership_defect(w)
    assume(depth >= 0.0)
    X, Y, h = _DEPTH_GRID
    if tag not in _DEPTH_COMPLEMENTS:
        _DEPTH_COMPLEMENTS[tag] = ~DEPTH_MASKS[tag](X, Y)
    d_grid, _ = oracles.grid_min_distance(_DEPTH_COMPLEMENTS[tag], X, Y, w)
    assert -1e-12 <= d_grid - depth <= math.sqrt(2.0) * h


# Six shapes, one per class, and their normal-defect bounds against the
# sampled residual, a lower bound of the same supremum.
DEFECT_SHAPES = [SHAPE_BY_TAG[tag] for tag in TAGS]


def _boundary_normal(shape, y):
    """(x, unit n): the projection x of y and the unit proximal normal there."""
    x, d = shape.project_with_distance(y)
    return x, (np.asarray(y) - x) / d


def _rotated(n):
    return np.array([-n[1], n[0]])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(TAGS),
    st.floats(-2.5, 2.5),
    st.floats(-2.5, 2.5),
    st.floats(1e-3, 1.0),
    st.floats(0.25, 3.0),
    st.integers(0, 2**16),
)
def test_normal_defect_bounds_the_sampled_residual(tag, y0, y1, length, halfwidth, seed):
    shape = SHAPE_BY_TAG[tag]
    y = np.array([y0, y1])
    d = shape.distance(y)
    assume(1e-6 < d < shape.r)
    x, unit = _boundary_normal(shape, y)
    region = (x - halfwidth, x + halfwidth)
    z = sample_points(shape, region, 30, seed)
    true_n = length * unit
    bound = shape.normal_defect(x, true_n, halfwidth)
    assert bound <= CERTIFICATION_TOL
    assert bound >= normal_residual(shape, x, true_n, z).worst_residual
    # Wrong normals: the bound stays sound, and an inward vector fails.
    for wrong in (-true_n, _rotated(true_n), -_rotated(true_n), true_n + 0.05 * _rotated(true_n)):
        assert shape.normal_defect(x, wrong, halfwidth) >= normal_residual(
            shape, x, wrong, z).worst_residual
    assert shape.normal_defect(x, -true_n, halfwidth) > CERTIFICATION_TOL


# Points whose projection lies inside a face (or on a smooth boundary), away
# from every vertex, so no rotation of the normal is a normal.
FACE_POINTS = {
    "halfspace": (1.0, 1.0),
    "ball": (2.0, 1.0),
    "box": (0.25, 1.0),
    "polytope": (1.0, 1.0),
    "ball_complement": (0.2, 0.3),
    "rigid_image": tuple(np.array(rotation_matrix_2d(0.7)) @ (1.0, 1.0) + (0.4, -0.1)),
}


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("length", [1e-3, 0.1, 1.0])
def test_normal_defect_rejects_wrong_normals(tag, length):
    shape = SHAPE_BY_TAG[tag]
    x, unit = _boundary_normal(shape, FACE_POINTS[tag])
    n = length * unit
    assert shape.normal_defect(x, n, 3.0) <= CERTIFICATION_TOL
    for wrong in (-n, _rotated(n), -_rotated(n), n + 0.1 * length * _rotated(unit)):
        assert shape.normal_defect(x, wrong, 3.0) > CERTIFICATION_TOL
    assert math.isnan(shape.normal_defect(x, (math.nan, 0.0), 3.0))
    assert shape.normal_defect(x, np.zeros(2), 3.0) <= CERTIFICATION_TOL


def test_normal_defect_closed_forms():
    # Half-space, ball and box bounds at exactly representable points.
    hs = HalfSpace((1.0, 0.0), 0.0)
    assert hs.normal_defect((0.0, 5.0), (2.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-13)
    assert hs.normal_defect((0.0, 5.0), (0.0, 2.0), 1.0) == pytest.approx(2.0 * math.sqrt(2.0))
    ball = Ball((0.0, 0.0), 1.0)
    # x inside at depth 0.5 along n: the supremum is exactly 0.5 |n|.
    assert ball.normal_defect((0.5, 0.0), (1.0, 0.0), 3.0) == pytest.approx(0.5)
    box = Box((0.0, 0.0), (1.0, 2.0))
    assert box.normal_defect((1.0, 1.0), (1.0, 0.0), 3.0) == pytest.approx(0.0, abs=1e-13)
    assert box.normal_defect((1.0, 1.0), (0.0, 1.0), 3.0) == pytest.approx(1.0)
    # Off the sphere of the excluded ball, the normal toward the center is
    # short of a normal by the gap: (d^2 - radius^2)/(2d) per unit of n.
    bc = BallComplement((0.0, 0.0), 1.0)
    assert bc.normal_defect((2.0, 0.0), (-1.0, 0.0), 3.0) == pytest.approx(0.75)
    # Inside the excluded ball (not a member), the curvature excess enters:
    # (0.25 - 1)/1 + (1/1 - 1/2) R^2 with R^2 = 18.  The member (-1, 0) has
    # residual 1.5 - 2.25/2 = 0.375, which the bound must cover.
    assert bc.normal_defect((0.5, 0.0), (-1.0, 0.0), 3.0) == pytest.approx(8.25)


def test_complement_bound_covers_samples_outside_the_window():
    # Rejected draws project radially onto the sphere, some of them beyond the
    # window and beyond its radius R; the audit compares the bound with their
    # residuals, so the bound must cover them, for tilted normals too.
    bc = BallComplement((0.0, 0.0), 2.0)
    x = np.array([2.0, 0.0])
    for halfwidth in (0.25, 1.0, 1.5):
        z = sample_points(bc, (x - halfwidth, x + halfwidth), 200, seed=3)
        assert max(np.abs(np.asarray(z) - x).max(axis=1)) > halfwidth
        for tilt in (0.01, 0.05, 0.2):
            n = 0.1 * np.array([-1.0, tilt])
            residual = normal_residual(bc, x, n, z).worst_residual
            assert bc.normal_defect(x, n, halfwidth) >= residual


def test_polytope_normal_defect_uses_the_solve_multipliers(monkeypatch):
    # At the vertex (1, 0) the normal cone is spanned by (0, -1) and (1, 1):
    # their sum is a normal, certified by the two multipliers of one solve.
    calls = []
    solve_once = Polytope._solve

    def counting(self, y):
        calls.append(tuple(y))
        return solve_once(self, y)

    monkeypatch.setattr(Polytope, "_solve", counting)
    n = np.array([0.0, -1.0]) + np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert TRIANGLE.normal_defect((1.0, 0.0), 0.01 * n, 3.0) <= 1e-14
    assert len(calls) == 1
    # x + n inside the set: lam = 0 and the bound is |n| R, with no solve.
    calls.clear()
    bound = TRIANGLE.normal_defect((0.5, 0.5), (-0.1, -0.1), 3.0)
    assert bound == pytest.approx(0.1 * math.sqrt(2.0) * 3.0 * math.sqrt(2.0))
    assert calls == []

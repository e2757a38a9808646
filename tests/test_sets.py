import dataclasses
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
    SweepError,
)
from sweepsolve import families as families_mod
from sweepsolve.families import RigidFamily, SamplingBudget, TranslateFamily, excess
from sweepsolve.geometry import norm
from sweepsolve.paths import LinearPath
from sweepsolve.scenarios import list_builtins, load_builtin, shape_from_dict
from sweepsolve.solver import CERTIFICATION_TOL, NORMAL_WINDOW
from sweepsolve.sets import (
    Ball,
    BallComplement,
    Box,
    HalfSpace,
    Polytope,
    RigidImage,
    halfspace,
    normal_residual,
    polytope,
    rotation_matrix_2d,
    sample_points,
)

import oracles

TRIANGLE = polytope(
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
    with pytest.raises(AtSingularity) as err:
        bc.project((0.0, 0.0))
    assert err.value.distance == 1.0
    # Only the center itself is singular: a point within rounding of it
    # projects, also where |y - c| underflows to 0.
    for offset in (1e-17, 1e-200, -1e-200):
        p, d = bc.project_with_distance((offset, 0.0))
        assert np.array_equal(p, (math.copysign(1.0, offset), 0.0)) and d == 1.0
    p, d = bc.project_with_distance((3e-200, -4e-200))
    assert np.allclose(p, (0.6, -0.8), rtol=0.0, atol=1e-15) and d == 1.0
    # radius * d underflows at a subnormal offset: the projection still lies
    # on the sphere, not at |d| / |d| = 1 from the center.
    p, d = BallComplement((0.0, 0.0), 1.25).project_with_distance((0.0, 5e-324))
    assert np.array_equal(p, (0.0, 1.25)) and d == 1.25


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
    pytest.param("interior", lambda v: polytope(TRIANGLE.faces, v), (0.2, 0.3), id="polytope"),
    pytest.param("normals", lambda v: Polytope(v, TRIANGLE.offsets, TRIANGLE.interior),
                 tuple(map(tuple, TRIANGLE.normals.tolist())), id="polytope-normals"),
    pytest.param("offsets", lambda v: Polytope(TRIANGLE.normals, v, TRIANGLE.interior),
                 (0.0, 0.0, 2.0), id="polytope-offsets"),
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
    (TRIANGLE, polytope(TRIANGLE.faces, (0.2, 0.3))),
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
        polytope((halfspace((1.0, 0.0), 0.0),), (0.0, 0.0))


def test_polytope_face_arrays_are_checked():
    # polytope() stores each half-space's normal and offset as one row of the
    # arrays, and faces gives them back; the arrays themselves are checked.
    faces = [{"normal": f.normal.tolist(), "offset": f.offset} for f in TRIANGLE.faces]
    assert faces == TRIANGLE.to_dict()["faces"]
    assert polytope(TRIANGLE.faces, TRIANGLE.interior) == TRIANGLE
    with pytest.raises(ValueError, match="must be unit"):
        Polytope(((2.0, 0.0),), (1.0,), (0.0, 0.0))
    for normals, offsets, interior in ((TRIANGLE.normals, (0.0, 0.0), (0.2, 0.2)),
                                       (TRIANGLE.normals, TRIANGLE.offsets, (0.2, 0.2, 0.2)),
                                       (np.zeros((0, 2)), (), (0.0, 0.0))):
        with pytest.raises(ValueError, match="m >= 1 normals, m offsets"):
            Polytope(normals, offsets, interior)
    for faces in ((), (halfspace((1.0, 0.0), 1.0), halfspace((1.0, 0.0, 0.0), 1.0))):
        with pytest.raises(ValueError, match="at least one face, all of one dimension"):
            polytope(faces, (0.0, 0.0))


def test_polytope_projection_budget():
    # The active-set step bound is derived from the face count, (dim + 1) times
    # the 1 + 3 + 3 working sets of at most 2 of the 3 faces; a solve that
    # exhausts it raises instead of returning an uncertified point.
    normals, offsets, interior, slack, max_steps, _ = TRIANGLE._row
    assert max_steps == 21
    row = (normals, offsets, interior, slack, 1, {})
    with pytest.raises(DidNotConverge, match="exceeded 1 steps"):
        Polytope._project_fields(row, np.array([1.0, 1.0]), sets_mod.CONTAINMENT_TOL)


def test_polytope_projection_uncertified_raises(monkeypatch):
    # With no face allowed to block, the solve walks straight to y; the KKT
    # feasibility check rejects that point.
    monkeypatch.setattr(sets_mod, "_SPAN_EPS", math.inf)
    with pytest.raises(DidNotConverge, match="KKT"):
        TRIANGLE.project((1.0, 1.0))


def _perturb_face_factors(monkeypatch, perturb):
    # The factors (A_W, N, M, P) of the triangle's face x + y <= 1, W = (2,),
    # pass through perturb; the empty working set keeps its own.
    working_faces = Polytope._working_faces

    def faces(fields, work):
        factors = working_faces(fields, work)
        return perturb(*factors) if work == (2,) else factors

    monkeypatch.setattr(Polytope, "_working_faces", staticmethod(faces))


def test_polytope_projection_off_its_face_raises(monkeypatch):
    # With N = I the second pass steps straight to y = (1, 1), which leaves
    # the whole face residual 1/sqrt(2) to P, and 1.5 P overshoots it: x ends
    # at (0.25, 0.25), feasible and with y - x along the face normal, but
    # 1/(2 sqrt(2)) inside the face it was to lie on.
    _perturb_face_factors(monkeypatch, lambda Aw, N, M, P: (Aw, np.eye(2), M, 1.5 * P))
    with pytest.raises(DidNotConverge, match=r"infeasibility -2\.500e-01, off-face 3\.536e-01, "
                                             r"stationarity \d\.\d{3}e-1[5-7]\)"):
        TRIANGLE.project((1.0, 1.0))


def test_polytope_projection_off_stationarity_raises(monkeypatch):
    # Halved multipliers leave x = (0.5, 0.5) on its face and feasible, but
    # y - x - lam A_W = (0.25, 0.25) away from stationary.
    _perturb_face_factors(monkeypatch, lambda Aw, N, M, P: (Aw, N, 0.5 * M, P))
    with pytest.raises(DidNotConverge, match=r"infeasibility 0\.000e\+00, off-face 0\.000e\+00, "
                                             r"stationarity 3\.536e-01\)"):
        TRIANGLE.project((1.0, 1.0))


def test_polytope_projection_of_non_finite_points():
    # As every shape's projection, the KKT check lets NaN through: a NaN
    # coordinate gives NaN, and an infinite one inf and NaN (I @ r holds
    # 0 * inf), each at distance NaN.  A finite point far out still fails
    # the check, its squared length overflowing the blocking floor to inf.
    with np.errstate(all="ignore"):
        p, d = TRIANGLE.project_with_distance((math.nan, 0.0))
        assert np.isnan(p).all() and math.isnan(d)
        p, d = TRIANGLE.project_with_distance((math.inf, 0.0))
        assert p[0] == math.inf and math.isnan(p[1]) and math.isnan(d)
        with pytest.raises(DidNotConverge, match="KKT"):
            TRIANGLE.project_with_distance((1e300, 1e300))


@st.composite
def _polytope_projections(draw):
    """(polytope, U, motion, budget, y, tol): a random 1-D, 2-D or 3-D
    polytope (in 1-D an interval or a half-line, where every product over the
    space dimension has an inner dimension of 1), some with two faces 1e-9
    rad apart (parallel in 1-D); the rows U of a _moved table of its
    translates (one factor cache), or a rigid motion (Q, u) of it, or neither;
    a step budget of 1 or 2 in place of its own (None: its own, always under a
    motion); and a point inside, on a face, at a vertex, far out (up to 1e300)
    or not finite."""
    dim = draw(st.integers(1, 3))
    vector = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array)
    normals = draw(st.lists(vector.filter(lambda a: norm(a) > 0.1), min_size=1, max_size=6))
    if draw(st.booleans()):  # a near-parallel twin of the first face
        a = normals[0] / norm(normals[0])
        normals.append(a + 1e-9 * np.roll(a, 1) * (1.0, -1.0, 0.0)[:dim])
    normals = [a / norm(a) for a in normals]
    interior = 2.0 * draw(vector)
    margins = draw(st.lists(st.floats(1e-3, 2.0), min_size=len(normals), max_size=len(normals)))
    shape = Polytope(normals, [a @ interior + m for a, m in zip(normals, margins)], interior)
    A, b = shape.normals, shape.offsets
    z = interior + draw(st.sampled_from((0.01, 1.0, 3.0))) * draw(vector)
    where = draw(st.sampled_from(("inside", "face", "vertex", "far", "non-finite")))
    if where == "face":
        i = draw(st.integers(0, len(b) - 1))
        z = z - (A[i] @ z - b[i]) * A[i]
    elif where == "vertex" and len(b) >= dim:
        faces = draw(st.permutations(range(len(b))))[:dim]
        with np.errstate(all="ignore"):  # subnormal normals
            if abs(np.linalg.det(A[faces])) > 1e-6:
                z = np.linalg.solve(A[faces], b[faces])
    elif where == "far":
        z = interior + 10.0 ** draw(st.sampled_from((2, 5, 8, 150, 300))) * draw(vector)
    U = motion = None
    kind = draw(st.sampled_from(("plain", "translates", "rigid")))
    if kind == "translates":
        U = np.array(draw(st.lists(vector, min_size=1, max_size=4)))
    elif kind == "rigid":
        if dim == 1:  # a reflection, or none
            Q = np.array([[draw(st.sampled_from((1.0, -1.0)))]])
        else:
            Q = (rotation_matrix_2d(draw(st.floats(-4.0, 4.0))) if dim == 2
                 else np.linalg.qr(np.array([draw(vector) for _ in range(3)]) + 3.0 * np.eye(3))[0])
        motion = (Q, draw(vector))
        z = Q @ z + motion[1]
    if where == "non-finite":
        z[draw(st.integers(0, dim - 1))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    budget = None if motion else draw(st.sampled_from((None, None, 1, 2)))
    return shape, U, motion, budget, z, draw(st.sampled_from((sets_mod.CONTAINMENT_TOL, 0.0)))


@pytest.mark.parametrize("values", [[], [1.0], [-math.inf], [1.0, math.nan, 3.0],
                                    [3.0, 1.0, math.nan], [math.nan, math.inf]])
@pytest.mark.parametrize("start", [-math.inf, 0.0])
def test_peak_is_ndarray_max(values, start):
    # The KKT check's reduction over a short list: NaN wherever it stands.
    if values or start == 0.0:
        expected = np.max(np.array(values), initial=start)
        assert _same_bits([sets_mod._peak(values, start)], [expected])
        assert _same_bits([sets_mod._peak(values[::-1], start)], [expected])


_DOT_ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                          -5e-324, 2.2250738585072014e-308, 1.0, -1.0)),
                         st.floats())


@st.composite
def _dot_operands(draw):
    """(M, v): a matrix of 1 to 6 rows, or the transposed view of a square one
    (as a rotation's), or a vector, each with an inner dimension of 2 or 3,
    and a vector of that length; entries often ±0, ±inf, NaN or subnormal."""
    k = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("matrix", "transposed", "vector")))
    rows = {"matrix": draw(st.integers(1, 6)), "transposed": k, "vector": 1}[kind]
    M = np.array(draw(st.lists(_DOT_ENTRIES, min_size=rows * k, max_size=rows * k)))
    if kind != "vector":
        M = M.reshape(rows, k).T if kind == "transposed" else M.reshape(rows, k)
    return M, np.array(draw(st.lists(_DOT_ENTRIES, min_size=k, max_size=k)))


@settings(max_examples=400, deadline=None)
@given(_dot_operands())
@example((np.array([[math.inf, 1.0], [math.inf, 1.0]]), np.array([0.0, 1.0])))
@example((np.array([[-0.0, -0.0]]), np.array([1.0, 1.0])))
@example((np.array([5e-324, 1.0]), np.array([-5e-324, -0.0])))
def test_dot_is_matmul_bit_for_bit_on_an_inner_dimension_of_two_or_three(operands):
    # The polytope solve and a rigid image's pull-back take ndarray.dot for
    # their products over the space dimension, without matmul's dispatch: the
    # same bits, NaN payloads and signs of zero included.
    M, v = operands
    with np.errstate(all="ignore"):
        assert np.asarray(M.dot(v)).tobytes() == np.asarray(M @ v).tobytes()


# Where a product's inner dimension is 1 (the working-face count of a
# one-face solve, or the space dimension of an interval), ndarray.dot can give
# other bits than @; the comments record what numpy's dot gives, which nothing
# in sweepsolve reads.  P @ (A_W x - b_W), lam @ A_W and a rigid image's Q @ p
# keep @, and the frozen-reference solve is written with it, so only @'s bits
# are pinned (Q.dot(p) fails the frozen-reference test's reflected half-line).
@pytest.mark.parametrize("M, v, by_matmul", [
    ([[math.inf], [math.inf]], [0.0], [math.nan, math.nan]),  # dot: [0.0, 0.0]
    ([[-0.0]], [1.0], [0.0]),  # dot: [-0.0]
    ([[-1.0]], [0.0], [0.0]),  # dot: [-0.0]
    ([[5e-324], [1.0]], [-5e-324], [0.0, -5e-324]),  # dot: [-0.0, -5e-324]
])
def test_matmul_bits_on_an_inner_dimension_of_one(M, v, by_matmul):
    with np.errstate(all="ignore"):
        assert _same_bits(np.array(M) @ np.array(v), by_matmul)


_QUADRANT = Polytope([[1.0, 0.0], [0.0, 1.0]], (1.0, 1.0), (0.0, 0.0))


def _outcome(call):
    """The type of the error that call raises, else the bytes of what it returns."""
    try:
        values = call()
    except SweepError as err:
        return type(err)
    return [v if isinstance(v, tuple) else np.asarray(v, dtype=float).tobytes() for v in values]


def _reference_solve(A, b, p, max_steps, y):
    x, work, lam = oracles.reference_polytope_solve(A, b, p, max_steps, y)
    return x, norm(y - x), work, lam


@settings(max_examples=300, deadline=None)
@given(_polytope_projections())
@example((TRIANGLE, None, None, None, np.array([3.0, -1.0]), sets_mod.CONTAINMENT_TOL))
# 1e8 out, the off-face residual is rounding near the tolerance, and a row of
# A x rounds apart from A_W x: the check must read A_W x itself.
@example((Polytope([[0.0, 0.0, 1.0], [math.cos(0.015), math.sin(0.015), 0.0]], (1.0, 1.375),
                   (0.0, 0.0, 0.0)), None, None, None, np.array([0.0, 1e8, 0.0]),
          sets_mod.CONTAINMENT_TOL))
@example((TRIANGLE, np.array([[0.5, 0.0], [0.0, -0.5]]), None, 1, np.array([1.0, 1.0]), 0.0))
# A y - b is [-inf, NaN] at (-inf, 0): NaN makes a non-member.  From (inf, 0)
# the first step I @ r is (inf, NaN), and NaN passes the check.
@example((_QUADRANT, None, None, None, np.array([-math.inf, 0.0]), sets_mod.CONTAINMENT_TOL))
@example((_QUADRANT, None, None, None, np.array([math.inf, 0.0]), sets_mod.CONTAINMENT_TOL))
@example((TRIANGLE, None, (rotation_matrix_2d(0.4), np.array([0.1, 0.0])), None,
          np.array([2.0, 2.0]), sets_mod.CONTAINMENT_TOL))
# The half-line x <= 0 turned by Q = -1 and moved by -0.0: (-1).dot(+0.0) is
# -0.0 where -1 @ +0.0 is +0.0, so the point mapped back reads -0.0 + -0.0.
@example((Polytope([[1.0]], [0.0], [-1.0]), None, (np.array([[-1.0]]), np.array([-0.0])), None,
          np.array([-2.0]), sets_mod.CONTAINMENT_TOL))
def test_polytope_projection_matches_the_frozen_reference_bit_for_bit(case):
    # _project_fields and _solve against the solve as it was written with a
    # separate KKT check: every iterate, multiplier and distance the same to
    # the bit, and every failure the same error.  Each row's stored slack is
    # its own b - A p, bit for bit.
    shape, U, motion, budget, y, tol = case
    A, max_steps = shape.normals, budget or shape._max_steps
    rows = [shape._row] if U is None else list(zip(*shape._moved(U).values()))
    for row in rows:
        _, b, p, slack = row[:4]
        row = (*row[:4], max_steps, row[5])
        assert type(slack) is tuple and np.array(slack).tobytes() == (b - A @ p).tobytes()
        with np.errstate(all="ignore"):
            if motion is None:
                got = _outcome(lambda: Polytope._project_fields(row, y, tol))
                want = _outcome(lambda: oracles.reference_polytope_project(A, b, p, max_steps,
                                                                           y, tol))
                q = y
            else:
                (Q, u), image = motion, RigidImage(shape, *motion)
                q = Q.T @ (y - u)
                got = _outcome(lambda: RigidImage._project_fields(image._row, y, tol))

                def pushed():
                    x, d = oracles.reference_polytope_project(A, b, p, max_steps, q, tol)
                    return (y.copy(), 0.0) if d == 0.0 else (Q @ x + u, d)

                want = _outcome(pushed)
            assert got == want
            assert (_outcome(lambda: Polytope._solve(row, q))
                    == _outcome(lambda: _reference_solve(A, b, p, max_steps, q)))


def test_polytope_projection_solves_once(monkeypatch):
    calls = []
    solve_once = Polytope._solve

    def counting(fields, y):
        calls.append(tuple(y))
        return solve_once(fields, y)

    monkeypatch.setattr(Polytope, "_solve", staticmethod(counting))
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
    # One _project_with_distance call both tests a draw and projects it when
    # rejected: one membership test per draw, however many are rejected.
    calls = []
    fused = Ball._project_with_distance

    def counting(self, y, *tol):
        calls.append(1)
        return fused(self, y, *tol)

    monkeypatch.setattr(Ball, "_project_with_distance", counting)
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


def _fields(shape):
    """The shape's field values in dataclass field order: its row."""
    return tuple(getattr(shape, f.name) for f in dataclasses.fields(shape))


def _old_project(shape, y, tol):
    """(projection, distance) as the membership test followed by the separate
    projection of a non-member, which evaluates the defining inequality, or
    pulls y back, once more; tol = -inf skips the test."""
    if shape.membership_defect(y) <= tol:
        return y.copy(), 0.0
    if isinstance(shape, RigidImage):
        p, d = _old_project(shape.base, shape.rotation.T @ (y - shape.translation), -math.inf)
        return shape.rotation @ p + shape.translation, d
    if isinstance(shape, HalfSpace):
        excess = max(float(shape.normal @ y) - shape.offset, 0.0)
        return y - excess * shape.normal, excess
    if isinstance(shape, (Ball, BallComplement)):
        d = y - shape.center
        dist = sets_mod.norm(d)
        if dist == 0.0:
            raise AtSingularity(shape.radius)
        if shape.radius * dist < sets_mod._TINY:  # radius * d would underflow: scale d first
            return shape.center + shape.radius * (d / dist), abs(dist - shape.radius)
        return shape.center + shape.radius * d / dist, abs(dist - shape.radius)
    if isinstance(shape, Box):
        p = np.clip(y, shape.lo, shape.hi)
    else:
        p = Polytope._solve(_fields(shape), y)[0]
    return p, sets_mod.norm(y - p)


def _old_distance(shape, y, tol):
    """The distance as the membership test followed by the separate distance
    of a non-member: a round shape's defect, else its projection's."""
    if shape.membership_defect(y) <= tol:
        return 0.0
    if isinstance(shape, RigidImage):
        return _old_distance(shape.base, shape.rotation.T @ (y - shape.translation), -math.inf)
    if isinstance(shape, (Ball, BallComplement)):
        return max(shape.membership_defect(y), 0.0)
    return _old_project(shape, y, -math.inf)[1]


_BIT_TAGS = ["halfspace", "ball", "ball_complement", "box", "polytope", "rigid_halfspace",
             "rigid_ball_complement", "rigid_polytope"]
_BIT_ROTATION = rotation_matrix_2d(0.9)


def _bit_case(tag, angle, shift, size, off):
    """A shape of the tag and a point off its boundary by off along the
    outward normal there (for the round shapes, off along the radius)."""
    u = np.array([math.cos(angle), math.sin(angle)])
    center = np.array([shift, 0.5 * shift])
    if tag == "halfspace":
        shape = HalfSpace(u, shift)
        return shape, shape.boundary_anchor() + size * np.array([-u[1], u[0]]) + off * u
    if tag in ("ball", "ball_complement"):
        shape = (Ball if tag == "ball" else BallComplement)(center, size)
        return shape, center + (size + off) * u
    # y0 is a non-member; its projection q lies on the boundary.
    if tag == "box":
        shape, y0 = Box(center, center + (size, 1.0)), center + 5.0 * u
    elif tag == "polytope":
        faces = (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0),
                 halfspace((1.0, 1.0), size))
        shape = polytope(faces, (0.2 * size, 0.2 * size)).translated(center)
        y0 = center + 5.0 * u
    elif tag == "rigid_halfspace":
        base = HalfSpace(u, shift)
        shape = RigidImage(base, _BIT_ROTATION, center)
        y0 = _BIT_ROTATION @ (base.boundary_anchor() + size * np.array([-u[1], u[0]]) + u) + center
    elif tag == "rigid_ball_complement":
        shape = RigidImage(BallComplement(center, size), _BIT_ROTATION, (0.3, -0.4))
        y0 = _BIT_ROTATION @ (center + 0.5 * size * u) + shape.translation
    else:
        shape, y0 = RigidImage(TRIANGLE, _BIT_ROTATION, center), center + 5.0 * u
    q, d = shape.project_with_distance(y0)
    return shape, q + off * (y0 - q) / d


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_BIT_TAGS),
    st.sampled_from([sets_mod.CONTAINMENT_TOL, 0.0]),
    st.floats(-3.2, 3.2),
    st.floats(-2.0, 2.0),
    st.floats(0.1, 3.0),
    st.one_of(st.floats(-3.0, 3.0), st.floats(-2e-10, 2e-10)),
)
@example("halfspace", 0.0, 0.3, 0.5, 1.0, 0.0)
@example("ball", sets_mod.CONTAINMENT_TOL, 1.0, -0.5, 2.0, 1e-10)
@example("ball_complement", sets_mod.CONTAINMENT_TOL, -2.0, 0.25, 0.5, -1e-10)
@example("box", sets_mod.CONTAINMENT_TOL, 0.2, 0.5, 1.0, 1.5e-10)
@example("polytope", 0.0, 0.8, -0.5, 2.0, 1e-12)
@example("rigid_halfspace", sets_mod.CONTAINMENT_TOL, -1.0, 1.0, 0.5, 5e-11)
@example("rigid_ball_complement", 0.0, 2.0, 0.0, 1.0, -1e-10)
@example("rigid_ball_complement", sets_mod.CONTAINMENT_TOL, 0.0, 0.0, 0.109375, 0.109375)
@example("rigid_polytope", sets_mod.CONTAINMENT_TOL, 0.8, 0.3, 1.0, -1e-10)
# The pull-back lands within underflow of the excluded-ball center, not on it,
# and within about 1e-308 of it, where radius * (y - center) would underflow.
@example("rigid_ball_complement", sets_mod.CONTAINMENT_TOL, 0.0, 4.084586445182003e-191,
         0.109375, 0.109375)
@example("rigid_ball_complement", sets_mod.CONTAINMENT_TOL, 0.0, 2.225073858507203e-309,
         0.109375, 0.109375)
# A non-member whose distance to the base polytope underflows when squared.
@example("rigid_polytope", 0.0, -1.0, 0.0, 1.0, 7.123514596902229e-172)
def test_closed_form_projection_is_the_old_test_then_project(tag, tol, angle, shift, size, off):
    # Each shape's one projection, and its class's _project_fields on the
    # shape's fields (solve's step), give, bit for bit, what the membership
    # test and the separate projection gave, also within 1e-10 of the
    # boundary where the tolerance decides; so does its distance.
    shape, y = _bit_case(tag, angle, shift, size, off)
    fields = _fields(shape)
    projections = (lambda: shape._project_with_distance(y, tol),
                   lambda: type(shape)._project_fields(fields, y, tol))
    dist, dist_old = shape._distance(y, tol), _old_distance(shape, y, tol)
    try:
        p_old, d_old = _old_project(shape, y, tol)
    except AtSingularity:
        # y landed on the excluded-ball center, at the distance _distance gives.
        for project in projections:
            with pytest.raises(AtSingularity) as err:
                project()
            assert err.value.distance == dist
    else:
        for project in projections:
            p, d = project()
            assert p.tobytes() == p_old.tobytes() and p is not y
            assert d == d_old and math.copysign(1.0, d) == math.copysign(1.0, d_old)
    assert dist == dist_old and math.copysign(1.0, dist) == math.copysign(1.0, dist_old)


@pytest.mark.parametrize("tag", _BIT_TAGS)
def test_projection_of_nan_is_at_distance_nan(tag):
    shape, _ = _bit_case(tag, 0.3, 0.5, 1.0, 0.0)
    y = np.array([math.nan, 0.2])
    for tol in (sets_mod.CONTAINMENT_TOL, 0.0):
        assert math.isnan(shape._distance(y, tol)) and math.isnan(_old_distance(shape, y, tol))
        assert math.isnan(shape._project_with_distance(y, tol)[1])


def test_rigid_image_returns_a_member_with_its_own_bits():
    moved = RigidImage(TRIANGLE, _BIT_ROTATION, (0.3, -0.4))
    rng = np.random.default_rng(5)
    # Members whose pull-back and push-forward round away from their bits.
    members = [y for y in rng.uniform(-0.5, 1.5, (200, 2)) if moved.membership_defect(y) <= 0.0]
    moved_bits = [y for y in members
                  if (_BIT_ROTATION @ moved._pull(moved.rotation, moved.translation, y)
                      + moved.translation).tobytes() != y.tobytes()]
    assert moved_bits
    for y in moved_bits:
        for tol in (sets_mod.CONTAINMENT_TOL, 0.0):
            p, d = moved._project_with_distance(y, tol)
            assert d == 0.0 and p.tobytes() == y.tobytes() and p is not y


def test_excluded_ball_center_has_a_distance_but_no_projection():
    bc = BallComplement((0.0, 0.0), 0.7)
    moved = RigidImage(bc, rotation_matrix_2d(0.4), (0.3, -0.2))
    # The rigid image pulls its translation back to the base's center exactly.
    for shape, center in ((bc, bc.center.copy()), (moved, moved.translation.copy())):
        for tol in (sets_mod.CONTAINMENT_TOL, 0.0):
            assert shape._distance(center, tol) == 0.7
            with pytest.raises(AtSingularity):
                shape._project_with_distance(center, tol)


@pytest.mark.parametrize("shape, y", [
    (Ball((0.0, 0.0), 1.0), (2.0, 0.5)),
    (BallComplement((0.0, 0.0), 1.0), (0.3, 0.1)),
    (Box((0.0, 0.0), (1.0, 1.0)), (2.0, 0.5)),
    (TRIANGLE, (1.0, 1.0)),
], ids=["ball", "ball_complement", "box", "polytope"])
def test_distance_of_a_non_member_evaluates_its_inequality_once(shape, y, monkeypatch):
    # The distance is its one projection's, which tests y and projects it
    # from one evaluation of the defining inequality.
    calls = []
    project = type(shape)._project_fields

    def counting(fields, z, tol):
        calls.append(1)
        return project(fields, z, tol)

    monkeypatch.setattr(type(shape), "_project_fields", staticmethod(counting))
    assert shape._distance(np.array(y)) > 0.0
    assert len(calls) == 1


def test_rigid_image_pulls_a_non_member_back_once(monkeypatch):
    calls = []
    pull = RigidImage._pull

    def counting(rotation, translation, y):
        calls.append(1)
        return pull(rotation, translation, y)

    monkeypatch.setattr(RigidImage, "_pull", staticmethod(counting))
    y = np.array([3.0, 2.0])
    for base in (Ball((0.0, 0.0), 1.0), TRIANGLE):
        moved = RigidImage(base, rotation_matrix_2d(0.4), (0.3, -0.2))
        fields = (moved.base, moved.rotation, moved.translation)
        for call in (lambda: moved._project_with_distance(y)[1], lambda: moved._distance(y),
                     lambda: RigidImage._project_fields(fields, y, sets_mod.CONTAINMENT_TOL)[1]):
            calls.clear()
            assert call() > 0.0
            assert len(calls) == 1


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
    poly = polytope(faces, (0.2, 1.0))
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
    poly = polytope(faces, (-1.8, -1.8))
    for x in (0.1, 0.5, 1.0):
        assert np.linalg.norm(poly.project((x, 2.0)) - (x, 0.5)) <= 1e-12


def test_polytope_agrees_with_cube_closed_form():
    # The same in 3-D: six half-spaces against the clipping box.
    lo, hi = np.array([-0.5, 0.0, -1.0]), np.array([1.0, 2.0, 0.25])
    faces = tuple(halfspace(tuple(e), h) for e, h in zip(np.eye(3), hi))
    faces += tuple(halfspace(tuple(-e), -l) for e, l in zip(np.eye(3), lo))
    poly = polytope(faces, (0.2, 1.0, -0.3))
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
        polytope((halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0)), (1.0, 1.0)),
        (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)),
    ),
    "duplicated_face": (
        polytope(TRIANGLE.faces + (halfspace((1.0, 1.0), 1.0),), (0.2, 0.2)),
        oracles.TRIANGLE_FACES + (oracles.TRIANGLE_FACES[2],),
    ),
    "redundant_face": (
        polytope(TRIANGLE.faces + (halfspace((2.0, 1.0), 2.0),), (0.2, 0.2)),
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


@st.composite
def _polygon_distance_rows(draw):
    """(shape, faces, P): a bounded polygon of 3 to 7 faces whose unit normals
    lie around a center (k-ths of a turn jittered by a fifth of one, so the
    normals leave no gap of pi), or a rigid image of one, with faces its
    (normal, offset) pairs in the world frame, and 1 to 6 points, each inside,
    on a face line, at a vertex or up to 1e3 out."""
    center = draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array))
    k = draw(st.integers(3, 7))
    faces = []
    for i in range(k):
        a = 2.0 * math.pi * (i + draw(st.floats(-0.2, 0.2))) / k
        normal = (math.cos(a), math.sin(a))
        faces.append((normal, normal[0] * center[0] + normal[1] * center[1]
                      + draw(st.floats(0.01, 3.0))))
    shape = polytope([halfspace(a, b) for a, b in faces], center)
    assert shape.vertices() is not None
    if draw(st.booleans()):
        Q = rotation_matrix_2d(draw(st.floats(-3.2, 3.2)))
        u = draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array))
        shape = RigidImage(shape, Q, u)
        faces = [(tuple(Q @ a), b + float((Q @ a) @ u)) for a, b in faces]
        center = Q @ center + u
    A, b = (np.array(v, dtype=float) for v in zip(*faces))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        v = center + np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))]) \
            * draw(st.sampled_from((1e-2, 1.0, 10.0, 1e3)))
        where = draw(st.sampled_from(("point", "face", "vertex")))
        if where == "face":
            i = draw(st.integers(0, k - 1))
            v = v - (A[i] @ v - b[i]) * A[i]
        elif where == "vertex":
            i, j = draw(st.permutations(range(k)))[:2]
            if abs(np.linalg.det(A[[i, j]])) > 1e-6:
                v = np.linalg.solve(A[[i, j]], b[[i, j]])
        points.append(v)
    return shape, faces, np.array(points)


@settings(max_examples=300, deadline=None)
@given(_polygon_distance_rows())
# On the line x = 0 and 1e-17 below the face y >= 0: the foot on x = 0 is v
# itself, inside every face up to rounding, yet v is no member.
@example((TRIANGLE, oracles.TRIANGLE_FACES, np.array([[0.0, -1e-17], [0.0, 0.5]])))
def test_polygon_distances_are_the_oracle_distances(case):
    # The excess rules read a polygon's distances from one array pass:
    # within rounding of the oracle's, and exactly 0 where, and only where,
    # every defining inequality holds, as _defects tests it.  The allowance
    # is 1e-15 of the size of <a, v> - b: the oracle's world-frame faces are
    # rounded too, and the active-set solve is off by up to about 1.8e-15 of
    # |v| alone.  The oracle decides membership exactly, so a face point made
    # from a far one, which may lie 1e-14 out, has its own small distance.
    shape, faces, P = case
    dists = shape._distances(P)
    assert dists.shape == (len(P),)
    offsets = max(abs(b) for _, b in faces)
    for v, d in zip(P, dists.tolist()):
        oracle, size = oracles.polygon_distance(faces, v), max(1.0, np.abs(v).max() + offsets)
        assert abs(d - oracle) <= 1e-15 * size
    members = np.array([shape.membership_defect(v) <= 0.0 for v in P])
    assert ((dists == 0.0) == members).all()
    assert all(shape._distance(v, 0.0) == 0.0 for v in P[members])


@st.composite
def _solved_distance_rows(draw):
    """(shape, P): a polytope that keeps the active-set solve, 2-D with its
    normals within less than a half-turn (unbounded) or 3-D, or a rigid image
    of a 2-D one, and 1 to 5 points near it or up to 1e8 out."""
    dim = draw(st.integers(2, 3))
    if dim == 2:
        spread = draw(st.sampled_from((0.5, 0.9)))  # of a half-turn
        angles = draw(st.lists(st.floats(0.0, spread * math.pi), min_size=1, max_size=4))
        turn = draw(st.floats(-3.2, 3.2))
        normals = [(math.cos(a + turn), math.sin(a + turn)) for a in angles]
    else:
        vector = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)
        normals = [a / norm(a) for a in draw(st.lists(vector.filter(lambda a: norm(a) > 0.1),
                                                      min_size=1, max_size=5))]
    center = np.array(draw(st.tuples(*[st.floats(-2.0, 2.0)] * dim)))
    shape = polytope([halfspace(a, float(np.array(a) @ center) + draw(st.floats(0.01, 2.0)))
                      for a in normals], center)
    assume(shape.vertices() is None)
    if dim == 2 and draw(st.booleans()):
        shape = RigidImage(shape, rotation_matrix_2d(draw(st.floats(-3.2, 3.2))),
                           np.array(draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))))
    offsets = st.tuples(*[st.floats(-1.0, 1.0)] * dim).map(np.array)
    scale = st.sampled_from((1e-2, 1.0, 10.0, 1e3, 1e8))
    k = draw(st.integers(1, 5))
    return shape, np.array([center + draw(offsets) * draw(scale) for _ in range(k)])


@settings(max_examples=200, deadline=None)
@given(_solved_distance_rows())
def test_solved_polytope_distances_are_the_per_row_distances_bit_for_bit(case):
    # Off a bounded polygon, _distances is _distance(v, 0.0) per row (a rigid
    # image's rows pulled back as each alone): the same bits, or the same error.
    shape, P = case
    try:
        expected = [shape._distance(v, 0.0) for v in P]
    except DidNotConverge:
        with pytest.raises(DidNotConverge):
            shape._distances(P)
        return
    assert _same_bits(shape._distances(P), expected)


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


# The hooks ProxSet leaves abstract, with the number of arguments after self
# (or cls, for a class method).
_ABSTRACT_HOOKS = {"_defects": 2, "_project_fields": 3, "_normal_defects": 4,
                   "_moved": 1, "to_dict": 0, "from_dict": 1}

# The operations ProxSet writes once over a slice's own row, and the classes
# allowed to define each: a rigid image measures through its base, sparing
# the excess rules a push-forward per vertex.
_ROW_OPERATIONS = {"_project_with_distance": {sets_mod.ProxSet},
                   "membership_defect": {sets_mod.ProxSet},
                   "_normal_defect": {sets_mod.ProxSet},
                   "_distance": {sets_mod.ProxSet, RigidImage}}


def test_every_registered_shape_defines_every_abstract_hook():
    # A shape that inherited one would raise NotImplementedError at its first
    # use, say its first projection in solve.
    for hook, count in _ABSTRACT_HOOKS.items():
        bound = isinstance(vars(sets_mod.ProxSet)[hook], classmethod)
        with pytest.raises(NotImplementedError):
            getattr(sets_mod.ProxSet, hook)(*[None] * (count + (not bound)))
    for cls in sets_mod.SHAPES.values():
        for hook in _ABSTRACT_HOOKS:
            owner = next(k for k in cls.__mro__ if hook in vars(k))
            assert owner is not sets_mod.ProxSet, f"{cls.__name__} inherits ProxSet.{hook}"


def test_each_operation_on_a_slice_has_one_implementation():
    # No shape, nor any class between it and ProxSet, brings back a second
    # projection, distance or bound beside the one over its row.
    for hook, allowed in _ROW_OPERATIONS.items():
        owners = {k for cls in sets_mod.SHAPES.values() for k in cls.__mro__ if hook in vars(k)}
        assert owners == allowed, hook


@pytest.mark.parametrize("tag", TAGS)
def test_to_dict_round_trip(tag):
    shape = SHAPE_BY_TAG[tag]
    doc = json.loads(json.dumps(shape.to_dict()))
    assert doc["shape"] == tag
    back = shape_from_dict(doc, "shape")
    assert type(back) is type(shape)
    assert back == shape


def _held(value):
    """value and every item of the tuples, lists and dicts it holds."""
    yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _held(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _held(item)


@pytest.mark.parametrize("tag", TAGS)
def test_moved_rows_hold_no_shape_but_a_rigid_image_base(tag):
    # A row of the field table holds arrays, numbers and a polytope's factor
    # cache, so building it builds no slice, nor a face of one; the one shape
    # a row may hold is the rigid image's base, shared by every row.
    assert set(TAGS) == set(sets_mod.SHAPES)
    shape = SHAPE_BY_TAG[tag]
    rows = shape._moved(np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.0]]))
    assert list(rows) == list(shape.__dataclass_fields__)
    for name, values in rows.items():
        assert len(values) == 3
        shapes = [v for v in _held(list(values)) if isinstance(v, sets_mod.ProxSet)]
        if (tag, name) == ("rigid_image", "base"):
            assert all(v is shape.base for v in shapes) and len(shapes) == 3
        else:
            assert shapes == [], name


def _refuse(self):
    raise AssertionError("translated ran a shape constructor's checks")


@pytest.mark.parametrize("tag", TAGS)
def test_translated_moves_every_distance(tag, monkeypatch):
    shape = SHAPE_BY_TAG[tag]
    u = np.array([0.7, -1.3])
    # One slice builder: every translate skips the constructors' checks ...
    with monkeypatch.context() as m:
        for cls in sets_mod.SHAPES.values():
            m.setattr(cls, "__post_init__", _refuse)
        moved = shape.translated(u)
    assert type(moved) is type(shape)
    # ... and still builds what the constructor builds from the moved fields.
    fields = {f.name: getattr(moved, f.name) for f in dataclasses.fields(moved) if f.init}
    rebuilt = type(shape)(**fields)
    assert moved == rebuilt
    rng = np.random.default_rng(11)
    for y in rng.normal(scale=2.0, size=(50, 2)):
        assert abs(moved.distance(y + u) - shape.distance(y)) <= 1e-12
        (p, d), (q, e) = moved.project_with_distance(y + u), rebuilt.project_with_distance(y + u)
        assert p.tobytes() == q.tobytes() and d == e


_scaled_floats = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300),
                           st.floats(-1e300, 1e300), st.sampled_from((0.0, -0.0, 5e-324)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
    st.floats(-1e3, 1e3),
    st.lists(st.lists(_scaled_floats, min_size=dim, max_size=dim), min_size=1, max_size=8))))
@example(([1.0], -0.0, [[-0.0]]))  # in 1-D, -0.0 + -0.0 * 1.0 is -0.0
def test_halfspace_moved_offsets_are_the_per_row_dots_bit_for_bit(case):
    # _moved reads every row's <normal, u> from one np.vecdot: each offset is
    # offset + float(normal.dot(u)), as for that u alone, tiny and huge u too.
    a, offset, U = case
    assume(norm(np.asarray(a)) > 1e-3)
    wall = halfspace(a, offset)
    U = np.array(U, dtype=float)
    with np.errstate(over="ignore"):  # a huge u may overflow to inf, on both sides
        expected = [wall.offset + float(wall.normal.dot(u)) for u in U]
        offsets = wall._moved(U)["offset"]
    assert [float.hex(o) for o in offsets] == [float.hex(e) for e in expected]


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
    far = shape.farthest_from(p)
    if tag not in ("ball", "box", "polytope"):
        assert far is None
        return
    point, exact = far
    assert np.linalg.norm(point - p) == pytest.approx(exact, abs=1e-12)
    brute = _brute_circumradius(shape, p)
    # Corners and vertices are exact; the sampled circle falls short by < R(1 - cos(pi/3600)).
    assert brute - 1e-12 <= exact <= brute + 1e-6


def test_circumradius_of_a_polytope_without_vertices():
    half_plane = polytope((halfspace((1.0, 0.0), 0.0),), (-1.0, 0.0))
    assert half_plane.farthest_from(np.zeros(2)) is None


@pytest.mark.parametrize("faces, interior, bounded", [
    pytest.param((((0, -1), 0), ((-1, 0), 0), ((1, 1), 1)), (0.2, 0.2), True, id="triangle"),
    pytest.param((((0, -1), 0), ((-1, 0), 0), ((1, 0), 1), ((0, 1), 1)), (0.5, 0.5), True,
                 id="square"),
    pytest.param((((1, 0), 0), ((0, 1), 0)), (-1, -1), False, id="wedge"),
    pytest.param((((1, 0), 0), ((-1, 0), 1)), (-0.5, 0), False, id="strip"),
    pytest.param((((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)), (0, 0), False, id="three-face-slab"),
])
def test_circumradius_is_finite_exactly_for_bounded_polytopes(faces, interior, bounded):
    shape = polytope(tuple(halfspace(a, b) for a, b in faces), interior)
    pivot = np.array([0.5, 0.5])
    far = shape.farthest_from(pivot)
    if bounded:
        corners = shape.vertices()
        point, distance = far
        assert distance == max(math.dist(v, pivot) for v in corners)
        assert np.linalg.norm(point - pivot) == pytest.approx(distance, abs=1e-12)
    else:
        assert far is None


@pytest.mark.parametrize("tag", TAGS)
def test_excess_method_for_same_type_pairs(tag):
    shape = SHAPE_BY_TAG[tag]
    # A translate keeps half-spaces parallel and boxes of equal extents.
    shift = np.array([0.2, 0.1])
    est = excess(shape, shape.translated(shift))
    assert est.method == "analytic"
    assert est.lower == est.upper
    if tag in ("polytope", "rigid_image"):
        # The vertex rule: a convex body sticks out of its translate by |shift|.
        oracle = oracles.cloud_excess(_BOUNDARY[tag], _oracle_distance(tag, shift))
        assert est.lower == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(math.hypot(0.2, 0.1), abs=1e-12)


# Mixed pairs that were once only sampled, each checked against the oracles.
_ORACLE_PAIRS = [("ball", "box"), ("box", "polytope"), ("ball", "ball_complement"),
                 ("polytope", "rigid_image"), ("halfspace", "ball")]


@pytest.mark.parametrize("a, b", itertools.product(TAGS, TAGS))
def test_excess_method_for_every_pair(a, b):
    """Every ordered pair has an exact rule; none is sampled."""
    A, B = SHAPE_BY_TAG[a], SHAPE_BY_TAG[b]
    est = excess(A, B)
    assert est.method == "analytic"
    assert est.lower == est.upper
    if (a, b) == ("ball", "halfspace"):
        # The center lies in the half-space: the probe along its normal.
        assert est.lower == pytest.approx(
            float(B.normal @ A.center) + A.radius - B.offset, abs=1e-12)
    if est.lower < math.inf:
        assert A.distance(est.witness) <= 1e-12
        assert B.distance(est.witness) == pytest.approx(est.lower, abs=1e-12)
    if (a, b) not in _ORACLE_PAIRS:
        return
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
    est = excess(HalfSpace((1.0, 0.0), 0.0), halfspace((1.0, 1e-7), 5.0))
    assert est.method == "interval" and est.upper == math.inf


@pytest.mark.parametrize("B, expected, far", [
    pytest.param(polytope((halfspace((1.0, 0.0), 0.0),), (-1.0, 0.0)), 0.3, None, id="one-face"),
    # Members of A far from B: up the face x_2 <= 0, or left past x_1 >= -1.
    pytest.param(polytope((halfspace((1.0, 0.0), 0.0), halfspace((0.0, 1.0), 0.0)), (-1.0, -1.0)),
                 math.inf, (0.0, 1e9), id="wedge"),
    pytest.param(polytope((halfspace((1.0, 0.0), 0.0), halfspace((-1.0, 0.0), 1.0)), (-0.5, 0.0)),
                 math.inf, (-1e9, 0.0), id="strip"),
    pytest.param(RigidImage(HalfSpace((1.0, 0.0), 0.0), rotation_matrix_2d(0.3), (0.0, 0.0)),
                 math.inf, (0.0, 1e9), id="rotated-halfspace"),
])
def test_a_half_space_over_an_unbounded_convex_set_is_exact(B, expected, far):
    A = HalfSpace((1.0, 0.0), 0.3)
    est = excess(A, B)
    assert est.method == "analytic" and est.lower == est.upper
    assert est.lower == pytest.approx(expected, abs=1e-12)
    if far is not None:
        assert np.isnan(est.witness).all()
        assert A.contains(far) and B.distance(far) > 1e8
    else:
        # Every point of A's boundary x_1 = 0.3 is 0.3 from B.
        assert A.distance(est.witness) == 0.0
        assert oracles.polygon_distance([((1.0, 0.0), 0.0)], est.witness) == pytest.approx(
            0.3, abs=1e-12)


def test_leftover_pairs_are_deterministic_lower_bounds():
    # An unbounded polyhedron over an unbounded convex set (the wedge lies in
    # the half-plane: excess 0), and a 3-D polytope, the cube, whose corners
    # are sqrt(3) - 1 out of the unit ball.  No rule covers either: the lower
    # end is the distance of the cube's point nearest the origin, 0.
    wedge = polytope((halfspace((1.0, 0.0), 0.0), halfspace((0.0, 1.0), 0.0)), (-1.0, -1.0))
    cube = polytope(tuple(halfspace(a, 1.0) for a in np.vstack([np.eye(3), -np.eye(3)])),
                    (0.0, 0.0, 0.0))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    for A, B, oracle in (
            (wedge, halfspace((1.0, 1.0), 0.5), 0.0),
            (cube, Ball((0.0, 0.0, 0.0), 1.0),
             oracles.cloud_excess(corners, lambda v: oracles.ball_distance(np.zeros(3), 1.0, v)))):
        est = excess(A, B)
        assert est.method == "interval" and est.upper == math.inf
        assert 0.0 <= est.lower <= oracle
        assert A.contains(est.witness) and B._distance(est.witness, 0.0) == est.lower
    assert excess(cube, Ball((0.0, 0.0, 0.0), 1.0)).lower == 0.0


def test_an_excluded_center_at_the_origin_gives_a_point_of_its_sphere():
    # The leftover pairs read A's point nearest the origin; a ball complement
    # centered there has none, so the rule steps off the center, as
    # BallComplement.excess_of does at the center of an excluded ball.
    A = BallComplement((0.0, 0.0), 0.5)
    B = RigidImage(BallComplement((0.2, 0.0), 1.0), rotation_matrix_2d(0.3), (0.0, 0.1))
    est = excess(A, B)
    assert est.method == "interval" and est.upper == math.inf
    assert est.witness.tolist() == [0.5, 0.0]
    c = rotation_matrix_2d(0.3) @ np.array([0.2, 0.0]) + np.array([0.0, 0.1])
    assert est.lower == pytest.approx(oracles.complement_distance(c, 1.0, (0.5, 0.0)), abs=1e-15)


def test_no_excess_path_samples(monkeypatch):
    # sample_points serves only the normal audit: every excess, the pairs no
    # rule covers included, each bundled family's modulus audit and the jump
    # check of jump_expansion (run as its family is built) draw nothing.
    sampled = []
    monkeypatch.setattr(sets_mod, "sample_points", lambda *args: sampled.append(args))
    assert not hasattr(families_mod, "sample_points")
    leftover = [
        (polytope((halfspace((1.0, 0.0), 0.0), halfspace((0.0, 1.0), 0.0)), (-1.0, -1.0)),
         halfspace((1.0, 1.0), 0.5)),
        (polytope(tuple(halfspace(a, 1.0) for a in np.vstack([np.eye(3), -np.eye(3)])),
                  (0.0, 0.0, 0.0)), Ball((0.0, 0.0, 0.0), 1.0)),
        (HalfSpace((1.0, 0.0), 0.0), halfspace((1.0, 1e-7), 5.0)),
        *((A, RigidImage(BallComplement((0.2, 0.0), 1.0), rotation_matrix_2d(0.3), (0.0, 0.1)))
          for A in SHAPE_BY_TAG.values()),
    ]
    pairs = [*itertools.product(SHAPE_BY_TAG.values(), repeat=2), *leftover]
    assert all(excess(A, B).method in ("analytic", "interval") for A, B in pairs)
    assert [excess(A, B).method for A, B in leftover] == ["interval"] * len(leftover)
    for name, _ in list_builtins():
        assert families_mod.validate_analytic_modulus(load_builtin(name).family, pairs=20) <= 1e-9
    jumps, excess_of = [], families_mod.excess
    monkeypatch.setattr(families_mod, "excess", lambda A, B: jumps.append(B) or excess_of(A, B))
    load_builtin("jump_expansion")
    assert len(jumps) == 1 and sampled == []


def test_rigid_image_rejects_non_finite_motion():
    with pytest.raises(ValueError, match="finite"):
        RigidImage(Ball((0.0, 0.0), 1.0), ((math.nan, 0.0), (0.0, 1.0)), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        RigidImage(Ball((0.0, 0.0), 1.0), rotation_matrix_2d(0.3), (math.inf, 0.0))


# Two faces about 1e-9 rad apart meet at the origin; their Gram matrix is
# singular in double precision, so the working faces are factored by QR.
NEAR_PARALLEL = polytope(
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
# The window of each shape whose points w the test draws: around a ball or a
# box by 0.5, around the triangle's corners, a rotated copy's bounding box,
# 1.5 around the half-plane's boundary anchor and 2.5 radii plus 0.5 around
# the excluded ball.
DEPTH_WINDOWS = {
    "halfspace": ((-1.4, -1.3), (1.6, 1.7)),
    "ball": ((-1.0, -1.5), (1.6, 1.1)),
    "box": ((-1.0, -0.5), (1.5, 0.9)),
    "polytope": ((-0.5, -0.5), (1.5, 1.5)),
    "ball_complement": ((-1.9, -1.8), (2.1, 2.2)),
    "rigid_image": ((-0.9487476244987808, -0.8045299372610898),
                    (1.869372124545578, 2.013589811783269)),
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
    lo, hi = map(np.array, DEPTH_WINDOWS[tag])
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


_ANGLE = st.floats(0.0, 2.0 * math.pi)
_POINT = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array)


def _unit(angle):
    return np.array([math.cos(angle), math.sin(angle)])


@st.composite
def _polyhedral_audits(draw):
    """(shape, x, n): a 2-D half-space, box or polytope around a point, or a
    rigid image of one, with x the projection of a random point (on the
    boundary when that point is outside) and a vector n.  A polytope has 1 to
    6 faces whose normals are at least about 0.12 rad apart (sixths of a turn
    jittered by 0.2), so no pair of its faces is nearly parallel."""
    kind = draw(st.sampled_from(("halfspace", "box", "polytope")))
    center = draw(_POINT)
    if kind == "halfspace":
        normal = _unit(draw(_ANGLE))
        shape = halfspace(normal, float(normal @ center))
    elif kind == "box":
        widths = draw(st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)).map(np.array))
        shape = Box(center - widths, center + widths)
    else:
        sixths = draw(st.sets(st.integers(0, 11), min_size=1, max_size=6))
        faces = []
        for i in sorted(sixths):
            normal = _unit(i * math.pi / 6.0 + draw(st.floats(-0.2, 0.2)))
            faces.append(halfspace(normal, float(normal @ center) + draw(st.floats(0.01, 5.0))))
        shape = polytope(faces, center)
    if draw(st.booleans()):
        shape = RigidImage(shape, rotation_matrix_2d(draw(_ANGLE)), draw(_POINT))
    x = shape.project(2.0 * draw(_POINT))
    n = draw(_POINT) * draw(st.sampled_from((1e-3, 0.1, 1.0)))
    return shape, x, n


@settings(max_examples=150, deadline=None)
@given(_polyhedral_audits())
@example((TRIANGLE, np.array([1.0, 0.0]), np.array([0.01 * SQRT2_INV, 0.01 * (SQRT2_INV - 1.0)])))
def test_exact_audit_lies_between_the_sampled_residual_and_the_bound(case):
    # The residual at the vertices of slice and window is its maximum over the
    # window's members: at most the closed-form bound over the wider ball of
    # radius NORMAL_WINDOW sqrt(2), and at least the residual at every sampled
    # member that lies in the window, up to the rounding of the residuals,
    # 64 eps |n| (1 + |x| + NORMAL_WINDOW) (the worst seen is about 1 eps).
    shape, x, n = case
    halfwidth = NORMAL_WINDOW
    audit = sets_mod.window_residual(shape, x, n, halfwidth, 60, seed=0)
    assert audit.kind == "exact" and audit.samples >= 3  # vertices, none sampled
    exact = audit.worst_residual
    assert exact <= shape.normal_defect(x, n, halfwidth)
    lo, hi = x - halfwidth, x + halfwidth
    z = [q for q in sample_points(shape, (lo, hi), 60, seed=0) if ((lo <= q) & (q <= hi)).all()]
    sampled = sets_mod._normal_residual(shape, x, n, z).worst_residual
    allowance = 64 * np.finfo(float).eps * norm(n) * (1.0 + norm(x) + halfwidth)
    assert exact >= sampled - allowance


def test_polytope_normal_defect_uses_the_active_face_multipliers(monkeypatch):
    # At the vertex (1, 0) the normal cone is spanned by (0, -1) and (1, 1):
    # their sum is a normal, certified by the multipliers of the two faces
    # active there, with no solve.
    calls = []
    solve_once = Polytope._solve

    def counting(fields, y):
        calls.append(tuple(y))
        return solve_once(fields, y)

    monkeypatch.setattr(Polytope, "_solve", staticmethod(counting))
    n = np.array([0.0, -1.0]) + np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert TRIANGLE.normal_defect((1.0, 0.0), 0.01 * n, 3.0) <= 1e-14
    assert calls == []
    # x + n inside the set: lam = 0 and the bound is |n| R, with no solve.
    bound = TRIANGLE.normal_defect((0.5, 0.5), (-0.1, -0.1), 3.0)
    assert bound == pytest.approx(0.1 * math.sqrt(2.0) * 3.0 * math.sqrt(2.0))
    assert calls == []
    # n off the span of the one face active at (0.5, 0): one solve at x + n,
    # which lands on that face with lam = 0.05, leaving |n - lam a| R.
    bound = TRIANGLE.normal_defect((0.5, 0.0), (0.05, -0.05), 3.0)
    assert bound == pytest.approx(0.05 * 3.0 * math.sqrt(2.0))
    assert len(calls) == 1


# The scalar bounds that _normal_defects evaluates over rows, one row at a
# time, written as plain per-step code: the reference the rows must match
# bit for bit.
def _halfspace_defect(normal, offset, x, n, R):
    lam = max(float(n @ normal), 0.0)
    value = lam * (offset - float(normal @ x)) + norm(n - lam * normal) * R
    return value + sets_mod._rounding(len(x), norm(n) * (R + abs(offset) + norm(x)))


def _ball_defect(center, radius, x, n, R):
    v = x - center
    dist = norm(v)
    u = v / dist if dist > 0 else np.zeros(len(x))
    s = max(float(n @ u), 0.0)
    value = s * (radius - dist) + norm(n - s * u) * R
    return value + sets_mod._rounding(len(x), norm(n) * (R + dist + radius))


def _complement_defect(center, radius, x, n, R):
    v = center - x
    dist = norm(v)
    n_norm = norm(n)
    R = max(R, dist + radius)
    value = n_norm * R
    if dist > 0:
        u = v / dist
        s = max(float(n @ u), 0.0)
        curvature = max(s / (2.0 * dist) - n_norm / (2.0 * radius), 0.0)
        value = (s * (dist - radius) * (dist + radius) / (2.0 * dist)
                 + norm(n - s * u) * R + curvature * R * R)
    return value + sets_mod._rounding(len(x), n_norm * R * (1.0 + R / radius))


def _box_defect(lo, hi, x, n, R):
    room = np.where(n >= 0.0, hi - x, x - lo)
    value = float(np.abs(n) @ np.minimum(room, R))
    return value + sets_mod._rounding(len(x), norm(n) * R * len(x))


def _polytope_defect(normals, offsets, interior, slack, max_steps, factors, x, n, R):
    # The least-norm multipliers of the faces active at x where they fit n,
    # else those of the projection of x + n (none when it is a member).
    A, b, y = normals, offsets, x + n
    fields = (A, b, interior, slack, max_steps, factors)
    work = tuple(np.flatnonzero(b - A @ x <= sets_mod.CONTAINMENT_TOL).tolist())
    lam = None
    if 0 < len(work) <= len(x):
        try:
            lam = Polytope._working_faces(fields, work)[2] @ n
        except DidNotConverge:
            pass
    allowance = sets_mod._rounding(len(x), norm(x) + norm(n))
    if lam is None or not (lam >= 0.0).all() or norm(n - lam @ A[list(work)]) > allowance:
        work, lam = (), np.zeros(0)
        if float(np.max(A @ y - b)) > sets_mod.CONTAINMENT_TOL:
            _, _, work, lam = Polytope._solve(fields, y)
    Aw, bw = A[list(work)], b[list(work)]
    value = float(lam @ (bw - Aw @ x)) + norm(n - lam @ Aw) * R
    scale = norm(n) * R + float(lam.sum()) * (R + norm(x) + float(np.abs(bw).sum()))
    return value + sets_mod._rounding(len(x), scale)


_SCALAR_DEFECTS = {HalfSpace: _halfspace_defect, Ball: _ball_defect,
                   BallComplement: _complement_defect, Box: _box_defect,
                   Polytope: _polytope_defect}

# Components over exponents 10^-8..10^8, near 1e-160 (squares that underflow
# in norm), signed zeros and non-finite values.
_COMPONENT = st.one_of(
    st.floats(-1e8, 1e8, allow_subnormal=False).filter(lambda v: v == 0.0 or abs(v) >= 1e-8),
    st.floats(1e-162, 1e-158).flatmap(lambda v: st.sampled_from((v, -v))),
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)),
)
# Finite components for the polytope, whose active-set solve certifies its
# multipliers to an absolute tolerance: trajectories are finite.
_FINITE_COMPONENT = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(1e-162, 1e-158).flatmap(lambda v: st.sampled_from((v, -v))),
    st.sampled_from((0.0, -0.0)),
)


@st.composite
def _defect_rows(draw):
    """(shape class, rows, X, N, R): rows of one shape's fields (triangle
    translates for the polytope), some with x at a center or within about
    1e-160 of it."""
    cls = draw(st.sampled_from(sorted(_SCALAR_DEFECTS, key=lambda c: c.tag)))
    dim = 2 if cls is Polytope else draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    component = _FINITE_COMPONENT if cls is Polytope else _COMPONENT
    vec = st.lists(component, min_size=dim, max_size=dim).map(np.array)
    finite = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim).map(np.array)
    X, N, rows = [], [], {}
    for _ in range(k):
        anchor = draw(finite)
        offset = draw(st.one_of(vec, st.just(np.zeros(dim))))
        X.append(anchor + offset)
        N.append(draw(vec))
        if cls is HalfSpace:
            normal = draw(finite.filter(lambda a: norm(a) > 1e-3))
            shape = halfspace(normal, float(normal @ anchor))
        elif cls is Box:
            widths = st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim).map(np.array)
            shape = Box(anchor - draw(widths), anchor + draw(widths))
        elif cls is Polytope:
            shape = TRIANGLE.translated(anchor)
        else:
            shape = cls(anchor, draw(st.floats(1e-3, 1e3)))
        for name in shape.__dataclass_fields__:
            rows.setdefault(name, []).append(getattr(shape, name))
    return cls, rows, np.array(X), np.array(N), draw(st.sampled_from((0.5, 3.0 * math.sqrt(dim))))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
        np.where(np.isnan(a), 0.0, a).view(np.int64), np.where(np.isnan(b), 0.0, b).view(np.int64))


@settings(max_examples=150, deadline=None)
@given(_defect_rows())
@example((Ball, {"center": [np.array([1e-160, 0.0])], "radius": [1.0]},
          np.array([[0.0, 0.0]]), np.array([[1.0, -0.0]]), 3.0))
@example((BallComplement, {"center": [np.array([0.5, 0.5])], "radius": [0.25]},
          np.array([[0.5, 0.5]]), np.array([[-0.0, 1e-160]]), 3.0))
# A normal at the vertex (1, 0), certified by the multipliers of its two
# active faces; then, at (0.5, 0) on one face, a vector off its span and an
# inward one, both bounded from the projection of x + n.
@example((Polytope, {name: [getattr(TRIANGLE, name)] * 3 for name in TRIANGLE.__dataclass_fields__},
          np.array([[1.0, 0.0], [0.5, 0.0], [0.5, 0.0]]),
          np.array([[0.01 * SQRT2_INV, 0.01 * (SQRT2_INV - 1.0)], [0.05, -0.05], [0.0, 0.1]]),
          3.0))
def test_closed_form_normal_defects_match_the_scalar_bounds_bit_for_bit(case):
    # Every shape's bound over rows against its per-step body.  The closed
    # forms get non-finite rows too, and must propagate inf and NaN as the
    # scalar bound does; the polytope's rows are finite.
    cls, rows, X, N, R = case
    with np.errstate(all="ignore"):  # the scalar bounds warn on inf - inf
        expected = [_SCALAR_DEFECTS[cls](*row, x, n, R)
                    for row, x, n in zip(zip(*rows.values()), X, N)]
    assert _same_bits(list(cls._normal_defects(rows, X, N, R)), expected)


def _defect_families():
    # One family of each registered shape (a rigid motion of the triangle too).
    path = LinearPath((0.0, 0.0), (0.3, -0.2))
    yield from (TranslateFamily(shape, path, 2.0) for shape in SHAPE_BY_TAG.values())
    yield RigidFamily(TRIANGLE, LinearPath(0.0, 0.8), (0.2, 0.2), 2.0)


@pytest.mark.parametrize("family", list(_defect_families()), ids=lambda f: f.kind)
def test_normal_defects_equal_the_per_slice_bounds(family):
    # certify_steps' one call per piece against each slice's normal_defect,
    # the same hook on the slice's own row: a bound may not depend on the
    # other rows of its piece.
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 2.0, 9)
    X, N = rng.normal(size=(9, 2)), 0.1 * rng.normal(size=(9, 2))
    X[1] = family.at(times[1]).project(X[1])
    [(cls, rows)] = family.slice_fields(times)
    bounds = list(cls._normal_defects(rows, X, N, 3.0 * math.sqrt(2.0)))
    expected = [s.normal_defect(x, n, 3.0) for s, x, n in zip(family.slices(times), X, N)]
    assert _same_bits(bounds, expected)
    # A piece of a piecewise family may hold no moving step.
    [(cls, rows)] = family.slice_fields(times[:0])
    assert list(cls._normal_defects(rows, X[:0], N[:0], 3.0)) == []


def _scalar_membership(shape, y):
    """The membership defect of y as each shape wrote it per slice, before
    the row hook: the reference _defects must match bit for bit."""
    if isinstance(shape, RigidImage):
        return _scalar_membership(shape.base, shape.rotation.T @ (y - shape.translation))
    if isinstance(shape, HalfSpace):
        return float(shape.normal @ y) - shape.offset
    if isinstance(shape, Box):
        return float(np.maximum(shape.lo - y, y - shape.hi).max())
    if isinstance(shape, Polytope):
        return float((shape.normals @ y - shape.offsets).max())
    return shape._sign * (norm(y - shape.center) - shape.radius)


# Bounded 2-D bases of the rigid-image rows, by case.
_RIGID_BASES = {"rigid_image": TRIANGLE, "rigid_box": Box((-0.5, 0.0), (1.0, 0.4)),
                "rigid_ball": Ball((0.3, -0.2), 0.8)}


@st.composite
def _membership_rows(draw):
    """(shape class, rows, P): k = 0 to 5 rows of one piece, either the
    _moved rows of a shape of every registered class (translates of the
    triangle for the polytope) or a rigid family's rows of the triangle, a
    box or a ball, and points near them, some far out or not finite."""
    case = draw(st.sampled_from(sorted(sets_mod.SHAPES) + ["rigid_box", "rigid_ball"]))
    k = draw(st.integers(0, 5))
    dim = 2 if case == "polytope" or case in _RIGID_BASES else draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3)
    vectors = st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=k, max_size=k)
    U = np.reshape(draw(vectors), (k, dim))
    if case in _RIGID_BASES:
        angle, spin, pivot, drift = (draw(st.floats(-4.0, 4.0)) for _ in range(4))
        family = RigidFamily(_RIGID_BASES[case], LinearPath(angle, spin), (pivot, -pivot), 1.0,
                             translation=LinearPath((0.0, drift), (drift, 1.0)))
        times = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
        [(cls, rows)] = family.slice_fields(times)
    else:
        cls = sets_mod.SHAPES[case]
        if cls is HalfSpace:
            shape = halfspace(draw(st.lists(coord, min_size=dim, max_size=dim).filter(
                lambda a: norm(np.array(a)) > 1e-3)), draw(coord))
        elif cls is Box:
            shape = Box(np.zeros(dim), draw(st.lists(st.floats(1e-3, 1e3), min_size=dim,
                                                    max_size=dim)))
        elif cls is Polytope:
            shape = TRIANGLE
        else:
            shape = cls(np.zeros(dim), draw(st.floats(1e-3, 1e3)))
        rows = shape._moved(U)
    # Points at each row's translate, offset by up to 1e3, exactly 0 (a
    # center), about 1e-160 (underflowing squares) or by a non-finite value.
    offset = st.one_of(st.floats(-1e3, 1e3), st.floats(1e-162, 1e-158),
                       st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)))
    offsets = st.lists(st.lists(offset, min_size=dim, max_size=dim), min_size=k, max_size=k)
    return cls, rows, U + np.reshape(draw(offsets), (k, dim))


@settings(max_examples=300, deadline=None)
@given(_membership_rows())
def test_row_defects_are_the_per_slice_defects_bit_for_bit(case):
    # solve reads each piece's residuals from _defects: each row's value must
    # be the slice's membership_defect and the defect that _project_fields
    # tests against its tol, bit for bit, NaN where it is NaN.
    cls, rows, P = case
    with np.errstate(all="ignore"):  # inf - inf and inf * 0 give NaN, as per slice
        defects = cls._defects(rows, P)
        slices = [cls._from_valid(row) for row in zip(*rows.values())]
        assert defects.shape == (len(P),)
        assert _same_bits(defects, [s.membership_defect(p) for s, p in zip(slices, P)])
        assert _same_bits(defects, [_scalar_membership(s, p) for s, p in zip(slices, P)])
    for row, p, d in zip(zip(*rows.values()), P, defects.tolist()):
        if 0.0 <= d < 1e6:  # a finite non-member: _project_fields tests it against tol = d
            assert cls._project_fields(row, p, d)[1] == 0.0
            if d > 0.0:
                try:
                    assert cls._project_fields(row, p, math.nextafter(d, 0.0))[1] > 0.0
                except AtSingularity:  # an excluded-ball center, at distance its radius
                    pass

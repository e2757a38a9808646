import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sweepsolve.errors import ModulusUnavailable, NoPositiveTau, OutOfRange
from sweepsolve.families import (
    Modulus,
    PiecewiseFamily,
    RadiusFamily,
    RigidFamily,
    TAU_MARGIN,
    SamplingBudget,
    TranslateFamily,
    build_schedule,
    compute_tau,
    excess,
    verify_inner_ball,
    validate_analytic_modulus,
)
from sweepsolve.paths import ConstantPath, LinearPath, PiecewisePath
from sweepsolve.sets import (
    Ball,
    BallComplement,
    Box,
    HalfSpace,
    Polytope,
    RigidImage,
    halfspace,
    rotation_matrix_2d,
)

import oracles


def sweep_family(horizon=2.0):
    # C(t) = {x_1 <= 1 - t}
    return TranslateFamily(
        HalfSpace((1.0, 0.0), 1.0), LinearPath((0.0, 0.0), (-1.0, 0.0)), horizon=horizon
    )


def drift_jump_family():
    center = LinearPath((0.0, 0.0), (0.1, 0.0))
    p1 = RadiusFamily(center=center, radius=LinearPath(1.0, -0.4), complement=False, horizon=1.0)
    p2 = RadiusFamily(center=center, radius=LinearPath(1.55, -0.55), complement=False, horizon=2.0)
    return PiecewiseFamily(pieces=((1.0, p1), (2.0, p2)))


def drift_nojump_family():
    center = LinearPath((0.0, 0.0), (0.1, 0.0))
    p1 = RadiusFamily(center=center, radius=LinearPath(1.0, -0.4), complement=False, horizon=1.0)
    p2 = RadiusFamily(center=center, radius=LinearPath(1.15, -0.55), complement=False, horizon=2.0)
    return PiecewiseFamily(pieces=((1.0, p1), (2.0, p2)))


class TestExcess:
    def test_ball_pair_analytic(self):
        est = excess(Ball((0.0, 0.0), 2.0), Ball((0.0, 0.0), 1.0))
        assert est.method == "analytic"
        assert est.lower == 1.0
        witness = est.witness
        assert np.linalg.norm(witness) == pytest.approx(2.0)

    def test_subset_gives_zero(self):
        assert excess(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 2.0)).lower == 0.0

    def test_parallel_halfspaces(self):
        est = excess(HalfSpace((1.0, 0.0), 0.0), HalfSpace((1.0, 0.0), -0.5))
        assert est.lower == 0.5

    def test_ball_formula_against_boundary_oracle(self):
        cases = [((0.0, 0.0), 2.0, (0.5, 0.3), 1.2), ((1.0, -1.0), 0.7, (0.8, -0.6), 0.9)]
        for cA, RA, cB, RB in cases:
            est = excess(Ball(cA, RA), Ball(cB, RB))
            oracle = oracles.ball_excess_boundary_oracle(cA, RA, cB, RB)
            assert est.lower == pytest.approx(oracle, abs=1e-6)

    def test_complement_formula_against_grid_oracle(self):
        cA, RA, cB, RB = (0.0, 0.0), 0.5, (0.3, 0.0), 0.5
        est = excess(BallComplement(cA, RA), BallComplement(cB, RB))
        oracle = oracles.complement_excess_grid_oracle(
            cA, RA, cB, RB, ((-1.5, -1.5), (1.5, 1.5))
        )
        assert est.method == "analytic"
        assert abs(est.lower - oracle) <= 5e-3
        assert est.lower == pytest.approx(0.3)

    def test_asymmetry_witness(self):
        inner, outer = Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 2.0)
        assert excess(inner, outer).lower == 0.0
        assert excess(outer, inner).lower == 1.0

    def test_triangle_inequality_on_analytic_triples(self):
        A, B, C = Ball((0.0, 0.0), 1.5), Ball((0.4, 0.0), 1.0), Ball((0.9, 0.2), 0.7)
        eAC = excess(A, C).lower
        eAB = excess(A, B).lower
        eBC = excess(B, C).lower
        assert eAC <= eAB + eBC + 1e-12

    def test_triangle_inequality_on_sampled_triples(self):
        from sweepsolve.sets import Polytope, halfspace

        tri = Polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        shifts = {"A": np.zeros(2), "B": np.array([0.1, 0.0]), "C": np.array([0.2, 0.1])}
        budget = SamplingBudget(count=200, hill_steps=40, seed=9)
        e = {}
        for x, y in ("AC", "AB", "BC"):
            est = excess(tri.translated(shifts[x]), tri.translated(shifts[y]), budget)
            # The vertex rule is exact: the oracle's largest vertex distance.
            later = [(a, b + float(np.dot(a, shifts[y]))) for a, b in oracles.TRIANGLE_FACES]
            corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + shifts[x]
            oracle = oracles.cloud_excess(corners, lambda v: oracles.polygon_distance(later, v))
            assert est.method == "analytic"
            assert est.lower == est.upper == pytest.approx(oracle, abs=1e-12)
            e[x + y] = est.lower
        assert e["AC"] <= e["AB"] + e["BC"] + 1e-12

    def test_sampled_lower_bound_is_honest(self):
        A, B = Ball((0.0, 0.0), 2.0), Ball((0.3, 0.1), 1.0)
        exact = excess(A, B).lower
        sampled = excess(A, B, SamplingBudget(count=200, seed=5))
        # force the generic path
        from sweepsolve.families import _sampled_excess

        est = _sampled_excess(A, B, SamplingBudget(count=200, seed=5))
        assert est.lower <= exact + 1e-12
        assert est.lower >= exact - 0.05
        assert B.distance(est.witness) == pytest.approx(est.lower, abs=1e-12)
        assert sampled.method == "analytic"


class TestSlices:
    def test_translate_slice(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), LinearPath((0.0, 0.0), (1.0, 0.0)), 1.0)
        assert fam.at(0.5) == Ball((0.5, 0.0), 1.0)

    def test_radius_slice(self):
        fam = RadiusFamily(ConstantPath((0.0, 0.0)), LinearPath(1.0, -0.4), False, 1.0)
        assert fam.at(1.0) == Ball((0.0, 0.0), 0.6)

    def test_piecewise_right_continuous_at_jump(self):
        p1 = RadiusFamily(ConstantPath((0.0, 0.0)), LinearPath(1.0, -0.4), False, 1.0)
        p2 = RadiusFamily(ConstantPath((0.0, 0.0)), ConstantPath(1.0), False, 2.0)
        fam = PiecewiseFamily(pieces=((1.0, p1), (2.0, p2)))
        assert fam.at(1.0) == Ball((0.0, 0.0), 1.0)
        assert fam.at(1.0 - 1e-9).radius < 0.61
        # the jump only expands: left slice sits inside the right slice
        assert excess(fam.at(1.0 - 1e-9), fam.at(1.0)).lower == 0.0

    def test_inadmissible_jump_rejected(self):
        p1 = RadiusFamily(ConstantPath((0.0, 0.0)), ConstantPath(1.0), False, 1.0)
        p2 = RadiusFamily(ConstantPath((0.0, 0.0)), ConstantPath(0.5), False, 2.0)
        with pytest.raises(ValueError, match="jump"):
            PiecewiseFamily(pieces=((1.0, p1), (2.0, p2)))

    def test_jump_without_a_closed_form_rejected(self):
        # The ball sticks out of the half-space by 1e-6, which sampling misses;
        # with its center inside, the excess is bounded only by its radius.
        ball = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        plane = TranslateFamily(halfspace((1.0, 0.0), 1.0 - 1e-6), ConstantPath((0.0, 0.0)), 2.0)
        with pytest.raises(ValueError, match="from a ball slice to a halfspace slice: its excess "
                                             r"is bounded only by 1\.000e\+00"):
            PiecewiseFamily(((0.5, ball), (2.0, plane)))

    def test_jump_from_a_triangle_into_a_ball_admitted_and_back_rejected(self):
        triangle = Polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        # The circumscribed circle passes through all three vertices.
        ball = Ball((0.5, 0.5), math.sqrt(0.5))
        still = ConstantPath((0.0, 0.0))
        fam = PiecewiseFamily(((1.0, TranslateFamily(triangle, still, 1.0)),
                               (2.0, TranslateFamily(ball, still, 2.0))))
        assert fam.at(1.0) == ball
        with pytest.raises(ValueError, match="at t=1.0 from a ball slice to a polytope slice: "
                                             r"its excess is bounded only by 7\.071e-01"):
            PiecewiseFamily(((1.0, TranslateFamily(ball, still, 1.0)),
                             (2.0, TranslateFamily(triangle, still, 2.0))))

    def test_jump_between_equal_slices_admitted(self):
        # Polytopes have no closed-form excess; equal slices need none.
        triangle = Polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        p1 = TranslateFamily(triangle, LinearPath((0.0, 0.0), (0.5, -0.25)), 1.0)
        p2 = TranslateFamily(triangle, ConstantPath((0.5, -0.25)), 2.0)
        fam = PiecewiseFamily(((1.0, p1), (2.0, p2)))
        assert fam.at(1.0) == p1.at(1.0)

    def test_out_of_range(self):
        fam = sweep_family()
        with pytest.raises(OutOfRange):
            fam.at(2.5)


class TestModulus:
    def test_translate_unit_speed(self):
        assert sweep_family().modulus()(0.25) == 0.25

    def test_static_zero(self):
        omega = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0).modulus()
        assert (omega(0.1), omega(0.5)) == (0.0, 0.0)

    def test_jump_contributes_nothing(self):
        jump = drift_jump_family().modulus()
        cont = drift_nojump_family().modulus()
        for d in (0.1, 0.25, 0.5):
            assert abs(jump(d) - cont(d)) <= 1e-9

    def test_sampled_omega_matches_analytic_for_sweep(self):
        fam = sweep_family()
        budget = SamplingBudget(count=32, hill_steps=10)
        sampled = max(excess(fam.at(s), fam.at(s + 0.25), budget).lower
                      for s in np.linspace(0.0, 1.75, 64))
        assert sampled == pytest.approx(fam.modulus()(0.25), abs=1e-9)

    def test_sampled_jump_equality(self):
        # Same pairs and seeds, the breakpoint pairs included: the outward
        # jump leaves the worst sampled excess minus omega unchanged.
        a_jump = validate_analytic_modulus(drift_jump_family(), pairs=50, seed=3)
        a_cont = validate_analytic_modulus(drift_nojump_family(), pairs=50, seed=3)
        assert abs(a_jump - a_cont) <= 1e-9

    def test_audit_covers_pairs_straddling_a_jump(self, monkeypatch):
        # With no random pairs only the breakpoint pairs are audited.
        fam = drift_jump_family()
        assert validate_analytic_modulus(fam, pairs=0) <= 1e-9
        monkeypatch.setattr(PiecewiseFamily, "analytic_rate", lambda self: 0.0)
        assert validate_analytic_modulus(fam, pairs=0) > 0.0

    def test_modulus_certificate_needs_an_upper_bound_on_every_pair(self):
        # A translating wedge over a later slice is left to sampling, whose
        # upper bound is inf; the rotating triangle's pairs are all exact.
        wedge = Polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
        drift = TranslateFamily(wedge, LinearPath((0.0, 0.0), (1.0, 0.0)), 1.0)
        assert validate_analytic_modulus(drift, pairs=3) == math.inf
        triangle = Polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        spin = RigidFamily(triangle, LinearPath(0.0, 0.5), (1 / 3, 1 / 3), 1.0)
        assert validate_analytic_modulus(spin, pairs=20) <= 0.0

    def test_validate_analytic_modulus(self):
        # 200 random forward pairs per family; sampled excess never exceeds
        # the declared linear modulus beyond a 1e-6 relative allowance.
        for fam in (sweep_family(), drift_jump_family()):
            assert validate_analytic_modulus(fam, pairs=200, seed=2) <= 1e-9

    def test_eps_delta_coupling(self):
        fam = sweep_family()
        sched = build_schedule(fam, 2.0, 0.1, 0.5, 3)
        rng = np.random.default_rng(0)
        for n in range(sched.levels):
            for _ in range(200 // sched.levels):
                s = rng.random() * (2.0 - sched.delta[n])
                t = s + rng.random() * sched.delta[n]
                assert excess(fam.at(s), fam.at(t)).lower < sched.eps[n]


class TestComputeTau:
    def test_linear_modulus_recipe(self):
        omega = Modulus(2.0, 1.0)
        tau = compute_tau(omega, r=1.0, rho0=0.5, rho=0.25)
        # eta = min(0.25, 1) = 0.25; threshold 0.25; tau just below it
        assert tau == pytest.approx(0.25, abs=1e-6)
        assert tau < 0.25

    def test_static_gives_horizon(self):
        omega = Modulus(3.0, 0.0)
        assert compute_tau(omega, r=1.0, rho0=0.5, rho=0.25) == 3.0

    def test_rho_equals_rho0_rejected(self):
        omega = Modulus(1.0, 0.0)
        with pytest.raises(ValueError):
            compute_tau(omega, r=1.0, rho0=0.5, rho=0.5)

    def test_no_positive_tau(self):
        # min(eta, rho) = rho = TAU_MARGIN leaves a threshold of 0.
        with pytest.raises(NoPositiveTau):
            compute_tau(Modulus(1.0, 1.0), r=1.0, rho0=0.5, rho=TAU_MARGIN)
        # An infinite rate leaves no positive step below any threshold.
        with pytest.raises(NoPositiveTau):
            compute_tau(Modulus(1.0, float("inf")), r=1.0, rho0=0.5, rho=0.25)


class TestBuildSchedule:
    def test_sweep_deltas_are_half_eps(self):
        fam = sweep_family()
        sched = build_schedule(fam, 2.0, 0.1, 0.5, 3)
        for n, d in enumerate(sched.delta):
            assert d == pytest.approx(0.05 * 2.0**-n, rel=1e-9)
        # convex family: r = inf capped to 1e9 for schedule validation only
        assert sched.r == 1e9

    def test_static_delta_is_horizon(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        sched = build_schedule(fam, 1.0, 0.1, 0.5, 3)
        assert sched.delta == (1.0, 1.0, 1.0)

    def test_eps0_at_or_above_r_rejected(self):
        fam = RadiusFamily(
            LinearPath((-1.0, 0.0), (1.0, 0.0)), ConstantPath(0.5), True, 2.0
        )
        with pytest.raises(ValueError):
            build_schedule(fam, 2.0, 0.5, 0.5, 3)

    def test_nestedness_and_geometric_eps(self):
        fam = sweep_family()
        sched = build_schedule(fam, 2.0, 0.1, 0.5, 4)
        for n in range(3):
            assert sched.grids[n + 1].refines(sched.grids[n])
            assert sched.eps[n + 1] == pytest.approx(sched.eps[n] * 0.5)

    def test_rate_must_be_a_nonnegative_number(self):
        # A NaN rate would otherwise turn every step length into NaN.
        for rate in (float("nan"), -1.0):
            with pytest.raises(ModulusUnavailable):
                Modulus(1.0, rate)

    def test_tie_keeps_step_strictly_below_eps(self):
        # omega(0.5) == eps0 exactly: the step must stay strictly below it,
        # so the coarsest grid is 8 intervals, not 4.
        fam = sweep_family(horizon=1.0)
        sched = build_schedule(fam, 1.0, 0.5, 0.5, 2)
        assert [g.n_intervals for g in sched.grids] == [8, 16]
        assert sched.delta == (0.24999999999999997, 0.12499999999999999)

    def test_fast_translation_needs_too_fine_a_grid(self):
        fam = TranslateFamily(
            HalfSpace((1.0, 0.0), 1.0), LinearPath((0.0, 0.0), (1e9, 0.0)), horizon=1.0
        )
        with pytest.raises(ModulusUnavailable, match="finer than 2\\^24 intervals"):
            build_schedule(fam, 1.0, 0.1, 0.5, 2)

    @pytest.mark.parametrize("levels, base_resolution, level",
                             [(25, 1, 24), (30, 1, 24), (2, 25, 0)])
    def test_nesting_past_the_finest_grid_is_unavailable(self, levels, base_resolution, level):
        # A static family certifies the whole horizon at every level, but each
        # level must refine the last: from base resolution 1, level 24 needs 2^25.
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        with pytest.raises(ModulusUnavailable, match=f"level {level} needs .* finer than 2\\^24"):
            build_schedule(fam, 1.0, 0.1, 0.5, levels, base_resolution)


class TestInnerBall:
    def test_persistence_on_shrinking_ball(self):
        fam = RadiusFamily(
            ConstantPath((0.0, 0.0)), LinearPath(1.0, -0.4), False, 1.0, declared_r=2.0
        )
        omega = fam.modulus()
        tau = compute_tau(omega, r=fam.r, rho0=1.0, rho=0.5)
        assert tau == 1.0  # the persistence horizon covers [0, 1]
        assert verify_inner_ball(fam, (0.0, 0.0), 0.5) <= 1e-12

    def test_depth_is_exact_at_a_box_face(self):
        # B_0.5((0.5001, 0)) crosses the face x = 1 of [-1, 1]^2 by 1e-4.
        fam = TranslateFamily(Box((-1.0, -1.0), (1.0, 1.0)), ConstantPath((0.0, 0.0)), 1.0)
        assert verify_inner_ball(fam, (0.5001, 0.0), 0.5) == pytest.approx(1e-4, abs=1e-12)


def test_rigid_family_derives_its_rate_and_rejects_unbounded_bases():
    unit_square = Box((0.0, 0.0), (1.0, 1.0))
    fam = RigidFamily(unit_square, LinearPath(0.0, 1.0), (0.5, 0.5), 1.0)
    assert fam.analytic_rate() == unit_square.circumradius_about(np.array([0.5, 0.5]))
    edge = HalfSpace((1.0, 0.0), 0.5)
    wedge = Polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
    for base in (edge, Polytope((edge,), (0.0, 0.0)), wedge, BallComplement((0.0, 0.0), 0.5)):
        with pytest.raises(ValueError, match=f"the {base.tag} base is unbounded"):
            RigidFamily(base, LinearPath(0.0, 1.0), (0.0, 0.0), 1.0)


def _rotated(points, angle: float, pivot, drift) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    q = np.array([[c, -s], [s, c]])
    return (np.asarray(points, float) - pivot) @ q.T + pivot + drift


def _ccw_faces(vertices) -> list:
    """(outward normal, offset) of each edge of a counterclockwise polygon."""
    nxt = np.roll(vertices, -1, axis=0)
    return [((b[1] - a[1], a[0] - b[0]), (b[1] - a[1]) * a[0] + (a[0] - b[0]) * a[1])
            for a, b in zip(vertices, nxt)]


@st.composite
def _rigid_bases(draw):
    """(base, its vertices counterclockwise or None for a ball, the ball center)."""
    coord = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(["ball", "box", "triangle"]))
    if kind == "ball":
        center = (draw(coord), draw(coord))
        return Ball(center, draw(st.floats(0.1, 1.5))), None, np.array(center)
    if kind == "box":
        lo = np.array([draw(coord), draw(coord)])
        hi = lo + (draw(st.floats(0.1, 1.5)), draw(st.floats(0.1, 1.5)))
        corners = np.array([lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
        return Box(lo, hi), corners, None
    pts = np.array([[draw(coord), draw(coord)] for _ in range(3)])
    a, b, c = pts
    area = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    assume(abs(area) > 0.05)
    if area < 0:
        pts = pts[::-1]
    faces = tuple(halfspace(n, off) for n, off in _ccw_faces(pts))
    return Polytope(faces, pts.mean(axis=0)), pts, None


@settings(max_examples=80, deadline=None)
@given(
    _rigid_bases(),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.floats(-3.0, 3.0),
    st.floats(-2.0, 2.0),
    st.none() | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
)
# Opposite faces of the square, turned by 7e-270 rad, cross near 1e269: the
# oracle must skip that crossing without overflowing.
@example(based=(Box((0.0, 0.0), (1.0, 1.0)),
                np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), None),
         pivot=(0.0, 0.0), angle0=7.227572319942872e-270, spin=0.0, drift=None,
         pairs=[(0.0, 0.0)])
def test_rigid_modulus_bounds_the_exact_excess(based, pivot, angle0, spin, drift, pairs):
    """omega(t - s) bounds e(C(s), C(t)) over forward pairs: the vertices of a
    convex polygon carry its excess over a convex set, and a ball's excess
    over its own moved copy is the distance its center travels."""
    base, vertices, center = based
    fam = RigidFamily(base, LinearPath(angle0, spin), pivot, 1.0,
                      translation=None if drift is None else LinearPath((0.0, 0.0), drift))
    omega, pivot = fam.modulus(), np.array(pivot)
    velocity = np.zeros(2) if drift is None else np.array(drift)
    for s, t in pairs:
        s, t = min(s, t), max(s, t)
        if vertices is None:
            moved = [_rotated([center], angle0 + spin * u, pivot, velocity * u)[0] for u in (s, t)]
            exact = math.dist(*moved)
        else:
            later = _ccw_faces(_rotated(vertices, angle0 + spin * t, pivot, velocity * t))
            exact = max(oracles.polygon_distance(later, v)
                        for v in _rotated(vertices, angle0 + spin * s, pivot, velocity * s))
        assert exact <= omega(t - s) + 1e-9


@st.composite
def _oracle_shapes(draw, rigid=False):
    """(shape, the oracle's distance to it, points of it where a convex
    function peaks, the cloud's shortfall): a polygon's vertices and edges,
    or a disk's circle and center, short by at most pi*R/n."""
    base, vertices, center = draw(_rigid_bases())
    shape = base
    if rigid:
        Q = rotation_matrix_2d(draw(st.floats(-3.2, 3.2)))
        u = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
        shape = RigidImage(base, Q, u)
        vertices = None if vertices is None else vertices @ Q.T + u
        center = None if center is None else Q @ center + u
    if vertices is None:
        R = base.radius
        circle = oracles.circle(center, R)
        return (shape, lambda y: oracles.ball_distance(center, R, y),
                np.vstack([circle, [center]]), math.pi * R / len(circle))
    faces = _ccw_faces(vertices)
    return shape, lambda y: oracles.polygon_distance(faces, y), oracles.polygon_boundary(vertices), 0.0


@st.composite
def _halfspaces(draw):
    """A half-plane, with the oracle's distance to it, as _oracle_shapes has it."""
    angle, offset = draw(st.floats(-3.2, 3.2)), draw(st.floats(-1.0, 1.0))
    normal = (math.cos(angle), math.sin(angle))
    return (halfspace(normal, offset), lambda y: oracles.polygon_distance([(normal, offset)], y),
            None, None)


_CONVEX = st.one_of(_oracle_shapes(), _oracle_shapes(rigid=True), _halfspaces())


def _check_excess_over_convex(a, b):
    """lower <= oracle <= upper, both ends the oracle's value where exact."""
    (A, a_distance, cloud, shortfall), (B, distance, _, _) = a, b
    est = excess(A, B)
    oracle = oracles.cloud_excess(cloud, distance)
    assert est.lower - shortfall - 1e-9 <= oracle <= est.upper + 1e-9
    if est.method == "interval":
        # Only a disk whose center lies in B gets a two-sided bound.
        assert shortfall > 0.0 and distance(cloud[-1]) <= 1e-9
    else:
        assert est.method == "analytic" and est.lower == est.upper
    assert a_distance(est.witness) <= 1e-9
    assert distance(est.witness) == pytest.approx(est.lower, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_oracle_shapes(), _CONVEX)
def test_excess_of_a_polygon_box_or_ball_over_a_convex_set_against_the_oracle(a, b):
    _check_excess_over_convex(a, b)


@settings(max_examples=60, deadline=None)
@given(_oracle_shapes(rigid=True), _CONVEX)
def test_excess_of_a_rigid_image_over_a_convex_set_against_the_oracle(a, b):
    _check_excess_over_convex(a, b)


@st.composite
def _unbounded_shapes(draw):
    """(shape, the oracle's distance to it or None, t -> a member about t
    from the origin): a half-plane, a ball complement, a moved wedge, or a
    slab open on one side."""
    kind = draw(st.sampled_from(["halfspace", "ball_complement", "wedge", "slab"]))
    angle = draw(st.floats(-3.2, 3.2))
    n = np.array([math.cos(angle), math.sin(angle)])
    if kind == "halfspace":
        shape, distance, _, _ = draw(_halfspaces())
        return shape, distance, lambda t: shape.boundary_anchor() - t * shape.normal
    if kind == "ball_complement":
        c, R = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))]), draw(st.floats(0.1, 2.0))
        return BallComplement(c, R), None, lambda t: c + t * n
    if kind == "wedge":
        Q, u = rotation_matrix_2d(angle), np.array([draw(st.floats(-1.0, 1.0)), 0.5])
        wedge = Polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
        faces = [(tuple(Q @ a), float((Q @ a) @ u)) for a in np.eye(2)]
        return (RigidImage(wedge, Q, u), lambda y: oracles.polygon_distance(faces, y),
                lambda t: Q @ (-t * np.ones(2) / math.sqrt(2.0)) + u)
    side = np.array([-n[1], n[0]])
    faces = [(tuple(n), 1.0), (tuple(-n), 1.0), (tuple(side), 1.0)]
    slab = Polytope(tuple(halfspace(a, b) for a, b in faces), (0.0, 0.0))
    return slab, lambda y: oracles.polygon_distance(faces, y), lambda t: -t * side


@settings(max_examples=40, deadline=None)
@given(_unbounded_shapes(), st.one_of(_oracle_shapes(), _oracle_shapes(rigid=True)))
def test_an_unbounded_set_over_a_bounded_one_is_infinitely_far(a, b):
    (A, _, far), (B, distance, _, _) = a, b
    est = excess(A, B)
    assert est.method == "analytic" and est.lower == est.upper == math.inf
    assert np.isnan(est.witness).all()
    # B lies within 5 of the origin: members of A t away are about t from B.
    for t in (1e3, 1e6):
        assert A.contains(far(t)) and distance(far(t)) >= t - 10.0


@settings(max_examples=60, deadline=None)
@given(st.one_of(_oracle_shapes(), _oracle_shapes(rigid=True), _halfspaces(),
                 _unbounded_shapes().filter(lambda a: a[1] is not None)),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), st.floats(0.1, 2.0))
def test_any_shape_over_a_ball_complement_against_the_oracle(a, c, R):
    A, a_distance, cloud = a[:3]
    est = excess(A, BallComplement(c, R))
    # The point of A nearest the excluded center lies deepest in the excluded ball.
    oracle = max(R - a_distance(c), 0.0)
    assert est.method == "analytic"
    assert est.lower == est.upper == pytest.approx(oracle, abs=1e-9)
    assert a_distance(est.witness) <= 1e-9
    assert oracles.complement_distance(c, R, est.witness) == pytest.approx(est.lower, abs=1e-9)
    if isinstance(cloud, np.ndarray):  # a bounded A: its boundary points
        depth = oracles.cloud_excess(cloud, lambda y: oracles.complement_distance(c, R, y))
        assert depth <= est.upper + 1e-9


def _families_with(horizon=1.0, declared_r=None):
    """One family of each class, with the given horizon and declared r."""
    centre = ConstantPath((0.0, 0.0))
    square = Polytope(
        (HalfSpace((0.0, -1.0), 0.0), HalfSpace((-1.0, 0.0), 0.0), HalfSpace((1.0, 0.0), 1.0),
         HalfSpace((0.0, 1.0), 1.0)),
        (0.5, 0.5),
    )
    obstacle = RadiusFamily(centre, ConstantPath(0.5), True, max(horizon, 1.0))
    return {
        "translate": lambda: TranslateFamily(BallComplement((0.0, 0.0), 0.5), centre, horizon,
                                             declared_r),
        "radius_schedule": lambda: RadiusFamily(centre, ConstantPath(0.5), True, horizon,
                                                declared_r),
        "rigid": lambda: RigidFamily(square, LinearPath(0.0, 1.0), (0.5, 0.5), horizon,
                                     declared_r=declared_r),
        "piecewise": lambda: PiecewiseFamily(((1.0, obstacle),), declared_r=declared_r),
    }


FAMILY_CLASSES = sorted(_families_with())


@pytest.mark.parametrize("kind", FAMILY_CLASSES)
def test_every_family_checks_declared_r_against_its_natural_r(kind):
    natural = _families_with()[kind]().r
    assert natural == (math.inf if kind == "rigid" else 0.5)
    assert _families_with(declared_r=0.25)[kind]().r == 0.25
    above = (1.5 * natural,) if natural < math.inf else ()
    for bad in (0.0, -1.0) + above:
        with pytest.raises(ValueError, match="declared r="):
            _families_with(declared_r=bad)[kind]()


@pytest.mark.parametrize("kind", FAMILY_CLASSES)
def test_every_family_rejects_a_nan_time(kind):
    with pytest.raises(OutOfRange):
        _families_with()[kind]().at(math.nan)


@pytest.mark.parametrize("kind", [k for k in FAMILY_CLASSES if k != "piecewise"])
def test_every_family_rejects_a_nonpositive_horizon(kind):
    for horizon in (0.0, -1.0):
        with pytest.raises(ValueError, match="horizon must be positive"):
            _families_with(horizon=horizon)[kind]()


def test_min_radius_sees_the_knots_of_nested_pieces():
    # The inner kink at t = 1 takes the radius to -0.5; the outer path has no knot there.
    inner = PiecewisePath(((1.0, LinearPath(1.0, -1.5)), (2.0, LinearPath(-2.0, 1.5))))
    radius = PiecewisePath(((2.0, inner),))
    assert radius.knots() == (1.0, 2.0)
    assert LinearPath(1.0, -1.5).knots() == ()
    with pytest.raises(ValueError, match="radius schedule must stay positive"):
        RadiusFamily(ConstantPath((0.0, 0.0)), radius, False, 2.0)



def _drifting_rigid():
    triangle = Polytope((halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0),
                         halfspace((1.0, 1.0), 1.0)), (0.25, 0.25))
    drift = PiecewisePath(((0.5, LinearPath((0.0, 0.0), (1.0, 0.5))),
                           (1.0, LinearPath((1.0, 0.5), (-1.0, -0.5)))))
    return RigidFamily(triangle, LinearPath(0.1, 1.3), (0.3, 0.3), 1.0, translation=drift)


# Every family kind, plus a piecewise family with a real jump and a rigid
# motion with a drift whose knot is at t = 0.5.
SLICE_FAMILIES = {**_families_with(), "piecewise_jump": drift_jump_family,
                  "rigid_drift": _drifting_rigid}


def _bits(doc):
    """A schema document with each float replaced by its hex form, so that ==
    compares floats bit for bit."""
    if isinstance(doc, float):
        return float.hex(doc)
    if isinstance(doc, dict):
        return {key: _bits(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_bits(value) for value in doc]
    return doc


@pytest.mark.parametrize("kind", sorted(SLICE_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=8))
def test_slices_equal_the_slices_at_each_time(kind, draws):
    fam = SLICE_FAMILIES[kind]()
    T = fam.horizon
    # Every breakpoint and the rigid drift's knot are hit exactly.
    ts = np.sort([0.0, T / 2, T, *fam.breakpoints(), *(u * T for u in draws)])
    built = list(fam.slices(ts))
    assert [_bits(s.to_dict()) for s in built] == [_bits(fam.at(float(t)).to_dict()) for t in ts]
    for s in built:
        arrays = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("kind", sorted(SLICE_FAMILIES))
def test_slices_check_every_time_before_building_one(kind):
    fam = SLICE_FAMILIES[kind]()
    T = fam.horizon
    for times in ([0.0, T / 2, math.nan], [0.0, T / 2, 1.25 * T], [0.0, T, T / 2]):
        built = []
        with pytest.raises(OutOfRange):
            for s in fam.slices(times):
                built.append(s)
        assert built == []


PATH_FORMS = {
    "constant_scalar": ConstantPath(0.5),
    "constant_vector": ConstantPath((1.0, -2.0)),
    "linear_scalar": LinearPath(0.3, -1.7),
    "linear_vector": LinearPath((0.1, 0.2), (1.0 / 3.0, -0.7)),
    "piecewise_scalar": PiecewisePath((
        (1.0, PiecewisePath(((0.5, LinearPath(1.0, -1.0)), (1.0, LinearPath(0.0, 1.0))))),
        (2.0, LinearPath(2.0, -1.0)))),
    "piecewise_vector": PiecewisePath(((0.5, LinearPath((0.0, 0.0), (1.0, 0.5))),
                                       (2.0, ConstantPath((0.5, 0.25))))),
}


@pytest.mark.parametrize("form", sorted(PATH_FORMS))
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 3.0), max_size=10))
def test_a_path_on_an_array_matches_each_time(form, draws):
    path = PATH_FORMS[form]
    # Unsorted times, the knots among them.
    ts = np.array([*draws, 1.0, 0.5, 2.0])
    values = path(ts)
    assert values.shape == (len(ts),) + np.shape(path(0.0))
    for t, v in zip(ts.tolist(), values):
        assert np.asarray(v).tobytes() == np.asarray(path(t), dtype=float).tobytes()

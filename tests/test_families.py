import dataclasses
import itertools
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
    INNER_BALL_TIMES,
    TAU_MARGIN,
    TranslateFamily,
    build_schedule,
    compute_tau,
    excess,
    verify_inner_ball,
    validate_analytic_modulus,
)
from sweepsolve.paths import ConstantPath, LinearPath, PiecewisePath
from sweepsolve.scenarios import load_builtin
from sweepsolve.sets import (
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

    @pytest.mark.parametrize("rA, rB", [(0.5, 1.25), (1.25, 0.5), (0.5, 0.5)])
    def test_concentric_complements(self, rA, rB):
        # The center of A's excluded ball has no single nearest point of A:
        # any point of A's sphere, rA from the center, is deepest in B's ball.
        c = (0.3, -0.7)
        A, B = BallComplement(c, rA), BallComplement(c, rB)
        est = excess(A, B)
        assert est.method == "analytic"
        assert est.lower == est.upper == pytest.approx(max(rB - rA, 0.0), abs=1e-15)
        assert math.dist(est.witness, c) == pytest.approx(rA, abs=1e-15)
        assert oracles.complement_distance(c, rB, est.witness) == pytest.approx(est.lower,
                                                                                abs=1e-15)

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
        from sweepsolve.sets import halfspace, polytope

        tri = polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        shifts = {"A": np.zeros(2), "B": np.array([0.1, 0.0]), "C": np.array([0.2, 0.1])}
        e = {}
        for x, y in ("AC", "AB", "BC"):
            est = excess(tri.translated(shifts[x]), tri.translated(shifts[y]))
            # The vertex rule is exact: the oracle's largest vertex distance.
            later = [(a, b + float(np.dot(a, shifts[y]))) for a, b in oracles.TRIANGLE_FACES]
            corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + shifts[x]
            oracle = oracles.cloud_excess(corners, lambda v: oracles.polygon_distance(later, v))
            assert est.method == "analytic"
            assert est.lower == est.upper == pytest.approx(oracle, abs=1e-12)
            e[x + y] = est.lower
        assert e["AC"] <= e["AB"] + e["BC"] + 1e-12

    def test_a_box_far_out_over_the_triangle_is_the_oracle_excess(self):
        # About 5e21 out, the active-set projection of the box's vertices
        # misses its absolute KKT tolerance and raises DidNotConverge; the
        # polygon's distances take no projection.
        triangle = polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        lo = np.array([3.7122741773625883e21, 3.827571602707609e21])
        box = Box(lo, lo + 1e-3 * np.abs(lo))
        est = excess(box, triangle)
        oracle = oracles.cloud_excess(
            box.vertices(), lambda v: oracles.polygon_distance(oracles.TRIANGLE_FACES, v))
        assert (est.lower, est.upper, est.method) == (oracle, oracle, "analytic")


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

    def test_jump_to_a_smaller_concentric_excluded_ball_admitted(self):
        # The excluded ball shrinks from radius 1 to 0.5 at t = 1: the set expands.
        center = LinearPath((0.0, 0.0), (0.1, 0.0))
        p1 = RadiusFamily(center, ConstantPath(1.0), True, 2.0)
        p2 = RadiusFamily(center, ConstantPath(0.5), True, 2.0)
        fam = PiecewiseFamily(((1.0, p1), (2.0, p2)))
        assert fam.at(1.0) == BallComplement((0.1, 0.0), 0.5)
        assert excess(p1.at(1.0), fam.at(1.0)).upper == 0.0
        with pytest.raises(ValueError, match="from a ball_complement slice to a ball_complement "
                                             r"slice: its excess is 5\.000e-01"):
            PiecewiseFamily(((1.0, p2), (2.0, p1)))

    def test_jump_out_of_a_half_space_by_1e_6_rejected(self):
        # The ball sticks out of the half-space by 1e-6; with its center
        # inside, the probe along the one face normal gives that excess exactly.
        ball = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        plane = TranslateFamily(halfspace((1.0, 0.0), 1.0 - 1e-6), ConstantPath((0.0, 0.0)), 2.0)
        with pytest.raises(ValueError, match="from a ball slice to a halfspace slice: its excess "
                                             r"is 1\.000e-06, above"):
            PiecewiseFamily(((0.5, ball), (2.0, plane)))

    def test_a_ball_inside_a_polyhedral_set_has_an_exact_excess(self):
        # The unit ball jumps to the half-space {x_1 <= 2} that holds it.
        ball, plane = Ball((0.0, 0.0), 1.0), halfspace((1.0, 0.0), 2.0)
        still = ConstantPath((0.0, 0.0))
        fam = PiecewiseFamily(((1.0, TranslateFamily(ball, still, 1.0)),
                               (2.0, TranslateFamily(plane, still, 2.0))))
        assert fam.at(1.0) == plane
        # Every probe along a face normal is a member: the ball lies inside.
        triangle = polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        box = Box((-2.0, -1.5), (2.0, 1.5))
        rotated = RigidImage(box, rotation_matrix_2d(0.6), (0.3, -0.2))
        for A, B in ((ball, plane), (Ball((0.25, 0.25), 0.1), triangle), (ball, box),
                     (ball, rotated)):
            est = excess(A, B)
            assert (est.lower, est.upper, est.method) == (0.0, 0.0, "analytic")
        # A ball that pokes out of the box keeps the interval up to its radius.
        est = excess(Ball((1.5, 1.0), 1.0), box)
        assert (est.lower, est.upper, est.method) == (0.5, 1.0, "interval")
        # A jump rejected on such an interval names its upper bound as a bound.
        with pytest.raises(ValueError, match=r"its excess is bounded only by 1\.000e\+00"):
            PiecewiseFamily(((1.0, TranslateFamily(Ball((1.5, 1.0), 1.0), still, 1.0)),
                             (2.0, TranslateFamily(box, still, 2.0))))

    def test_jump_from_a_triangle_into_a_ball_admitted_and_back_rejected(self):
        triangle = polytope(
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
                                             r"its excess is 7\.071e-01"):
            PiecewiseFamily(((1.0, TranslateFamily(ball, still, 1.0)),
                             (2.0, TranslateFamily(triangle, still, 2.0))))

    def test_jump_between_equal_slices_admitted(self):
        # Polytopes have no closed-form excess; equal slices need none.
        triangle = polytope(
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
        sampled = max(excess(fam.at(s), fam.at(s + 0.25)).lower
                      for s in np.linspace(0.0, 1.75, 64))
        assert sampled == pytest.approx(fam.modulus()(0.25), abs=1e-9)

    def test_sampled_jump_equality(self):
        # Same pairs and seeds, the breakpoint pairs included: the outward
        # jump leaves the worst excess upper bound minus omega unchanged.
        a_jump = validate_analytic_modulus(drift_jump_family(), pairs=50, seed=3)
        a_cont = validate_analytic_modulus(drift_nojump_family(), pairs=50, seed=3)
        assert abs(a_jump - a_cont) <= 1e-9

    def test_a_negative_pair_count_is_rejected(self):
        # -inf would read as a certificate over no pair; pairs=0 audits only
        # the breakpoint pairs, of which sweep_family has none.
        with pytest.raises(ValueError, match="pairs must be >= 0, got -3"):
            validate_analytic_modulus(sweep_family(), pairs=-3)
        assert validate_analytic_modulus(sweep_family(), pairs=0) == -math.inf

    def test_audit_covers_pairs_straddling_a_jump(self, monkeypatch):
        # With no random pairs only the breakpoint pairs are audited.
        fam = drift_jump_family()
        assert validate_analytic_modulus(fam, pairs=0) <= 1e-9
        monkeypatch.setattr(PiecewiseFamily, "analytic_rate", lambda self: 0.0)
        assert validate_analytic_modulus(fam, pairs=0) > 0.0

    def test_modulus_certificate_needs_an_upper_bound_on_every_pair(self):
        # A translating wedge over a later slice has no rule, so its upper
        # bound is inf; the rotating triangle's pairs are all exact.
        wedge = polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
        drift = TranslateFamily(wedge, LinearPath((0.0, 0.0), (1.0, 0.0)), 1.0)
        assert validate_analytic_modulus(drift, pairs=3) == math.inf
        triangle = polytope(
            (halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0), halfspace((1.0, 1.0), 1.0)),
            (0.2, 0.2),
        )
        spin = RigidFamily(triangle, LinearPath(0.0, 0.5), (1 / 3, 1 / 3), 1.0)
        assert validate_analytic_modulus(spin, pairs=20) <= 0.0

    def test_bundled_rotating_triangle_audit_makes_no_active_set_solve(self, monkeypatch):
        # Each pair's excess is the largest vertex distance to the later
        # triangle, one array pass per pair: 0 solves (3 per pair, 150 in
        # all, when each distance was a projection), and the value it gave
        # then, up to rounding.
        solves = []
        solve = Polytope._solve
        monkeypatch.setattr(Polytope, "_solve", staticmethod(
            lambda fields, y: solves.append(y) or solve(fields, y)))
        family = load_builtin("polytope_rotation").family
        worst = validate_analytic_modulus(family, pairs=50)
        assert solves == []
        assert worst == pytest.approx(-0.0003211282267126256, rel=0.0, abs=1e-15)

    def test_validate_analytic_modulus(self):
        # 200 random forward pairs per family; the excess upper bound never exceeds
        # the declared linear modulus beyond a 1e-6 relative allowance.
        for fam in (sweep_family(), drift_jump_family()):
            assert validate_analytic_modulus(fam, pairs=200, seed=2) <= 1e-9

    @pytest.mark.parametrize("fam, rate", [
        # A ball shrinking, then growing, at 0.4: the shrinking piece sets the rate.
        (RadiusFamily(ConstantPath((0.0, 0.0)),
                      PiecewisePath(((0.5, LinearPath(1.0, -0.4)), (1.0, LinearPath(0.6, 0.4)))),
                      False, 1.0), 0.4),
        # An excluded ball growing, then shrinking, at 0.4: the growing piece does.
        (RadiusFamily(ConstantPath((0.0, 0.0)),
                      PiecewisePath(((0.5, LinearPath(0.5, 0.4)), (1.0, LinearPath(0.9, -0.4)))),
                      True, 1.0), 0.4),
        # A ball whose center turns a corner at t = 0.5 and speeds up from 1 to 2.
        (TranslateFamily(Ball((0.0, 0.0), 1.0),
                         PiecewisePath(((0.5, LinearPath((0.0, 0.0), (1.0, 0.0))),
                                        (1.0, LinearPath((0.5, -1.0), (0.0, 2.0))))), 1.0), 2.0),
    ], ids=["ball", "ball_complement", "translate"])
    def test_rate_of_a_piecewise_path_is_its_fastest_piece(self, fam, rate):
        assert fam.analytic_rate() == rate
        assert validate_analytic_modulus(fam, pairs=50) <= 0.0

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

    def test_depth_is_read_from_rows_with_no_slice_built(self, monkeypatch):
        # One _defects call per piece over slice_fields' rows, each row's
        # defect the slice's bit for bit: the bundled inner ball's value, and
        # the per-slice maximum on a family of two pieces, with no slice built.
        scenario, fam = load_builtin("shrinking_ball_inner_cert"), drift_jump_family()
        built = []
        from_valid = ProxSet._from_valid.__func__
        monkeypatch.setattr(ProxSet, "_from_valid", classmethod(
            lambda cls, fields: built.append(cls) or from_valid(cls, fields)))
        w, rho = scenario.ball_params.w, scenario.ball_params.rho
        assert verify_inner_ball(scenario.family, w, rho) == -0.09999999999999998
        value = verify_inner_ball(fam, (0.05, 0.02), 0.3)
        assert built == []
        times = np.linspace(0.0, fam.horizon, INNER_BALL_TIMES)
        assert value == max(0.3 + s.membership_defect((0.05, 0.02)) for s in fam.slices(times))


def test_rigid_family_derives_its_rate_and_rejects_unbounded_bases():
    unit_square = Box((0.0, 0.0), (1.0, 1.0))
    fam = RigidFamily(unit_square, LinearPath(0.0, 1.0), (0.5, 0.5), 1.0)
    pivot = np.array([0.5, 0.5])
    point, distance = unit_square.farthest_from(pivot)
    assert fam.analytic_rate() == distance
    assert np.linalg.norm(point - pivot) == distance
    edge = HalfSpace((1.0, 0.0), 0.5)
    wedge = polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
    for base in (edge, polytope((edge,), (0.0, 0.0)), wedge, BallComplement((0.0, 0.0), 0.5)):
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
    return polytope(faces, pts.mean(axis=0)), pts, None


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


@pytest.mark.parametrize("angle, height", [(2.0, 1.0), (0.3, -0.7), (2.9, 0.25)])
def test_a_rigid_ball_centered_on_a_half_plane_has_its_witness_on_the_far_side(angle, height):
    # Rotated by the half-plane's own angle, the center lands on its boundary
    # up to rounding: the excess is the radius, reached at center + normal.
    normal = (math.cos(angle), math.sin(angle))
    A = RigidImage(Ball((0.0, height), 1.0), rotation_matrix_2d(angle), (0.0, 0.0))
    est = excess(A, halfspace(normal, 0.0))
    assert est.method == "analytic" and est.lower == est.upper == pytest.approx(1.0, abs=1e-12)
    assert A.distance(est.witness) <= 1e-12
    assert oracles.polygon_distance([(normal, 0.0)], est.witness) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(_rigid_bases(), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       st.floats(0.1, 2.0))
# A ball 1e-12 off B's center: the excess, about 1e-12, is below the snap of
# B.distance, so the witness is compared through the unsnapped distance.
@example((Ball((0.0, 1e-12), 1.0), None, np.array([0.0, 1e-12])), (0.0, 0.0), 1.0)
# A ball 1e-158 off B's center: |c|^2 is subnormal, so a norm taken as
# sqrt(c.c) is 8e-9 short and the witness lands 8e-9 outside the ball.
@example((Ball((0.0, 1e-158), 1.0), None, np.array([0.0, 1e-158])), (0.0, 0.0), 1.0)
def test_a_ball_box_or_polygon_over_a_ball_against_the_oracle(based, c, rho):
    # A's farthest point from the center is deepest outside the ball.
    base, vertices, center = based
    if vertices is None:
        far = math.dist(center, c) + base.radius
    else:
        far = max(math.dist(v, c) for v in vertices)
    B = Ball(c, rho)
    est = excess(base, B)
    assert est.method == "analytic" and est.lower == est.upper
    assert est.lower == pytest.approx(max(far - rho, 0.0), abs=1e-12)
    assert B._distance(est.witness, 0.0) == pytest.approx(est.lower, abs=1e-12)
    assert base.distance(est.witness) <= 1e-12


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
        wedge = polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
        faces = [(tuple(Q @ a), float((Q @ a) @ u)) for a in np.eye(2)]
        return (RigidImage(wedge, Q, u), lambda y: oracles.polygon_distance(faces, y),
                lambda t: Q @ (-t * np.ones(2) / math.sqrt(2.0)) + u)
    side = np.array([-n[1], n[0]])
    faces = [(tuple(n), 1.0), (tuple(-n), 1.0), (tuple(side), 1.0)]
    slab = polytope(tuple(halfspace(a, b) for a, b in faces), (0.0, 0.0))
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


@st.composite
def _leftover_pairs(draw):
    """(A, B, the oracle's e(A, B), its distance to A, its distance to B) for
    a pair that no excess rule covers: half-planes whose normals agree only
    up to rounding (excess inf), a moved wedge or a slab over a half-plane
    (inf where a ray of A climbs B's normal, else A's largest corner
    distance), a 3-D box as a polytope over a 3-D ball (its largest corner
    distance), or any shape over a rigid image of a ball complement (the
    excluded ball's radius less its center's distance to A)."""
    kind = draw(st.sampled_from(["near_parallel", "unbounded_polygon", "cube", "complement"]))
    angle = draw(st.floats(-3.2, 3.2))
    if kind == "near_parallel":
        turn = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-15.0, -7.0))
        A = halfspace((math.cos(angle), math.sin(angle)), draw(st.floats(-1.0, 1.0)))
        B = halfspace((math.cos(angle + turn), math.sin(angle + turn)), draw(st.floats(-1.0, 1.0)))
        assume((A.normal != B.normal).any())
        return (A, B, math.inf, lambda y: oracles.polygon_distance([(A.normal, A.offset)], y),
                lambda y: oracles.polygon_distance([(B.normal, B.offset)], y))
    if kind == "unbounded_polygon":
        m, c = (math.cos(angle), math.sin(angle)), draw(st.floats(-1.0, 1.0))
        n = rotation_matrix_2d(draw(st.floats(-3.2, 3.2)))[:, 0]
        if draw(st.booleans()):  # the wedge x, y <= 0 turned by Q and moved to u
            Q = rotation_matrix_2d(draw(st.floats(-3.2, 3.2)))
            u = np.array([draw(st.floats(-1.0, 1.0)), 0.5])
            wedge = polytope((HalfSpace((1.0, 0.0), 0.0), HalfSpace((0.0, 1.0), 0.0)), (-1.0, -1.0))
            A, corners, rays = RigidImage(wedge, Q, u), [u], [-Q[:, 0], -Q[:, 1]]
            faces = [(tuple(Q @ a), float((Q @ a) @ u)) for a in np.eye(2)]
        else:  # the slab |<n, x>| <= 1 closed on the side <s, x> <= 1
            side = np.array([-n[1], n[0]])
            faces = [(tuple(n), 1.0), (tuple(-n), 1.0), (tuple(side), 1.0)]
            A = polytope(tuple(halfspace(a, b) for a, b in faces), (0.0, 0.0))
            corners, rays = [side + n, side - n], [-side]
        climbs = max(float(np.dot(m, r)) for r in rays) > 0.0
        oracle = math.inf if climbs else oracles.cloud_excess(
            corners, lambda v: oracles.polygon_distance([(m, c)], v))
        return (A, halfspace(m, c), oracle, lambda y: oracles.polygon_distance(faces, y),
                lambda y: oracles.polygon_distance([(m, c)], y))
    if kind == "cube":
        coord = st.floats(-1.0, 1.0)
        lo = np.array([draw(coord) for _ in range(3)])
        hi = lo + [draw(st.floats(0.1, 1.5)) for _ in range(3)]
        A = polytope(tuple(halfspace(a, b) for a, b in zip(np.vstack([np.eye(3), -np.eye(3)]),
                                                            np.concatenate([hi, -lo]))),
                     (lo + hi) / 2.0)
        center, R = np.array([draw(coord) for _ in range(3)]), draw(st.floats(0.1, 2.0))
        corners = list(itertools.product(*zip(lo, hi)))
        return (A, Ball(center, R),
                oracles.cloud_excess(corners, lambda v: oracles.ball_distance(center, R, v)),
                lambda y: math.dist(y, np.clip(y, lo, hi)),
                lambda y: oracles.ball_distance(center, R, y))
    A, a_distance = draw(st.one_of(_oracle_shapes(), _oracle_shapes(rigid=True), _halfspaces(),
                                   _unbounded_shapes()))[:2]
    if a_distance is None:  # a ball complement
        a_distance = lambda y: oracles.complement_distance(A.center, A.radius, y)  # noqa: E731
    c = np.array([draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))])
    R, Q = draw(st.floats(0.1, 2.0)), rotation_matrix_2d(angle)
    u = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    moved = Q @ c + u
    return (A, RigidImage(BallComplement(c, R), Q, u), max(R - a_distance(moved), 0.0), a_distance,
            lambda y: oracles.complement_distance(moved, R, y))


@settings(max_examples=80, deadline=None)
@given(_leftover_pairs())
def test_a_pair_no_rule_covers_has_a_deterministic_lower_bound_against_the_oracle(pair):
    # lower is the distance from B of a point of A, the witness: a vertex, or
    # the point of A nearest the origin.  Nothing is sampled.
    A, B, oracle, a_distance, b_distance = pair
    est = excess(A, B)
    assert est.method == "interval" and est.upper == math.inf
    assert 0.0 <= est.lower <= oracle + 1e-9
    assert a_distance(est.witness) <= 1e-9
    assert b_distance(est.witness) == pytest.approx(est.lower, abs=1e-9)
    assert excess(A, B).witness.tolist() == est.witness.tolist()


def _families_with(horizon=1.0, declared_r=None):
    """One family of each class, with the given horizon and declared r."""
    centre = ConstantPath((0.0, 0.0))
    square = polytope(
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


_UNIT_SQUARE = polytope((halfspace((0.0, -1.0), 0.0), halfspace((-1.0, 0.0), 0.0),
                         halfspace((1.0, 0.0), 1.0), halfspace((0.0, 1.0), 1.0)), (0.5, 0.5))
_STILL = ConstantPath((0.0, 0.0))
# One builder per stored number, putting v into one vector or scalar field,
# and a finite v with which it builds.
_NUMBER_FIELDS = {
    "halfspace-normal": (lambda v: HalfSpace((1.0, v), 1.0), 0.0),
    "halfspace-built-normal": (lambda v: halfspace((v, 1.0), 1.0), 0.5),
    "halfspace-offset": (lambda v: HalfSpace((1.0, 0.0), v), 0.5),
    "ball-center": (lambda v: Ball((v, 0.0), 1.0), 0.5),
    "ball-radius": (lambda v: Ball((0.0, 0.0), v), 0.5),
    "complement-center": (lambda v: BallComplement((0.0, v), 1.0), 0.5),
    "complement-radius": (lambda v: BallComplement((0.0, 0.0), v), 0.5),
    "box-lo": (lambda v: Box((v, 0.0), (1.0, 1.0)), 0.5),
    "box-hi": (lambda v: Box((0.0, 0.0), (1.0, v)), 0.5),
    "polytope-normals": (lambda v: Polytope(((1.0, v),), (1.0,), (0.0, 0.0)), 0.0),
    "polytope-offsets": (lambda v: Polytope(((1.0, 0.0),), (v,), (0.0, 0.0)), 0.5),
    "polytope-interior": (lambda v: polytope(_UNIT_SQUARE.faces, (v, 0.5)), 0.5),
    "rigid-image-rotation": (
        lambda v: RigidImage(_UNIT_SQUARE, ((1.0, 0.0), (0.0, v)), (0.0, 0.0)), 1.0),
    "rigid-image-translation": (lambda v: RigidImage(_UNIT_SQUARE, np.eye(2), (0.0, v)), 0.5),
    "constant-path-value": (lambda v: ConstantPath(v), 0.5),
    "constant-path-vector": (lambda v: ConstantPath((0.0, v)), 0.5),
    "linear-path-value": (lambda v: LinearPath(v, 1.0), 0.5),
    "linear-path-rate": (lambda v: LinearPath(1.0, v), 0.5),
    "linear-path-vector-rate": (lambda v: LinearPath((0.0, 0.0), (v, 0.0)), 0.5),
    "piecewise-path-until": (lambda v: PiecewisePath(((v, ConstantPath(1.0)),)), 0.5),
    "translate-horizon": (lambda v: TranslateFamily(Ball((0.0, 0.0), 1.0), _STILL, v), 0.5),
    "radius-schedule-horizon": (
        lambda v: RadiusFamily(_STILL, ConstantPath(1.0), False, v), 0.5),
    "radius-schedule-rate": (
        lambda v: RadiusFamily(_STILL, LinearPath(1.0, v), False, 1.0), 0.5),
    "rigid-pivot": (
        lambda v: RigidFamily(_UNIT_SQUARE, LinearPath(0.0, 1.0), (v, 0.5), 1.0), 0.5),
    "rigid-horizon": (
        lambda v: RigidFamily(_UNIT_SQUARE, LinearPath(0.0, 1.0), (0.5, 0.5), v), 0.5),
    "piecewise-until": (lambda v: PiecewiseFamily(
        ((v, RadiusFamily(_STILL, ConstantPath(1.0), False, 1.0)),)), 0.5),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_NUMBER_FIELDS))
def test_non_finite_numbers_are_rejected_where_they_are_stored(name, value):
    # Schema documents reject them field by field; the Python constructors do
    # too, so that no slice holds a NaN (a NaN interior point made every
    # point a member) and no modulus drops one (max(0.0, nan) is 0.0).
    build, finite = _NUMBER_FIELDS[name]
    build(finite)
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_min_radius_sees_the_knots_of_nested_pieces():
    # The inner kink at t = 1 takes the radius to -0.5; the outer path has no knot there.
    inner = PiecewisePath(((1.0, LinearPath(1.0, -1.5)), (2.0, LinearPath(-2.0, 1.5))))
    radius = PiecewisePath(((2.0, inner),))
    assert radius.knots() == (1.0, 2.0)
    assert LinearPath(1.0, -1.5).knots() == ()
    with pytest.raises(ValueError, match="radius schedule must stay positive"):
        RadiusFamily(ConstantPath((0.0, 0.0)), radius, False, 2.0)



def _drifting_rigid():
    triangle = polytope((halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0),
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


_SLANTED = LinearPath((0.1, -0.2), (1.0 / 3.0, -0.7))
_TRIANGLE = polytope((halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0),
                      halfspace((1.0, 1.0), 1.0)), (0.25, 0.25))
# Every family kind, and a translate of every shape along a slanted path, on
# which a matrix product over the rows would round some offsets differently.
FIELD_FAMILIES = {
    **SLICE_FAMILIES,
    **{f"translate_{s.tag}": (lambda s=s: TranslateFamily(s, _SLANTED, 1.0)) for s in (
        halfspace((0.6, 0.8), 0.3), Ball((0.2, 0.1), 0.7), Box((0.0, 0.0), (1.0, 2.0)),
        _TRIANGLE, RigidImage(_TRIANGLE, rotation_matrix_2d(0.4), (0.1, 0.2)))},
}


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_bits(x, y) for x, y in zip(a, b))
    if hasattr(a, "to_dict"):
        return _bits(a.to_dict()) == _bits(b.to_dict())
    return _bits(a) == _bits(b)


@pytest.mark.parametrize("kind", sorted(FIELD_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=8))
def test_slice_fields_rows_equal_the_slices_at_each_time(kind, draws):
    fam = FIELD_FAMILIES[kind]()
    T = fam.horizon
    ts = np.sort([0.0, T / 2, T, *fam.breakpoints(), *(u * T for u in draws)])
    slices = []  # (shape class, fields) per time, from one (shape, rows) pair per piece
    for shape, rows in fam.slice_fields(ts):
        # solve reads each row positionally, in the shape's dataclass field order.
        assert list(rows) == [f.name for f in dataclasses.fields(shape)]
        n = len(next(iter(rows.values())))
        assert all(len(values) == n for values in rows.values())
        slices += [(shape, {name: values[k] for name, values in rows.items()}) for k in range(n)]
    assert len(slices) == len(ts)
    for t, (shape, fields) in zip(ts.tolist(), slices):
        at_t = fam.at(t)
        assert type(at_t) is shape
        assert sorted(fields) == sorted(vars(at_t))
        assert all(_same_bits(value, vars(at_t)[name]) for name, value in fields.items())
        if kind == "translate_halfspace":
            # Each offset rounds as the per-row <normal, u> of a translate does.
            base, u = fam.base, np.asarray(fam.path(t))
            assert _same_bits(fields["offset"], base.offset + float(base.normal @ u))


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

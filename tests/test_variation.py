import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sweepsolve.errors import InapplicableBound, NoFeasibleEps, NoPositiveTau, TubeViolation
from sweepsolve.families import (
    Modulus,
    RadiusFamily,
    TranslateFamily,
    build_schedule,
)
from sweepsolve.geometry import RefinementSchedule, TimeGrid
from sweepsolve.paths import ConstantPath, LinearPath
from sweepsolve.sets import Ball, HalfSpace
from sweepsolve.solver import DiscreteTrajectory, affine_interpolant, solve
from sweepsolve.variation import (
    ball_variation_bound,
    choose_cone_params,
    cone_variation_bound,
    converge_study,
    sup_norm_gap,
    variation,
)


def sweep_family(horizon=2.0):
    return TranslateFamily(
        HalfSpace((1.0, 0.0), 1.0), LinearPath((0.0, 0.0), (-1.0, 0.0)), horizon=horizon
    )


class TestVariationWindow:
    def test_static_zero(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        traj = solve(fam, (0.5, 0.0), TimeGrid.uniform(1.0, 8), eps_level=0.1)
        assert variation(traj, 0.0, 1.0) == 0.0

    def test_sweep_full_window(self):
        fam = sweep_family()
        mesh = 0.01
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 200), eps_level=2 * mesh)
        assert abs(variation(traj, 0.0, 2.0) - 1.0) <= 2 * mesh

    def test_single_jump_in_window(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, 0.0]])
        traj = DiscreteTrajectory(
            grid=grid, points=pts, level=0, eps_level=0.5, dist_to_set=np.zeros(3)
        )
        assert variation(traj, 0.5, 2.0) == pytest.approx(0.3)
        assert variation(traj, 0.0, 1.0) == 0.0

    def test_window_validation(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        traj = solve(fam, (0.5, 0.0), TimeGrid.uniform(1.0, 4), eps_level=0.1)
        with pytest.raises(ValueError):
            variation(traj, -0.1, 0.5)


@given(
    st.floats(0.5, 10.0),
    st.lists(st.floats(0.001, 0.999), max_size=10),
    st.lists(st.floats(0.001, 0.999), max_size=10),
    st.integers(0, 2**32 - 1),
)
def test_sup_norm_gap_is_the_supremum(horizon, cuts_a, cuts_b, seed):
    # Two grids of [0, T] that need not be nested, with random points: the gap
    # over the union of nodes matches a dense 50-per-interval sample.
    rng = np.random.default_rng(seed)

    def trajectory(cuts):
        times = np.unique(np.concatenate([[0.0, horizon], np.array(cuts, float) * horizon]))
        points = rng.uniform(-5.0, 5.0, (len(times), 2))
        return DiscreteTrajectory(TimeGrid(times), points, 0, 1e3, np.zeros(len(times)))

    a, b = trajectory(cuts_a), trajectory(cuts_b)
    nodes = np.union1d(a.grid.times, b.grid.times)
    frac = np.linspace(0.0, 1.0, 51)[:-1]
    dense = np.append((nodes[:-1, None] + frac * np.diff(nodes)[:, None]).ravel(), horizon)
    diff = affine_interpolant(a)(dense) - affine_interpolant(b)(dense)
    sampled = float(np.max(np.linalg.norm(diff, axis=1)))
    gap = sup_norm_gap(a, b)
    scale = max(np.abs(a.points).max(), np.abs(b.points).max())
    # Below the sample only by the rounding of interior evaluations.
    assert sampled - 1e-12 * scale <= gap <= sampled + 1e-12 * scale


class TestBallBound:
    # alpha = slack + |y0-w| + rho in every case.
    def test_start_at_center_clamps_to_zero(self):
        # alpha = 0.1 + 0 + 0.5 = 0.6
        assert ball_variation_bound(2.0, (0.0, 0.0), (0.0, 0.0), 0.5, 0.1) == 0.0

    def test_frozen_arithmetic_example(self):
        # r=2, rho=0.5, |y0-w|=0.8, slack=0.1 so alpha=1.4:
        # 2*(0.64-0.25)/(2-1.96) = 19.5
        bound = ball_variation_bound(2.0, (0.8, 0.0), (0.0, 0.0), 0.5, 0.1)
        assert bound == pytest.approx(19.5, rel=1e-9)

    def test_near_pole_warns_but_returns(self):
        two_r_rho = 2.0 * 2.0 * 0.5
        alpha = math.sqrt(two_r_rho - 1e-12)
        with pytest.warns(RuntimeWarning):
            bound = ball_variation_bound(2.0, (0.8, 0.0), (0.0, 0.0), 0.5, alpha - 1.3)
        assert bound > 1e9

    def test_inapplicable(self):
        # alpha = 0.1 + 0.9 + 0.5 = 1.5
        with pytest.raises(InapplicableBound):
            ball_variation_bound(1.0, (0.9, 0.0), (0.0, 0.0), 0.5, 0.1)


class TestConeBound:
    def test_frozen_arithmetic_example(self):
        # r=1, R=1, d=0.6, lam=0.8, eps=0.01, tau=0.2, T=1
        alpha = 0.8 * 0.6 + 0.4 + 0.01
        expected = 10 * (1.0 * (0.36 - 0.16) / (0.8 - alpha**2) + 0.01)
        bound = cone_variation_bound(1.0, 1.0, 0.6, lam=0.8, tau=0.2, eps_bar=0.01, horizon=1.0)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_d_below_half_rho_inapplicable(self):
        with pytest.raises(InapplicableBound):
            cone_variation_bound(1.0, 1.0, 0.3, lam=0.8, tau=0.2, eps_bar=0.0, horizon=1.0)

    def test_single_window(self):
        alpha = 0.8 * 0.6 + 0.4
        expected = 1 * (1.0 * (0.36 - 0.16) / (0.8 - alpha**2))
        bound = cone_variation_bound(1.0, 1.0, 0.6, lam=0.8, tau=4.0, eps_bar=0.0, horizon=1.0)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_zero_horizon(self):
        assert cone_variation_bound(1.0, 1.0, 0.6, lam=0.8, tau=0.2, eps_bar=0.0,
                                    horizon=0.0) == 0.0


class TestChooseConeParams:
    def test_frozen_lambda(self):
        omega = Modulus(1.0, 0.4)
        lam, _, _ = choose_cone_params(1.0, 1.0, 0.6, omega, eps_candidates=(0.01,))
        assert lam == pytest.approx(0.9 / 1.21, rel=1e-12)
        assert abs(lam - 0.7438) < 1e-4

    def test_lambda_clamped(self):
        omega = Modulus(1.0, 0.001)
        lam, _, _ = choose_cone_params(100.0, 10.0, 0.5, omega, eps_candidates=(0.01,))
        assert lam == 0.99

    def test_static_tau_is_horizon(self):
        omega = Modulus(3.0, 0.0)
        _, tau, _ = choose_cone_params(1.0, 1.0, 0.6, omega, eps_candidates=(0.01,))
        assert tau == 3.0

    def test_candidates_selection(self):
        omega = Modulus(1.0, 0.1)
        eps = (0.4, 0.2, 0.08, 0.04, 0.02)
        lam, _, eps_bar = choose_cone_params(1.0, 1.0, 0.6, omega, eps_candidates=eps)
        headroom = math.sqrt(lam * 1.0) - lam * 1.1
        assert eps_bar == max(e for e in eps if e < min(0.5, headroom))
        assert eps_bar == 0.04

    @pytest.mark.parametrize("R", [1e308, 1e-320])
    def test_a_radius_out_of_float_range_has_no_tau(self, R):
        # lambda*R/2 is 0: (d + R/2)^2 overflows at 1e308 (lambda reads 0),
        # lambda*R underflows at 1e-320.
        with pytest.raises(NoPositiveTau, match="lambda\\*R/2=0 "):
            choose_cone_params(0.5, R, 1.1, Modulus(2.0, 1.0), eps_candidates=(0.1,))

    def test_no_feasible_candidate(self):
        omega = Modulus(1.0, 0.1)
        with pytest.raises(NoFeasibleEps):
            choose_cone_params(1.0, 1.0, 0.6, omega, eps_candidates=(0.9,))


class TestConvergeStudy:
    def test_static_all_zero(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        sched = build_schedule(fam, 1.0, 0.1, 0.5, 4)
        rep = converge_study(fam, (0.5, 0.0), sched)
        assert all(v == 0.0 for v in rep.variations)
        assert all(d == 0.0 for d in rep.sup_diffs)
        assert len(rep.sup_diffs) == len(rep.cauchy_ratios) == sched.levels - 1
        assert len(rep.variations) == len(rep.constraint_residuals) == len(rep.wall_seconds) == 4

    def test_interpolant_gap_always_below_eps(self):
        fam = sweep_family()
        sched = build_schedule(fam, 2.0, 0.1, 0.5, 4)
        rep = converge_study(fam, (0.0, 0.0), sched)
        for traj in rep.trajectories:
            x = affine_interpolant(traj)
            ts = np.linspace(0.0, 2.0, 500)
            # The step value on [t_{j-1}, t_j) is points[j-1], the last point at the end.
            steps = traj.points[np.searchsorted(traj.grid.times, ts, "right") - 1]
            gap = max(np.linalg.norm(x(float(t)) - y) for t, y in zip(ts, steps))
            assert gap < traj.eps_level

    def test_variation_lower_semicontinuity(self):
        fam = sweep_family()
        sched = build_schedule(fam, 2.0, 0.1, 0.5, 3)
        rep = converge_study(fam, (0.0, 0.0), sched)
        finest = affine_interpolant(rep.trajectories[-1])
        along_coarse = finest(rep.trajectories[0].grid.times)
        sampled = np.sum(np.linalg.norm(np.diff(along_coarse, axis=0), axis=1))
        assert sampled <= rep.variations[-1] + 1e-12

    def test_excluded_ball_center_violation_carries_level(self):
        # The hole's center reaches y0 at t = 1: solve's excluded-ball-center branch.
        fam = RadiusFamily(
            LinearPath((-1.0, 0.0), (1.0, 0.0)),
            ConstantPath(0.5),
            True,
            2.0,
            declared_r=0.05,
        )
        # One level of two intervals, coarse enough to land on the center.
        coarse = RefinementSchedule(
            eps=(0.04,),
            delta=(1.0,),
            grids=(TimeGrid.dyadic(2.0, 1),),
            r=0.05,
        )
        with pytest.raises(TubeViolation) as err:
            converge_study(fam, (0.0, 0.0), coarse)
        assert err.value.level == 0

    def test_json_dict_replaces_nan(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        sched = build_schedule(fam, 1.0, 0.1, 0.5, 2)
        rep = converge_study(fam, (0.5, 0.0), sched)
        d = rep.to_json_dict()
        assert d["sup_diffs"][-1] is None
        assert d["cauchy_ratios"][-1] is None

    def test_cauchy_ratios_level_independent_on_obstacle(self):
        # For a genuinely curved run the squared-gap-to-tolerance ratios vary
        # slowly: consecutive values stay within a factor of 4.
        fam = RadiusFamily(
            LinearPath((-1.0, 0.0), (1.0, 0.0)), ConstantPath(0.5), True, 2.0
        )
        sched = build_schedule(fam, 2.0, 0.1, 0.5, 6)
        rep = converge_study(fam, (0.0, 0.1), sched)
        ratios = rep.cauchy_ratios
        for a, b in zip(ratios, ratios[1:]):
            assert max(a, b) / min(a, b) < 4.0

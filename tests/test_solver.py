import numpy as np
import pytest

from sweepsolve import solver as solver_mod
from sweepsolve.errors import (
    CertificationFailed,
    InfeasibleInitialPoint,
    OutOfRange,
    TubeViolation,
)
from sweepsolve.families import RadiusFamily, RigidFamily, TranslateFamily
from sweepsolve.geometry import TimeGrid
from sweepsolve.paths import ConstantPath, LinearPath
from sweepsolve.sets import Ball, BallComplement, HalfSpace, Polytope, halfspace
from sweepsolve.solver import (
    DiscreteTrajectory,
    affine_interpolant,
    certify_steps,
    solve,
    step_interpolant,
    write_trajectory_csv,
)

import oracles


def sweep_family(horizon=2.0):
    return TranslateFamily(
        HalfSpace((1.0, 0.0), 1.0), LinearPath((0.0, 0.0), (-1.0, 0.0)), horizon=horizon
    )


def obstacle_family(horizon=2.0):
    return RadiusFamily(
        LinearPath((-1.0, 0.0), (1.0, 0.0)), ConstantPath(0.5), True, horizon
    )


TRIANGLE = Polytope(
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

    def counting(self, y):
        calls.append(tuple(y))
        return solve_once(self, y)

    monkeypatch.setattr(Polytope, "_solve", counting)
    y0 = (0.0, 0.9)
    traj = solve(family, y0, TimeGrid.uniform(1.0, 1), eps_level=1.0)
    assert len(calls) == 1
    assert family.at(1.0).contains(traj.points[1])
    assert traj.jump_norms[0] > 0.0


@pytest.mark.parametrize(
    "family, y0, eps_level",
    [
        (obstacle_family(), (0.0, 0.1), 0.05),
        (sweep_family(), (0.0, 0.0), 0.05),
        (RigidFamily(TRIANGLE, LinearPath(0.0, 1.0), (1.0 / 3, 1.0 / 3), horizon=1.0),
         (0.1, 0.8), 0.5),
    ],
    ids=["obstacle", "sweep", "rotating_triangle"],
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

    def test_step_values(self):
        y = step_interpolant(self.make())
        assert np.allclose(y(0.0), (0.0, 0.0))
        assert np.allclose(y(1.0 - 1e-12), (0.0, 0.0))
        assert np.allclose(y(1.0), (1.0, 0.0))
        assert np.allclose(y(2.0), (1.0, 1.0))
        with pytest.raises(OutOfRange):
            y(2.5)

    def test_affine_values(self):
        x = affine_interpolant(self.make())
        assert np.allclose(x(0.5), (0.5, 0.0))
        assert np.allclose(x(1.0), (1.0, 0.0))
        assert np.allclose(x(2.0), (1.0, 1.0))
        many = x(np.array([0.0, 0.25, 2.0]))
        assert many.shape == (3, 2)

    def test_gap_below_eps_on_sweep(self):
        fam = sweep_family()
        grid = TimeGrid.uniform(2.0, 128)
        traj = solve(fam, (0.0, 0.0), grid, eps_level=0.05)
        y = step_interpolant(traj)
        x = affine_interpolant(traj)
        ts = np.linspace(0.0, 2.0, 1000)
        gap = max(np.linalg.norm(x(float(t)) - y(float(t))) for t in ts)
        assert gap < traj.eps_level


class TestCertification:
    def test_static_trajectory_empty(self):
        fam = TranslateFamily(Ball((0.0, 0.0), 1.0), ConstantPath((0.0, 0.0)), 1.0)
        traj = solve(fam, (0.5, 0.0), TimeGrid.uniform(1.0, 8), eps_level=0.1)
        assert certify_steps(fam, traj) == []

    def test_sweep_normals_parallel_to_wall(self):
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 100), eps_level=0.05)
        certs = certify_steps(fam, traj, seed=2)
        assert certs
        for c in certs:
            assert c.defect_bound <= 1e-9
            assert c.audit is None or c.audit.worst_residual <= c.defect_bound
            n = traj.points[c.j - 1] - traj.points[c.j]
            assert abs(n[1]) <= 1e-12  # aligned with the wall normal
            assert c.distance_moved <= c.excess_bound_used * (1 + 1e-12)

    def test_obstacle_finite_r_residuals(self):
        fam = obstacle_family()
        traj = solve(fam, (0.0, 0.1), TimeGrid.uniform(2.0, 400), eps_level=0.01)
        certs = certify_steps(fam, traj, seed=3)
        assert certs
        assert max(c.defect_bound for c in certs) <= 1e-8
        audits = [c for c in certs if c.audit is not None]
        assert len(audits) == solver_mod.NORMAL_AUDIT_STEPS
        assert all(c.audit.worst_residual <= c.defect_bound for c in audits)
        assert all(c.audit.samples == solver_mod.NORMAL_AUDIT_SAMPLES for c in audits)

    def test_audit_covers_the_worst_bound_and_seeded_steps(self):
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 100), eps_level=0.05)
        certs = certify_steps(fam, traj, seed=5)
        audited = [c.j for c in certs if c.audit is not None]
        assert len(audited) == solver_mod.NORMAL_AUDIT_STEPS
        worst = max(certs, key=lambda c: c.defect_bound)
        assert worst.audit is not None
        assert [c.j for c in certify_steps(fam, traj, seed=5) if c.audit] == audited
        # With fewer moving steps than the audit size, every step is audited.
        short = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 2), eps_level=1.5)
        assert all(c.audit is not None for c in certify_steps(fam, short))

    def test_nan_bound_fails(self, monkeypatch):
        monkeypatch.setattr(HalfSpace, "_normal_defect", lambda self, x, n, R: float("nan"))
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 8), eps_level=0.5)
        with pytest.raises(CertificationFailed, match="normal-defect bound nan"):
            certify_steps(fam, traj)

    def test_failure_message_shows_the_tolerance(self, monkeypatch):
        # A tolerance far below every residual fails the first moving step; the
        # message must carry the constant in force, not a copy of its value.
        monkeypatch.setattr(solver_mod, "CERTIFICATION_TOL", -1e3)
        fam = sweep_family()
        traj = solve(fam, (0.0, 0.0), TimeGrid.uniform(2.0, 8), eps_level=0.5)
        with pytest.raises(CertificationFailed) as err:
            certify_steps(fam, traj, seed=1)
        assert err.value.tol == -1e3
        assert "exceeds -1.000e+03" in str(err.value)


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

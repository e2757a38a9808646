"""Per-shape micro-benchmarks of sweepsolve's projection, distance and excess layers.

    python3 tools/microbench.py

Run it from a source checkout: it imports sweepsolve from the checkout's
src/ directory.  It prints one JSON line with

- project_us: microseconds per _project_fields call of each shape class in
  sets.SHAPES (the rigid image is the unit triangle turned by 0.4 rad and
  moved), at a member and at a non-member;
- distances_us_per_row: microseconds per row of one _distances call of each
  of those shapes on a block of 64 points around it;
- excess_us: microseconds per excess(A, B) of a few pairs, each answered by
  the shapes' rules, or for a pair that none covers (a 3-D cube over a ball)
  by the deterministic [lower, inf], with no sampling;
- step_us: microseconds per moved step of one _steps call, solve's stepping
  kernel, over the 4096 rows of a 2-D half-space, ball and ball complement
  translate that moves the iterate on every row;
- walk_us_per_row: microseconds per row of one solve call over the 4096 unit
  steps of a 2-D half-space, ball complement and triangle translate that
  moves for 64 steps, then stands still for 64, and so on: solve's walk over
  both kinds of block, stepping and resting;

and the interpreter, numpy and machine it ran on.  Each figure is the best of
5 timed runs of 2000 calls (250 calls of _distances on the block, 10 of _steps
and of solve).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sweepsolve.families import TranslateFamily, excess  # noqa: E402
from sweepsolve.geometry import TimeGrid  # noqa: E402
from sweepsolve.paths import ConstantPath, LinearPath, PiecewisePath  # noqa: E402
from sweepsolve.sets import (  # noqa: E402
    SHAPES,
    Ball,
    BallComplement,
    Box,
    RigidImage,
    halfspace,
    polytope,
    rotation_matrix_2d,
)
from sweepsolve.solver import solve  # noqa: E402

NUMBER, REPEAT = 2000, 5

TRIANGLE = polytope((halfspace((-1.0, 0.0), 0.0), halfspace((0.0, -1.0), 0.0),
                     halfspace((1.0, 1.0), 1.0)), (0.2, 0.2))
TURN, SHIFT = rotation_matrix_2d(0.4), np.array([0.1, 0.0])


def _moved(p):
    return TURN @ np.array(p) + SHIFT


# Tag -> (shape, a member, a non-member).  The triangle's non-member (1, 1)
# projects onto its long face in two passes of the active-set solve, as each
# solve of the bundled rotating triangle does.
CASES = {
    "halfspace": (halfspace((1.0, 0.0), 0.0), (-1.0, 0.5), (1.0, 0.5)),
    "ball": (Ball((0.0, 0.0), 1.0), (0.3, 0.2), (2.0, 1.0)),
    "box": (Box((0.0, 0.0), (1.0, 1.0)), (0.5, 0.5), (2.0, -1.0)),
    "polytope": (TRIANGLE, (0.25, 0.25), (1.0, 1.0)),
    "ball_complement": (BallComplement((0.0, 0.0), 0.5), (1.0, 0.0), (0.2, 0.1)),
    "rigid_image": (RigidImage(TRIANGLE, TURN, SHIFT), _moved((0.25, 0.25)), _moved((1.0, 1.0))),
}
assert CASES.keys() == SHAPES.keys()

# Name -> (A, B) of excess(A, B): each pair but the cube over the ball has a
# rule, exact or an interval; that one gets [lower, inf] from the cube's point
# nearest the origin.
CUBE = polytope(tuple(halfspace(a, 1.0) for a in np.vstack([np.eye(3), -np.eye(3)])),
                (0.0, 0.0, 0.0))
PAIRS = {
    "rigid_triangle_over_rigid_triangle": (RigidImage(TRIANGLE, rotation_matrix_2d(0.45), SHIFT),
                                           CASES["rigid_image"][0]),
    "box_over_triangle": (Box((0.5, 0.5), (1.5, 1.0)), TRIANGLE),
    "ball_over_triangle": (Ball((0.3, 0.3), 0.5), TRIANGLE),
    "ball_over_ball": (Ball((0.3, 0.0), 1.0), Ball((0.0, 0.0), 1.0)),
    "cube_over_ball_3d": (CUBE, Ball((0.0, 0.0, 0.0), 1.0)),
}


# Tag -> (shape, its motion per row, an iterate on its boundary): a wall
# pushing the iterate, a ball dragging it and a hole pushing it, every row.
STEP_ROWS = 4096
STEPPERS = {
    "halfspace": (halfspace((1.0, 0.0), 0.0), (-1e-3, 0.0), (0.0, 0.5)),
    "ball": (Ball((0.0, 0.0), 1.0), (1e-3, 0.0), (-1.0, 0.0)),
    "ball_complement": (BallComplement((0.0, 0.0), 0.5), (1e-3, 0.0), (0.5, 0.0)),
}


def step_us(shape, rate, y) -> float:
    """Microseconds per moved step of _steps over STEP_ROWS rows of the
    shape moving by rate per row, from y: every row moves the iterate."""
    rows = shape._moved(np.arange(1.0, STEP_ROWS + 1.0)[:, None] * np.array(rate))
    y, D = np.array(y), []
    type(shape)._steps(rows, y, 1e-10, np.inf, [], D)
    assert len(D) == STEP_ROWS and min(D) > 0.0
    return best_us(lambda: type(shape)._steps(rows, y, 1e-10, np.inf, [], []), 10) / STEP_ROWS


# Tag -> (shape, its motion per moving step, an iterate on its boundary): the
# same pushes, at a dyadic rate so that each resting run's rows are exactly
# the last moved row's and the iterate rests on all of them.
WALK_ROWS, WALK_RUN = 4096, 64
WALKERS = {
    "halfspace": (halfspace((1.0, 0.0), 0.0), (-1.0 / 64, 0.0), (0.0, 0.5)),
    "ball_complement": (BallComplement((0.0, 0.0), 0.5), (1.0 / 64, 0.0), (0.5, 0.0)),
    "triangle": (TRIANGLE, (1.0 / 64, 0.0), (0.0, 0.25)),
}


def walk_us_per_row(shape, rate, y) -> float:
    """Microseconds per row of solve over WALK_ROWS unit steps of the shape
    moving by rate per step for WALK_RUN steps, then standing still for
    WALK_RUN, and so on, from y: half the rows step, half rest."""
    rate, at, pieces = np.array(rate), np.zeros(2), []
    for t in range(0, WALK_ROWS, 2 * WALK_RUN):
        pieces.append((float(t + WALK_RUN), LinearPath(at - t * rate, rate)))
        at = at + WALK_RUN * rate
        pieces.append((float(t + 2 * WALK_RUN), ConstantPath(at)))
    family = TranslateFamily(shape, PiecewisePath(tuple(pieces)), float(WALK_ROWS))
    grid = TimeGrid(np.arange(WALK_ROWS + 1.0))
    traj = solve(family, y, grid, eps_level=1.0)
    assert np.count_nonzero(traj.jump_norms) == WALK_ROWS // 2
    return best_us(lambda: solve(family, y, grid, eps_level=1.0), 10) / WALK_ROWS


def best_us(call, number: int = NUMBER) -> float:
    return min(timeit.Timer(call).repeat(REPEAT, number)) / number * 1e6


def measure() -> dict:
    project = {}
    for tag, (shape, member, outside) in CASES.items():
        row, kind = shape._row, SHAPES[tag]
        project[tag] = {
            name: round(best_us(lambda y=np.array(y): kind._project_fields(row, y, 1e-10)), 3)
            for name, y in (("member", member), ("non_member", outside))}
    block = np.random.default_rng(0).uniform(-2.0, 2.0, (64, 2))
    distances = {
        tag: round(best_us(lambda s=shape: s._distances(block), NUMBER // 8) / len(block), 3)
        for tag, (shape, _, _) in CASES.items()}
    pairs = {name: round(best_us(lambda a=a, b=b: excess(a, b)), 3)
             for name, (a, b) in PAIRS.items()}
    steps = {tag: round(step_us(*case), 3) for tag, case in STEPPERS.items()}
    walks = {tag: round(walk_us_per_row(*case), 3) for tag, case in WALKERS.items()}
    return {"project_us": project, "distances_us_per_row": distances, "excess_us": pairs,
            "step_us": steps, "walk_us_per_row": walks,
            "number": NUMBER, "repeat": REPEAT, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "cpus": os.cpu_count()}


if __name__ == "__main__":
    print(json.dumps(measure()))

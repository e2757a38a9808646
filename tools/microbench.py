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

and the interpreter, numpy and machine it ran on.  Each figure is the best of
5 timed runs of 2000 calls (250 calls of _distances on the block).
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

from sweepsolve.families import excess  # noqa: E402
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
    return {"project_us": project, "distances_us_per_row": distances, "excess_us": pairs,
            "number": NUMBER, "repeat": REPEAT, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "cpus": os.cpu_count()}


if __name__ == "__main__":
    print(json.dumps(measure()))

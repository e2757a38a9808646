"""Golden trajectory CSVs: every level of the six bundled scenarios, solved at
the scenario's own schedule, must stay byte-identical to the recorded SHA-256
digests in data/csv_digests.json.  The checks are skipped; only the solver
output is compared.  The nine-level CSVs of the half-space sweep and the
moving obstacle are compared with the deep_refinement digests of the
benchmark, bench/csv_digests.json, which the tests only read.  The canonical scenario documents written by
serialize_scenario are pinned the same way in data/scenario_digests.json, the
trajectory and convergence SVGs in data/svg_digests.json, and the report of a
full run (every check's verdict, margin and note, and the convergence gaps,
variations and ratios) in data/report_digests.json.  Beyond the bundled
runs, Hypothesis compares the writers' one-call formatting with the per-row
and per-point formatting that they replaced, on awkward floats."""

import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sweepsolve.harness import run, scenario_schedule
from sweepsolve.scenarios import BUILTIN_NAMES, load_builtin, serialize_scenario
from sweepsolve.solver import write_trajectory_csv
from sweepsolve.svgplot import _f, _x_to_px, _y_to_px, write_convergence_svg, write_trajectory_svg
from sweepsolve.variation import converge_study

DIGESTS = Path(__file__).parent / "data" / "csv_digests.json"
SCENARIO_DIGESTS = Path(__file__).parent / "data" / "scenario_digests.json"
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
SVG_DIGESTS = Path(__file__).parent / "data" / "svg_digests.json"
BENCH_DIGESTS = Path(__file__).parent.parent / "bench" / "csv_digests.json"
DEEP_LEVELS = 9


def study(name: str, levels: int | None = None):
    """Convergence study of the bundled scenario at its own schedule, cut or
    extended to levels when given."""
    scenario = load_builtin(name)
    return converge_study(scenario.family, scenario.y0, scenario_schedule(scenario, levels))


def digests(paths) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def csv_digests(name: str, out_dir: Path, levels: int | None = None) -> dict:
    """File name -> SHA-256 of each level CSV of the bundled scenario."""
    paths = []
    for n, traj in enumerate(study(name, levels).trajectories):
        paths.append(out_dir / f"{name}_level{n}.csv")
        write_trajectory_csv(traj, paths[-1])
    return digests(paths)


def svg_digests(name: str, out_dir: Path) -> dict:
    """File name -> SHA-256 of the two SVGs that run(..., svg=True) writes:
    the finest trajectory and the convergence bars."""
    report = study(name)
    write_trajectory_svg(out_dir / "trajectory.svg", report.trajectories[-1])
    write_convergence_svg(out_dir / "convergence.svg", report)
    return digests([out_dir / "trajectory.svg", out_dir / "convergence.svg"])


def test_golden_set_covers_every_bundled_scenario():
    recorded = json.loads(DIGESTS.read_text("utf-8"))
    assert sorted(recorded) == sorted(BUILTIN_NAMES)
    assert sum(len(files) for files in recorded.values()) == 34


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_csv_bytes_match_golden_digests(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text("utf-8"))
    assert csv_digests(name, tmp_path) == recorded[name]


@pytest.mark.parametrize("name", ["sweep_halfspace", "moving_obstacle"])
def test_nine_level_csv_bytes_match_the_benchmark_digests(name, tmp_path):
    recorded = json.loads(BENCH_DIGESTS.read_text("utf-8"))["deep_refinement"]
    expected = {file: digest for file, digest in recorded.items() if file.startswith(name)}
    assert len(expected) == DEEP_LEVELS
    assert csv_digests(name, tmp_path, DEEP_LEVELS) == expected


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_svg_bytes_match_golden_digests(name, tmp_path):
    recorded = json.loads(SVG_DIGESTS.read_text("utf-8"))
    assert sorted(recorded) == sorted(BUILTIN_NAMES)
    assert svg_digests(name, tmp_path) == recorded[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_serialized_scenario_matches_golden_digest(name):
    recorded = json.loads(SCENARIO_DIGESTS.read_text("utf-8"))
    text = serialize_scenario(load_builtin(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == recorded[name]


def report_verdicts(name: str, out_dir: Path) -> dict:
    """The timing-free part of a full run's report.json: checks and the
    consecutive gaps, variations and Cauchy ratios (null for the finest level)."""
    payload = run(load_builtin(name), out_dir).to_json_dict()
    convergence = json.loads((out_dir / "report.json").read_text("utf-8"))["convergence"]
    return {
        "checks": payload["checks"],
        "sup_diffs": convergence["sup_diffs"],
        "variations": convergence["variations"],
        "cauchy_ratios": convergence["cauchy_ratios"],
    }


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_verdicts_match_golden(name, tmp_path):
    recorded = json.loads(REPORT_DIGESTS.read_text("utf-8"))
    assert report_verdicts(name, tmp_path) == recorded[name]


# Cells of the byte-equality tables: any finite float, subnormals, signed
# zeros, the smallest subnormal and values near the largest float.
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308)),
)


@st.composite
def _node_tables(draw):
    """(nodes, 1 + dim + 2) table of 2 to 40 nodes in dimension 1 to 3, drawn
    as runs of repeated cells (up to 3 nodes' worth each)."""
    nodes, dim = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    cells, runs = [], st.tuples(_CELLS, st.integers(1, 3 * (dim + 3)))
    while len(cells) < nodes * (dim + 3):
        value, run = draw(runs)
        cells += [value] * run
    return np.reshape(cells[:nodes * (dim + 3)], (nodes, dim + 3))


def _trajectory(table):
    """A stand-in trajectory whose columns are the table's (times, points,
    arriving jump norms with the first row's dropped, distances), unchecked so
    that every cell may hold any float: what the writers read of one."""
    dim = table.shape[1] - 3
    return SimpleNamespace(grid=SimpleNamespace(times=table[:, 0]), points=table[:, 1:1 + dim],
                           jump_norms=table[1:, 1 + dim], dist_to_set=table[:, -1],
                           dim=dim, level=0)


@settings(max_examples=100, deadline=None)
@given(_node_tables())
def test_csv_is_the_per_row_formatting_byte_for_byte(tmp_path_factory, table):
    traj = _trajectory(table)
    path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
    write_trajectory_csv(traj, path)
    # The reference: one %-call per row on its cell list, joined by newlines.
    header = "t," + ",".join(f"x_{i}" for i in range(traj.dim)) + ",jump_norm,dist_to_set"
    arriving = np.concatenate(([0.0], traj.jump_norms))
    cells = np.column_stack((traj.grid.times, traj.points, arriving, traj.dist_to_set))
    row = ",".join(["%.17g"] * cells.shape[1])
    lines = [header] + [row % tuple(values) for values in cells.tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(_node_tables())
def test_svg_polylines_are_the_per_point_formatting_byte_for_byte(tmp_path_factory, table):
    traj = _trajectory(table)
    path = tmp_path_factory.mktemp("svg") / "trajectory.svg"
    with np.errstate(all="ignore"):  # spans near the largest float overflow to inf
        write_trajectory_svg(path, traj)
        times, pts = traj.grid.times, traj.points
        y_lo, y_hi = float(pts.min()), float(pts.max())
        if y_hi - y_lo < 1e-12:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        xs = _x_to_px(times, times[0], times[-1]).tolist()
        # The reference: one f-string per point, joined by spaces.
        expected = [" ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xs, ys))
                    for ys in (_y_to_px(pts[:, i], y_lo, y_hi).tolist() for i in range(traj.dim))]
    assert re.findall(r'<polyline points="([^"]*)"', path.read_text("utf-8")) == expected

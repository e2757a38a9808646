"""Workloads of the time-to-verified-solution benchmark: generated inputs,
one timed pass over them, and the checks on every output.

Every input is generated from the workload seed, which becomes the `seed` of
each scenario document and of each excess sampling budget. An operation is
one `harness.run` call or one excess or audit call; it fails when it raises
or when any check on its output fails.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from tracer import Target

families = importlib.import_module("sweepsolve.families")
harness = importlib.import_module("sweepsolve.harness")
scenarios = importlib.import_module("sweepsolve.scenarios")

# Why each one was chosen: bench/README.md and BENCHMARK.json.
WORKLOADS = ("rotating_polytope", "closed_form_suite", "deep_refinement", "excess_audit")

CLOSED_FORM = ("static_ball", "sweep_halfspace", "shrinking_ball_inner_cert",
               "moving_obstacle", "jump_expansion")
DEEP = ("sweep_halfspace", "moving_obstacle")
DEEP_LEVELS = 9
AUDIT_PAIRS = 50
MIXED_PAIRS = 12

# Every check passes except this one, whose fixed inner ball is not declared.
EXPECTED_VERDICTS = {("sweep_halfspace", "ball_bound"): "inapplicable"}
CONSTRAINT_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
EXCESS_TOL = 1e-9

TARGETS = (
    Target("sweepsolve.harness", "run", "harness.run", "harness", True),
    Target("sweepsolve.families", "build_schedule", "families.build_schedule", "families", True),
    Target("sweepsolve.variation", "converge_study", "variation.converge_study", "variation", True),
    Target("sweepsolve.solver", "solve", "solver.solve", "solver", True),
    Target("sweepsolve.variation", "union_sample_times", "variation.union_sample_times",
           "variation", True),
    Target("sweepsolve.variation", "sup_norm_gap", "variation.sup_norm_gap", "variation", True),
    Target("sweepsolve.solver", "write_trajectory_csv", "solver.write_trajectory_csv",
           "solver", True),
    Target("sweepsolve.solver", "certify_steps", "solver.certify_steps", "solver", True, len),
    Target("sweepsolve.sets", "sample_points", "sets.sample_points", "sets", True, len),
    Target("sweepsolve.sets", "normal_residual", "sets.normal_residual", "sets", True),
    Target("sweepsolve.families", "verify_inner_ball", "harness.verify_inner_ball",
           "families", True),
    Target("sweepsolve.variation", "choose_cone_params", "harness.cone_params", "variation", True),
    Target("sweepsolve.variation", "cone_variation_bound", "harness.cone_params",
           "variation", True),
    Target("sweepsolve.svgplot", "write_trajectory_svg", "svgplot.write", "svgplot", True),
    Target("sweepsolve.svgplot", "write_convergence_svg", "svgplot.write", "svgplot", True),
    Target("sweepsolve.families", "excess", "families.excess", "families", True),
    Target("sweepsolve.families", "validate_analytic_modulus",
           "families.validate_analytic_modulus", "families", True),
    Target("sweepsolve.scenarios", "parse_scenario", "scenarios.parse_scenario",
           "scenarios", True),
    Target("sweepsolve.sets", "ProxSet.contains", "sets.contains", "sets", False),
    Target("sweepsolve.sets", "ProxSet.distance", "sets.distance", "sets", False),
    Target("sweepsolve.sets", "ProxSet.project", "sets.project", "sets", False),
    Target("sweepsolve.families", "MovingFamily.at", "families.at", "families", False),
)


def _scenario_doc(name: str, seed: int, levels=None, checks=None) -> str:
    """A bundled scenario document with the workload seed (and optionally
    its level count and checks) replaced."""
    doc = json.loads(scenarios.builtin_text(name))
    doc["seed"] = seed
    if levels is not None:
        doc["schedule"]["levels"] = levels
    if checks is not None:
        doc["checks"] = checks
    return json.dumps(doc)


def _triangle(u) -> dict:
    """The unit right triangle moved by u, as a polytope shape document."""
    return {"shape": "polytope",
            "faces": [{"normal": [-1.0, 0.0], "offset": -u[0]},
                      {"normal": [0.0, -1.0], "offset": -u[1]},
                      {"normal": [1.0, 1.0], "offset": 1.0 + u[0] + u[1]}],
            "interior": [0.25 + u[0], 0.25 + u[1]]}


def _mixed_pairs(seed: int) -> list:
    """(A, B) shape documents whose excess has no closed form in sweepsolve."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(MIXED_PAIRS):
        triangle = _triangle([float(x) for x in rng.uniform(-0.5, 0.5, 2)])
        ball = {"shape": "ball", "center": [float(x) for x in rng.uniform(-0.5, 1.5, 2)],
                "radius": float(rng.uniform(0.3, 0.7))}
        lo = rng.uniform(-0.5, 0.5, 2)
        box = {"shape": "box", "lo": [float(x) for x in lo],
               "hi": [float(x) for x in lo + rng.uniform(0.5, 1.2, 2)]}
        pairs.append([(triangle, ball), (box, ball), (triangle, box), (ball, triangle)][k % 4])
    return pairs


def generate(workload: str, seed: int) -> dict:
    """The workload's input documents; the program sees nothing else."""
    pairs = []
    if workload == "rotating_polytope":
        docs = [_scenario_doc("polytope_rotation", seed)]
    elif workload == "closed_form_suite":
        docs = [_scenario_doc(name, seed) for name in CLOSED_FORM]
    elif workload == "deep_refinement":
        docs = [_scenario_doc(name, seed, levels=DEEP_LEVELS, checks=["constraint", "cauchy"])
                for name in DEEP]
    elif workload == "excess_audit":
        docs = [_scenario_doc("polytope_rotation", seed)]
        pairs = _mixed_pairs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"scenarios": docs, "pairs": pairs}


# Exact geometry computed here, independently of sweepsolve's projections.

def _vertices(doc: dict) -> np.ndarray:
    """Counter-clockwise vertices of a 2-D polytope or box shape document."""
    if doc["shape"] == "box":
        (x0, y0), (x1, y1) = doc["lo"], doc["hi"]
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    faces = doc["faces"]
    verts = []
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            a = np.array([faces[i]["normal"], faces[j]["normal"]], dtype=float)
            b = np.array([faces[i]["offset"], faces[j]["offset"]], dtype=float)
            if abs(np.linalg.det(a)) > 1e-12:
                v = np.linalg.solve(a, b)
                if all(np.dot(f["normal"], v) <= f["offset"] + 1e-9 for f in faces):
                    verts.append(v)
    center = np.mean(verts, axis=0)
    verts.sort(key=lambda v: math.atan2(v[1] - center[1], v[0] - center[0]))
    return np.array(verts)


def _polygon_distance(p: np.ndarray, verts: np.ndarray) -> float:
    """Distance from p to a convex polygon given by counter-clockwise vertices."""
    edges = np.roll(verts, -1, axis=0) - verts
    rel = p - verts
    if np.all(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0] >= 0.0):
        return 0.0
    along = np.clip(np.einsum("ij,ij->i", rel, edges) / np.einsum("ij,ij->i", edges, edges), 0, 1)
    return float(np.min(np.linalg.norm(rel - along[:, None] * edges, axis=1)))


def _distance(p: np.ndarray, doc: dict) -> float:
    if doc["shape"] == "ball":
        return max(float(np.linalg.norm(p - np.array(doc["center"]))) - doc["radius"], 0.0)
    return _polygon_distance(p, _vertices(doc))


def excess_upper_bound(a: dict, b: dict) -> float:
    """Upper bound on sup_{x in A} d(x, B) for convex B. For a polygon A it is
    exact (the largest vertex distance); for a ball A it is d(center, B) + radius."""
    if a["shape"] == "ball":
        return _distance(np.array(a["center"], dtype=float), b) + a["radius"]
    return max(_distance(v, b) for v in _vertices(a))


def _rotating_vertices(doc: dict, t: float) -> np.ndarray:
    fam = doc["family"]
    angle = fam["angle"]["value"] + fam["angle"]["rate"] * t
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    pivot = np.array(fam["pivot"], dtype=float)
    return (_vertices(fam["base"]) - pivot) @ q.T + pivot


def audit_upper_bound(doc: dict, family, seed: int) -> float:
    """Upper bound on what validate_analytic_modulus(family, AUDIT_PAIRS, seed)
    may return: the same forward pairs, with exact excess in place of sampled."""
    omega = family.modulus()
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(AUDIT_PAIRS):
        s, t = sorted(rng.random(2) * family.horizon)
        if t <= s:
            continue
        later = _rotating_vertices(doc, t)
        exact = max(_polygon_distance(v, later) for v in _rotating_vertices(doc, s))
        worst = max(worst, exact - omega(t - s) * (1.0 + 1e-6))
    return worst


@dataclass
class Inputs:
    workload: str
    seed: int
    scenarios: list
    # For excess_audit: (family, bound) for the audit and (A, B, bound, budget) per pair.
    audit: tuple = ()
    pairs: list = field(default_factory=list)


def parse(workload: str, seed: int, configs: dict) -> Inputs:
    parsed = [scenarios.parse_scenario(text) for text in configs["scenarios"]]
    inputs = Inputs(workload, seed, parsed)
    if workload == "excess_audit":
        family = parsed[0].family
        inputs.audit = (family, audit_upper_bound(json.loads(configs["scenarios"][0]), family, seed))
        for k, (a, b) in enumerate(configs["pairs"]):
            inputs.pairs.append((scenarios.shape_from_dict(a, "pair.A"),
                                 scenarios.shape_from_dict(b, "pair.B"),
                                 excess_upper_bound(a, b),
                                 families.SamplingBudget(seed=seed + k)))
    return inputs


@dataclass
class PassResult:
    seconds: list = field(default_factory=list)  # one per operation
    failures: list = field(default_factory=list)  # one message per failed operation
    nodes: int = 0  # grid nodes over all levels
    steps: int = 0  # grid intervals over all levels
    csv_digests: dict = field(default_factory=dict)  # file name -> sha256
    csv_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_pass(inputs: Inputs, out_dir, clock=time.perf_counter) -> PassResult:
    """One pass, one operation at a time, each timed by `clock`; checks run
    between operations."""
    result = PassResult()
    if inputs.workload == "excess_audit":
        _audit_pass(inputs, result, clock)
    else:
        for scenario in inputs.scenarios:
            _scenario_op(scenario, inputs.workload, out_dir, result, clock)
    return result


def _op(result: PassResult, clock, label: str, fn, *args, **kwargs):
    """Time one operation. One that raises is counted as failed and gives None."""
    start = clock()
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # a failed operation is counted, the run goes on
        result.failures.append(f"{label}: {type(err).__name__}: {err}")
        return None
    finally:
        result.seconds.append(clock() - start)


def _scenario_op(scenario, workload: str, out_dir, result: PassResult, clock):
    out = out_dir / scenario.name
    report = _op(result, clock, scenario.name, harness.run, scenario, out,
                 svg=workload == "closed_form_suite")
    if report is None:
        return
    problems = []
    for check in report.checks:
        expected = EXPECTED_VERDICTS.get((scenario.name, check.name), "pass")
        if check.verdict != expected:
            problems.append(f"check {check.name} is {check.verdict}, expected {expected}")
    levels = [dict(row) for row in report.level_rows]
    for n, row in enumerate(levels):
        result.nodes += row["intervals"] + 1
        result.steps += row["intervals"]
        name = f"{scenario.name}_level{n}.csv"
        data = (out / name).read_bytes()
        result.csv_digests[name] = hashlib.sha256(data).hexdigest()
        result.csv_bytes += len(data)
        rows = [line.split(",") for line in data.decode("utf-8").splitlines()[1:]]
        worst = max(float(r[-1]) for r in rows)
        if not worst <= CONSTRAINT_TOL:
            problems.append(f"{name}: dist_to_set {worst:.3e} read back above {CONSTRAINT_TOL}")
        if scenario.name == "sweep_halfspace" and n == len(levels) - 1:
            gap = max(max(abs(float(r[1]) - min(0.0, 1.0 - float(r[0]))), abs(float(r[2])))
                      for r in rows)
            if not gap <= CLOSED_FORM_TOL:
                problems.append(f"{name}: {gap:.3e} away from the play solution (min(0, 1-t), 0)")
    if problems:
        result.failures.append(f"{scenario.name}: " + "; ".join(problems))


def _audit_pass(inputs: Inputs, result: PassResult, clock):
    family, bound = inputs.audit
    worst = _op(result, clock, "audit", families.validate_analytic_modulus, family,
                pairs=AUDIT_PAIRS, seed=inputs.seed,
                budget=families.SamplingBudget(count=48, hill_steps=20, seed=inputs.seed))
    if worst is not None and not worst <= min(bound + EXCESS_TOL, 0.0):
        result.failures.append(
            f"audit: worst excess minus modulus {worst:.6g} above exact {bound:.6g} or 0")
    for k, (a, b, upper, budget) in enumerate(inputs.pairs):
        est = _op(result, clock, f"pair {k}", families.excess, a, b, budget)
        if est is not None and not 0.0 <= est.lower <= upper + EXCESS_TOL:
            result.failures.append(f"pair {k}: sampled excess {est.lower:.6g} outside [0, {upper:.6g}]")

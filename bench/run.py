"""Time-to-verified-solution benchmark for sweepsolve.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-digests

Run it from a source checkout: it imports sweepsolve from the
checkout's src/ directory and writes only to .bench_work/ there, which it
removes before exiting. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones (ref_wall_s, setup_s, peak_rss_mb); with
--trace 1 they are the per-layer ones from a traced run. --record-digests
stores the SHA-256 of every CSV that each workload writes (seed 0) in
bench/csv_digests.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer, installed, layer_self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "csv_digests.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_PERIOD_S = 0.01

# Runs in a fresh interpreter: import sweepsolve and parse the generated
# configs, timed by the reference clock (which needs numpy loaded first).
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[3])
from refclock import RefClock
with open(sys.argv[2], encoding="utf-8") as fh:
    configs = json.load(fh)
with RefClock(period=float(sys.argv[4])) as clock:
    start = clock()
    sys.path.insert(0, sys.argv[1])
    from sweepsolve import scenarios
    for text in configs["scenarios"]:
        scenarios.parse_scenario(text)
    for a, b in configs["pairs"]:
        scenarios.shape_from_dict(a, "pair.A")
        scenarios.shape_from_dict(b, "pair.B")
    print(clock() - start)
"""


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "loop": "closed, one operation at a time, one process, no threads"}


def measure_setup(configs_path: Path) -> list:
    """Reference seconds to import sweepsolve and parse the configs, in fresh
    processes that have imported numpy already."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(configs_path), str(HERE),
             str(SETUP_PERIOD_S)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT, env=os.environ)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_passes(workloads, inputs, seconds: float, trace: bool, work: Path):
    """Closed loop of passes until the next one would overrun the budget.

    Untraced runs repeat untraced passes; traced runs alternate an untraced
    and a traced pass, at least one of each. Operations and spans are timed
    in reference seconds. Returns (tracer or None, result) per pass, and the
    reference clock's calibration times.
    """
    from refclock import RefClock  # imports numpy, so only after main() pins BLAS

    passes = []
    started = time.perf_counter()
    longest = 0.0
    with RefClock() as clock:
        while True:
            tracer = Tracer(clock=clock) if trace and len(passes) % 2 == 1 else None
            out_dir = work / f"pass{len(passes)}"
            begun = time.perf_counter()
            with installed(tracer, workloads.TARGETS) if tracer else nullcontext():
                result = workloads.run_pass(inputs, out_dir, clock)
            shutil.rmtree(out_dir, ignore_errors=True)
            passes.append((tracer, result))
            longest = max(longest, time.perf_counter() - begun)
            if len(passes) >= (2 if trace else 1) and (
                    time.perf_counter() - started + longest > seconds):
                return passes, clock.samples


def layer_metrics(workloads, tracer, result, recorded: dict) -> dict:
    """Per-layer values of one traced pass."""
    def per(total, base, scale=1.0):
        return total * scale / base if base else 0.0

    calls, incl = tracer.calls, tracer.inclusive_seconds
    own = tracer.self_seconds()
    layers = layer_self_seconds(tracer, workloads.TARGETS)
    m = {
        "sets.project.calls": (calls("sets.project"), "count"),
        "sets.project.us_per_call": (per(incl("sets.project"), calls("sets.project"), 1e6), "us"),
        "sets.distance.calls": (calls("sets.distance"), "count"),
        "sets.distance.us_per_call": (per(incl("sets.distance"), calls("sets.distance"), 1e6),
                                      "us"),
        "sets.contains.calls": (calls("sets.contains"), "count"),
        "sets.sample_points.calls": (calls("sets.sample_points"), "count"),
        "sets.sample_points.s": (incl("sets.sample_points"), "s"),
        "sets.sample_points.projections_per_point": (
            per(tracer.within.get(("sets.project", "sets.sample_points"), 0),
                tracer.sizes.get("sets.sample_points", 0)), "ratio"),
        "sets.normal_residual.s": (incl("sets.normal_residual"), "s"),
        "families.at.calls": (calls("families.at"), "count"),
        "families.at.per_node": (per(calls("families.at"), result.nodes), "ratio"),
        "families.at.s": (incl("families.at"), "s"),
        "families.build_schedule.s": (incl("families.build_schedule"), "s"),
        "families.excess.calls": (calls("families.excess"), "count"),
        "families.excess.s": (incl("families.excess"), "s"),
        "families.validate_analytic_modulus.s": (incl("families.validate_analytic_modulus"), "s"),
        "solver.solve.s": (incl("solver.solve"), "s"),
        "solver.solve.us_per_step": (per(incl("solver.solve"), result.steps, 1e6), "us"),
        "solver.certify_steps.s": (incl("solver.certify_steps"), "s"),
        "solver.certified_steps": (tracer.sizes.get("solver.certify_steps", 0), "count"),
        "solver.write_trajectory_csv.s": (incl("solver.write_trajectory_csv"), "s"),
        "solver.csv_bytes": (result.csv_bytes, "bytes"),
        "solver.csv_identical_files": (
            sum(recorded.get(k) == v for k, v in result.csv_digests.items()), "count"),
        "variation.converge_study.self_s": (own.get("variation.converge_study", 0.0), "s"),
        "variation.union_sample_times.s": (incl("variation.union_sample_times"), "s"),
        "variation.sup_norm_gap.s": (incl("variation.sup_norm_gap"), "s"),
        "harness.run.self_s": (own.get("harness.run", 0.0), "s"),
        "harness.verify_inner_ball.s": (incl("harness.verify_inner_ball"), "s"),
        "harness.cone_params.s": (incl("harness.cone_params"), "s"),
        "svgplot.write.s": (incl("svgplot.write"), "s"),
    }
    for layer in ("sets", "families", "solver", "variation", "harness", "svgplot"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    m["trace.accounted_share"] = (per(sum(layers.values()), result.wall), "ratio")
    return m


def _median_metrics(samples: list) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
            for name, (_, unit) in samples[0].items()}


def record_digests(workloads, work: Path) -> int:
    recorded = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.parse(name, 0, workloads.generate(name, 0))
        result = workloads.run_pass(inputs, work / name)
        if result.failures:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        recorded[name] = result.csv_digests
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def run(workloads, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    configs = workloads.generate(workload, seed)
    configs_path = work / "configs.json"
    configs_path.write_text(json.dumps(configs), encoding="utf-8")
    setup = [] if trace else measure_setup(configs_path)
    parse_tracer = Tracer()
    with installed(parse_tracer, workloads.TARGETS) if trace else nullcontext():
        inputs = workloads.parse(workload, seed, configs)
    passes, calibrations = run_passes(workloads, inputs, seconds, trace, work)

    attempted = sum(len(r.seconds) for _, r in passes)
    failures = [msg for _, r in passes for msg in r.failures]
    untraced = [r for t, r in passes if t is None]
    traced = [(t, r) for t, r in passes if t is not None]
    if any(r.csv_digests != untraced[0].csv_digests for _, r in traced):
        failures.append("tracing changed the bytes of a CSV")
    walls = [r.wall for r in untraced]
    if trace:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
        metrics = _median_metrics([layer_metrics(workloads, t, r, recorded) for t, r in traced])
        traced_wall = statistics.median(r.wall for _, r in traced)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(walls),
                                       "unit": "s"}
        metrics["scenarios.parse_scenario.s"] = {
            "value": parse_tracer.inclusive_seconds("scenarios.parse_scenario"), "unit": "s"}
    else:
        metrics = {
            "ref_wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    env = environment()
    env["calibration_ms"] = {"median": 1e3 * statistics.median(calibrations),
                             "samples": len(calibrations)}
    print("env " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print(f"FAILED {msg}")
    print(f"untraced pass times (reference s): {', '.join(f'{w:.4f}' for w in walls)}; "
          f"traced passes: {len(traced)}; setup samples: {len(setup)}; "
          f"failed_share: {len(failures)}/{attempted}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Before numpy is imported: one BLAS thread, and no seed override.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SWEEP_SEED", None)
    if not (SRC / "sweepsolve" / "__init__.py").is_file():
        print(f"bench: no sweepsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.families.__file__).resolve().is_relative_to(SRC):
        print("bench: sweepsolve was not imported from this checkout", file=sys.stderr)
        return 2
    if not args.record_digests and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record_digests:
            return record_digests(workloads, work)
        return run(workloads, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 all checks pass, 2 a check failed, 3 configuration error,
4 runtime error (tube violation, non-convergence, ...).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InfeasibleInitialPoint, SchemaError, SweepError
from .families import excess
from .harness import check_constraint, check_normal, effective_seed, run, scenario_schedule
from .scenarios import list_builtins, load_builtin, parse_scenario
from .solver import solve

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def _load(spec: str):
    """Scenario from a builtin name or a config file path."""
    p = Path(spec)
    if p.exists():
        try:
            return parse_scenario(p.read_text("utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise SchemaError("scenario", f"cannot read {spec!r} as a UTF-8 file: {err}") from err
    try:
        return load_builtin(spec)
    except KeyError:
        raise SchemaError("scenario", f"{spec!r} is neither a file nor a builtin name")


def _print_check(check) -> None:
    margin = "" if check.margin is None else f" margin={check.margin:.3e}"
    print(f"  check {check.name}: {check.verdict}{margin}  {check.note}")


def _print_report(report) -> None:
    print(f"scenario: {report.scenario}")
    for d in report.level_rows:
        print(
            f"  level {d['level']}: eps={d['eps']:.6g} mesh={d['mesh']:.6g} "
            f"variation={d['variation']:.6g} residual={d['constraint_residual']:.3e} "
            f"({d['wall_seconds']:.3f}s)"
        )
    for check in report.checks:
        _print_check(check)
    for note in report.notes:
        print(f"  note: {note}")


def _cmd_run(args) -> int:
    if args.levels is not None and args.levels < 1:
        raise SchemaError("--levels", f"expected a level count >= 1, got {args.levels}")
    scenario = _load(args.config)
    report = run(scenario, args.out, levels=args.levels, svg=args.svg)
    _print_report(report)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def _cmd_excess(args) -> int:
    sa = _load(args.config_a)
    sb = _load(args.config_b)
    s, t = args.t
    for name, time, scenario in (("S", s, sa), ("T", t, sb)):
        if not 0.0 <= time <= scenario.horizon:
            raise SchemaError("--t", f"{name}={time:g} outside [0, {scenario.horizon:g}], "
                              f"the horizon of {scenario.name}")
    effective_seed(sa)  # nothing is sampled; a malformed SWEEP_SEED still exits 3
    est = excess(sa.family.at(s), sb.family.at(t))
    print(f"excess of A({s:g}) over B({t:g}): {est.lower:.12g} <= e <= {est.upper:.12g} "
          f"[{est.method}]")
    print("witness: [" + ", ".join(f"{float(x):.12g}" for x in est.witness) + "]")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.level < 0:
        raise SchemaError("--level", f"expected a level index >= 0, got {args.level}")
    scenario = _load(args.config)
    schedule = scenario_schedule(scenario, args.level + 1)
    traj = solve(scenario.family, scenario.y0, schedule.grids[args.level],
                 schedule.eps[args.level], level=args.level)
    checks = [check_constraint(traj.dist_to_set),
              check_normal(scenario.family, traj, effective_seed(scenario))]
    print(f"level {args.level}: eps={schedule.eps[args.level]:.6g} "
          f"intervals={schedule.grids[args.level].n_intervals}")
    for check in checks:
        _print_check(check)
    return EXIT_CHECK_FAILED if any(c.verdict == "fail" for c in checks) else EXIT_OK


def _cmd_list(_args) -> int:
    for name, description in list_builtins():
        print(f"{name}: {description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sweepsolve", description=(
        "Catching-up solver and verification harness for prox-regular sweeping processes"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", aliases=["converge"],
                             help="run a scenario end to end and write artifacts")
    p_solve.add_argument("config", help="builtin name or config file path")
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.add_argument("--levels", type=int, default=None, help="override schedule level count")
    p_solve.add_argument("--svg", action="store_true", help="emit SVG plots")
    p_solve.set_defaults(fn=_cmd_run)

    p_exc = sub.add_parser("excess", help="one-sided excess between two scenario slices")
    p_exc.add_argument("config_a")
    p_exc.add_argument("config_b")
    p_exc.add_argument("--t", nargs=2, type=float, required=True, metavar=("S", "T"))
    p_exc.set_defaults(fn=_cmd_excess)

    p_ver = sub.add_parser("verify", help="solve one level, run the constraint and normal checks")
    p_ver.add_argument("config")
    p_ver.add_argument("--level", type=int, default=0)
    p_ver.set_defaults(fn=_cmd_verify)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, InfeasibleInitialPoint) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SweepError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

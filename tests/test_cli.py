import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sweepsolve import harness
from sweepsolve.cli import main
from sweepsolve.errors import CertificationFailed
from sweepsolve.families import RadiusFamily, RigidFamily
from sweepsolve.scenarios import BUILTIN_NAMES, builtin_text
from sweepsolve.solver import CERTIFICATION_TOL


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) >= 6
    assert "jump_expansion" in out


def test_solve_builtin(tmp_path, capsys):
    code = main(["solve", "static_ball", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "check constraint: pass" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "static_ball_level0.csv").exists()


def test_solve_config_file(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(builtin_text("static_ball"))
    assert main(["solve", str(cfg), "--out", str(tmp_path / "out"), "--svg"]) == 0
    assert (tmp_path / "out" / "trajectory.svg").exists()


def test_converge_alias(tmp_path):
    assert main(["converge", "static_ball", "--out", str(tmp_path), "--levels", "3"]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["levels"]) == 3


def test_failed_check_exits_2(tmp_path):
    doc = json.loads(builtin_text("shrinking_ball_inner_cert"))
    doc["bound_params"]["ball"]["rho"] = 0.9
    cfg = tmp_path / "bad_ball.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_config_error_exits_3(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["solve", str(cfg)]) == 3
    assert main(["solve", "no_such_builtin"]) == 3


@pytest.mark.parametrize("case", ["directory", "not-utf8", "out-is-a-file"])
def test_unreadable_input_or_output_exits_3(case, tmp_path, capsys):
    argv = {"directory": ["solve", str(tmp_path)],
            "not-utf8": ["solve", str(tmp_path / "latin1.json")],
            "out-is-a-file": ["solve", "static_ball", "--out", str(tmp_path / "taken")]}[case]
    (tmp_path / "latin1.json").write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    (tmp_path / "taken").write_text("")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_runtime_error_exits_4(capsys):
    # Level 40 of a unit-speed sweep would need a grid finer than 2^24 intervals.
    assert main(["verify", "sweep_halfspace", "--level", "40"]) == 4
    assert capsys.readouterr().err.startswith("runtime error: level ")


def test_excess_between_dimensions_is_a_config_error(tmp_path, capsys):
    # Checked with the times, before any slice is built, naming the second config.
    doc = json.loads(builtin_text("static_ball"))
    doc["dim"] = 3
    doc["y0"] = [0.5, 0.0, 0.0]
    doc["family"]["base"]["center"] = [0.0, 0.0, 0.0]
    doc["family"]["path"]["value"] = [0.0, 0.0, 0.0]
    cfg3 = tmp_path / "static3.json"
    cfg3.write_text(json.dumps(doc))
    assert main(["excess", "static_ball", str(cfg3), "--t", "0.0", "0.5"]) == 3
    err = capsys.readouterr().err
    assert err == f"configuration error: config_b: {cfg3} has dim 3, static_ball 2\n"


@pytest.mark.parametrize("times, named", [
    (("0.0", "nan"), "T=nan"), (("nan", "0.5"), "S=nan"), (("2.5", "0.5"), "S=2.5"),
    (("0.0", "-0.5"), "T=-0.5"), (("0.0", "inf"), "T=inf"),
], ids=["nan-T", "nan-S", "S-past-horizon", "negative-T", "infinite-T"])
def test_time_outside_the_horizon_is_config_error(times, named, capsys):
    # Each time is checked against its own scenario's horizon (both 2.0 here)
    # before any slice is built, NaN included.
    start = time.perf_counter()
    assert main(["excess", "sweep_halfspace", "moving_obstacle", "--t", *times]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --t: ") and named in err and "outside" in err


def test_excess_command(capsys):
    code = main(["excess", "sweep_halfspace", "sweep_halfspace", "--t", "0.0", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.5 <= e <= 0.5 [analytic]" in out
    # The ball's center lies in the half-space: exact from the probe along its normal.
    assert main(["excess", "static_ball", "sweep_halfspace", "--t", "0.0", "0.5"]) == 0
    assert "0.5 <= e <= 0.5 [analytic]" in capsys.readouterr().out


def test_verify_command(capsys):
    assert main(["verify", "sweep_halfspace", "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "check constraint: pass" in out
    assert "check normal: pass" in out


def test_verify_failed_certificate_exits_2(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise CertificationFailed(1, 1.0, CERTIFICATION_TOL)

    monkeypatch.setattr(harness, "certify_steps", failing)
    assert main(["verify", "sweep_halfspace", "--level", "1"]) == 2
    assert "check normal: fail" in capsys.readouterr().out


@pytest.mark.parametrize("level", ["-1", "-3"])
def test_verify_negative_level_is_config_error(level, capsys):
    assert main(["verify", "sweep_halfspace", "--level", level]) == 3
    captured = capsys.readouterr()
    assert "--level" in captured.err
    assert "check" not in captured.out


def _seed_scenario(tmp_path, seed) -> str:
    doc = json.loads(builtin_text("sweep_halfspace"))
    doc["seed"] = seed
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def _assert_seed_config_error(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "scenario.seed" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [1.5, "abc"])
def test_non_integer_seed_is_config_error(seed, tmp_path, capsys):
    # A run reads no seed, but the document's seed key is still validated.
    assert main(["verify", _seed_scenario(tmp_path, seed)]) == 3
    _assert_seed_config_error(capsys)


@pytest.mark.parametrize("argv", [
    lambda cfg, tmp: ["solve", cfg, "--out", str(tmp / "out")],
    lambda cfg, tmp: ["verify", cfg],
    lambda cfg, tmp: ["excess", "static_ball", cfg, "--t", "0", "1"],
], ids=["document", "verify", "excess"])
def test_negative_seed_is_config_error(argv, tmp_path, capsys):
    # Every command that loads a document rejects a negative seed key.
    assert main(argv(_seed_scenario(tmp_path, -1), tmp_path)) == 3
    _assert_seed_config_error(capsys)


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_nonpositive_level_count_is_config_error(levels, tmp_path, capsys):
    assert main(["solve", "static_ball", "--out", str(tmp_path), "--levels", levels]) == 3
    err = capsys.readouterr().err
    assert "--levels" in err and "Traceback" not in err


def _static_ball_with_30_levels(tmp_path) -> str:
    doc = json.loads(builtin_text("static_ball"))
    doc["schedule"]["levels"] = 30
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize("argv", [
    lambda tmp: ["solve", "static_ball", "--out", str(tmp), "--levels", "30"],
    lambda tmp: ["verify", "static_ball", "--level", "30"],
    lambda tmp: ["solve", _static_ball_with_30_levels(tmp), "--out", str(tmp / "out")],
], ids=["solve-levels", "verify-level", "scenario-levels"])
def test_levels_past_the_finest_grid_exit_4(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 4
    err = capsys.readouterr().err
    assert "finer than 2^24 intervals" in err and "Traceback" not in err


# Factors that understate polytope_rotation's modulus rate: at half the rate
# the steps outrun their normal certificates, at a tenth a step jumps past eps.
_RATE_FACTOR = {"understated_rate": 0.5, "jump_past_eps": 0.1}


@pytest.mark.parametrize("case, code, shown", [
    ("understated_rate", 2, "the modulus is unsound"),
    ("jump_past_eps", 4, "strict bound"),
])
@pytest.mark.parametrize("command", [["solve", "--out", "out"], ["verify", "--level", "2"]])
def test_unsound_modulus_exits_with_a_documented_code(case, code, shown, command, tmp_path,
                                                      monkeypatch, capsys):
    rate = RigidFamily.analytic_rate
    monkeypatch.setattr(RigidFamily, "analytic_rate", lambda fam: _RATE_FACTOR[case] * rate(fam))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "polytope_rotation", *command[1:]]) == code
    captured = capsys.readouterr()
    assert shown in captured.out + captured.err and "Traceback" not in captured.err


def test_tube_violation_exits_4(tmp_path, monkeypatch, capsys):
    # A zero rate certifies the whole horizon as one step, on which the
    # excluded ball grows from radius 0.5 (= r) to 2 past the iterate (1, 0).
    doc = {"name": "growing_hole", "dim": 2, "horizon": 1.0, "y0": [1.0, 0.0],
           "family": {"kind": "radius_schedule", "complement": True, "horizon": 1.0,
                      "center": {"form": "constant", "value": [0.0, 0.0]},
                      "radius": {"form": "linear", "value": 0.5, "rate": 1.5}},
           "schedule": {"eps0": 0.4, "ratio": 0.5, "levels": 1, "base_resolution": 0},
           "checks": ["constraint"]}
    cfg = tmp_path / "growing_hole.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setattr(RadiusFamily, "analytic_rate", lambda fam: 0.0)
    assert main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err == "runtime error: step 1: distance 1 >= tube radius 0.5\n"


_UNBOUNDED_BASES = {  # rigid bases with no finite rate
    "halfspace": {"shape": "halfspace", "normal": [1.0, 0.0], "offset": 0.5},
    "one_face": {"shape": "polytope", "faces": [{"normal": [1.0, 0.0], "offset": 0.5}],
                 "interior": [0.0, 0.0]},
    "wedge": {"shape": "polytope", "interior": [-1.0, -1.0],
              "faces": [{"normal": [1.0, 0.0], "offset": 0.0},
                        {"normal": [0.0, 1.0], "offset": 0.0}]},
    "ball_complement": {"shape": "ball_complement", "center": [0.0, 0.0], "radius": 0.5},
}


@pytest.mark.parametrize("base", sorted(_UNBOUNDED_BASES))
def test_rigid_motion_of_an_unbounded_base_exits_3(base, tmp_path, capsys):
    doc = json.loads(builtin_text("polytope_rotation"))
    doc["family"]["base"] = _UNBOUNDED_BASES[base]
    doc.update(y0=[-0.4, -3.0], checks=["constraint", "normal"])
    doc["family"].pop("declared_r")
    doc.pop("bound_params")
    cfg = tmp_path / f"{base}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    tag = _UNBOUNDED_BASES[base]["shape"]
    assert err.startswith(f"configuration error: scenario.family: the {tag} base is unbounded")
    assert err.count("\n") == 1 and "Traceback" not in err


def _linear(value, rate):
    return {"form": "linear", "value": value, "rate": rate}


# A family field of the wrong shape: (bundled scenario, field, value, the error's start).
_WRONG_SHAPES = {
    "path_3d": ("sweep_halfspace", "path", _linear([0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
                "scenario.family: path: expected 2 coordinates"),
    "path_scalar": ("sweep_halfspace", "path", _linear(0.0, -1.0),
                    "scenario.family: path: expected 2 coordinates"),
    "path_pieces": ("sweep_halfspace", "path", {"form": "piecewise", "pieces": [
        {"until": 1.0, "path": _linear(0.0, 0.0)}, {"until": 2.0, "path": _linear([0.0, 0.0],
                                                                                   [0.0, 0.0])}]},
        "scenario.family.path: piece values differ in shape"),
    "pivot_1d": ("polytope_rotation", "pivot", [0.5],
                 "scenario.family: pivot: expected 2 coordinates"),
    "translation_3d": ("polytope_rotation", "translation", _linear([0.0] * 3, [0.1] * 3),
                       "scenario.family: translation: expected 2 coordinates"),
    "translation_scalar": ("polytope_rotation", "translation", _linear(0.0, 0.1),
                           "scenario.family: translation: expected 2 coordinates"),
    "angle_vector": ("polytope_rotation", "angle", _linear([0.0, 0.0], [0.5, 0.5]),
                     "scenario.family: angle: expected a number"),
    "radius_vector": ("shrinking_ball_inner_cert", "radius", _linear([1.0, 1.0], [-0.4, -0.4]),
                      "scenario.family: radius: expected a number"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_SHAPES))
def test_a_family_field_of_the_wrong_shape_exits_3_naming_it(case, tmp_path, capsys):
    name, key, value, shown = _WRONG_SHAPES[case]
    doc = json.loads(builtin_text(name))
    doc["family"][key] = value
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {shown}") and err.count("\n") == 1


def _mutated(tmp_path, name: str, mutate) -> str:
    """Path of a file holding bundled document name as mutate(doc) leaves it
    (or as it returns it, when it returns a document)."""
    doc = json.loads(builtin_text(name))
    doc = mutate(doc) or doc
    cfg = tmp_path / f"{name}_mutated.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def _set(*keys, value):
    """A mutation setting the field at keys (object keys and array indices)."""
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return mutate


def _path_pieces(second_until, second_value):
    """sweep_halfspace's path as two linear pieces at its rate, the second one
    (value + rate*t, from second_value at t = 0) ending at second_until."""
    return {"form": "piecewise", "pieces": [
        {"until": 1.0, "path": _linear([0.0, 0.0], [-1.0, 0.0])},
        {"until": second_until, "path": _linear(second_value, [-1.0, 0.0])}]}


# A configuration error per raise of the document reader that no other test
# reaches: (bundled scenario, mutation, the start of the one-line error).
_CONFIG_ERRORS = {
    "not_an_object": ("static_ball", lambda doc: [doc], "document: expected a JSON object"),
    "empty_name": ("static_ball", _set("name", value=""), "scenario.name: "),
    "dim_0": ("static_ball", _set("dim", value=0), "scenario.dim: "),
    "horizon_0": ("static_ball", _set("horizon", value=0), "scenario.horizon: "),
    "y0_length": ("static_ball", _set("y0", value=[0.5]), "scenario.y0: "),
    "family_horizon": ("sweep_halfspace", _set("family", "horizon", value=1.5),
                       "scenario.family: family horizon 1.5 != scenario horizon 2.0"),
    "ratio_1": ("static_ball", _set("schedule", "ratio", value=1), "scenario.schedule.ratio: "),
    "levels_0": ("static_ball", _set("schedule", "levels", value=0),
                 "scenario.schedule.levels: "),
    "checks_not_a_list": ("static_ball", _set("checks", value="constraint"), "scenario.checks: "),
    "ball_rho_0": ("shrinking_ball_inner_cert", _set("bound_params", "ball", "rho", value=0),
                   "scenario.bound_params.ball.rho: "),
    "ball_w_length": ("shrinking_ball_inner_cert",
                      _set("bound_params", "ball", "w", value=[0.0]),
                      "scenario.bound_params.ball.w: "),
    "cone_R_0": ("moving_obstacle", _set("bound_params", "cone", "R", value=0),
                 "scenario.bound_params.cone: R and d must be positive"),
    "family_untils": ("jump_expansion", _set("family", "pieces", 1, "until", value=0.5),
                      "scenario.family: piece breakpoints must be strictly increasing"),
    "family_piece_dims": ("jump_expansion",
                          _set("family", "pieces", 1, "family", "center",
                               value=_linear([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])),
                          "scenario.family: piece dimensions differ"),
    "family_piece_short": ("jump_expansion",
                           _set("family", "pieces", 1, "family", "horizon", value=1.5),
                           "scenario.family: piece family horizon does not cover its interval"),
    "path_untils": ("sweep_halfspace", _set("family", "path", value=_path_pieces(0.5, [0.0, 0.0])),
                    "scenario.family.path: piece breakpoints must be strictly increasing"),
    "path_gap": ("sweep_halfspace", _set("family", "path", value=_path_pieces(2.0, [1.0, 0.0])),
                 "scenario.family.path: path discontinuity 1.000e+00 at t=1.0"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
def test_a_configuration_error_exits_3_naming_its_field(case, tmp_path, capsys):
    name, mutate, shown = _CONFIG_ERRORS[case]
    assert main(["verify", _mutated(tmp_path, name, mutate)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {shown}") and err.count("\n") == 1


@pytest.mark.parametrize("name, eps0", [("static_ball", 1e20), ("sweep_halfspace", 5e9)])
def test_a_convex_family_takes_any_positive_eps0(name, eps0, tmp_path):
    cfg = _mutated(tmp_path, name, _set("schedule", "eps0", value=eps0))
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 0


def test_a_tolerance_that_underflows_exits_4(tmp_path, capsys):
    # eps0 * ratio**2 is 0.0: no step of the static ball's rate-0 modulus
    # stays below it.
    cfg = _mutated(tmp_path, "static_ball", _set("schedule", "ratio", value=1e-320))
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == ("runtime error: no step length keeps the modulus "
                                       "below eps=0.0\n")


def _solve_in_a_subprocess(cfg, out, timeout: float):
    """sweepsolve solve cfg --out out in a child interpreter on this checkout's
    sources: a hang raises TimeoutExpired instead of stalling the suite."""
    pythonpath = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run([sys.executable, "-m", "sweepsolve.cli", "solve", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_a_tolerance_that_underflows_at_a_tiny_rate_exits_4_without_hanging(tmp_path):
    # In a subprocess: should the step search below eps = 0.0 loop at a
    # positive rate, the timeout fails the test instead of hanging the suite.
    def tiny_rate(doc):
        doc["family"]["path"] = _linear([0.0, 0.0], [1e-300, 0.0])
        doc["schedule"]["ratio"] = 1e-200
    cfg = _mutated(tmp_path, "static_ball", tiny_rate)
    done = _solve_in_a_subprocess(cfg, tmp_path / "out", timeout=10)
    assert done.returncode == 4
    assert done.stderr == "runtime error: no step length keeps the modulus below eps=0.0\n"


def test_a_subnormal_tolerance_at_a_tiny_rate_exits_within_a_second(tmp_path):
    # Level 2's tolerance 0.1 * 1e-320 at rate 1e-300: the step search that
    # went down one ulp at a time ran about 10**13 times.  In a subprocess,
    # so that a hang fails the test instead of the suite.
    def tiny_rate(doc):
        doc["family"]["path"] = _linear([0.0, 0.0], [1e-300, 0.0])
        doc["schedule"]["ratio"] = 1e-160
    cfg = _mutated(tmp_path, "static_ball", tiny_rate)
    assert _solve_in_a_subprocess(cfg, tmp_path / "out", timeout=1.0).returncode in (0, 4)


@pytest.mark.parametrize("R", [1e308, 1e-320])
def test_a_cone_radius_out_of_float_range_is_an_inapplicable_bound(R, tmp_path, capsys):
    # lambda*R/2 is 0: (d + R/2)^2 overflows at 1e308, the product underflows at 1e-320.
    cfg = _mutated(tmp_path, "moving_obstacle", _set("bound_params", "cone", "R", value=R))
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "check cone_bound: inapplicable" in capsys.readouterr().out


def _extreme_fields():
    """(bundled scenario, key path) of every eps0, ratio, cone R and d and ball
    rho that a bundled document carries."""
    fields = [("schedule", "eps0"), ("schedule", "ratio"), ("bound_params", "cone", "R"),
              ("bound_params", "cone", "d"), ("bound_params", "ball", "rho")]
    found = []
    for name in BUILTIN_NAMES:
        doc = json.loads(builtin_text(name))
        for keys in fields:
            obj = doc
            for key in keys[:-1]:
                obj = obj.get(key, {})
            if keys[-1] in obj:
                found.append((name, keys))
    return found


@pytest.mark.parametrize("value", [0, -1, 1e-320, 1e308])
@pytest.mark.parametrize("name, keys", _extreme_fields(),
                         ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_an_extreme_value_exits_with_a_documented_code(name, keys, value, tmp_path):
    """A regression net: solve on a bundled document with one field at an
    extreme value exits 0, 2, 3 or 4, under the CLI's default warning filter."""
    cfg = _mutated(tmp_path, name, _set(*keys, value=value))
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("default")
        code = main(["solve", cfg, "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3, 4)


def test_horizon_within_rounding_of_the_family_runs_like_the_bundled_scenario(tmp_path):
    doc = json.loads(builtin_text("sweep_halfspace"))
    doc["horizon"] = 2.0000000000001
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    verdicts = []
    for spec, out in ((str(cfg), "nudged"), ("sweep_halfspace", "bundled")):
        assert main(["solve", spec, "--out", str(tmp_path / out)]) == 0
        report = json.loads((tmp_path / out / "report.json").read_text())
        verdicts.append([(c["name"], c["verdict"], c["margin"]) for c in report["checks"]])
    assert verdicts[0] == verdicts[1]


_TRIANGLE = {"shape": "polytope", "interior": [0.25, 0.25],
             "faces": [{"normal": [-1.0, 0.0], "offset": 0.0},
                       {"normal": [0.0, -1.0], "offset": 0.0},
                       {"normal": [1.0, 1.0], "offset": 1.0}]}
# Every base shape, bounded or not, with a member of it.
_RIGID_BASES = {
    "halfspace": (_UNBOUNDED_BASES["halfspace"], [0.0, 0.0]),
    "ball": ({"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}, [0.2, 0.0]),
    "box": ({"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, [0.5, 0.5]),
    "triangle": (_TRIANGLE, [0.25, 0.25]),
    "wedge": (_UNBOUNDED_BASES["wedge"], [-0.5, -0.5]),
    "strip": ({"shape": "polytope", "interior": [-0.5, 0.0],
               "faces": [{"normal": [1.0, 0.0], "offset": 0.0},
                         {"normal": [-1.0, 0.0], "offset": 1.0}]}, [-0.5, 0.0]),
    "ball_complement": (_UNBOUNDED_BASES["ball_complement"], [2.0, 0.0]),
    "rigid_image": ({"shape": "rigid_image", "base": _TRIANGLE,
                     "rotation": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 0.0]},
                    [0.25, 0.25]),
}


@st.composite
def _rigid_motions(draw):
    """(pivot, angle path, horizon, translation path or None, y0 offset)."""
    coord = st.floats(-1.0, 1.0)
    translation = None
    if draw(st.booleans()):
        translation = {"form": "linear", "value": [0.0, 0.0], "rate": [draw(coord), draw(coord)]}
    return ([draw(coord), draw(coord)], {"form": "linear", "value": draw(coord), "rate": draw(coord)},
            draw(st.floats(0.25, 2.0)), translation, draw(st.sampled_from([0.0, 0.0, 0.3, 3.0])))


@pytest.mark.parametrize("base", sorted(_RIGID_BASES))
@settings(max_examples=10, deadline=None)
@given(motion=_rigid_motions())
def test_generated_rigid_scenarios_exit_with_a_documented_code(base, motion):
    """Random rigid motions of every base shape, from initial points inside or
    outside C(0), end with exit 0, 2, 3 or 4 and no traceback."""
    (shape, member), (pivot, angle, horizon, translation, offset) = _RIGID_BASES[base], motion
    family = {"kind": "rigid", "base": shape, "pivot": pivot, "angle": angle, "horizon": horizon}
    if translation is not None:
        family["translation"] = translation
    doc = {"name": "rigid_case", "dim": 2, "horizon": horizon, "family": family,
           "y0": [member[0] + offset, member[1]],
           "schedule": {"eps0": 0.1, "ratio": 0.5, "levels": 2},
           "checks": ["constraint", "normal", "cauchy"]}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "rigid.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", str(cfg), "--out", str(Path(tmp) / "out"), "--levels", "2"])
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue()

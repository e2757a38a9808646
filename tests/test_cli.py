import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sweepsolve import harness
from sweepsolve.cli import main
from sweepsolve.errors import CertificationFailed
from sweepsolve.families import RigidFamily
from sweepsolve.scenarios import builtin_text
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


def test_runtime_error_exits_4(tmp_path, capsys):
    doc = json.loads(builtin_text("static_ball"))
    doc["dim"] = 3
    doc["y0"] = [0.5, 0.0, 0.0]
    doc["family"]["base"]["center"] = [0.0, 0.0, 0.0]
    doc["family"]["path"]["value"] = [0.0, 0.0, 0.0]
    cfg3 = tmp_path / "static3.json"
    cfg3.write_text(json.dumps(doc))
    assert main(["excess", "static_ball", str(cfg3), "--t", "0.0", "0.5"]) == 4


@pytest.mark.parametrize("times", [("0.0", "nan"), ("nan", "0.5")])
def test_nan_time_exits_4_at_once(times, capsys):
    start = time.perf_counter()
    assert main(["excess", "sweep_halfspace", "moving_obstacle", "--t", *times]) == 4
    assert time.perf_counter() - start < 5.0
    assert "outside" in capsys.readouterr().err


def test_excess_command(capsys):
    code = main(["excess", "sweep_halfspace", "sweep_halfspace", "--t", "0.0", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.5 <= e <= 0.5 [analytic]" in out
    # The ball's center lies in the half-space: a two-sided bound, radius above.
    assert main(["excess", "static_ball", "sweep_halfspace", "--t", "0.0", "0.5"]) == 0
    assert "0.5 <= e <= 1 [interval]" in capsys.readouterr().out


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


def test_non_integer_seed_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("SWEEP_SEED", "abc")
    assert main(["verify", "static_ball"]) == 3
    assert "SWEEP_SEED" in capsys.readouterr().err


def _negative_seed_scenario(tmp_path) -> str:
    doc = json.loads(builtin_text("sweep_halfspace"))
    doc["seed"] = -1
    cfg = tmp_path / "negative_seed.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize("argv, env_seed, field", [
    (lambda tmp: ["solve", _negative_seed_scenario(tmp), "--out", str(tmp / "out")], None,
     "scenario.seed"),
    (lambda tmp: ["solve", "sweep_halfspace", "--out", str(tmp)], "-5", "SWEEP_SEED"),
    (lambda tmp: ["verify", "sweep_halfspace"], "-5", "SWEEP_SEED"),
    (lambda tmp: ["excess", "static_ball", "sweep_halfspace", "--t", "0", "1"], "-5",
     "SWEEP_SEED"),
], ids=["document", "solve", "verify", "excess"])
def test_negative_seed_is_config_error(argv, env_seed, field, tmp_path, monkeypatch, capsys):
    if env_seed is None:
        monkeypatch.delenv("SWEEP_SEED", raising=False)
    else:
        monkeypatch.setenv("SWEEP_SEED", env_seed)
    assert main(argv(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err


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

import json
import time

import pytest

from sweepsolve import harness
from sweepsolve.cli import main
from sweepsolve.errors import CertificationFailed
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
    assert "0.5" in out
    assert "analytic" in out


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


def _unsound_modulus_case(tmp_path, case: str) -> str:
    """A rigid scenario whose declared circumradius understates the rate:
    below the derivable one of the polytope_rotation triangle, or set for a
    rotating half-plane, which has none to derive."""
    doc = json.loads(builtin_text("polytope_rotation"))
    if case == "below_derivable":
        doc["family"]["circumradius"] = 0.05
    else:
        doc["family"] = {
            "kind": "rigid", "base": {"shape": "halfspace", "normal": [1.0, 0.0], "offset": 0.5},
            "angle": {"form": "linear", "value": 0.0, "rate": 1.0}, "pivot": [0.5, 0.5],
            "horizon": 1.0, "circumradius": 1.0,
        }
        doc.update(y0=[0.4, 3.0], checks=["constraint", "normal"])
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize("case, code, shown", [
    ("below_derivable", 3, "below the derivable"),
    ("rotating_half_plane", 2, "the modulus is unsound"),
])
@pytest.mark.parametrize("command", [["solve", "--out", "out"], ["verify", "--level", "2"]])
def test_unsound_modulus_exits_with_a_documented_code(case, code, shown, command, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([command[0], _unsound_modulus_case(tmp_path, case), *command[1:]]) == code
    captured = capsys.readouterr()
    assert shown in captured.out + captured.err and "Traceback" not in captured.err

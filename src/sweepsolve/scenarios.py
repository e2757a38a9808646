"""Scenario configs: JSON-shaped documents describing a moving family, an
initial point, a refinement schedule and the checks to run.

Shape, path and family descriptors are tagged records; parsing validates
every cross-field invariant eagerly and reports the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InfeasibleInitialPoint, SchemaError, UnknownShapeTag
from .families import (
    MovingFamily,
    PiecewiseFamily,
    RadiusFamily,
    RigidFamily,
    TranslateFamily,
)
from .paths import ConstantPath, LinearPath, Path, PiecewisePath
from .sets import Ball, BallComplement, Box, HalfSpace, Polytope, ProxSet, RigidImage, halfspace

KNOWN_CHECKS = ("constraint", "normal", "ball_bound", "cone_bound", "cauchy")


@dataclass(frozen=True)
class ScheduleParams:
    eps0: float
    ratio: float
    levels: int
    base_resolution: int = 1


@dataclass(frozen=True)
class BallParams:
    w: tuple
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))


@dataclass(frozen=True)
class ConeParams:
    R: float
    d: float


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    dim: int
    horizon: float
    y0: tuple
    seed: int
    family: MovingFamily
    schedule: ScheduleParams
    checks: tuple
    ball_params: BallParams | None = None
    cone_params: ConeParams | None = None

    def __post_init__(self):
        object.__setattr__(self, "y0", tuple(float(x) for x in self.y0))
        object.__setattr__(self, "checks", tuple(self.checks))


def _req(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _num(obj: dict, key: str, path: str) -> float:
    v = _req(obj, key, path)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {type(v).__name__}")
    return float(v)


def _vec(obj: dict, key: str, path: str) -> tuple:
    v = _req(obj, key, path)
    if not isinstance(v, list) or not all(isinstance(x, (int, float)) for x in v):
        raise SchemaError(f"{path}.{key}", "expected an array of numbers")
    return tuple(float(x) for x in v)


def shape_from_dict(obj: dict, path: str) -> ProxSet:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a shape object")
    tag = _req(obj, "shape", path)
    try:
        if tag == "halfspace":
            return halfspace(_vec(obj, "normal", path), _num(obj, "offset", path))
        if tag == "ball":
            return Ball(_vec(obj, "center", path), _num(obj, "radius", path))
        if tag == "box":
            return Box(_vec(obj, "lo", path), _vec(obj, "hi", path))
        if tag == "ball_complement":
            return BallComplement(_vec(obj, "center", path), _num(obj, "radius", path))
        if tag == "polytope":
            faces = _req(obj, "faces", path)
            if not isinstance(faces, list) or not faces:
                raise SchemaError(f"{path}.faces", "expected a nonempty array of half-spaces")
            built = tuple(
                halfspace(_vec(f, "normal", f"{path}.faces[{i}]"),
                          _num(f, "offset", f"{path}.faces[{i}]"))
                for i, f in enumerate(faces)
            )
            return Polytope(built, _vec(obj, "interior", path))
        if tag == "rigid_image":
            base = shape_from_dict(_req(obj, "base", path), f"{path}.base")
            rotation = _req(obj, "rotation", path)
            return RigidImage(base, tuple(tuple(row) for row in rotation),
                              _vec(obj, "translation", path))
    except SchemaError:
        raise
    except (ValueError, TypeError) as err:
        raise SchemaError(path, str(err)) from err
    raise UnknownShapeTag(path, f"unknown shape tag {tag!r}")


def shape_to_dict(s: ProxSet) -> dict:
    if isinstance(s, HalfSpace):
        return {"shape": "halfspace", "normal": list(s.normal), "offset": s.offset}
    if isinstance(s, Ball):
        return {"shape": "ball", "center": list(s.center), "radius": s.radius}
    if isinstance(s, Box):
        return {"shape": "box", "lo": list(s.lo), "hi": list(s.hi)}
    if isinstance(s, BallComplement):
        return {"shape": "ball_complement", "center": list(s.center), "radius": s.radius}
    if isinstance(s, Polytope):
        return {
            "shape": "polytope",
            "faces": [{"normal": list(f.normal), "offset": f.offset} for f in s.faces],
            "interior": list(s.interior),
        }
    if isinstance(s, RigidImage):
        return {
            "shape": "rigid_image",
            "base": shape_to_dict(s.base),
            "rotation": [list(row) for row in s.rotation],
            "translation": list(s.translation),
        }
    raise TypeError(f"unsupported shape {type(s).__name__}")


def path_from_dict(obj: dict, path: str) -> Path:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a path object")
    form = _req(obj, "form", path)
    try:
        if form == "constant":
            return ConstantPath(_req(obj, "value", path))
        if form == "linear":
            return LinearPath(_req(obj, "value", path), _req(obj, "rate", path))
        if form == "piecewise":
            pieces = _req(obj, "pieces", path)
            built = tuple(
                (_num(p, "until", f"{path}.pieces[{i}]"),
                 path_from_dict(_req(p, "path", f"{path}.pieces[{i}]"), f"{path}.pieces[{i}].path"))
                for i, p in enumerate(pieces)
            )
            return PiecewisePath(built)
    except SchemaError:
        raise
    except (ValueError, TypeError) as err:
        raise SchemaError(path, str(err)) from err
    raise SchemaError(f"{path}.form", f"unknown path form {form!r}")


def path_to_dict(p: Path) -> dict:
    def plain(v):
        return list(v) if isinstance(v, tuple) else v

    if isinstance(p, ConstantPath):
        return {"form": "constant", "value": plain(p.value)}
    if isinstance(p, LinearPath):
        return {"form": "linear", "value": plain(p.value), "rate": plain(p.rate)}
    if isinstance(p, PiecewisePath):
        return {
            "form": "piecewise",
            "pieces": [{"until": u, "path": path_to_dict(sub)} for u, sub in p.pieces],
        }
    raise TypeError(f"unsupported path {type(p).__name__}")


def family_from_dict(obj: dict, path: str) -> MovingFamily:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a family object")
    kind = _req(obj, "kind", path)
    declared_r = obj.get("declared_r")
    if declared_r is not None:
        declared_r = float(declared_r)
    try:
        if kind == "translate":
            return TranslateFamily(
                base=shape_from_dict(_req(obj, "base", path), f"{path}.base"),
                path=path_from_dict(_req(obj, "path", path), f"{path}.path"),
                horizon=_num(obj, "horizon", path),
                declared_r=declared_r,
            )
        if kind == "radius_schedule":
            return RadiusFamily(
                center=path_from_dict(_req(obj, "center", path), f"{path}.center"),
                radius=path_from_dict(_req(obj, "radius", path), f"{path}.radius"),
                complement=bool(obj.get("complement", False)),
                horizon=_num(obj, "horizon", path),
                declared_r=declared_r,
            )
        if kind == "rigid":
            translation = obj.get("translation")
            circum = obj.get("circumradius")
            return RigidFamily(
                base=shape_from_dict(_req(obj, "base", path), f"{path}.base"),
                angle=path_from_dict(_req(obj, "angle", path), f"{path}.angle"),
                pivot=_vec(obj, "pivot", path),
                horizon=_num(obj, "horizon", path),
                translation=(
                    path_from_dict(translation, f"{path}.translation")
                    if translation is not None
                    else None
                ),
                circumradius=float(circum) if circum is not None else None,
                declared_r=declared_r,
            )
        if kind == "piecewise":
            pieces = _req(obj, "pieces", path)
            if not isinstance(pieces, list) or not pieces:
                raise SchemaError(f"{path}.pieces", "expected a nonempty array of pieces")
            built = tuple(
                (_num(p, "until", f"{path}.pieces[{i}]"),
                 family_from_dict(_req(p, "family", f"{path}.pieces[{i}]"),
                                  f"{path}.pieces[{i}].family"))
                for i, p in enumerate(pieces)
            )
            return PiecewiseFamily(pieces=built, declared_r=declared_r)
    except SchemaError:
        raise
    except (ValueError, TypeError) as err:
        raise SchemaError(path, str(err)) from err
    raise SchemaError(f"{path}.kind", f"unknown family kind {kind!r}")


def family_to_dict(f: MovingFamily) -> dict:
    out: dict
    if isinstance(f, TranslateFamily):
        out = {
            "kind": "translate",
            "base": shape_to_dict(f.base),
            "path": path_to_dict(f.path),
            "horizon": f.horizon,
        }
    elif isinstance(f, RadiusFamily):
        out = {
            "kind": "radius_schedule",
            "center": path_to_dict(f.center),
            "radius": path_to_dict(f.radius),
            "complement": f.complement,
            "horizon": f.horizon,
        }
    elif isinstance(f, RigidFamily):
        out = {
            "kind": "rigid",
            "base": shape_to_dict(f.base),
            "angle": path_to_dict(f.angle),
            "pivot": list(f.pivot),
            "horizon": f.horizon,
        }
        if f.translation is not None:
            out["translation"] = path_to_dict(f.translation)
        if f.circumradius is not None:
            out["circumradius"] = f.circumradius
    elif isinstance(f, PiecewiseFamily):
        out = {
            "kind": "piecewise",
            "pieces": [
                {"until": u, "family": family_to_dict(sub)} for u, sub in f.pieces
            ],
        }
    else:
        raise TypeError(f"unsupported family {type(f).__name__}")
    if f.declared_r is not None:
        out["declared_r"] = f.declared_r
    return out


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError("document", f"invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    name = _req(doc, "name", "scenario")
    if not isinstance(name, str) or not name:
        raise SchemaError("scenario.name", "expected a nonempty string")
    description = doc.get("description", "")
    dim = _req(doc, "dim", "scenario")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("scenario.dim", "expected a positive integer")
    horizon = _num(doc, "horizon", "scenario")
    if horizon <= 0:
        raise SchemaError("scenario.horizon", "must be positive")
    y0 = _vec(doc, "y0", "scenario")
    if len(y0) != dim:
        raise SchemaError("scenario.y0", f"expected {dim} coordinates, got {len(y0)}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise SchemaError("scenario.seed", "expected an integer")

    family = family_from_dict(_req(doc, "family", "scenario"), "scenario.family")
    if family.dim != dim:
        raise SchemaError("scenario.family", f"family dim {family.dim} != scenario dim {dim}")
    if abs(family.horizon - horizon) > 1e-12:
        raise SchemaError(
            "scenario.family", f"family horizon {family.horizon} != scenario horizon {horizon}"
        )

    sched_doc = _req(doc, "schedule", "scenario")
    schedule = ScheduleParams(
        eps0=_num(sched_doc, "eps0", "scenario.schedule"),
        ratio=_num(sched_doc, "ratio", "scenario.schedule"),
        levels=int(_num(sched_doc, "levels", "scenario.schedule")),
        base_resolution=int(sched_doc.get("base_resolution", 1)),
    )
    if not (0.0 < schedule.ratio < 1.0):
        raise SchemaError("scenario.schedule.ratio", "must lie in (0, 1)")
    if schedule.levels < 1:
        raise SchemaError("scenario.schedule.levels", "must be >= 1")
    if not (0.0 < schedule.eps0 < family.r):
        raise SchemaError("scenario.schedule.eps0", f"must lie in (0, r={family.r})")

    checks_doc = _req(doc, "checks", "scenario")
    if not isinstance(checks_doc, list):
        raise SchemaError("scenario.checks", "expected an array of check names")
    for c in checks_doc:
        if c not in KNOWN_CHECKS:
            raise SchemaError("scenario.checks", f"unknown check {c!r}")

    ball_params = cone_params = None
    bp = doc.get("bound_params", {})
    if not isinstance(bp, dict):
        raise SchemaError("scenario.bound_params", "expected an object")
    if "ball" in bp:
        ball = bp["ball"]
        ball_params = BallParams(
            w=_vec(ball, "w", "scenario.bound_params.ball"),
            rho=_num(ball, "rho", "scenario.bound_params.ball"),
        )
        if ball_params.rho <= 0:
            raise SchemaError("scenario.bound_params.ball.rho", "must be positive")
        if len(ball_params.w) != dim:
            raise SchemaError("scenario.bound_params.ball.w", "dimension mismatch")
    if "cone" in bp:
        cone = bp["cone"]
        cone_params = ConeParams(
            R=_num(cone, "R", "scenario.bound_params.cone"),
            d=_num(cone, "d", "scenario.bound_params.cone"),
        )
        if cone_params.R <= 0 or cone_params.d <= 0:
            raise SchemaError("scenario.bound_params.cone", "R and d must be positive")

    initial = family.at(0.0)
    if not initial.contains(y0):
        raise InfeasibleInitialPoint(initial.membership_defect(np.array(y0)))

    return Scenario(
        name=name,
        description=description,
        dim=dim,
        horizon=horizon,
        y0=y0,
        seed=seed,
        family=family,
        schedule=schedule,
        checks=tuple(checks_doc),
        ball_params=ball_params,
        cone_params=cone_params,
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON document; parse(serialize(s)) == s."""
    doc: dict = {
        "name": scenario.name,
        "description": scenario.description,
        "dim": scenario.dim,
        "horizon": scenario.horizon,
        "y0": list(scenario.y0),
        "seed": scenario.seed,
        "family": family_to_dict(scenario.family),
        "schedule": {
            "eps0": scenario.schedule.eps0,
            "ratio": scenario.schedule.ratio,
            "levels": scenario.schedule.levels,
            "base_resolution": scenario.schedule.base_resolution,
        },
        "checks": list(scenario.checks),
    }
    bp = {}
    if scenario.ball_params is not None:
        bp["ball"] = {"w": list(scenario.ball_params.w), "rho": scenario.ball_params.rho}
    if scenario.cone_params is not None:
        bp["cone"] = {"R": scenario.cone_params.R, "d": scenario.cone_params.d}
    if bp:
        doc["bound_params"] = bp
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


BUILTIN_NAMES = (
    "static_ball",
    "sweep_halfspace",
    "shrinking_ball_inner_cert",
    "moving_obstacle",
    "polytope_rotation",
    "jump_expansion",
)


def builtin_text(name: str) -> str:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin scenario {name!r}")
    return resources.files("sweepsolve").joinpath(f"scenarios/{name}.json").read_text("utf-8")


def load_builtin(name: str) -> Scenario:
    return parse_scenario(builtin_text(name))


def list_builtins() -> list:
    """(name, one-line description) for every bundled scenario."""
    out = []
    for name in BUILTIN_NAMES:
        doc = json.loads(builtin_text(name))
        out.append((name, doc.get("description", "")))
    return out

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
from .sets import SHAPES, ProxSet

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


class _Fields:
    """One schema object and its field path: each reader returns a validated
    field or raises SchemaError naming it.  Shape classes build themselves
    from it in from_dict."""

    def __init__(self, obj, where: str):
        self.obj, self.where = obj, where

    def raw(self, key: str):
        if key not in self.obj:
            raise SchemaError(f"{self.where}.{key}", "missing required field")
        return self.obj[key]

    def optional(self, key: str, read):
        """read(key), or None when the field is absent or null."""
        return None if self.obj.get(key) is None else read(key)

    def num(self, key: str) -> float:
        v = self.raw(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaError(f"{self.where}.{key}", f"expected a number, got {type(v).__name__}")
        return float(v)

    def count(self, key: str, default: int | None = None) -> int:
        """A whole number read through num; default applies when the key is absent."""
        v = float(default) if default is not None and key not in self.obj else self.num(key)
        if not v.is_integer():
            raise SchemaError(f"{self.where}.{key}", f"expected an integer, got {v!r}")
        return int(v)

    def vec(self, key: str) -> tuple:
        v = self.raw(key)
        if not isinstance(v, list) or not all(isinstance(x, (int, float)) for x in v):
            raise SchemaError(f"{self.where}.{key}", "expected an array of numbers")
        return tuple(float(x) for x in v)

    def objects(self, key: str) -> list:
        items = self.raw(key)
        if not isinstance(items, list) or not items:
            raise SchemaError(f"{self.where}.{key}", "expected a nonempty array of objects")
        return [_Fields(item, f"{self.where}.{key}[{i}]") for i, item in enumerate(items)]

    def shape(self, key: str) -> ProxSet:
        return shape_from_dict(self.raw(key), f"{self.where}.{key}")

    def path(self, key: str) -> Path:
        return path_from_dict(self.raw(key), f"{self.where}.{key}")

    def family(self, key: str) -> MovingFamily:
        return family_from_dict(self.raw(key), f"{self.where}.{key}")


def shape_from_dict(obj: dict, path: str) -> ProxSet:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a shape object")
    fields = _Fields(obj, path)
    tag = fields.raw("shape")
    cls = SHAPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise UnknownShapeTag(path, f"unknown shape tag {tag!r}")
    try:
        return cls.from_dict(fields)
    except SchemaError:
        raise
    except (ValueError, TypeError) as err:
        raise SchemaError(path, str(err)) from err


def path_from_dict(obj: dict, path: str) -> Path:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a path object")
    f = _Fields(obj, path)
    form = f.raw("form")
    try:
        if form == "constant":
            return ConstantPath(f.raw("value"))
        if form == "linear":
            return LinearPath(f.raw("value"), f.raw("rate"))
        if form == "piecewise":
            pieces = tuple((p.num("until"), p.path("path")) for p in f.objects("pieces"))
            return PiecewisePath(pieces)
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
    f = _Fields(obj, path)
    kind = f.raw("kind")
    declared_r = f.optional("declared_r", f.num)
    try:
        if kind == "translate":
            return TranslateFamily(
                base=f.shape("base"),
                path=f.path("path"),
                horizon=f.num("horizon"),
                declared_r=declared_r,
            )
        if kind == "radius_schedule":
            return RadiusFamily(
                center=f.path("center"),
                radius=f.path("radius"),
                complement=bool(obj.get("complement", False)),
                horizon=f.num("horizon"),
                declared_r=declared_r,
            )
        if kind == "rigid":
            return RigidFamily(
                base=f.shape("base"),
                angle=f.path("angle"),
                pivot=f.vec("pivot"),
                horizon=f.num("horizon"),
                translation=f.optional("translation", f.path),
                circumradius=f.optional("circumradius", f.num),
                declared_r=declared_r,
            )
        if kind == "piecewise":
            built = tuple((p.num("until"), p.family("family")) for p in f.objects("pieces"))
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
            "base": f.base.to_dict(),
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
            "base": f.base.to_dict(),
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
    f = _Fields(doc, "scenario")
    name = f.raw("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("scenario.name", "expected a nonempty string")
    description = doc.get("description", "")
    dim = f.raw("dim")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("scenario.dim", "expected a positive integer")
    horizon = f.num("horizon")
    if horizon <= 0:
        raise SchemaError("scenario.horizon", "must be positive")
    y0 = f.vec("y0")
    if len(y0) != dim:
        raise SchemaError("scenario.y0", f"expected {dim} coordinates, got {len(y0)}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise SchemaError("scenario.seed", "expected an integer")

    family = f.family("family")
    if family.dim != dim:
        raise SchemaError("scenario.family", f"family dim {family.dim} != scenario dim {dim}")
    if abs(family.horizon - horizon) > 1e-12:
        raise SchemaError(
            "scenario.family", f"family horizon {family.horizon} != scenario horizon {horizon}"
        )

    sched = _Fields(f.raw("schedule"), "scenario.schedule")
    schedule = ScheduleParams(
        eps0=sched.num("eps0"),
        ratio=sched.num("ratio"),
        levels=sched.count("levels"),
        base_resolution=sched.count("base_resolution", default=1),
    )
    if not (0.0 < schedule.ratio < 1.0):
        raise SchemaError("scenario.schedule.ratio", "must lie in (0, 1)")
    if schedule.levels < 1:
        raise SchemaError("scenario.schedule.levels", "must be >= 1")
    if schedule.base_resolution < 0:
        raise SchemaError("scenario.schedule.base_resolution", "must be >= 0")
    if not (0.0 < schedule.eps0 < family.r):
        raise SchemaError("scenario.schedule.eps0", f"must lie in (0, r={family.r})")

    checks_doc = f.raw("checks")
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
        ball = _Fields(bp["ball"], "scenario.bound_params.ball")
        ball_params = BallParams(w=ball.vec("w"), rho=ball.num("rho"))
        if ball_params.rho <= 0:
            raise SchemaError("scenario.bound_params.ball.rho", "must be positive")
        if len(ball_params.w) != dim:
            raise SchemaError("scenario.bound_params.ball.w", "dimension mismatch")
    if "cone" in bp:
        cone = _Fields(bp["cone"], "scenario.bound_params.cone")
        cone_params = ConeParams(R=cone.num("R"), d=cone.num("d"))
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

"""Scenario configs: JSON-shaped documents describing a moving family, an
initial point, a refinement schedule and the checks to run.

Shape, path and family descriptors are tagged records read by one reader:
the tag names a class in sets.SHAPES, paths.PATHS or families.FAMILIES, and
that class builds itself from a _Fields reader.  Numbers must be finite and
not booleans, flags must be JSON booleans, unread keys are errors, and parsing
validates every cross-field invariant eagerly and reports the offending field.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InfeasibleInitialPoint, SchemaError, UnknownShapeTag
from .families import FAMILIES, MovingFamily
from .harness import CHECKS
from .paths import PATHS, Path
from .sets import SHAPES, ProxSet


@dataclass(frozen=True)
class ScheduleParams:
    eps0: float
    ratio: float
    levels: int
    base_resolution: int = 1


@dataclass(frozen=True)
class BallParams:
    w: tuple  # floats, as _Fields.vec reads them
    rho: float


@dataclass(frozen=True)
class ConeParams:
    R: float
    d: float


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    y0: tuple  # floats, as _Fields.vec reads them
    seed: int
    family: MovingFamily
    schedule: ScheduleParams
    checks: tuple
    ball_params: BallParams | None = None
    cone_params: ConeParams | None = None

    # The family's; parse_scenario checks the document's copies against them.
    dim = property(lambda self: self.family.dim)
    horizon = property(lambda self: self.family.horizon)


class _Fields:
    """One schema object and its field path: each reader returns a validated
    field or raises SchemaError naming it, and close rejects unread keys.
    Shape, path and family classes build themselves from it in from_dict."""

    def __init__(self, obj, where: str):
        if not isinstance(obj, dict):
            raise SchemaError(where, "expected an object")
        self.obj, self.where = obj, where
        self.used, self.parts = set(), []

    def get(self, key: str, default):
        self.used.add(key)
        return self.obj.get(key, default)

    def raw(self, key: str):
        if key not in self.obj:
            raise SchemaError(f"{self.where}.{key}", "missing required field")
        return self.get(key, None)

    def optional(self, key: str, read):
        """read(key), or None when the field is absent or null."""
        return None if self.get(key, None) is None else read(key)

    def part(self, key: str, default=None) -> "_Fields":
        """The object at key (default when absent) as a reader closed with this one."""
        obj = self.raw(key) if default is None else self.get(key, default)
        self.parts.append(_Fields(obj, f"{self.where}.{key}"))
        return self.parts[-1]

    def close(self):
        """Raise SchemaError at the first unread key, here or in a part."""
        for part in self.parts:
            part.close()
        for key in self.obj:
            if key not in self.used:
                raise SchemaError(f"{self.where}.{key}", "unknown field")

    def _number(self, v, where: str) -> float:
        """v as a finite float; booleans, NaN and infinities are rejected."""
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaError(where, f"expected a number, got {type(v).__name__}")
        # float() raises OverflowError on a JSON integer beyond the double range.
        x = float(v) if isinstance(v, float) or abs(v) <= sys.float_info.max else math.inf
        if not math.isfinite(x):
            raise SchemaError(where, f"expected a finite number, got {x}")
        return x

    def num(self, key: str) -> float:
        return self._number(self.raw(key), f"{self.where}.{key}")

    def count(self, key: str, default: int | None = None) -> int:
        """A whole number checked through num, then read exactly (a large JSON
        integer keeps every digit); default applies when the key is absent."""
        if default is not None and key not in self.obj:
            return default
        x = self.num(key)
        if not x.is_integer():
            raise SchemaError(f"{self.where}.{key}", f"expected an integer, got {x!r}")
        return int(self.obj[key])

    def _vector(self, v, where: str) -> tuple:
        if not isinstance(v, list):
            raise SchemaError(where, "expected an array of numbers")
        return tuple(self._number(x, f"{where}[{i}]") for i, x in enumerate(v))

    def vec(self, key: str) -> tuple:
        return self._vector(self.raw(key), f"{self.where}.{key}")

    def matrix(self, key: str) -> tuple:
        """An array of rows, each read like vec."""
        rows, where = self.raw(key), f"{self.where}.{key}"
        if not isinstance(rows, list):
            raise SchemaError(where, "expected an array of arrays of numbers")
        return tuple(self._vector(row, f"{where}[{i}]") for i, row in enumerate(rows))

    def num_or_vec(self, key: str):
        """A number, or a tuple of numbers when the field is an array."""
        return self.vec(key) if isinstance(self.raw(key), list) else self.num(key)

    def flag(self, key: str) -> bool:
        """A JSON boolean; false when the key is absent."""
        v = self.get(key, False)
        if not isinstance(v, bool):
            raise SchemaError(f"{self.where}.{key}", f"expected true or false, got {v!r}")
        return v

    def objects(self, key: str) -> list:
        items = self.raw(key)
        if not isinstance(items, list) or not items:
            raise SchemaError(f"{self.where}.{key}", "expected a nonempty array of objects")
        self.parts += [_Fields(item, f"{self.where}.{key}[{i}]") for i, item in enumerate(items)]
        return self.parts[-len(items):]

    def shape(self, key: str) -> ProxSet:
        return shape_from_dict(self.raw(key), f"{self.where}.{key}")

    def path(self, key: str) -> Path:
        return _read_tagged(self.raw(key), f"{self.where}.{key}", "form", PATHS)

    def family(self, key: str) -> MovingFamily:
        return _read_tagged(self.raw(key), f"{self.where}.{key}", "kind", FAMILIES)


def _read_tagged(obj, where: str, key: str, registry: dict, unknown=SchemaError):
    """Build the registry class that obj[key] names from obj's fields.  An
    unknown tag raises unknown at the tag field; a ValueError or TypeError of
    the class becomes a SchemaError at where."""
    fields = _Fields(obj, where)
    tag = fields.raw(key)
    cls = registry.get(tag) if isinstance(tag, str) else None
    if cls is None:
        known = ", ".join(sorted(registry))
        raise unknown(f"{where}.{key}", f"unknown {key} {tag!r}; expected one of {known}")
    try:
        built = cls.from_dict(fields)
    except SchemaError:
        raise
    except (ValueError, TypeError) as err:
        raise SchemaError(where, str(err)) from err
    fields.close()
    return built


def shape_from_dict(obj: dict, path: str) -> ProxSet:
    return _read_tagged(obj, path, "shape", SHAPES, UnknownShapeTag)


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
    description = f.get("description", "")
    if not isinstance(description, str):
        raise SchemaError("scenario.description", "expected a string")
    dim = f.count("dim")
    if dim < 1:
        raise SchemaError("scenario.dim", "expected a positive integer")
    horizon = f.num("horizon")
    if horizon <= 0:
        raise SchemaError("scenario.horizon", "must be positive")
    y0 = f.vec("y0")
    if len(y0) != dim:
        raise SchemaError("scenario.y0", f"expected {dim} coordinates, got {len(y0)}")
    seed = f.count("seed", default=0)

    family = f.family("family")
    if family.dim != dim:
        raise SchemaError("scenario.family", f"family dim {family.dim} != scenario dim {dim}")
    if abs(family.horizon - horizon) > 1e-12:
        raise SchemaError(
            "scenario.family", f"family horizon {family.horizon} != scenario horizon {horizon}"
        )

    sched = f.part("schedule")
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
        if not isinstance(c, str) or c not in CHECKS:
            known = ", ".join(sorted(CHECKS))
            raise SchemaError("scenario.checks", f"unknown check {c!r}; expected one of {known}")

    ball_params = cone_params = None
    bp = f.part("bound_params", {})
    if "ball" in bp.obj:
        ball = bp.part("ball")
        ball_params = BallParams(w=ball.vec("w"), rho=ball.num("rho"))
        if ball_params.rho <= 0:
            raise SchemaError("scenario.bound_params.ball.rho", "must be positive")
        if len(ball_params.w) != dim:
            raise SchemaError("scenario.bound_params.ball.w", "dimension mismatch")
    if "cone" in bp.obj:
        cone = bp.part("cone")
        cone_params = ConeParams(R=cone.num("R"), d=cone.num("d"))
        if cone_params.R <= 0 or cone_params.d <= 0:
            raise SchemaError("scenario.bound_params.cone", "R and d must be positive")
    f.close()

    initial = family.at(0.0)
    if not initial.contains(y0):
        raise InfeasibleInitialPoint(initial.membership_defect(np.array(y0)))

    return Scenario(
        name=name,
        description=description,
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
        "family": scenario.family.to_dict(),
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

import json
import math

import numpy as np
import pytest

from sweepsolve import families, paths, scenarios
from sweepsolve.errors import InfeasibleInitialPoint, SchemaError, UnknownShapeTag
from sweepsolve.families import (
    PiecewiseFamily,
    RadiusFamily,
    RigidFamily,
    TranslateFamily,
)
from sweepsolve.harness import CHECKS
from sweepsolve.paths import ConstantPath, LinearPath, PiecewisePath
from sweepsolve.scenarios import (
    BUILTIN_NAMES,
    builtin_text,
    list_builtins,
    load_builtin,
    parse_scenario,
    serialize_scenario,
    shape_from_dict,
)
from sweepsolve.sets import Ball, BallComplement, HalfSpace, halfspace, polytope


def test_list_builtins_has_required_entries():
    entries = list_builtins()
    assert len(entries) >= 6
    names = [n for n, _ in entries]
    for required in (
        "static_ball",
        "sweep_halfspace",
        "shrinking_ball_inner_cert",
        "moving_obstacle",
        "polytope_rotation",
        "jump_expansion",
    ):
        assert required in names


def test_every_builtin_parses():
    for name in BUILTIN_NAMES:
        scenario = load_builtin(name)
        assert scenario.name == name


def test_jump_expansion_description_mentions_excess_continuity():
    descriptions = dict(list_builtins())
    assert "excess-continuous" in descriptions["jump_expansion"]


def test_round_trip_identity_all_builtins():
    for name in BUILTIN_NAMES:
        scenario = load_builtin(name)
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_sweep_fixture_shape():
    s = load_builtin("sweep_halfspace")
    assert s.dim == 2
    assert s.horizon == 2.0
    assert isinstance(s.family, TranslateFamily)
    assert isinstance(s.family.base, HalfSpace)


def test_builtin_family_kinds():
    assert isinstance(load_builtin("moving_obstacle").family, RadiusFamily)
    assert isinstance(load_builtin("polytope_rotation").family, RigidFamily)
    assert isinstance(load_builtin("jump_expansion").family, PiecewiseFamily)


def _patched(name: str, **replacements) -> str:
    doc = json.loads(builtin_text(name))
    doc.update(replacements)
    return json.dumps(doc)


def test_infeasible_initial_point():
    text = _patched("static_ball", y0=[5.0, 0.0])
    with pytest.raises(InfeasibleInitialPoint) as err:
        parse_scenario(text)
    assert err.value.defect > 1.0


def test_nonpositive_radius_is_schema_error():
    doc = json.loads(builtin_text("static_ball"))
    doc["family"]["base"]["radius"] = -1.0
    with pytest.raises(SchemaError, match="radius"):
        parse_scenario(json.dumps(doc))


def test_unknown_shape_tag():
    doc = json.loads(builtin_text("static_ball"))
    doc["family"]["base"] = {"shape": "torus", "center": [0.0, 0.0]}
    with pytest.raises(UnknownShapeTag):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    "where, tag",
    [("family.base.shape", "torus"), ("family.path.form", "cubic"), ("family.kind", "warp")],
)
def test_unknown_tag_names_its_field_and_the_known_tags(where, tag):
    doc = json.loads(builtin_text("static_ball"))
    _set(doc, where, tag)
    with pytest.raises(SchemaError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.field == f"scenario.{where}"
    assert f"unknown {where.rsplit('.', 1)[1]} {tag!r}; expected one of" in str(err.value)


def test_unknown_check_rejected():
    text = _patched("static_ball", checks=["constraint", "vibes"])
    with pytest.raises(SchemaError, match="vibes") as err:
        parse_scenario(text)
    assert err.value.field == "scenario.checks"
    assert "expected one of " + ", ".join(sorted(CHECKS)) in str(err.value)
    # A name that is not a string is unknown too, not an unhashable-key crash.
    with pytest.raises(SchemaError, match="unknown check"):
        parse_scenario(_patched("static_ball", checks=[["constraint"]]))


@pytest.mark.parametrize("description", [[1, {"x": 2}], {"text": "a ball"}, 7, None],
                         ids=["list", "object", "number", "null"])
def test_description_must_be_a_string(description):
    with pytest.raises(SchemaError, match="expected a string") as err:
        parse_scenario(_patched("static_ball", description=description))
    assert err.value.field == "scenario.description"


def test_absent_description_is_empty():
    doc = json.loads(builtin_text("static_ball"))
    del doc["description"]
    assert parse_scenario(json.dumps(doc)).description == ""


def test_every_harness_check_is_a_scenario_check():
    scenario = parse_scenario(_patched("polytope_rotation", checks=list(CHECKS)))
    assert scenario.checks == tuple(CHECKS)


def test_dim_mismatch_rejected():
    text = _patched("static_ball", y0=[0.0, 0.0, 0.0], dim=3)
    with pytest.raises(SchemaError):
        parse_scenario(text)


def test_eps0_must_stay_below_r():
    doc = json.loads(builtin_text("moving_obstacle"))
    doc["schedule"]["eps0"] = 0.5  # equals the obstacle radius r
    with pytest.raises(SchemaError, match="eps0"):
        parse_scenario(json.dumps(doc))


def test_missing_field_names_path():
    doc = json.loads(builtin_text("static_ball"))
    del doc["family"]["path"]
    with pytest.raises(SchemaError, match="family.path"):
        parse_scenario(json.dumps(doc))


def _set(doc: dict, where: str, value) -> None:
    """Set the field at the dotted path where of a scenario document."""
    *parents, key = where.split(".")
    for part in parents:
        doc = doc[part]
    doc[key] = value


@pytest.mark.parametrize(
    "name, where, value",
    [
        pytest.param("static_ball", "family.declared_r", "abc", id="family-declared_r-abc"),
        pytest.param("static_ball", "schedule.base_resolution", "abc",
                     id="schedule-base_resolution-abc"),
        pytest.param("static_ball", "schedule.levels", 2.5, id="schedule-levels-2.5"),
        pytest.param("static_ball", "schedule.base_resolution", -5,
                     id="schedule-base_resolution--5"),
        pytest.param("static_ball", "horizon", math.nan, id="horizon-NaN"),
        pytest.param("static_ball", "horizon", math.inf, id="horizon-Infinity"),
        pytest.param("static_ball", "horizon", 10**400, id="horizon-huge-integer"),
        pytest.param("polytope_rotation", "family.angle.rate", math.nan, id="path-rate-NaN"),
        pytest.param("moving_obstacle", "family.radius.value", True, id="path-value-true"),
        pytest.param("moving_obstacle", "family.complement", "false", id="complement-string"),
        pytest.param("static_ball", "seed", True, id="seed-true"),
        pytest.param("static_ball", "dim", True, id="dim-true"),
    ],
)
def test_bad_number_names_its_field(name, where, value):
    doc = json.loads(builtin_text(name))
    _set(doc, where, value)
    with pytest.raises(SchemaError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.field == f"scenario.{where}"


@pytest.mark.parametrize(
    "name, where, value, field",
    [
        ("static_ball", "y0", [math.nan, 0.0], "y0[0]"),
        ("sweep_halfspace", "family.path.rate", [-1.0, math.inf], "family.path.rate[1]"),
        ("static_ball", "family.base.center", [0.0, False], "family.base.center[1]"),
    ],
)
def test_bad_array_entry_names_its_index(name, where, value, field):
    doc = json.loads(builtin_text(name))
    _set(doc, where, value)
    with pytest.raises(SchemaError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.field == f"scenario.{field}"


@pytest.mark.parametrize(
    "name, where, key",
    [
        pytest.param("static_ball", "", "chekcs", id="top-level"),
        pytest.param("static_ball", "schedule", "levles", id="schedule"),
        pytest.param("polytope_rotation", "bound_params", "coen", id="bound_params"),
        pytest.param("shrinking_ball_inner_cert", "bound_params.ball", "rh0", id="ball"),
        pytest.param("polytope_rotation", "bound_params.cone", "D", id="cone"),
        pytest.param("polytope_rotation", "family", "circumradus", id="family"),
        pytest.param("polytope_rotation", "family", "circumradius", id="family-removed-option"),
        pytest.param("polytope_rotation", "family.base", "interrior", id="shape"),
        pytest.param("polytope_rotation", "family.base.faces[1]", "ofset", id="face"),
        pytest.param("polytope_rotation", "family.angle", "rat", id="path"),
        pytest.param("jump_expansion", "family.pieces[0]", "untill", id="piece"),
        pytest.param("jump_expansion", "family.pieces[1].family", "complment", id="piece-family"),
    ],
)
def test_unknown_key_is_rejected_at_its_path(name, where, key):
    doc = json.loads(builtin_text(name))
    obj = doc
    for part in filter(None, where.replace("[", ".").replace("]", "").split(".")):
        obj = obj[int(part)] if part.isdigit() else obj[part]
    obj[key] = 1.0
    with pytest.raises(SchemaError, match="unknown field") as err:
        parse_scenario(json.dumps(doc))
    assert err.value.field == ".".join(filter(None, ("scenario", where, key)))


def test_rotation_entries_are_read_as_numbers():
    base = {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}
    for rotation, field in (([[math.nan, 0.0], [0.0, 1.0]], "s.rotation[0][0]"),
                            ([[True, False], [False, True]], "s.rotation[0][0]"),
                            ([[1.0, 0.0], "row"], "s.rotation[1]")):
        doc = {"shape": "rigid_image", "base": base, "rotation": rotation,
               "translation": [0.0, 0.0]}
        with pytest.raises(SchemaError) as err:
            shape_from_dict(json.loads(json.dumps(doc)), "s")
        assert err.value.field == field


def test_complement_must_be_a_json_boolean():
    doc = json.loads(builtin_text("shrinking_ball_inner_cert"))
    del doc["family"]["complement"]
    assert parse_scenario(json.dumps(doc)).family.complement is False
    assert load_builtin("moving_obstacle").family.complement is True
    doc = json.loads(builtin_text("moving_obstacle"))
    doc["family"]["complement"] = 1
    with pytest.raises(SchemaError, match="expected true or false"):
        parse_scenario(json.dumps(doc))


def test_large_integer_seed_is_read_exactly():
    seed = 2**60 + 1
    assert parse_scenario(_patched("static_ball", seed=seed)).seed == seed


def test_non_object_section_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse_scenario(_patched("static_ball", schedule=5))
    assert err.value.field == "scenario.schedule"


# One instance of every registered path form and family kind, keyed by tag.
TRIANGLE = polytope(
    (halfspace((0.0, -1.0), 0.0), halfspace((-1.0, 0.0), 0.0), halfspace((1.0, 1.0), 1.0)),
    (0.2, 0.2),
)
KINK = PiecewisePath(((1.0, LinearPath(1.0, -0.5)), (2.0, LinearPath(0.0, 0.5))))
PATH_BY_FORM = {
    "constant": ConstantPath((0.5, -1.0)),
    "linear": LinearPath(0.25, -0.5),
    "piecewise": KINK,
}
FAMILY_BY_KIND = {
    "translate": TranslateFamily(Ball((0.0, 0.0), 1.0), LinearPath((0.0, 0.0), (1.0, 0.0)), 2.0),
    "radius_schedule": RadiusFamily(ConstantPath((0.0, 0.0)), KINK, True, 2.0, declared_r=0.25),
    "rigid": RigidFamily(
        TRIANGLE, LinearPath(0.0, 0.5), (0.5, 0.5), 2.0,
        translation=LinearPath((0.0, 0.0), (0.1, 0.0)),
    ),
    "piecewise": PiecewiseFamily(
        (
            (1.0, RadiusFamily(ConstantPath((0.0, 0.0)), ConstantPath(1.0), False, 1.0)),
            (2.0, RadiusFamily(ConstantPath((0.0, 0.0)), ConstantPath(1.5), False, 2.0)),
        ),
        declared_r=5.0,
    ),
}
CASES = [("path", tag) for tag in sorted(PATH_BY_FORM)] + [
    ("family", tag) for tag in sorted(FAMILY_BY_KIND)
]


def _case(noun: str, tag: str):
    return (PATH_BY_FORM if noun == "path" else FAMILY_BY_KIND)[tag]


def test_every_registered_path_and_family_has_a_case():
    assert sorted(paths.PATHS) == sorted(PATH_BY_FORM)
    assert sorted(families.FAMILIES) == sorted(FAMILY_BY_KIND)
    for tag, path in PATH_BY_FORM.items():
        assert type(path) is paths.PATHS[tag]
    for tag, family in FAMILY_BY_KIND.items():
        assert type(family) is families.FAMILIES[tag]


@pytest.mark.parametrize("noun, tag", CASES)
def test_path_and_family_to_dict_round_trip(noun, tag):
    obj = _case(noun, tag)
    doc = json.loads(json.dumps(obj.to_dict()))
    assert doc["form" if noun == "path" else "kind"] == tag
    # Read back through the scenario reader, as the field of a parent object.
    back = getattr(scenarios._Fields({noun: doc}, "case"), noun)(noun)
    assert type(back) is type(obj)
    assert back == obj
    assert back.to_dict() == obj.to_dict()


@pytest.mark.parametrize("name, build, value", [
    pytest.param("value", ConstantPath, (0.5, -1.0), id="constant"),
    pytest.param("value", lambda v: LinearPath(v, (1.0, 0.0)), (0.5, -1.0), id="linear-value"),
    pytest.param("rate", lambda v: LinearPath((0.0, 0.0), v), (0.5, -1.0), id="linear-rate"),
    pytest.param("pivot", lambda v: RigidFamily(TRIANGLE, LinearPath(0.0, 0.5), v, 2.0),
                 (0.5, 0.5), id="rigid-pivot"),
])
def test_vector_fields_are_read_only_copies(name, build, value):
    given = np.array(value)
    stored = getattr(build(given), name)
    assert isinstance(stored, np.ndarray) and stored.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 7.0
    given[...] = 7.0
    assert np.array_equal(stored, value)


def test_paths_and_families_differing_in_one_coordinate_or_type_are_unequal():
    assert ConstantPath((0.5, -1.0)) != ConstantPath((0.5, -1.5))
    assert LinearPath((0.0, 0.0), (1.0, 0.0)) != LinearPath((0.0, 0.0), (1.0, 1.0))
    assert ConstantPath(1.0) != LinearPath(1.0, 0.0)
    rigid = FAMILY_BY_KIND["rigid"]
    assert rigid != RigidFamily(rigid.base, rigid.angle, (0.5, 0.25), rigid.horizon,
                                rigid.translation)
    doc = json.loads(builtin_text("polytope_rotation"))
    doc["family"]["pivot"][1] = 0.25
    assert parse_scenario(json.dumps(doc)) != load_builtin("polytope_rotation")
    for obj in (*PATH_BY_FORM.values(), *FAMILY_BY_KIND.values()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


def test_serialization_is_deterministic():
    s = load_builtin("polytope_rotation")
    assert serialize_scenario(s) == serialize_scenario(s)

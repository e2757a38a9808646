import json

import pytest

from sweepsolve.errors import InfeasibleInitialPoint, SchemaError, UnknownShapeTag
from sweepsolve.families import PiecewiseFamily, RadiusFamily, RigidFamily, TranslateFamily
from sweepsolve.scenarios import (
    BUILTIN_NAMES,
    builtin_text,
    list_builtins,
    load_builtin,
    parse_scenario,
    serialize_scenario,
)
from sweepsolve.sets import HalfSpace


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


def test_unknown_check_rejected():
    text = _patched("static_ball", checks=["constraint", "vibes"])
    with pytest.raises(SchemaError, match="vibes"):
        parse_scenario(text)


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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("family", "declared_r", "abc"),
        ("schedule", "base_resolution", "abc"),
        ("schedule", "levels", 2.5),
        ("schedule", "base_resolution", -5),
    ],
)
def test_bad_number_names_its_field(section, key, value):
    doc = json.loads(builtin_text("static_ball"))
    doc[section][key] = value
    with pytest.raises(SchemaError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.field == f"scenario.{section}.{key}"


def test_serialization_is_deterministic():
    s = load_builtin("polytope_rotation")
    assert serialize_scenario(s) == serialize_scenario(s)

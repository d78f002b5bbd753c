"""Scenario model: derived quantities, validation rules, JSON parsing."""

import dataclasses
import json
import math

import pytest

from egstherm.scenario import (
    BUNDLED_SCENARIOS,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_path,
    fracture_velocity,
    load_scenario,
    scenario_from_dict,
    thermal_diffusivity,
    transfer_coefficient,
    validate,
)

# Derived constants for the granite benchmark case, frozen from the
# defining expressions k / (rho c) and (Q / n) / (b H).
ALPHA = 9.358490566037735e-07
V_ARRAY = 0.01134148609760634
V_SINGLE = 0.11341486097606339
A_SINGLE = 4448.400764519973
A_ARRAY = 88968.01529039945


def test_bundled_names():
    assert BUNDLED_SCENARIOS == ("valles_caldera", "zeinali")
    for name in BUNDLED_SCENARIOS:
        path = bundled_scenario_path(name)
        assert path.exists()


def test_bundled_scenarios_validate_clean(valles, zeinali):
    assert validate(valles) == []
    assert validate(zeinali) == []


def test_valles_caldera_contents(valles):
    assert valles.rock.conductivity == 2.59408
    assert valles.rock.density == 2650.0
    assert valles.rock.specific_heat == 1046.0
    assert valles.rock.initial_temperature == 300.0
    assert valles.fluid.injection_temperature == 65.0
    assert valles.fractures.count == 10
    assert valles.fractures.aperture == 0.00127
    assert valles.fractures.height == 999.744
    assert valles.fractures.flow_length == 999.744
    assert valles.fractures.spacing == 40.0
    assert valles.fractures.faces == 2
    assert valles.operating.total_rate == 0.144
    assert valles.operating.horizon == 1_576_800_000.0


def test_zeinali_contents(zeinali):
    assert zeinali.fractures.height == 91.44
    assert zeinali.fractures.spacing == 39.62
    assert zeinali.fractures.count == 10
    # total rate is ten fractures at 80 barrels per day each
    assert zeinali.operating.total_rate == pytest.approx(
        10 * 80 * 0.158987 / 86400.0, rel=1e-12
    )


def test_thermal_diffusivity(valles):
    alpha = thermal_diffusivity(valles.rock)
    assert alpha == pytest.approx(ALPHA, rel=1e-14)
    assert alpha == pytest.approx(2.59408 / (2650.0 * 1046.0), rel=1e-14)


def test_fracture_velocity(valles, valles_single):
    assert fracture_velocity(valles) == pytest.approx(V_ARRAY, rel=1e-14)
    assert fracture_velocity(valles_single) == pytest.approx(V_SINGLE, rel=1e-14)


def test_transfer_coefficient_values(valles, valles_single):
    x = valles.fractures.flow_length
    assert transfer_coefficient(valles_single, x) == pytest.approx(A_SINGLE, rel=1e-13)
    assert transfer_coefficient(valles, x) == pytest.approx(A_ARRAY, rel=1e-13)
    # doubling faces at a tenth of the velocity scales the coefficient 20x
    assert transfer_coefficient(valles, x) == pytest.approx(
        20.0 * transfer_coefficient(valles_single, x), rel=1e-13
    )


def test_transfer_coefficient_linear_in_x(valles_single):
    a_half = transfer_coefficient(valles_single, 499.872)
    a_full = transfer_coefficient(valles_single, 999.744)
    assert a_full == pytest.approx(2.0 * a_half, rel=1e-13)


def test_transfer_coefficient_domain(valles_single):
    assert transfer_coefficient(valles_single, 0.0) == 0.0
    with pytest.raises(ValueError):
        transfer_coefficient(valles_single, -1.0)
    with pytest.raises(ValueError):
        transfer_coefficient(valles_single, 999.745)
    with pytest.raises(ValueError, match=r"^x must lie in \[0, flow_length="):
        transfer_coefficient(valles_single, math.nan)


@pytest.mark.parametrize(
    "section,field,bad,needle",
    [
        ("rock", "conductivity", 0.0, "rock.conductivity"),
        ("rock", "density", -1.0, "rock.density"),
        ("rock", "specific_heat", 0.0, "rock.specific_heat"),
        ("fluid", "density", 0.0, "fluid.density"),
        ("fluid", "specific_heat", -2.0, "fluid.specific_heat"),
        ("fractures", "aperture", 0.0, "fractures.aperture"),
        ("fractures", "height", -1.0, "fractures.height"),
        ("fractures", "flow_length", 0.0, "fractures.flow_length"),
        ("fractures", "count", 0, "fractures.count"),
        ("fractures", "faces", 3, "fractures.faces"),
        ("operating", "total_rate", 0.0, "operating.total_rate"),
        ("operating", "horizon", -5.0, "operating.horizon"),
        ("operating", "n_steps", 1, "operating.n_steps"),
    ],
)
def test_validate_names_field_and_rule(valles, section, field, bad, needle):
    part = dataclasses.replace(getattr(valles, section), **{field: bad})
    sc = dataclasses.replace(valles, **{section: part})
    problems = validate(sc)
    assert len(problems) == 1
    assert needle in problems[0]
    assert str(bad) in problems[0]


def test_validate_injection_must_be_cooler(valles):
    fluid = dataclasses.replace(valles.fluid, injection_temperature=300.0)
    problems = validate(dataclasses.replace(valles, fluid=fluid))
    assert len(problems) == 1
    assert "injection_temperature" in problems[0]


def test_validate_spacing_required_for_arrays(valles):
    fr = dataclasses.replace(valles.fractures, spacing=None)
    problems = validate(dataclasses.replace(valles, fractures=fr))
    assert any("spacing" in p for p in problems)
    # a single fracture needs no spacing
    fr1 = dataclasses.replace(valles.fractures, count=1, spacing=None)
    assert validate(dataclasses.replace(valles, fractures=fr1)) == []


def test_validate_collects_multiple_problems(valles):
    rock = dataclasses.replace(valles.rock, conductivity=0.0, density=-1.0)
    problems = validate(dataclasses.replace(valles, rock=rock))
    assert len(problems) == 2


POSITIVE_FIELDS = [
    ("rock", "conductivity"),
    ("rock", "density"),
    ("rock", "specific_heat"),
    ("fluid", "density"),
    ("fluid", "specific_heat"),
    ("fractures", "aperture"),
    ("fractures", "height"),
    ("fractures", "flow_length"),
    ("operating", "total_rate"),
    ("operating", "horizon"),
]


def _with(sc, section, field, value):
    part = dataclasses.replace(getattr(sc, section), **{field: value})
    return dataclasses.replace(sc, **{section: part})


@pytest.mark.parametrize("section,field", POSITIVE_FIELDS)
def test_validate_states_each_positive_field_rule_once(valles, section, field):
    # every value that is not > 0, NaN and -inf included, keeps its message;
    # inf is > 0 but not finite
    for bad in (0.0, -1.0, -math.inf, math.nan):
        assert validate(_with(valles, section, field, bad)) == [
            f"{section}.{field} must be > 0, got {bad}"
        ]
    assert validate(_with(valles, section, field, math.inf)) == [
        f"{section}.{field} must be finite, got inf"
    ]


@pytest.mark.parametrize("section,field", [
    ("rock", "initial_temperature"), ("fluid", "injection_temperature")
])
def test_validate_refuses_an_infinite_temperature(valles, section, field):
    cooler = {"rock": math.inf, "fluid": -math.inf}[section]  # still T_inj < T0
    assert validate(_with(valles, section, field, cooler)) == [
        f"{section}.{field} must be finite, got {cooler}"
    ]


def test_validate_lets_an_array_be_infinitely_spaced(valles):
    # an isolated fracture, which the slab image's half-space branch serves
    assert validate(_with(valles, "fractures", "spacing", math.inf)) == []


def test_load_scenario_refuses_an_infinite_injection_temperature(tmp_path):
    # JSON reads -1e400 as -inf, which the loader refuses by field name
    text = json.dumps(_valid_dict()).replace('"injection_temperature": 60.0',
                                             '"injection_temperature": -1e400')
    path = tmp_path / "cold.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=(
        r"^invalid scenario: fluid.injection_temperature must be finite, got -inf$"
    )):
        load_scenario(path)


def _valid_dict():
    return {
        "rock": {
            "conductivity": 2.5,
            "density": 2600.0,
            "specific_heat": 1000.0,
            "initial_temperature": 250.0,
        },
        "fluid": {
            "density": 1000.0,
            "specific_heat": 4184.0,
            "injection_temperature": 60.0,
        },
        "fractures": {
            "count": 2,
            "aperture": 0.001,
            "height": 100.0,
            "flow_length": 100.0,
            "spacing": 30.0,
        },
        "operating": {"total_rate": 0.01, "horizon": 1.0e9},
    }


def test_scenario_from_dict_defaults():
    sc = scenario_from_dict(_valid_dict())
    assert sc.fractures.faces == 1
    assert sc.operating.n_steps == 200
    assert sc.metadata == {}


def test_scenario_from_dict_rejects_unknown_keys():
    d = _valid_dict()
    d["fractures"]["apperture"] = 0.001
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "apperture" in str(err.value)


def test_scenario_from_dict_rejects_unknown_sections():
    d = _valid_dict()
    d["wellbore"] = {}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "wellbore" in str(err.value)


def test_scenario_from_dict_missing_field():
    d = _valid_dict()
    del d["rock"]["density"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "rock" in str(err.value) and "density" in str(err.value)


def test_scenario_from_dict_type_errors_name_the_field():
    d = _valid_dict()
    d["rock"]["conductivity"] = "granite"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "rock.conductivity" in str(err.value)

    d = _valid_dict()
    d["fractures"]["count"] = 2.5
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "fractures.count" in str(err.value)


def test_scenario_from_dict_applies_validate():
    d = _valid_dict()
    d["fluid"]["injection_temperature"] = 500.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert "injection_temperature" in str(err.value)


def test_metadata_passthrough():
    d = _valid_dict()
    d["metadata"] = {"label": "demo", "site": "nowhere"}
    sc = scenario_from_dict(d)
    assert sc.metadata["label"] == "demo"


def test_metadata_must_be_an_object():
    d = _valid_dict()
    d["metadata"] = ["demo"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(d)
    assert str(err.value) == "invalid scenario: metadata must be a JSON object when present"


def test_null_spacing_loads_as_none_for_one_fracture():
    d = _valid_dict()
    d["fractures"].update(count=1, spacing=None)
    sc = scenario_from_dict(d)
    assert sc.fractures.spacing is None
    assert validate(sc) == []


def test_unknown_bundled_scenario_is_refused():
    with pytest.raises(ScenarioError) as err:
        bundled_scenario_path("yellowstone")
    assert str(err.value) == (
        "unknown bundled scenario 'yellowstone'; available: valles_caldera, zeinali"
    )


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_scenario_round_trips_through_asdict(name):
    # the JSON schema is the dataclasses' fields: every field written out
    # is read back under the same key, type and value
    sc = bundled_scenario(name)
    back = scenario_from_dict(dataclasses.asdict(sc))
    assert back == sc
    assert repr(back) == repr(sc)  # ints stay ints, floats stay floats


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_valid_dict()))
    sc = load_scenario(path)
    assert sc.fractures.count == 2
    assert validate(sc) == []


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_is_frozen(valles):
    with pytest.raises(Exception):
        valles.rock = valles.rock

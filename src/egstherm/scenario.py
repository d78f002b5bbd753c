"""Parameter model for a fractured-reservoir heat-extraction case.

A Scenario bundles rock and fluid properties, the fracture-array geometry,
and the operating schedule, and supplies the derived quantities the
solvers need: thermal diffusivity, in-fracture fluid velocity, and the
convective-conductive transfer coefficient. Scenarios are plain immutable
value objects; ``validate`` returns rule violations as data instead of
raising, so partially built cases can be inspected.

Scenario files are strict JSON with top-level keys ``rock``, ``fluid``,
``fractures``, ``operating`` and an optional free-form ``metadata`` block;
unknown keys anywhere else are rejected. Two benchmark cases ship with the
package: ``valles_caldera`` and ``zeinali``.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "RockProperties",
    "FluidProperties",
    "FractureArray",
    "Operating",
    "Scenario",
    "ScenarioError",
    "thermal_diffusivity",
    "fracture_velocity",
    "face_coupling",
    "transfer_coefficient",
    "collapse_to_single",
    "validate",
    "scenario_from_dict",
    "load_scenario",
    "bundled_scenario_path",
    "bundled_scenario",
    "BUNDLED_SCENARIOS",
]

BUNDLED_SCENARIOS = ("valles_caldera", "zeinali")


class ScenarioError(ValueError):
    """Raised when a scenario file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class RockProperties:
    """Homogeneous rock: conductivity W/(m C), density kg/m3,
    specific heat J/(kg C), uniform initial temperature C."""

    conductivity: float
    density: float
    specific_heat: float
    initial_temperature: float


@dataclass(frozen=True)
class FluidProperties:
    """Working fluid: density kg/m3, specific heat J/(kg C),
    injection temperature C (must sit below the rock's initial state)."""

    density: float
    specific_heat: float
    injection_temperature: float


@dataclass(frozen=True)
class FractureArray:
    """Equidistant parallel fractures.

    Attributes
    ----------
    count : int
        Number of fractures, >= 1.
    aperture : float
        Opening width normal to the faces, m.
    height : float
        Extent across the flow direction, m.
    flow_length : float
        Along-fracture path from injector to producer, m.
    spacing : float or None
        Distance between adjacent fractures, m; required when count > 1.
    faces : int
        Heat-exchange faces per fracture, 1 or 2. One face reproduces the
        proposed-model convention; two faces the classical isolated-fracture
        reference.
    """

    count: int
    aperture: float
    height: float
    flow_length: float
    spacing: float | None = None
    faces: int = 1


@dataclass(frozen=True)
class Operating:
    """Operating schedule: total rate m3/s across all fractures,
    forecast horizon s, and the default number of forecast steps."""

    total_rate: float
    horizon: float
    n_steps: int = 200


@dataclass(frozen=True)
class Scenario:
    rock: RockProperties
    fluid: FluidProperties
    fractures: FractureArray
    operating: Operating
    metadata: dict[str, Any] = field(default_factory=dict)


def thermal_diffusivity(rock: RockProperties) -> float:
    """Rock thermal diffusivity k / (rho c), m2/s."""
    return rock.conductivity / (rock.density * rock.specific_heat)


def fracture_velocity(sc: Scenario) -> float:
    """Mean fluid velocity inside one fracture, m/s.

    The per-fracture rate Q/n spread over the aperture-by-height flow
    cross-section: v = (Q/n) / (b H).
    """
    fr = sc.fractures
    return (sc.operating.total_rate / fr.count) / (fr.aperture * fr.height)


def face_coupling(sc: Scenario) -> float:
    """Dimensionless fluid-march coupling faces k / (rho_f c_f v b): the
    fluid warms along x at this multiple of the rock's face gradient,
    d T_f / dx = face_coupling * d T_rock / dy at y = 0."""
    fr = sc.fractures
    return (
        fr.faces
        * sc.rock.conductivity
        / (sc.fluid.density * sc.fluid.specific_heat * fracture_velocity(sc) * fr.aperture)
    )


def transfer_coefficient(sc: Scenario, x: float) -> float:
    """Convective-conductive transfer coefficient at distance x, s^(1/2).

    a(x) = faces k x / (rho_f c_f v b sqrt(alpha)). The group controls the
    outlet response: the produced temperature is a function of a/(2 sqrt(t))
    alone. Linear in x and in the face count.

    Parameters
    ----------
    sc : Scenario
    x : float
        Along-fracture distance from the inlet, 0 <= x <= flow_length, m.
    """
    x = float(x)
    if x < 0.0 or x > sc.fractures.flow_length:
        raise ValueError(
            f"x must lie in [0, flow_length={sc.fractures.flow_length}], got {x}"
        )
    alpha = thermal_diffusivity(sc.rock)
    v = fracture_velocity(sc)
    fl = sc.fluid
    return (
        sc.fractures.faces
        * sc.rock.conductivity
        * x
        / (fl.density * fl.specific_heat * v * sc.fractures.aperture * math.sqrt(alpha))
    )


def collapse_to_single(sc: Scenario, faces: int = 1) -> Scenario:
    """Route the scenario's entire flow through one fracture.

    The isolated-fracture closed form's scenario: count 1, no spacing, the
    full total_rate, and the requested number of exchange faces.
    """
    fr = dataclasses.replace(sc.fractures, count=1, faces=faces, spacing=None)
    return dataclasses.replace(sc, fractures=fr)


def validate(sc: Scenario) -> list[str]:
    """Check every invariant; return one message per violation.

    An empty list means the scenario is usable by all solvers. Violations
    name the offending field and the rule, and are data, not exceptions.
    """
    out: list[str] = []
    rock, fluid, fr, op = sc.rock, sc.fluid, sc.fractures, sc.operating
    if not rock.conductivity > 0.0:
        out.append(f"rock.conductivity must be > 0, got {rock.conductivity}")
    if not rock.density > 0.0:
        out.append(f"rock.density must be > 0, got {rock.density}")
    if not rock.specific_heat > 0.0:
        out.append(f"rock.specific_heat must be > 0, got {rock.specific_heat}")
    if not fluid.density > 0.0:
        out.append(f"fluid.density must be > 0, got {fluid.density}")
    if not fluid.specific_heat > 0.0:
        out.append(f"fluid.specific_heat must be > 0, got {fluid.specific_heat}")
    if not fluid.injection_temperature < rock.initial_temperature:
        out.append(
            "fluid.injection_temperature must be below rock.initial_temperature, "
            f"got {fluid.injection_temperature} vs {rock.initial_temperature}"
        )
    if not (isinstance(fr.count, int) and fr.count >= 1):
        out.append(f"fractures.count must be an integer >= 1, got {fr.count!r}")
    if not fr.aperture > 0.0:
        out.append(f"fractures.aperture must be > 0, got {fr.aperture}")
    if not fr.height > 0.0:
        out.append(f"fractures.height must be > 0, got {fr.height}")
    if not fr.flow_length > 0.0:
        out.append(f"fractures.flow_length must be > 0, got {fr.flow_length}")
    if isinstance(fr.count, int) and fr.count > 1:
        if fr.spacing is None or not fr.spacing > 0.0:
            out.append(
                f"fractures.spacing must be > 0 when count > 1, got {fr.spacing}"
            )
    if fr.faces not in (1, 2):
        out.append(f"fractures.faces must be 1 or 2, got {fr.faces}")
    if not op.total_rate > 0.0:
        out.append(f"operating.total_rate must be > 0, got {op.total_rate}")
    if not op.horizon > 0.0:
        out.append(f"operating.horizon must be > 0, got {op.horizon}")
    if not (isinstance(op.n_steps, int) and op.n_steps >= 2):
        out.append(f"operating.n_steps must be an integer >= 2, got {op.n_steps!r}")
    return out


# JSON schema: section -> (required fields, optional fields with defaults)
_SCHEMA: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "rock": (("conductivity", "density", "specific_heat", "initial_temperature"), {}),
    "fluid": (("density", "specific_heat", "injection_temperature"), {}),
    "fractures": (
        ("count", "aperture", "height", "flow_length"),
        {"spacing": None, "faces": 1},
    ),
    "operating": (("total_rate", "horizon"), {"n_steps": 200}),
}


def _parse_section(name: str, raw: Any, problems: list[str]) -> dict[str, Any]:
    required, optional = _SCHEMA[name]
    if not isinstance(raw, dict):
        problems.append(f"section {name!r} must be a JSON object")
        return {}
    fields: dict[str, Any] = {}
    for key in required:
        if key not in raw:
            problems.append(f"section {name!r} is missing required field {key!r}")
    for key, value in raw.items():
        if key in required or key in optional:
            fields[key] = value
        else:
            problems.append(f"section {name!r} has unknown field {key!r}")
    for key, default in optional.items():
        fields.setdefault(key, default)
    return fields


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Build a Scenario from a parsed JSON document (strict keys).

    The document must contain exactly the sections rock, fluid, fractures
    and operating; an optional ``metadata`` object is carried through
    untouched. Integer-typed fields are coerced from JSON numbers; all
    other numeric fields become floats.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in data:
        if key not in _SCHEMA and key != "metadata":
            problems.append(f"unknown top-level key {key!r}")
    sections = {name: _parse_section(name, data.get(name), problems) for name in _SCHEMA}
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        problems.append("metadata must be a JSON object when present")
        metadata = {}
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))

    def num(section: str, key: str) -> float:
        value = sections[section][key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"field {section}.{key} must be a number, got {value!r}")
        return float(value)

    def integer(section: str, key: str) -> int:
        value = sections[section][key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"field {section}.{key} must be an integer, got {value!r}")
        return value

    spacing_raw = sections["fractures"]["spacing"]
    sc = Scenario(
        rock=RockProperties(
            conductivity=num("rock", "conductivity"),
            density=num("rock", "density"),
            specific_heat=num("rock", "specific_heat"),
            initial_temperature=num("rock", "initial_temperature"),
        ),
        fluid=FluidProperties(
            density=num("fluid", "density"),
            specific_heat=num("fluid", "specific_heat"),
            injection_temperature=num("fluid", "injection_temperature"),
        ),
        fractures=FractureArray(
            count=integer("fractures", "count"),
            aperture=num("fractures", "aperture"),
            height=num("fractures", "height"),
            flow_length=num("fractures", "flow_length"),
            spacing=None if spacing_raw is None else num("fractures", "spacing"),
            faces=integer("fractures", "faces"),
        ),
        operating=Operating(
            total_rate=num("operating", "total_rate"),
            horizon=num("operating", "horizon"),
            n_steps=integer("operating", "n_steps"),
        ),
        metadata=dict(metadata),
    )
    violations = validate(sc)
    if violations:
        raise ScenarioError("invalid scenario: " + "; ".join(violations))
    return sc


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {err}") from err
    return scenario_from_dict(data)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled benchmark scenario."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        )
    resource = importlib.resources.files("egstherm.data") / f"{name}.json"
    with importlib.resources.as_file(resource) as path:
        return Path(path)


def bundled_scenario(name: str) -> Scenario:
    """Load one of the bundled benchmark scenarios by name."""
    return load_scenario(bundled_scenario_path(name))

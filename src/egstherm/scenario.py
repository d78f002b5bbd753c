"""Parameter model for a fractured-reservoir heat-extraction case.

A Scenario bundles rock and fluid properties, the fracture-array geometry,
and the operating schedule, and supplies the derived quantities the
solvers need: thermal diffusivity, in-fracture fluid velocity, and the
convective-conductive transfer coefficient. Scenarios are plain immutable
value objects; ``validate`` returns rule violations as data instead of
raising, so partially built cases can be inspected. Beside the diffusivity
sit the front-traversal helpers used for spacing design
(``time_to_radius``, ``interference_table``); like the rest of this module
they need only the standard library.

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
from typing import Any, Sequence

from .units import SECONDS_PER_YEAR

__all__ = [
    "RockProperties",
    "FluidProperties",
    "FractureArray",
    "Operating",
    "Scenario",
    "ScenarioError",
    "thermal_diffusivity",
    "InterferenceRow",
    "time_to_radius",
    "interference_table",
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


@dataclass(frozen=True)
class InterferenceRow:
    """One spacing's worth of thermal-front bookkeeping.

    radius_m is the front's reach sqrt(4 alpha t); interference_time_yr is
    half the full-traversal time (the moment fronts advancing from both
    neighbours meet), and interference_radius_m is half the spacing.
    """

    radius_m: float
    time_yr: float
    interference_time_yr: float
    interference_radius_m: float


def time_to_radius(r: float, alpha: float) -> float:
    """Time for the front to reach distance r: r^2 / (4 alpha), s."""
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"r must be > 0, got {r}")
    return r * r / (4.0 * alpha)


def interference_table(spacings: Sequence[float], alpha: float) -> list[InterferenceRow]:
    """Front-traversal and interference times for candidate fracture spacings.

    Per spacing s: the traversal time t(s) = time_to_radius(s), the
    interference time t_i = t(s)/2 (fronts advance from both neighbours),
    and the interference radius s/2. Times reported in 365-day years. A
    spacing that is not > 0, or whose traversal time is not finite (an
    infinite spacing, or one so large that s^2 / (4 alpha) overflows), is
    refused with a ValueError that names it.
    """
    rows = []
    for spacing in spacings:
        spacing = float(spacing)
        if not spacing > 0.0:
            raise ValueError(f"spacings must be > 0, got {spacing}")
        t_yr = time_to_radius(spacing, alpha) / SECONDS_PER_YEAR
        if not math.isfinite(t_yr):
            rule = "finite" if math.isinf(spacing) else "small enough for a finite traversal time"
            raise ValueError(f"spacings must be {rule}, got {spacing}")
        rows.append(
            InterferenceRow(
                radius_m=spacing,
                time_yr=t_yr,
                interference_time_yr=t_yr / 2.0,
                interference_radius_m=spacing / 2.0,
            )
        )
    return rows


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
    if not 0.0 <= x <= sc.fractures.flow_length:
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


# JSON sections and the dataclasses they fill; each section's keys, defaults
# and value types are those of its dataclass's fields
_SECTIONS = {
    "rock": RockProperties,
    "fluid": FluidProperties,
    "fractures": FractureArray,
    "operating": Operating,
}


def _check_section(name: str, raw: Any, problems: list[str]) -> None:
    if not isinstance(raw, dict):
        problems.append(f"section {name!r} must be a JSON object")
        return
    fields = dataclasses.fields(_SECTIONS[name])
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in raw:
            problems.append(f"section {name!r} is missing required field {f.name!r}")
    known = {f.name for f in fields}
    for key in raw:
        if key not in known:
            problems.append(f"section {name!r} has unknown field {key!r}")


def _field_value(section: str, f: dataclasses.Field, raw: dict[str, Any]) -> Any:
    # annotations are strings here (postponed evaluation)
    value = raw.get(f.name, f.default)
    if f.type == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"field {section}.{f.name} must be an integer, got {value!r}")
        return value
    if value is None and f.type == "float | None":
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"field {section}.{f.name} must be a number, got {value!r}")
    return float(value)


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Build a Scenario from a parsed JSON document (strict keys).

    The document must contain exactly the sections rock, fluid, fractures
    and operating; an optional ``metadata`` object is carried through
    untouched. Each section's keys, defaults and value types are those of
    its dataclass's fields: an ``int`` field takes a JSON integer, a
    ``float | None`` field also takes null, and every other value must be
    a number and becomes a float.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in data:
        if key not in _SECTIONS and key != "metadata":
            problems.append(f"unknown top-level key {key!r}")
    for name in _SECTIONS:
        _check_section(name, data.get(name), problems)
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        problems.append("metadata must be a JSON object when present")
        metadata = {}
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))

    parts = {
        name: cls(**{f.name: _field_value(name, f, data[name]) for f in dataclasses.fields(cls)})
        for name, cls in _SECTIONS.items()
    }
    sc = Scenario(**parts, metadata=dict(metadata))
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

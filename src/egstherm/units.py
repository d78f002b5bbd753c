"""Exact, table-driven conversion of bare numbers between SI and common field units.

``convert_value(value, unit, target)`` is the whole conversion API, with
``SECONDS_PER_YEAR``, the fixed 365-day reporting year. The unit tags cover
the dimensions that appear in the bundled benchmark cases (length,
volumetric flow, thermal conductivity, density, specific heat, time,
temperature). Factors are exact by definition, so round trips are clean to
within float rounding.
"""

from __future__ import annotations

import math

__all__ = ["convert_value", "SECONDS_PER_YEAR"]

# Reporting year: 365 days exactly. The interference tables are computed
# with this convention; 365.25 would shift them visibly in the third
# decimal.
SECONDS_PER_YEAR = 365.0 * 86400.0

# Exact definitions: 1 ft = 0.3048 m, 1 in = 0.0254 m,
# 1 bbl = 42 US gal = 0.158987294928 m^3, 1 cal = 4.184 J (thermochemical),
# 1 yr = 365 d.
_BARREL_M3 = 0.158987294928
_CAL_J = 4.184

# unit tag -> (dimension, factor to the SI tag of that dimension)
_UNIT_TABLE: dict[str, tuple[str, float]] = {
    "m": ("length", 1.0),
    "ft": ("length", 0.3048),
    "in": ("length", 0.0254),
    "m3_per_s": ("volumetric_flow", 1.0),
    "bpd": ("volumetric_flow", _BARREL_M3 / 86400.0),
    "W_per_mC": ("thermal_conductivity", 1.0),
    "cal_per_cm_s_C": ("thermal_conductivity", _CAL_J / 0.01),
    "kg_per_m3": ("density", 1.0),
    "g_per_cm3": ("density", 1000.0),
    "J_per_kgC": ("specific_heat", 1.0),
    "cal_per_gC": ("specific_heat", _CAL_J * 1000.0),
    "s": ("time", 1.0),
    "yr": ("time", SECONDS_PER_YEAR),
    "C": ("temperature", 1.0),
}


def _table_entry(tag: str) -> tuple[str, float]:
    try:
        return _UNIT_TABLE[tag]
    except KeyError:
        known = ", ".join(sorted(_UNIT_TABLE))
        raise ValueError(f"unknown unit tag {tag!r}; known tags: {known}") from None


def convert_value(value: float, unit: str, target: str) -> float:
    """Convert a number from one unit tag to another of the same dimension.

    Raises
    ------
    ValueError
        Checked in this order: the source tag is unknown, the value is not
        finite, the target tag is unknown (an unknown tag's message lists the
        known ones), the tags belong to different dimensions (both tags and
        dimensions are named), or the converted value overflows the float
        range (the value and both tags are named).
    """
    value = float(value)
    src_dim, src_factor = _table_entry(unit)
    if not math.isfinite(value):
        raise ValueError(f"quantity value must be finite, got {value}")
    dst_dim, dst_factor = _table_entry(target)
    if src_dim != dst_dim:
        raise ValueError(
            f"dimension mismatch: cannot convert {unit!r} ({src_dim}) "
            f"to {target!r} ({dst_dim})"
        )
    converted = value * (src_factor / dst_factor)
    if not math.isfinite(converted):
        raise ValueError(
            f"converting {value} {unit!r} to {target!r} overflows: "
            "the result is beyond the float range"
        )
    return converted

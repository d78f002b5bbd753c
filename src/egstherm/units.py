"""Exact, table-driven conversion between SI and common field units.

Covers the dimensions that appear in the bundled benchmark cases (length,
volumetric flow, thermal conductivity, density, specific heat, time,
temperature) plus the fixed 365-day reporting year. Factors are exact by
definition, so round trips are clean to within float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Quantity", "convert", "convert_value", "SECONDS_PER_YEAR"]

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


@dataclass(frozen=True)
class Quantity:
    """A numeric value tagged with one of the supported unit tags."""

    value: float
    unit: str

    def __post_init__(self) -> None:
        if self.unit not in _UNIT_TABLE:
            known = ", ".join(sorted(_UNIT_TABLE))
            raise ValueError(f"unknown unit tag {self.unit!r}; known tags: {known}")
        if not math.isfinite(self.value):
            raise ValueError(f"quantity value must be finite, got {self.value}")


def convert(q: Quantity, target: str) -> Quantity:
    """Convert a quantity to another unit of the same dimension.

    Parameters
    ----------
    q : Quantity
        Source value and unit tag.
    target : str
        Target unit tag.

    Returns
    -------
    Quantity
        The same physical quantity expressed in ``target`` units.

    Raises
    ------
    ValueError
        If either tag is unknown or the tags belong to different
        dimensions (both tags are named in the message).
    """
    if target not in _UNIT_TABLE:
        known = ", ".join(sorted(_UNIT_TABLE))
        raise ValueError(f"unknown unit tag {target!r}; known tags: {known}")
    src_dim, src_factor = _UNIT_TABLE[q.unit]
    dst_dim, dst_factor = _UNIT_TABLE[target]
    if src_dim != dst_dim:
        raise ValueError(
            f"dimension mismatch: cannot convert {q.unit!r} ({src_dim}) "
            f"to {target!r} ({dst_dim})"
        )
    return Quantity(q.value * (src_factor / dst_factor), target)


def convert_value(value: float, unit: str, target: str) -> float:
    """Bare-number form of :func:`convert`."""
    return convert(Quantity(float(value), unit), target).value

"""Unit registry and conversions: exact factors, round trips, error paths."""

import math

import pytest

from egstherm.units import SECONDS_PER_YEAR, Quantity, convert, convert_value


def test_seconds_per_year_is_365_days():
    assert SECONDS_PER_YEAR == 365 * 86400 == 31_536_000


@pytest.mark.parametrize(
    "value,unit,target,expected",
    [
        (1.0, "ft", "m", 0.3048),
        (1.0, "in", "m", 0.0254),
        (1.0, "g_per_cm3", "kg_per_m3", 1000.0),
        (1.0, "cal_per_gC", "J_per_kgC", 4184.0),
        (1.0, "cal_per_cm_s_C", "W_per_mC", 418.4),
        (1.0, "yr", "s", float(SECONDS_PER_YEAR)),
        (86400.0, "bpd", "m3_per_s", 0.158987294928),
    ],
)
def test_exact_factors(value, unit, target, expected):
    assert convert_value(value, unit, target) == pytest.approx(expected, rel=1e-14)


def test_barrel_per_day_example():
    # one production-rate figure checked to full precision
    q = convert(Quantity(7829.4, "bpd"), "m3_per_s")
    assert q.unit == "m3_per_s"
    assert q.value == pytest.approx(0.014407119524413, rel=1e-13)


def test_convert_returns_quantity_and_is_exact_on_identity():
    q = Quantity(39.62, "m")
    out = convert(q, "m")
    assert out.value == 39.62 and out.unit == "m"


@pytest.mark.parametrize(
    "si,si_unit,field,field_unit",
    [
        (999.744, "m", 3280.0, "ft"),
        (91.44, "m", 300.0, "ft"),
        (45.72, "m", 150.0, "ft"),
        (0.00127, "m", 0.05, "in"),
        (2650.0, "kg_per_m3", 2.65, "g_per_cm3"),
        (1046.0, "J_per_kgC", 0.25, "cal_per_gC"),
        (4184.0, "J_per_kgC", 1.0, "cal_per_gC"),
        (2.59408, "W_per_mC", 0.0062, "cal_per_cm_s_C"),
    ],
)
def test_si_field_round_trips(si, si_unit, field, field_unit):
    to_field = convert_value(si, si_unit, field_unit)
    assert to_field == pytest.approx(field, rel=5e-3)
    back = convert_value(to_field, field_unit, si_unit)
    assert back == pytest.approx(si, rel=1e-12)


def test_spacing_130_ft_round_trip():
    # printed metric spacing is rounded to the centimetre
    m = convert_value(130.0, "ft", "m")
    assert m == pytest.approx(39.624, rel=1e-12)
    assert m == pytest.approx(39.62, rel=5e-3)
    assert convert_value(m, "m", "ft") == pytest.approx(130.0, rel=1e-12)


def test_dimension_mismatch_names_both_units():
    with pytest.raises(ValueError) as err:
        convert(Quantity(1.0, "yr"), "C")
    msg = str(err.value)
    assert "yr" in msg and "C" in msg
    assert "time" in msg and "temperature" in msg


def test_unknown_unit_rejected_at_construction():
    with pytest.raises(ValueError):
        Quantity(1.0, "furlong")
    with pytest.raises(ValueError):
        convert(Quantity(1.0, "m"), "furlong")


def test_temperature_tag_passes_through():
    assert convert_value(65.0, "C", "C") == 65.0


def test_chained_conversion_consistency():
    # ft -> m -> in agrees with the direct ratio of factors
    inches = convert_value(convert_value(1.0, "ft", "m"), "m", "in")
    assert inches == pytest.approx(12.0, rel=1e-13)


def test_quantity_is_frozen():
    q = Quantity(1.0, "m")
    with pytest.raises(Exception):
        q.value = 2.0


def test_non_finite_value_rejected():
    with pytest.raises(ValueError):
        Quantity(math.nan, "m")
    with pytest.raises(ValueError):
        Quantity(math.inf, "s")
    # a finite value whose converted result overflows: the message blames the
    # conversion, not the input
    with pytest.raises(ValueError, match=r"^converting 1e\+308 'ft' to 'in' overflows"):
        convert_value(1e308, "ft", "in")

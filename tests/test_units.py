"""Unit registry and conversions: exact factors, round trips, error paths."""

import math

import pytest

from egstherm.units import SECONDS_PER_YEAR, convert_value


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
    assert convert_value(7829.4, "bpd", "m3_per_s") == pytest.approx(0.014407119524413, rel=1e-13)


def test_convert_value_is_exact_on_identity():
    assert convert_value(39.62, "m", "m") == 39.62
    # an int is taken as its float
    assert type(convert_value(3, "ft", "ft")) is float


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


# the refusals are checked in this order: source tag, finite value, target
# tag, dimension, overflow, underflow; a call that breaks two rules gets the
# earlier one's message
def refusal(value, unit, target):
    with pytest.raises(ValueError) as err:
        convert_value(value, unit, target)
    assert type(err.value) is ValueError
    return str(err.value)


def test_dimension_mismatch_names_both_units():
    msg = "dimension mismatch: cannot convert 'yr' (time) to 'C' (temperature)"
    assert refusal(1.0, "yr", "C") == msg
    assert refusal(1e308, "ft", "C") == (
        "dimension mismatch: cannot convert 'ft' (length) to 'C' (temperature)"
    )


KNOWN_TAGS = (
    "C, J_per_kgC, W_per_mC, bpd, cal_per_cm_s_C, cal_per_gC, ft, g_per_cm3, in, "
    "kg_per_m3, m, m3_per_s, s, yr"
)


def test_unknown_unit_tag_refused():
    msg = f"unknown unit tag 'furlong'; known tags: {KNOWN_TAGS}"
    assert refusal(1.0, "furlong", "m") == msg
    assert refusal(math.nan, "furlong", "m") == msg
    assert refusal(1.0, "m", "furlong") == msg
    assert refusal(1.0, "m", "yrs") == f"unknown unit tag 'yrs'; known tags: {KNOWN_TAGS}"


def test_temperature_tag_passes_through():
    assert convert_value(65.0, "C", "C") == 65.0


def test_chained_conversion_consistency():
    # ft -> m -> in agrees with the direct ratio of factors
    inches = convert_value(convert_value(1.0, "ft", "m"), "m", "in")
    assert inches == pytest.approx(12.0, rel=1e-13)


def test_non_finite_value_rejected():
    assert refusal(math.nan, "m", "ft") == "quantity value must be finite, got nan"
    assert refusal(math.inf, "s", "yr") == "quantity value must be finite, got inf"
    assert refusal(-math.inf, "s", "furlong") == "quantity value must be finite, got -inf"
    # a finite value whose converted result overflows: the message blames the
    # conversion, not the input
    assert refusal(1e308, "ft", "in") == (
        "converting 1e+308 'ft' to 'in' overflows: the result is beyond the float range"
    )
    assert refusal(-1e308, "yr", "s") == (
        "converting -1e+308 'yr' to 's' overflows: the result is beyond the float range"
    )


def test_subnormal_value_or_result_refused():
    # a nonzero value below the normal range, or one whose result falls there
    # or to 0, would be printed with the digits it has left
    assert refusal(5e-324, "ft", "m") == (
        "converting 5e-324 'ft' to 'm' underflows: below the normal float range"
    )
    assert refusal(1e-307, "in", "m") == (
        "converting 1e-307 'in' to 'm' underflows: below the normal float range"
    )
    smallest = 2.2250738585072014e-308
    assert convert_value(smallest, "m", "m") == smallest
    for zero in (0.0, -0.0):
        assert convert_value(zero, "ft", "m") == 0.0

"""Closed-form solutions: frozen references, physics identities, domains."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import erfcinv

from egstherm.analytic import (
    ForecastSeries,
    band_outlier,
    fluid_temp_single,
    interfacial_flux,
    onset_of_decline,
    rock_temp,
    thermal_power,
)
from egstherm.scenario import (
    collapse_to_single,
    interference_table,
    thermal_diffusivity,
    time_to_radius,
    transfer_coefficient,
)
from egstherm.units import SECONDS_PER_YEAR

ALPHA = 9.358490566037735e-07
T50 = 50.0 * SECONDS_PER_YEAR
L = 999.744

# Frozen outputs for the granite benchmark case.
T50_SINGLE = 79.83728812809943
T50_GRINGARTEN = 94.5818148130997
T50_ISOLATED_ARRAY = 273.41418501957554
FLUX_L_25YR = 12.582732408347953
ROCK_PROFILE_10YR = {0.5: 101.83062928654472, 2.0: 113.10694287210673,
                     5.0: 135.0834782718513, 10.0: 169.33012700480208}

# Spreading-front table for the benchmark diffusivity: radius, reach time,
# first-interaction time (half reach time), midpoint radius.
TABLE_ROWS = [
    (10.0, 0.8470861769856468, 0.4235430884928234, 5.0),
    (20.0, 3.3883447079425872, 1.6941723539712936, 10.0),
    (30.0, 7.623775592870821, 3.8118877964354105, 15.0),
    (40.0, 13.553378831770349, 6.776689415885174, 20.0),
    (50.0, 21.17715442464117, 10.588577212320585, 25.0),
    (60.0, 30.495102371483284, 15.247551185741642, 30.0),
    (70.0, 41.50722267229669, 20.753611336148347, 35.0),
    (80.0, 54.213515327081396, 27.106757663540698, 40.0),
]


def test_fluid_temp_single_frozen(valles_single, valles_gringarten, valles):
    assert fluid_temp_single(valles_single, L, T50) == pytest.approx(T50_SINGLE, rel=1e-12)
    assert fluid_temp_single(valles_gringarten, L, T50) == pytest.approx(T50_GRINGARTEN, rel=1e-12)
    assert fluid_temp_single(valles, L, T50) == pytest.approx(T50_ISOLATED_ARRAY, rel=1e-12)


def test_fluid_temp_single_matches_scipy_erfc(valles_single):
    from scipy.special import erfc as sp_erfc

    for t_yr in (0.5, 5.0, 50.0):
        t = t_yr * SECONDS_PER_YEAR
        a = transfer_coefficient(valles_single, L)
        expected = 300.0 + (65.0 - 300.0) * sp_erfc(a / (2.0 * math.sqrt(t)))
        assert fluid_temp_single(valles_single, L, t) == pytest.approx(expected, rel=1e-12)


def test_fluid_temp_single_limits(valles_single):
    assert fluid_temp_single(valles_single, L, 0.0) == 300.0
    # front nowhere near the outlet: exactly the initial temperature
    assert fluid_temp_single(valles_single, L, 1.0) == 300.0
    # at the inlet the fluid has had no exposure yet
    assert fluid_temp_single(valles_single, 0.0, T50) == 65.0


def _scalar_fluid_temp(sc, x, t):
    """The closed form one time at a time: T0 at t = 0 and once the erfc
    argument reaches 6, else T0 + (T_inj - T0) erfc(a / (2 sqrt(t)))."""
    t_hot = sc.rock.initial_temperature
    if t == 0.0:
        return t_hot
    z = transfer_coefficient(sc, x) / (2.0 * math.sqrt(t))
    if z >= 6.0:
        return t_hot
    return t_hot + (sc.fluid.injection_temperature - t_hot) * math.erfc(z)


@pytest.mark.parametrize("faces", [1, 2])
@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_fluid_temp_single_array_matches_scalar_form(site, faces, request):
    sc = collapse_to_single(request.getfixturevalue(site), faces=faces)
    # t = 0, early times saturated at the outlet (z >= 6 below 0.9e5 s on
    # both sites), and the whole decline; the inlet is never saturated
    times = np.concatenate([[0.0, 1.0, 1e4], np.geomspace(1e5, 1e11, 300)])
    for x in (0.0, 1.0, sc.fractures.flow_length / 3.0, sc.fractures.flow_length):
        got = fluid_temp_single(sc, x, times)
        want = np.array([_scalar_fluid_temp(sc, x, float(t)) for t in times])
        assert np.array_equal(got, want)
        grid = fluid_temp_single(sc, x, times.reshape(3, -1))
        assert np.array_equal(grid, want.reshape(3, -1))
    saturated = fluid_temp_single(sc, sc.fractures.flow_length, times)
    assert saturated[0] == saturated[1] == saturated[2] == sc.rock.initial_temperature


def test_fluid_temp_single_scalar_returns_float(valles_single):
    got = fluid_temp_single(valles_single, L, T50)
    assert type(got) is float
    assert type(fluid_temp_single(valles_single, L, 0.0)) is float
    assert type(fluid_temp_single(valles_single, L, np.float64(T50))) is float
    assert got == fluid_temp_single(valles_single, L, np.array([T50]))[0]


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_fluid_temp_single_rejects_bad_time(valles_single, bad):
    with pytest.raises(ValueError, match=r"^t must be >= 0, got"):
        fluid_temp_single(valles_single, L, bad)
    with pytest.raises(ValueError, match=r"^t must be >= 0, got"):
        fluid_temp_single(valles_single, L, np.array([0.0, T50, bad]))


def test_fluid_temp_single_monotone(valles_single):
    times = np.geomspace(0.01, 50.0, 40) * SECONDS_PER_YEAR
    vals = fluid_temp_single(valles_single, L, times)
    assert np.all(np.diff(vals) <= 0.0)
    # hotter further along the fracture at fixed time
    assert fluid_temp_single(valles_single, 500.0, T50) < fluid_temp_single(
        valles_single, 999.0, T50
    )


def test_rock_temp_frozen_profile(valles_single):
    t = 10.0 * SECONDS_PER_YEAR
    for y, expected in ROCK_PROFILE_10YR.items():
        assert rock_temp(y, t, valles_single, L) == pytest.approx(expected, rel=1e-12)


def test_rock_temp_face_equals_fluid(valles_single):
    t = 10.0 * SECONDS_PER_YEAR
    assert rock_temp(0.0, t, valles_single, L) == fluid_temp_single(valles_single, L, t)


def test_rock_temp_far_field(valles_single):
    # eta >= 8 is beyond any thermal disturbance
    t = 10.0 * SECONDS_PER_YEAR
    y_far = 8.1 * 2.0 * math.sqrt(ALPHA * t)
    assert rock_temp(y_far, t, valles_single, L) == 300.0


def test_rock_temp_monotone_in_y(valles_single):
    t = 10.0 * SECONDS_PER_YEAR
    ys = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    vals = [rock_temp(y, t, valles_single, L) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(65.0 <= v <= 300.0 for v in vals)


@pytest.mark.parametrize("faces", [1, 2])
@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_rock_temp_satisfies_heat_equation(site, faces, request):
    # T_t = alpha T_yy in the wall rock, by central differences with steps
    # 1e-3 t and 1e-2 y; the truncation and rounding residual is below 1e-5
    # relative at these points, so 1e-4 separates a wrong depth scaling
    sc = collapse_to_single(request.getfixturevalue(site), faces=faces)
    alpha = thermal_diffusivity(sc.rock)
    x = sc.fractures.flow_length
    for y in (0.5, 2.0, 5.0):
        for t_yr in (1.0, 10.0):
            t = t_yr * SECONDS_PER_YEAR
            h_t, h_y = 1e-3 * t, 1e-2 * y
            T = lambda yy, tt: rock_temp(yy, tt, sc, x)
            dt = (T(y, t + h_t) - T(y, t - h_t)) / (2.0 * h_t)
            dyy = (T(y + h_y, t) - 2.0 * T(y, t) + T(y - h_y, t)) / h_y**2
            assert dt < 0.0
            assert abs(dt - alpha * dyy) < 1e-4 * abs(dt)


def test_interfacial_flux_against_closed_form(valles_single):
    # the face flux of the closed-form temperature, written out independently
    k = valles_single.rock.conductivity
    for t_yr in (1.0, 10.0, 25.0):
        t = t_yr * SECONDS_PER_YEAR
        a = transfer_coefficient(valles_single, L)
        expected = (
            k * (300.0 - 65.0) / math.sqrt(math.pi * ALPHA * t) * math.exp(-a * a / (4.0 * t))
        )
        assert interfacial_flux(valles_single, L, t) == pytest.approx(expected, rel=1e-12)


def test_interfacial_flux_frozen(valles_single):
    got = interfacial_flux(valles_single, L, 25.0 * SECONDS_PER_YEAR)
    assert got == pytest.approx(FLUX_L_25YR, rel=1e-10)


def test_interfacial_flux_near_inlet_is_sudden_contact(valles_single):
    # x -> 0: rock sees a step to the injection temperature at t = 0,
    # so the flux tends to k dT / sqrt(pi alpha t)
    t = 1.0 * SECONDS_PER_YEAR
    k = valles_single.rock.conductivity
    sudden = k * (300.0 - 65.0) / math.sqrt(math.pi * ALPHA * t)
    assert interfacial_flux(valles_single, 1e-6, t) == pytest.approx(sudden, rel=1e-3)


def test_interfacial_flux_positive_and_decaying(valles_single):
    vals = [
        interfacial_flux(valles_single, L, t_yr * SECONDS_PER_YEAR)
        for t_yr in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_thermal_radius_round_trip():
    t = time_to_radius(10.0, ALPHA)
    assert t == pytest.approx(26713709.677419357, rel=1e-13)
    # the front's reach sqrt(4 alpha t) after that time is the radius again
    assert math.sqrt(4.0 * ALPHA * t) == pytest.approx(10.0, rel=1e-13)
    with pytest.raises(ValueError):
        time_to_radius(-1.0, ALPHA)


def test_interference_table_frozen():
    spacings = [row[0] for row in TABLE_ROWS]
    rows = interference_table(spacings, ALPHA)
    assert len(rows) == len(TABLE_ROWS)
    for row, (s, t_yr, ti_yr, r_half) in zip(rows, TABLE_ROWS):
        assert row.radius_m == s
        assert row.time_yr == pytest.approx(t_yr, rel=1e-13)
        assert row.interference_time_yr == pytest.approx(ti_yr, rel=1e-13)
        assert row.interference_radius_m == r_half
        # the first-interaction time is exactly half the full reach time
        assert row.interference_time_yr == pytest.approx(row.time_yr / 2.0, rel=1e-15)


def test_interference_table_empty():
    assert interference_table([], ALPHA) == []


@pytest.mark.parametrize(
    "bad, rule",
    [
        (0.0, "> 0"),
        (-10.0, "> 0"),
        (math.nan, "> 0"),
        (math.inf, "finite"),
        # finite, but s^2 / (4 alpha) overflows
        (1e200, "small enough for a finite traversal time"),
        # s^2 / (4 alpha) underflows: to a subnormal interference time, or to 0
        (1e-160, "large enough for traversal and interference times in the normal float range"),
        (1e-200, "large enough for traversal and interference times in the normal float range"),
    ],
)
def test_interference_table_rejects_bad_spacing(bad, rule):
    with pytest.raises(ValueError, match=rf"^spacings must be {rule}, got {re.escape(str(bad))}$"):
        interference_table([10.0, bad], ALPHA)


def _series(times_yr, temps, t0=300.0, t_inj=65.0, model="single"):
    return ForecastSeries(
        model=model,
        times=np.asarray(times_yr, float) * SECONDS_PER_YEAR,
        outlet_temperatures=np.asarray(temps, float),
        injection_temperature=t_inj,
        initial_temperature=t0,
    )


def test_onset_of_decline_interpolates():
    # threshold for frac 0.01 is 297.65; crossing lies between the samples
    s = _series([1.0, 2.0, 3.0], [300.0, 298.0, 296.0])
    got = onset_of_decline(s, frac=0.01)
    expected = (2.0 + (297.65 - 298.0) / (296.0 - 298.0)) * SECONDS_PER_YEAR
    assert got == pytest.approx(expected, rel=1e-12)


def test_onset_of_decline_edge_cases():
    flat = _series([1.0, 2.0, 3.0], [300.0, 300.0, 299.9])
    assert onset_of_decline(flat, frac=0.01) is None
    already = _series([1.0, 2.0], [100.0, 90.0])
    assert onset_of_decline(already, frac=0.01) == 1.0 * SECONDS_PER_YEAR
    with pytest.raises(ValueError):
        onset_of_decline(flat, frac=0.0)
    with pytest.raises(ValueError):
        onset_of_decline(flat, frac=1.0)


def test_onset_of_decline_matches_analytic_inverse(valles_single):
    # dense sampling of the closed form vs inverting erfc directly
    times = np.geomspace(1e5, SECONDS_PER_YEAR, 600)
    temps = fluid_temp_single(valles_single, L, times)
    s = ForecastSeries(
        model="single",
        times=times,
        outlet_temperatures=temps,
        injection_temperature=65.0,
        initial_temperature=300.0,
    )
    got = onset_of_decline(s, frac=0.01)
    a = transfer_coefficient(valles_single, L)
    t_exact = (a / (2.0 * erfcinv(0.01))) ** 2
    assert got == pytest.approx(t_exact, rel=2e-3)


def test_thermal_power(valles):
    # 1000 * 4184 * 0.144 * (300 - 65), exactly representable
    assert thermal_power(valles, 300.0) == 141_586_560.0
    assert thermal_power(valles, 65.0) == 0.0


def test_forecast_series_invariants():
    with pytest.raises(ValueError):
        _series([2.0, 1.0], [300.0, 300.0])
    with pytest.raises(ValueError):
        _series([1.0, 1.0], [300.0, 300.0])
    with pytest.raises(ValueError):
        _series([1.0, 2.0], [300.0, 301.0])
    with pytest.raises(ValueError):
        _series([1.0, 2.0], [64.0, 300.0])
    # a hair above the initial temperature is tolerated as rounding noise
    s = _series([1.0, 2.0], [300.0 + 1e-9, 300.0])
    assert s.outlet_temperatures[0] >= 300.0


@pytest.mark.parametrize("temps", [[math.nan, 100.0], [100.0, math.nan], [math.nan, math.nan]])
def test_forecast_series_refuses_nan_temperature(temps):
    # NaN compares False both ways, so it must fail the bounds check, not pass it
    with pytest.raises(ValueError, match="outlet temperatures must lie between"):
        ForecastSeries("single", [1.0, 2.0], temps, 65.0, 300.0)


def test_forecast_series_refuses_nan_time():
    with pytest.raises(ValueError, match="strictly increasing"):
        _series([1.0, math.nan], [300.0, 300.0])


def test_band_outlier_finds_the_sample_furthest_outside():
    # inside [65, 300] up to 1e-9 of the 235 C span by default, and up to the
    # slack given
    assert band_outlier(np.array([]), 65.0, 300.0) is None
    assert band_outlier(np.array([300.0 + 2e-7, 65.0 - 2e-7]), 65.0, 300.0) is None
    assert band_outlier(np.array([300.0 + 3e-7, 100.0]), 65.0, 300.0) == (0, 300.0 + 3e-7 - 300.0)
    assert band_outlier(np.array([200.0, 64.0, 301.5]), 65.0, 300.0) == (2, 1.5)
    assert band_outlier(np.array([200.0, 64.0, 301.5]), 65.0, 300.0, slack=0.01) is None
    # NaN lies outside, beyond any number: the first one is returned
    worst, excess = band_outlier(np.array([400.0, np.nan, 200.0, np.nan]), 65.0, 300.0)
    assert worst == 1 and math.isnan(excess)
    assert band_outlier(np.array([np.nan]), 65.0, 300.0, slack=math.inf)[0] == 0


def test_forecast_series_time_rule_stands_alone():
    times = ForecastSeries.check_times([1.0, 2.0, 5.0])
    assert times.dtype == np.float64 and times.tolist() == [1.0, 2.0, 5.0]
    assert ForecastSeries.check_times([]).shape == (0,)
    for bad in ([2.0, 1.0], [1.0, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            ForecastSeries.check_times(bad)
    for bad in (3.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="^times must be a one-dimensional sequence"):
            ForecastSeries.check_times(bad)


def test_forecast_series_refuses_unknown_model_and_mismatched_shapes():
    with pytest.raises(ValueError, match=r"^model must be one of \(.*\), got 'talbot'$"):
        ForecastSeries("talbot", [1.0, 2.0], [300.0, 300.0], 65.0, 300.0)
    shapes = "^times and outlet_temperatures must be 1-D and equal length$"
    for times, temps in (([1.0, 2.0], [300.0]), ([1.0, 2.0], [[300.0, 300.0]])):
        with pytest.raises(ValueError, match=shapes):
            ForecastSeries("single", times, temps, 65.0, 300.0)
    with pytest.raises(ValueError, match="^times must be a one-dimensional sequence of seconds$"):
        ForecastSeries("single", [[1.0, 2.0]], [[300.0, 300.0]], 65.0, 300.0)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_interfacial_flux_rejects_bad_time(valles_single, t):
    with pytest.raises(ValueError, match=rf"^t must be > 0, got {t}$"):
        interfacial_flux(valles_single, L, t)


def test_rock_temp_initial_identity(valles_single):
    # at the inlet a = 0, so the wall rock is the classical fixed-face
    # profile: the initial field relaxing toward T_inj as
    # T_inj + (T0 - T_inj) erf(y / (2 sqrt(alpha t)))
    t_inj = valles_single.fluid.injection_temperature
    t_hot = valles_single.rock.initial_temperature
    alpha = thermal_diffusivity(valles_single.rock)
    for y, t in [(0.5, 1e6), (2.0, 5e7), (10.0, 1e9)]:
        expected = t_inj + (t_hot - t_inj) * math.erf(y / (2.0 * math.sqrt(alpha * t)))
        assert rock_temp(y, t, valles_single, 0.0) == pytest.approx(expected, rel=1e-14)
    assert rock_temp(0.0, 1e6, valles_single, 0.0) == t_inj
    # deep interior is undisturbed
    assert rock_temp(1e4, 1e6, valles_single, 0.0) == t_hot
    with pytest.raises(ValueError):
        rock_temp(-1.0, 1e6, valles_single, 0.0)
    with pytest.raises(ValueError, match=r"^y must be >= 0, got nan"):
        rock_temp(math.nan, 1e6, valles_single, 0.0)
    with pytest.raises(ValueError):
        rock_temp(1.0, 0.0, valles_single, 0.0)

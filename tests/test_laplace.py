"""Numerical Laplace inversion: weights, known transforms, forecast engine."""

import collections
import dataclasses
import functools
import math
from types import FunctionType

import mpmath
import numpy as np
import pytest

from egstherm.analytic import fluid_temp_single
import egstherm.analytic
import egstherm.laplace
import egstherm.scenario
import egstherm.specfun
from egstherm.laplace import (
    _CLAMP_BUDGET,
    StehfestConfig,
    _arrival,
    _finish_series,
    _ln2_multiples_float64,
    _weight_fractions,
    _weights_float64,
    _weights_longdouble,
    fluid_drop_laplace_slab,
    fluid_temp_laplace,
    fluid_temp_laplace_slab,
    multi_fracture_forecast,
    stehfest_invert,
)
from egstherm.scenario import ScenarioError, face_coupling, thermal_diffusivity
from egstherm.units import SECONDS_PER_YEAR

from conftest import with_total_rate

L = 999.744
YR = SECONDS_PER_YEAR

# Engine outputs at the default 12-term inversion, frozen. The slab values
# carry the method's own systematic error near the drawdown knee; the high
# accuracy reference values (from a completely separate inversion) sit a
# degree away there, which is inside the documented change-of-method band.
VALLES_SLAB_N12 = [299.9027307540839, 289.8757714429644, 204.88603443413263]
VALLES_SLAB_REFERENCE = [299.90498, 289.58746, 206.14872]
ZEINALI_RATES_N12 = [291.94987670924684, 157.93322112214412, 78.41744499186734]
ZEINALI_RATES_REFERENCE = [290.4143, 158.3629, 78.129012]


def test_weight_pairs_smallest_order():
    assert [float(w) for w in _weight_fractions(2)] == [2.0, -2.0]


def test_weight_value_frozen():
    w = _weight_fractions(12)
    assert len(w) == 12
    assert float(w[3]) == 27554.333333333332


def test_weights_alternate_in_sign():
    w = _weight_fractions(12)
    assert all(a * b < 0 for a, b in zip(w, w[1:]))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16, 18, 20])
def test_weights_sum_to_zero_exactly(n):
    # the defining identity holds in exact rational arithmetic even where
    # the float images of the weights no longer cancel
    assert sum(_weight_fractions(n)) == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 13, 22, -2])
def test_weights_reject_bad_order(n):
    with pytest.raises(ValueError, match=r"^Stehfest term count must be an even integer in \[6, 20\]"):
        StehfestConfig(n_terms=n)


def test_config_bounds():
    assert StehfestConfig().n_terms == 12
    StehfestConfig(n_terms=6)
    StehfestConfig(n_terms=20)


def test_invert_one_over_s():
    # constant function: essentially exact at any order
    for t in (0.1, 1.0, 10.0):
        got = stehfest_invert(lambda s: 1.0 / s, t)
        assert got == pytest.approx(1.0, abs=1e-12)


def test_invert_ramp():
    cfg = StehfestConfig(n_terms=18)
    for t in (0.1, 1.0, 3.0, 10.0):
        got = stehfest_invert(lambda s: 1.0 / (s * s), t, cfg)
        assert got == pytest.approx(t, rel=1e-8)


def test_invert_decaying_exponential_moderate_times():
    # exp(-t) is the hard member of the family; 18 terms give ~1e-8
    # relative around t = 1 but the far tail is out of reach (see the
    # acceptance suite for the documented failure there)
    cfg = StehfestConfig(n_terms=18)
    for t in (0.1, 1.0):
        got = stehfest_invert(lambda s: 1.0 / (s + 1.0), t, cfg)
        assert got == pytest.approx(math.exp(-t), rel=1e-6)


def test_invert_linearity():
    f = lambda s: 1.0 / s
    g = lambda s: 1.0 / (s * s)
    combo = lambda s: 2.0 * f(s) + 3.0 * g(s)
    t = 1.7
    lhs = stehfest_invert(combo, t)
    rhs = 2.0 * stehfest_invert(f, t) + 3.0 * stehfest_invert(g, t)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_invert_rejects_bad_time():
    with pytest.raises(ValueError):
        stehfest_invert(lambda s: 1.0 / s, 0.0)
    with pytest.raises(ValueError):
        stehfest_invert(lambda s: 1.0 / s, -1.0)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            stehfest_invert(lambda s: 1.0 / s, np.array([1.0, bad, 2.0]))


def _scalar_stehfest(image, t, n_terms):
    # reference: one longdouble scalar image call per term, accumulated in
    # term order; the array inversion must match it bit for bit
    weights = _weights_longdouble(n_terms)
    log2_over_t = np.log(np.longdouble(2.0)) / np.longdouble(t)
    acc = np.longdouble(0.0)
    for j in range(1, n_terms + 1):
        acc += weights[j - 1] * np.longdouble(image(np.longdouble(j) * log2_over_t))
    return float(log2_over_t * acc)


@pytest.mark.parametrize("n", [6, 12, 20])
@pytest.mark.parametrize("site", ["valles", "zeinali"])
@pytest.mark.parametrize("make_image", [fluid_temp_laplace, fluid_temp_laplace_slab])
def test_array_inversion_matches_scalar_reference(make_image, site, n, request):
    sc = request.getfixturevalue(site)
    image = make_image(sc, sc.fractures.flow_length)
    horizon = sc.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)
    cfg = StehfestConfig(n_terms=n)
    want = np.array([_scalar_stehfest(image, t, n) for t in times])
    got = stehfest_invert(image, times, cfg)
    assert got.dtype == np.float64 and got.shape == times.shape
    assert np.array_equal(got, want)
    one = stehfest_invert(image, times[7], cfg)
    assert type(one) is float and one == want[7]


@pytest.fixture
def slab_samples(monkeypatch):
    """Every sample array the forecast hands the slab's cooling-drop image,
    as received."""
    seen = []
    make_slab = egstherm.laplace.fluid_drop_laplace_slab

    def recording_slab(sc, x):
        image = make_slab(sc, x)

        def recorded(s):
            seen.append(np.array(s))
            return image(s)

        return recorded

    monkeypatch.setattr(egstherm.laplace, "fluid_drop_laplace_slab", recording_slab)
    return seen


def test_forecast_zero_time_skips_inversion(valles, slab_samples):
    times = np.array([0.0, 1.0, 10.0, 25.0]) * YR
    series = multi_fracture_forecast(valles, times)
    assert series.outlet_temperatures[0] == 300.0
    assert len(slab_samples) == 1 and slab_samples[0].shape == (3, 12)
    assert np.all(np.isfinite(slab_samples[0])) and np.all(slab_samples[0] > 0.0)
    assert slab_samples[0].dtype == np.float64


@pytest.mark.parametrize(
    "n, dtype", [(6, np.float64), (16, np.float64), (18, np.longdouble), (20, np.longdouble)]
)
def test_forecast_slab_image_dtype_follows_the_order(valles, slab_samples, n, dtype):
    times = np.array([0.0, 0.3, 1.0, 7.5]) * YR
    multi_fracture_forecast(valles, times, StehfestConfig(n))
    assert [s.dtype for s in slab_samples] == [np.dtype(dtype)]
    # the grid itself: (k ln 2 rounded to float64) / t built in float64 up
    # to n = 16, k (ln 2 / t) in long double above; t = 0 is never sampled
    k = np.arange(1, n + 1, dtype=np.longdouble)
    ln2 = np.log(np.longdouble(2.0))
    later = times[1:, None]
    if dtype is np.float64:
        want = (k * ln2).astype(np.float64) / later
    else:
        want = k * (ln2 / later.astype(np.longdouble))
    assert slab_samples[0].shape == (3, n)
    assert np.array_equal(slab_samples[0], want)


@pytest.mark.parametrize("dtype", [np.float64, float, "float64", np.longdouble])
def test_invert_builds_the_sample_grid_in_the_dtype_asked(dtype):
    seen = []

    def image(s):
        seen.append(s)
        return 1.0 / s

    t = np.array([0.5, 2.0])
    got = stehfest_invert(image, t, sample_dtype=dtype)
    assert seen[0].dtype == np.dtype(dtype) and seen[0].shape == (2, 12)
    # the weights amplify the float64 grid's rounding to ~1e-10 on 1/s,
    # which is why long double stays the default
    assert got.dtype == np.float64 and np.all(np.abs(got - 1.0) < 1e-9)
    assert stehfest_invert(image, 2.0, sample_dtype=dtype) == got[1]
    assert seen[-1].shape == (12,)


@pytest.mark.parametrize("n", range(6, 21, 2))
@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_float64_scalar_time_reads_its_element_of_an_array_call(site, n, request):
    # the float64 sum reduces each row of the grid as it reduces a lone row
    sc = request.getfixturevalue(site)
    drop = fluid_drop_laplace_slab(sc, sc.fractures.flow_length)
    horizon = sc.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)
    cfg = StehfestConfig(n)
    many = stehfest_invert(drop, times, cfg, sample_dtype=np.float64)
    one = [stehfest_invert(drop, t, cfg, sample_dtype=np.float64) for t in times]
    assert all(type(v) is float for v in one) and one == many.tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.complex128, object, None])
def test_invert_refuses_other_sample_dtypes(dtype):
    with pytest.raises(ValueError, match=r"^sample_dtype must be float64 or longdouble, got "):
        stehfest_invert(lambda s: 1.0 / s, 2.0, sample_dtype=dtype)


def test_design_operation_reaches_every_wrapped_binding(valles, monkeypatch):
    # one design operation of the benchmark's design_sweep: an array
    # forecast, then its isolated comparator (one fracture at the same
    # per-fracture rate). A profiler that wraps the module bindings, and
    # the closures they return under their own names, must see each of
    # these called once by every forecast that reaches it
    calls = collections.Counter()

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if type(result) is FunctionType:
                result = counted(result, f"{name.split('.')[0]}.{result.__name__}")
            return result

        return wrapper

    for module, name in [
        (egstherm.scenario, "validate"),
        (egstherm.laplace, "stehfest_invert"),
        (egstherm.laplace, "fluid_drop_laplace_slab"),
        (egstherm.analytic, "fluid_temp_single"),
        (egstherm.specfun, "erfc"),
    ]:
        layer = module.__name__.rsplit(".", 1)[-1]
        monkeypatch.setattr(module, name, counted(getattr(module, name), f"{layer}.{name}"))

    per_fracture = valles.operating.total_rate / valles.fractures.count
    isolated = with_total_rate(
        dataclasses.replace(valles, fractures=dataclasses.replace(
            valles.fractures, count=1, spacing=None)),
        per_fracture,
    )
    horizon = valles.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)

    multi_fracture_forecast(valles, times)
    assert calls == {
        "scenario.validate": 1,
        "laplace.fluid_drop_laplace_slab": 1,
        "laplace.image": 1,
        "laplace.stehfest_invert": 1,
    }
    calls.clear()
    multi_fracture_forecast(isolated, times)
    assert calls == {
        "scenario.validate": 1,
        "analytic.fluid_temp_single": 1,
        "specfun.erfc": 1,
    }


# largest deviation of the forecast (float64 drop image and sum up to
# n = 16) from the long-double inversion of the same drop image, C; the
# measured worst cases over both sites run from 4.4e-11 at n = 8 to 1.1e-6 at
# n = 16
FLOAT64_IMAGE_BOUNDS = {6: 1e-10, 8: 1e-10, 10: 1e-9, 12: 1e-8, 14: 2e-7, 16: 4e-6}

# largest |forecast - T0 - exact n-term sum| over each bundled 200-point
# series, C: the rounding of the float64 route up to n = 16 and of the
# long-double one at 18 and 20. The measured worst cases over both sites are
# 3.0e-14 (n = 6, on the rows it serves), 4.4e-11, 4.5e-10, 5.0e-9, 6.1e-8,
# 1.1e-6, 5.8e-9 and 6.8e-8 for n = 6..20
EXACT_SUM_BOUNDS = {6: 2e-13, 8: 2e-10, 10: 2e-9, 12: 2e-8, 14: 2e-7, 16: 4e-6,
                    18: 2e-8, 20: 2e-7}


def _front(sc, n=12):
    """The time up to which the forecast takes T0 without sampling."""
    length = sc.fractures.flow_length
    return _arrival(n, length * face_coupling(sc), sc.fractures.spacing / 2.0,
                    thermal_diffusivity(sc.rock))


@pytest.mark.parametrize("n", range(6, 21, 2))
@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_forecast_matches_long_double_image_per_order(site, n, request):
    sc = request.getfixturevalue(site)
    horizon = sc.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)
    cfg = StehfestConfig(n)
    t_hot = sc.rock.initial_temperature
    drop = fluid_drop_laplace_slab(sc, sc.fractures.flow_length)
    raw = t_hot + (sc.fluid.injection_temperature - t_hot) * stehfest_invert(drop, times, cfg)
    if n == 6:
        # both leave the clamping band alike, by the same figures
        with pytest.raises(ArithmeticError, match="clamping budget") as want:
            _finish_series(raw, times, sc, cfg)
        with pytest.raises(ArithmeticError) as got:
            multi_fracture_forecast(sc, times, cfg)
        assert str(got.value) == str(want.value)
        return
    want = _finish_series(raw, times, sc, cfg).outlet_temperatures
    got = multi_fracture_forecast(sc, times, cfg).outlet_temperatures
    # before the front's arrival the forecast is T0 itself, and so is the
    # long-double inversion of the drop
    early = times <= _front(sc, n)
    assert early.sum() >= 62 and np.all(got[early] == t_hot) and np.all(want[early] == t_hot)
    if n in FLOAT64_IMAGE_BOUNDS:
        assert np.max(np.abs(got - want)) <= FLOAT64_IMAGE_BOUNDS[n]
    else:
        assert np.array_equal(got, want)


def _exact_front_terms(sc, t, n):
    """(T_inj - T0) sum_k (V_k / k) exp(-x gamma(k ln 2 / t)), the n-term
    sum at t less T0, to 30 digits from the exact weights."""
    reach = sc.fractures.flow_length * face_coupling(sc)
    fronts = _front_exponentials(reach, sc.fractures.spacing / 2.0,
                                 thermal_diffusivity(sc.rock), float(t))
    with mpmath.workdps(30):
        acc = mpmath.mpf(0)
        for k, v in enumerate(_weight_fractions(n), 1):
            acc += mpmath.mpf(v.numerator) / (v.denominator * k) * fronts[k - 1]
        span = sc.fluid.injection_temperature - sc.rock.initial_temperature
        return float(span * acc)


@functools.lru_cache(maxsize=None)
def _front_exponentials(reach, half_spacing, alpha, t):
    """exp(-x gamma(k ln 2 / t)) for k = 1..20, to 30 digits; every order
    reads the same terms."""
    with mpmath.workdps(30):
        alpha, reach, d = mpmath.mpf(alpha), mpmath.mpf(reach), mpmath.mpf(half_spacing)
        out = []
        for k in range(1, 21):
            r = mpmath.sqrt(k * mpmath.log(2) / (mpmath.mpf(t) * alpha))
            out.append(mpmath.exp(-reach * r * mpmath.tanh(d * r)))
        return tuple(out)


@pytest.mark.parametrize("n", range(6, 21, 2))
@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_forecast_is_the_exact_sum_to_rounding(site, n, request):
    # the forecast inverts the cooling drop, so T0 is never pushed through
    # the weights: what is left is the rounding of the drop and of the sum.
    # The forecast clamps into [T_inj, T0] what lies within its budget, and
    # clamping moves no two values further apart. The 6-term sum rises past
    # the budget above T0 late in each series, so n = 6 is checked on the
    # rows before the first it is refused for
    sc = request.getfixturevalue(site)
    horizon = sc.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)
    t_hot = sc.rock.initial_temperature
    span = t_hot - sc.fluid.injection_temperature
    exact = np.array([_exact_front_terms(sc, t, n) for t in times])
    beyond = np.flatnonzero(np.maximum(exact, -span - exact) > _CLAMP_BUDGET * span)
    served = beyond[0] if beyond.size else times.size
    assert served == times.size or (n == 6 and served >= 150)
    got = multi_fracture_forecast(sc, times[:served], StehfestConfig(n)).outlet_temperatures
    error = np.abs(got - t_hot - np.clip(exact[:served], -span, 0.0))
    assert np.max(error) <= EXACT_SUM_BOUNDS[n]


@pytest.mark.parametrize("n", range(6, 21, 2))
@pytest.mark.parametrize("site", ["valles", "zeinali", "close"])
def test_sum_is_t0_to_float64_up_to_the_front(site, n, request):
    # at the last time the forecast skips, the exact sum lies within 2^-53
    # of the span from T0, on both sites and on a 2 m spacing, where
    # tanh(d r0) is well below 1
    if site == "close":
        valles = request.getfixturevalue("valles")
        fractures = dataclasses.replace(valles.fractures, spacing=2.0)
        sc = dataclasses.replace(valles, fractures=fractures)
    else:
        sc = request.getfixturevalue(site)
    front = _front(sc, n)
    span = sc.rock.initial_temperature - sc.fluid.injection_temperature
    assert 0.0 < front and abs(_exact_front_terms(sc, front, n)) <= 2.0**-53 * span
    # and the rule is not vacuous: ten times later the front has moved the sum
    assert abs(_exact_front_terms(sc, 10.0 * front, n)) > 2.0**-53 * span


@pytest.mark.parametrize("reach, alpha", [(0.0, 1e-6), (math.inf, 1e-6), (math.nan, 1e-6),
                                          (1e3, 0.0), (1e3, math.inf), (1e3, math.nan)])
def test_arrival_skips_nothing_outside_its_domain(reach, alpha):
    # no division by zero and no NaN: only t = 0 is skipped, and the
    # inversion meets the scenario as it would without the rule
    assert _arrival(12, reach, 20.0, alpha) == 0.0


@pytest.mark.parametrize("site, skipped", [("valles", 76), ("zeinali", 67)])
def test_forecast_samples_only_times_after_the_front(site, skipped, request, slab_samples):
    # of each bundled 200-point default series, 38 % (valles_caldera) and
    # 33.5 % (zeinali) lie before the front can reach the outlet at n = 12
    sc = request.getfixturevalue(site)
    horizon = sc.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)
    early = times <= _front(sc)
    assert early.sum() == skipped and np.all(early[:skipped])
    got = multi_fracture_forecast(sc, times).outlet_temperatures
    assert np.all(got[early] == sc.rock.initial_temperature)
    assert len(slab_samples) == 1 and slab_samples[0].shape == (200 - skipped, 12)
    assert np.array_equal(slab_samples[0][:, 0], _ln2_multiples_float64(12)[0] / times[~early])


def test_forecast_before_the_front_inverts_nothing(valles, slab_samples, monkeypatch):
    # every time before the front: T0 everywhere, from one inversion of no times
    times = np.array([0.0, 5e5, 1e6, 2e6])
    assert np.all(times <= _front(valles))
    calls = []
    invert = egstherm.laplace.stehfest_invert

    def counted(image, t, *args, **kwargs):
        calls.append(np.array(t))
        return invert(image, t, *args, **kwargs)

    monkeypatch.setattr(egstherm.laplace, "stehfest_invert", counted)
    series = multi_fracture_forecast(valles, times)
    assert np.all(series.outlet_temperatures == 300.0)
    assert len(calls) == 1 and calls[0].shape == (0,)
    assert len(slab_samples) == 1 and slab_samples[0].shape == (0, 12)


@pytest.mark.parametrize("n", range(6, 21, 2))
@pytest.mark.parametrize("sample_dtype", [np.float64, np.longdouble])
def test_weighted_sum_is_the_in_order_loop(valles, n, sample_dtype):
    # the long-double sum adds the terms in order, as the series is
    # written, bit for bit as a term-by-term loop over the same image values;
    # the float64 sum, with each weight rounded to float64, lies within
    # float64's rounding bound of that loop, (n + 4) 2^-53 of the sum of the
    # terms' sizes
    image = fluid_temp_laplace_slab(valles, L)
    seen = []

    def recorded(s):
        values = image(s)
        seen.append(np.asarray(values, dtype=np.longdouble))
        return values

    horizon = valles.operating.horizon
    times = np.geomspace(horizon / 1e4, horizon, 200)
    got = stehfest_invert(recorded, times, StehfestConfig(n), sample_dtype=sample_dtype)
    (values,) = seen
    weights = _weights_longdouble(n)
    acc = np.zeros(times.shape, dtype=np.longdouble)
    for k in range(n):
        acc += values[:, k] * weights[k]
    log2_over_t = np.log(np.longdouble(2.0)) / times.astype(np.longdouble)
    if sample_dtype is np.longdouble:
        assert np.array_equal(got, (log2_over_t * acc).astype(float))
        return
    assert np.array_equal(_weights_float64(n), weights.astype(float))
    sizes = log2_over_t * (np.abs(values) @ np.abs(weights))
    error = np.abs(got - log2_over_t * acc)
    assert np.all(error <= (n + 4) * 2.0**-53 * sizes)


def test_invert_wraps_image_failure():
    def broken(s):
        raise ZeroDivisionError("synthetic failure")

    with pytest.raises(ArithmeticError) as err:
        stehfest_invert(broken, 2.0)
    msg = str(err.value)
    assert "s=" in msg and "synthetic failure" in msg
    assert isinstance(err.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_invert_refuses_a_non_finite_image_value_as_such(dtype, bad):
    # a NaN or inf image value raises no floating-point flag of its own; it
    # is refused on the image route, not as an overflow of the sum
    def image(s):
        values = np.ones_like(s)
        values[..., 3] = bad
        return values

    for errors in ("ignore", "raise"):
        with np.errstate(all=errors), pytest.raises(ArithmeticError) as err:
            stehfest_invert(image, np.array([1.0, 2.0]), sample_dtype=dtype)
        assert str(err.value).startswith("Laplace image evaluation failed on s=")
        assert str(err.value).endswith(": the image returned a non-finite value")



def test_semi_infinite_image_value_theorems(valles_single):
    image = fluid_temp_laplace(valles_single, L)
    # initial value: s F(s) -> T0 as s -> inf (front not yet at the outlet)
    assert 1e12 * image(1e12) == pytest.approx(300.0, rel=1e-12)
    # final value: s F(s) -> T_inj as s -> 0 (fully swept)
    assert 1e-30 * image(1e-30) == pytest.approx(65.0, rel=1e-9)


def test_semi_infinite_inversion_matches_closed_form(valles_single):
    image = fluid_temp_laplace(valles_single, L)
    # worst case sits on the steep early knee, ~0.01 C at 12 terms; the
    # flat tail is orders of magnitude cleaner
    for t_yr, tol in ((1.0, 0.05), (10.0, 0.01), (50.0, 1e-3)):
        got = stehfest_invert(image, t_yr * YR)
        want = fluid_temp_single(valles_single, L, t_yr * YR)
        assert got == pytest.approx(want, abs=tol)


def test_slab_image_requires_array(valles, valles_single):
    fluid_temp_laplace_slab(valles, L)
    with pytest.raises(ValueError):
        fluid_temp_laplace_slab(valles_single, L)
    for bad in (-1.0, L + 1.0, math.nan):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, flow_length="):
            fluid_temp_laplace_slab(valles, bad)
    # the image takes an unvalidated scenario: an array with no spacing is refused
    unspaced = dataclasses.replace(
        valles, fractures=dataclasses.replace(valles.fractures, spacing=None)
    )
    with pytest.raises(ValueError, match="^slab image requires a positive fracture spacing$"):
        fluid_temp_laplace_slab(unspaced, L)


def test_slab_image_reduces_to_semi_infinite_at_huge_spacing(valles):
    # tanh saturates to exactly 1.0 at 1e12 m and is taken as 1 at inf, making
    # the two images bitwise equal on float64 and long-double samples alike
    semi = fluid_temp_laplace(valles, L)
    s = np.array([1e-10, 1e-8, 1e-6, 1e-3, 1.0])
    for spacing in (1e12, math.inf):
        far = dataclasses.replace(
            valles, fractures=dataclasses.replace(valles.fractures, spacing=spacing)
        )
        slab = fluid_temp_laplace_slab(far, L)
        for samples in (s, s.astype(np.longdouble)):
            assert np.array_equal(slab(samples), semi(samples))


def test_slab_image_cools_faster_than_semi_infinite(valles):
    # bounded rock holds less heat: image lies below the semi-infinite one
    slab = fluid_temp_laplace_slab(valles, L)
    semi = fluid_temp_laplace(valles, L)
    for s in (1e-10, 1e-9, 1e-8):
        assert slab(s) < semi(s)


def test_forecast_single_path_is_closed_form(valles_single):
    times = np.array([0.0, 1.0, 10.0, 50.0]) * YR
    series = multi_fracture_forecast(valles_single, times)
    assert series.model == "single"
    assert np.array_equal(series.outlet_temperatures, fluid_temp_single(valles_single, L, times))


def test_forecast_slab_frozen_and_reference(valles):
    times = np.array([10.0, 25.0, 50.0]) * YR
    series = multi_fracture_forecast(valles, times)
    assert series.model == "multi_slab"
    got = series.outlet_temperatures
    assert got == pytest.approx(VALLES_SLAB_N12, rel=1e-9)
    assert got == pytest.approx(VALLES_SLAB_REFERENCE, abs=1.5)


def test_forecast_before_interference_matches_isolated(valles):
    # fronts from 40 m neighbours first touch after ~6.8 yr; before that
    # the slab result tracks the isolated-fracture curve
    times = np.array([1.0, 2.0, 5.0]) * YR
    slab = multi_fracture_forecast(valles, times).outlet_temperatures
    iso = fluid_temp_single(valles, L, times)
    assert np.max(np.abs(slab - iso)) < 0.05


def test_forecast_depletion_ordering(zeinali):
    got = []
    for rate_bpd, frozen, reference in zip(
        (40.0, 80.0, 160.0), ZEINALI_RATES_N12, ZEINALI_RATES_REFERENCE
    ):
        sc = with_total_rate(zeinali, 10.0 * rate_bpd * 0.158987 / 86400.0)
        series = multi_fracture_forecast(sc, np.array([50.0 * YR]))
        val = float(series.outlet_temperatures[0])
        assert val == pytest.approx(frozen, rel=1e-9)
        assert val == pytest.approx(reference, abs=2.0)
        got.append(val)
    assert got[0] > got[1] > got[2]


def test_forecast_rejects_invalid_scenario(valles):
    bad = dataclasses.replace(
        valles, operating=dataclasses.replace(valles.operating, total_rate=0.0)
    )
    with pytest.raises(ScenarioError) as err:
        multi_fracture_forecast(bad, np.array([YR]))
    assert str(err.value) == "invalid scenario: operating.total_rate must be > 0, got 0.0"


def test_forecast_rejects_bad_times(valles):
    with pytest.raises(ValueError):
        multi_fracture_forecast(valles, np.array([-1.0, YR]))
    with pytest.raises(ValueError):
        multi_fracture_forecast(valles, np.array([[YR]]))
    with pytest.raises(ValueError):
        multi_fracture_forecast(valles, np.array([2.0 * YR, YR]))
    with pytest.raises(ValueError):
        multi_fracture_forecast(valles, np.array([np.nan]))


def test_forecast_refuses_times_of_another_shape_by_their_name(valles):
    with pytest.raises(ValueError, match="^times must be a one-dimensional sequence of seconds$"):
        multi_fracture_forecast(valles, np.array([[YR, 2.0 * YR]]))


def test_forecast_refuses_times_out_of_order_as_such(valles):
    # the inverted samples are boxed before the wiggle check, so that times
    # far enough apart to read as a 95 C wiggle are refused for their order
    with pytest.raises(ValueError, match="^times must be strictly increasing$"):
        multi_fracture_forecast(valles, np.array([50.0, 10.0]) * YR)


@pytest.mark.parametrize(
    "times, s_max", [([np.inf], "0.0"), ([1e7, np.inf], "8.317766166719343e-07")],
    ids=["inf", "1e7-inf"],
)
def test_forecast_refuses_a_non_finite_inversion(valles, times, s_max):
    # at t = inf every sample is s = 0, and the image's division by zero is
    # refused where it happens, whether NumPy's errors are ignored or this
    # suite's filter turns warnings into errors
    message = (f"Laplace image evaluation failed on s=0.0..{s_max}: "
               "divide by zero encountered in divide")
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError) as err:
        multi_fracture_forecast(valles, times)
    assert str(err.value) == message
    with pytest.raises(ArithmeticError) as err:
        multi_fracture_forecast(valles, times)
    assert str(err.value) == message


def test_forecast_far_tail_fails_loudly(valles):
    # the default-order inversion degrades in the deep depletion tail;
    # the guard refuses to return the bad samples
    with pytest.raises(ArithmeticError) as err:
        multi_fracture_forecast(valles, np.array([200.0 * YR]))
    assert "clamping budget" in str(err.value)


def test_finish_series_clips_small_excursions(valles):
    raw = np.array([300.0 + 0.1, 200.0, 64.9])
    times = np.array([1.0, 2.0, 3.0]) * YR
    series = _finish_series(raw, times, valles, StehfestConfig())
    assert series.outlet_temperatures[0] == 300.0
    assert series.outlet_temperatures[2] == 65.0


def test_finish_series_rejects_large_excursions(valles):
    raw = np.array([301.0, 200.0, 100.0])  # 1 C above T0, budget is 0.235 C
    times = np.array([1.0, 2.0, 3.0]) * YR
    with pytest.raises(ArithmeticError) as err:
        _finish_series(raw, times, valles, StehfestConfig())
    assert "clamping budget" in str(err.value)


def test_finish_series_rejects_wiggles(valles):
    raw = np.array([250.0, 240.0, 250.0])  # 10 C rise, budget is 1.175 C
    times = np.array([1.0, 2.0, 3.0]) * YR
    with pytest.raises(ArithmeticError) as err:
        _finish_series(raw, times, valles, StehfestConfig())
    assert "non-monotone" in str(err.value)
    assert "n_terms=12" in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finish_series_rejects_non_finite_samples(valles, bad):
    # NaN and +-inf fail the clamp test written as not (... <= budget), so
    # they are refused by time with the clamping-budget message
    raw = np.array([250.0, bad, 200.0])
    times = np.array([1.0, 2.0, 3.0]) * YR
    with pytest.raises(ArithmeticError) as err:
        _finish_series(raw, times, valles, StehfestConfig())
    assert "clamping budget" in str(err.value)
    assert "at t=6.3072e+07 s" in str(err.value)

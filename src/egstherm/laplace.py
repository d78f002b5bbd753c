"""Gaver-Stehfest Laplace inversion and the Laplace-domain fluid solutions.

The produced-temperature transform for a fracture against a semi-infinite
rock half-space has a closed-form time-domain inverse, which makes it the
natural self-test for the inversion machinery. The finite-slab variant
(adjacent fractures share the rock between them, with a zero-flux symmetry
midplane at half the spacing) has no elementary inverse and is where the
numerical inversion earns its keep: it is the engine behind the
multi-fracture forecast.

Stehfest weights are assembled exactly as rationals and only then rounded;
the alternating weights grow like 10^12 by n_terms = 20, so naive
double-precision assembly loses most of the mantissa to cancellation. The
inversion takes an array of times and evaluates the image once on the whole
(times x n_terms) grid of sample points, so a forecast costs one vectorised
image evaluation. The weighted sum is accumulated in extended precision (long
double) on a long-double grid, and in float64 on a float64 grid.

An array forecast inverts the normalised cooling drop exp(-x gamma(s)) / s
and returns T0 + (T_inj - T0) times it. The temperature image's other term,
T0 / s, inverts to exactly T0, as sum_k V_k / k = 1, so pushed through the
weights it would add nothing but their rounding. The forecast builds the
grid, evaluates the drop and sums in float64 up to n_terms = 16, and in long
double at 18 and 20, where the weights amplify the float64 image's rounding
past the last printed digit.

An array forecast samples only the times the cooling front may have reached
the outlet: at every time up to the front's arrival, computed once from the
scenario and the order, the front's terms move the inverted sum off the
initial temperature by less than float64 can hold, so those times take the
initial temperature without being sampled, as the closed form's saturated
erfc does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from typing import Callable, Sequence

import numpy as np

# fluid_temp_single is read through its module at call time: this module may
# load after egstherm.analytic's bindings were replaced (perfbench/tracing.py
# wraps them), and a copy taken at import would then be wrapped twice
from . import analytic
from .analytic import ForecastSeries, band_outlier
from .scenario import along_fracture, face_coupling, refuse_invalid, thermal_diffusivity

__all__ = [
    "LaplaceImage",
    "StehfestConfig",
    "stehfest_invert",
    "fluid_temp_laplace",
    "fluid_temp_laplace_slab",
    "fluid_drop_laplace_slab",
    "multi_fracture_forecast",
]

# An evaluable transform: maps s > 0 to the image value. The inversion calls
# it once, with one array of sample points: long double by default, float64
# where the caller asks for it (the forecast does up to n_terms = 16). So it
# must be a pure NumPy elementwise expression returning an array of the same
# shape and computing in the dtype it is given. It runs with overflow, division
# by zero and invalid operations raising, and underflow silent.
LaplaceImage = Callable[[np.ndarray], np.ndarray]

_LN2_LONG = np.log(np.longdouble(2.0))
_SAMPLE_DTYPES = (np.dtype(np.float64), np.dtype(np.longdouble))

# Highest order at which the forecast samples, evaluates the cooling drop and
# sums in float64.
# The weights amplify the float64 rounding of the drop and of the sum: over
# the bundled sites and the served designs of the benchmark's design panel,
# the float64 route moves the inverted temperatures off the long-double one by
# at most 1.2e-5 C at n = 16, but by 2.8e-4 C at 18 (enough to change a
# printed CSV digit) and 4.9e-3 C at 20 (a worse error against a 40-digit
# reference), so 18 and 20 keep the long-double route.
_FLOAT64_IMAGE_MAX_TERMS = 16

# tanh(z) is exactly 1 from z ~ 22.9 on in long double, and a float time gives
# samples s >= ln 2 / max_float: from a half-spacing of this times sqrt(alpha)
# on, the image takes tanh = 1 without forming d sqrt(s/alpha), which may
# overflow, or at d = inf make a complex sample's zero imaginary part NaN
_HALF_SPACE_DEPTH = 23.0 * math.sqrt(np.finfo(float).max) / math.sqrt(math.log(2.0))

# fraction of (T0 - T_inj) tolerated before clamping/monotonicity guards trip
_CLAMP_BUDGET = 1e-3
_WIGGLE_BUDGET = 5e-3


@lru_cache(maxsize=None)
def _weight_fractions(n_terms: int) -> tuple[Fraction, ...]:
    # Exact Stehfest coefficients. With m = n/2:
    # V_k = (-1)^(k+m) * sum_{j=ceil(k/2)}^{min(k,m)}
    #       j^m (2j)! / ((m-j)! j! (j-1)! (k-j)! (2j-k)!)
    m = n_terms // 2
    weights = []
    for k in range(1, n_terms + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, m) + 1):
            num = Fraction(j**m) * factorial(2 * j)
            den = (
                factorial(m - j)
                * factorial(j)
                * factorial(j - 1)
                * factorial(k - j)
                * factorial(2 * j - k)
            )
            acc += num / den
        weights.append(acc if (k + m) % 2 == 0 else -acc)
    return tuple(weights)


@lru_cache(maxsize=None)
def _weights_longdouble(n_terms: int) -> np.ndarray:
    # Round each exact weight through a hi/lo double-double split so the
    # longdouble holds more than plain float64 rounding would give it.
    out = np.zeros(n_terms, dtype=np.longdouble)
    for i, w in enumerate(_weight_fractions(n_terms)):
        hi = float(w)
        lo = float(w - Fraction(hi))
        out[i] = np.longdouble(hi) + np.longdouble(lo)
    return out


@lru_cache(maxsize=None)
def _weights_float64(n_terms: int) -> np.ndarray:
    # each exact weight rounded to float64, for the float64 sum
    out = np.array([float(w) for w in _weight_fractions(n_terms)])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _front_exponent(n_terms: int) -> float:
    # Gamma_n, the least g with sum_k (|V_k| / k) exp(-sqrt(k) g) <= 2^-53,
    # by bisection: as gamma(k s) >= sqrt(k) gamma(s), once x gamma(ln 2 / t)
    # reaches it the front terms of the sum at t add less than 2^-53 of the
    # span. The bracket's top, ln(sum_k |V_k| / k) + 53 ln 2, bounds it, as
    # exp(-sqrt(k) g) <= exp(-g); the top end is kept, so the bound holds.
    terms = [(abs(float(v)) / k, math.sqrt(k))
             for k, v in enumerate(_weight_fractions(n_terms), 1)]
    lo, hi = 0.0, math.log(sum(a for a, _ in terms)) + 53.0 * math.log(2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if sum(a * math.exp(-root * mid) for a, root in terms) <= 2.0**-53:
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=None)
def _ln2_multiples_float64(n_terms: int) -> np.ndarray:
    # k ln 2 for k = 1..n_terms, each rounded to float64; a float64 sample
    # grid is these divided by t
    out = (np.arange(1, n_terms + 1, dtype=np.longdouble) * _LN2_LONG).astype(float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StehfestConfig:
    """Inversion order. Even n_terms in [6, 20]; 12 is the double-precision
    sweet spot for smooth monotone transforms.

    The forecast builds its sample grid, evaluates the cooling drop and sums
    the weighted terms in float64 up to n_terms = 16, and in long double at
    18 and 20, where the weights amplify float64 image rounding past the
    printed digits.
    """

    n_terms: int = 12

    def __post_init__(self) -> None:
        n = self.n_terms
        if not isinstance(n, int) or n % 2 != 0 or not 6 <= n <= 20:
            raise ValueError(f"Stehfest term count must be an even integer in [6, 20], got {n!r}")


def stehfest_invert(
    image: LaplaceImage,
    t: float | np.ndarray,
    config: StehfestConfig = StehfestConfig(),
    *,
    sample_dtype: type = np.longdouble,
) -> float | np.ndarray:
    """Evaluate the inverse transform at time t > 0, or at an array of times.

    f(t) ~ (ln 2 / t) * sum_j V_j F(j ln 2 / t). The image is called once, on
    the grid s[..., j-1] = j ln 2 / t of shape (*t.shape, n_terms). By
    default the grid is long double, s = j * (ln 2 / t), and the weighted sum
    runs in extended precision term by term. With sample_dtype float64 the
    grid is (j ln 2 rounded to float64) / t, built in float64, for an image
    that computes in float64 anyway, and the sum runs in float64 with each
    exact weight rounded to float64. Either way a scalar t returns a float
    equal to its element of an array call, and an array t returns a float64
    array of t's shape.
    Exact for transforms of low-order polynomials; for smooth monotone
    transforms the systematic error floor is reached around n_terms 12-18.

    Raises
    ------
    ValueError
        If any t is not > 0, or sample_dtype is neither float64 nor long
        double.
    ArithmeticError
        If the image or the weighted sum raises, overflow, division by zero
        and invalid operations included, or an image value or the sum is
        not finite, whatever the warnings filter; the sampled range of s is
        named and the original error chained. If the sample grid overflows
        (a subnormal t on the float64 grid), the least t is named instead.
    """
    # np.dtype(None) is float64, so None is refused before it is converted
    if sample_dtype is None or (sample := np.dtype(sample_dtype)) not in _SAMPLE_DTYPES:
        raise ValueError(f"sample_dtype must be float64 or longdouble, got {sample_dtype!r}")
    t_arr = np.asarray(t, dtype=float)
    if not np.logical_and.reduce(t_arr > 0.0, axis=None):
        bad = t_arr[~(t_arr > 0.0)].flat[0]
        raise ValueError(f"inversion time must be > 0, got {float(bad)}")
    n = config.n_terms
    s = None  # the sample grid, once built
    try:
        with np.errstate(all="raise", under="ignore"):
            if sample == np.float64:
                # a subnormal t overflows ln 2 / t here, so the grid is built
                # under the same policy as the image and the sum
                s = _ln2_multiples_float64(n) / t_arr[..., None]
                log2_over_t, weights = s[..., 0], _weights_float64(n)
                # np.einsum reduces every row of the grid as it reduces a lone
                # row, so a scalar t reads its element of an array call bit for
                # bit, which np.dot's matrix-vector product does not
                weighted_sum = partial(np.einsum, "...k,k->...")
            else:
                log2_over_t = _LN2_LONG / t_arr.astype(np.longdouble)
                s = np.arange(1, n + 1, dtype=np.longdouble) * log2_over_t[..., None]
                # np.dot of long doubles sums the terms in order, as the series
                # is written, bit for bit as a term-by-term loop; np.sum's
                # pairwise order would move the last bits of a sum that cancels
                # weights of up to ~10^12 against each other
                weighted_sum, weights = np.dot, _weights_longdouble(n)
            values = np.asarray(image(s), dtype=sample)
            out = (log2_over_t * weighted_sum(values, weights)).astype(float, copy=False)
            # a NaN or inf image value raises no flag, and np.einsum, unlike
            # np.dot, does not raise when the sum overflows: name the step
            if not np.logical_and.reduce(np.isfinite(out), axis=None):
                if not np.logical_and.reduce(np.isfinite(values), axis=None):
                    raise FloatingPointError("the image returned a non-finite value")
                raise FloatingPointError("overflow encountered in the weighted sum")
    except Exception as err:
        if s is None:
            raise ArithmeticError(
                f"Laplace sample grid failed at t={float(t_arr.min())!r}: {err}"
            ) from err
        raise ArithmeticError(
            f"Laplace image evaluation failed on s={float(s.min())!r}..{float(s.max())!r}: {err}"
        ) from err
    return float(out) if out.ndim == 0 else out


def fluid_temp_laplace(sc, x: float) -> LaplaceImage:
    """Transform of the produced-fluid temperature, semi-infinite rock.

    s -> T0/s + (T_inj - T0)/s * exp(-a sqrt(s)), with a the scenario's
    transfer coefficient at x: the slab image at infinite spacing, tanh = 1.
    The decaying exponential branch is the physical one (bounded
    temperatures). The time-domain inverse is the closed form in
    :func:`egstherm.analytic.fluid_temp_single`, so the two routes
    cross-validate each other.
    """
    return _temperature_image(sc, _drop_image(sc, x, math.inf))


def fluid_temp_laplace_slab(sc, x: float) -> LaplaceImage:
    """Transform of the produced-fluid temperature, finite rock slab.

    Models an interior member of an equidistant fracture array: the rock
    available to each exchange face extends only to the midplane between
    neighbours, d = spacing/2, where symmetry forces zero flux. In the
    transform domain the half-space kernel sqrt(s/alpha) picks up a factor
    tanh(d sqrt(s/alpha)):

        s -> T0/s + (T_inj - T0) * D(s),

    with D the cooling drop of :func:`fluid_drop_laplace_slab`. tanh -> 1
    recovers the semi-infinite image exactly, so early times are
    indistinguishable from the isolated fracture; once the diffusion depth
    reaches d the slab starts exhausting its heat inventory and the forecast
    drops toward T_inj on the depletion timescale
    faces x d rho_r c_r / (rho_f c_f v b).
    """
    return _temperature_image(sc, fluid_drop_laplace_slab(sc, x))


def fluid_drop_laplace_slab(sc, x: float) -> LaplaceImage:
    """Transform of the normalised cooling drop (T0 - T) / (T0 - T_inj), finite
    rock slab of half-thickness d = spacing/2:

        D(s) = exp(-x g(s)) / s,
        g(s) = (faces k / (rho_f c_f v b)) sqrt(s/alpha) tanh(d sqrt(s/alpha)).

    Its inverse is 0 before the cooling front arrives and rises toward 1 as
    the slab is depleted. The array forecast inverts this image, not the
    temperature's: the temperature's T0/s term inverts to T0 exactly.
    """
    fr = sc.fractures
    if fr.count <= 1:
        raise ValueError("slab image requires a multi-fracture array (count > 1)")
    if fr.spacing is None or not fr.spacing > 0.0:
        raise ValueError("slab image requires a positive fracture spacing")
    return _drop_image(sc, x, fr.spacing / 2.0)


def _drop_image(sc, x: float, half_spacing: float) -> LaplaceImage:
    """The cooling drop's image at half-spacing d; d = inf is the half-space."""
    x = along_fracture(sc, x)
    alpha = thermal_diffusivity(sc.rock)
    coupling = face_coupling(sc)
    half_space = not half_spacing < _HALF_SPACE_DEPTH * math.sqrt(alpha)

    def image(s):
        root = np.sqrt(s / alpha)
        gamma = coupling * root * (1.0 if half_space else np.tanh(half_spacing * root))
        return np.exp(-x * gamma) / s

    return image


def _temperature_image(sc, drop: LaplaceImage) -> LaplaceImage:
    """s -> T0/s + (T_inj - T0) drop(s)."""
    t_hot = sc.rock.initial_temperature
    span = sc.fluid.injection_temperature - t_hot

    def image(s):
        return t_hot / s + span * drop(s)

    return image


def _arrival(n_terms: int, reach: float, half_spacing: float, alpha: float) -> float:
    """Latest time, s, up to which the n-term sum of the slab image is T0 in float64.

    The n-term sum of the cooling drop at t is sum_k (V_k / k)
    exp(-x gamma(k ln 2 / t)), with gamma(s) = c r tanh(d r), r = sqrt(s / alpha);
    as tanh rises, gamma(k s) >= sqrt(k) gamma(s), so the sum's size is at
    most sum_k (|V_k| / k) exp(-sqrt(k) x gamma(ln 2 / t)), below 2^-53 once
    x gamma(ln 2 / t) >= Gamma_n (_front_exponent). With reach = x c and
    r0 = Gamma_n / reach, a t up to (ln 2 / alpha) (tanh(d r0) / r0)^2 has
    r >= r0 / tanh(d r0) >= r0 at k = 1, so tanh(d r) >= tanh(d r0) and
    x gamma >= reach r0 = Gamma_n. A reach or diffusivity of 0 or inf gives
    0, so that only t = 0 is skipped and the inversion meets such a scenario
    as it did without the rule.
    """
    if not (0.0 < reach < math.inf and 0.0 < alpha < math.inf):
        return 0.0
    r0 = _front_exponent(n_terms) / reach
    depth = math.tanh(half_spacing * r0) / r0
    return depth * depth * math.log(2.0) / alpha


def _finish_series(raw, times, sc, config: StehfestConfig):
    """Clamp and sanity-check inverted samples, then box them.

    Numerical inversion may leave harmless sub-0.1%-of-span excursions
    outside [T_inj, T0]; those are clipped. Anything larger, any non-finite
    sample, or any non-monotone wiggle above 0.5% of span, means the
    inversion has gone unstable for this transform and is reported instead
    of smoothed over. The clamping budget's check, which refuses NaN, and
    the clip are the series' band rule, and times are checked at the
    forecast's start, so the series is built without checking either again.
    """
    t_cold, t_hot = sc.fluid.injection_temperature, sc.rock.initial_temperature
    if (outlier := band_outlier(raw, t_cold, t_hot, _CLAMP_BUDGET)) is not None:
        idx, excess = outlier
        raise ArithmeticError(
            f"inverted temperature leaves [{t_cold}, {t_hot}] by {excess:.3g} C "
            f"at t={float(times[idx]):.6g} s, beyond the {_CLAMP_BUDGET:.1%} "
            "clamping budget; the transform inversion is unstable here"
        )
    clipped = np.minimum(np.maximum(raw, t_cold), t_hot)

    rises = clipped[1:] - clipped[:-1]
    if np.maximum.reduce(rises, initial=0.0) > _WIGGLE_BUDGET * (t_hot - t_cold):
        idx = int(rises.argmax())
        raise ArithmeticError(
            f"non-monotone inversion wiggle of {float(rises[idx]):.3g} C between "
            f"t={float(times[idx]):.6g} s and t={float(times[idx + 1]):.6g} s; "
            f"try a different Stehfest term count (n_terms={config.n_terms} used; "
            "10-16 usually behaves best)"
        )
    return ForecastSeries._from_checked("multi_slab", times, clipped, t_cold, t_hot)


def multi_fracture_forecast(sc, times: Sequence[float], config: StehfestConfig = StehfestConfig()):
    """Produced-temperature forecast at the fracture outlet, any array size.

    A single fracture takes the exact closed-form path, whose samples lie in
    [T_inj, T0] by construction (pinned by a test, not checked at run time).
    An array takes the finite-slab transform of the cooling drop
    (:func:`fluid_drop_laplace_slab`), inverted numerically in one
    :func:`stehfest_invert` call over every
    requested time later than :func:`_arrival`'s bound and scaled onto
    [T_inj, T0]. t = 0 and the times up to that bound, where the cooling
    front cannot move the inverted sum off T0 in float64, evaluate to the
    initial rock temperature without being sampled; when no time is later,
    the call is made on none. Times are seconds, >= 0 and, by
    :meth:`ForecastSeries.check_times`, strictly increasing; they are
    checked before any sampling. A scenario that breaks a rule of validate
    is refused with the loader's ScenarioError.

    Returns
    -------
    ForecastSeries
        Model tag ``single`` (count = 1) or ``multi_slab``.
    """
    refuse_invalid(sc)
    times = ForecastSeries.check_times(times)
    # in order, so the first time is the least; a NaN can only be a lone
    # time, which the inversion or the closed form refuses
    if times.size and times[0] < 0.0:
        raise ValueError("forecast times must be >= 0 s")

    length = sc.fractures.flow_length
    if sc.fractures.count == 1:
        temps = analytic.fluid_temp_single(sc, length, times)
        t_cold, t_hot = sc.fluid.injection_temperature, sc.rock.initial_temperature
        # in the band by construction (erfc lies in [0, 1]), as a property test pins
        return ForecastSeries._from_checked("single", times, temps, t_cold, t_hot)

    # both bindings are looked up at call time and the closure is passed on
    # as returned, so a wrapper installed on either sees every call
    drop = fluid_drop_laplace_slab(sc, length)
    samples = np.float64 if config.n_terms <= _FLOAT64_IMAGE_MAX_TERMS else np.longdouble
    front = _arrival(
        config.n_terms,
        length * face_coupling(sc),
        sc.fractures.spacing / 2.0,
        thermal_diffusivity(sc.rock),
    )
    t_hot = sc.rock.initial_temperature
    raw = np.empty(times.shape)
    # the times later than the front are a suffix; a lone NaN sorts into it
    later = times.searchsorted(front, side="right")
    raw[:later].fill(t_hot)
    dropped = stehfest_invert(drop, times[later:], config, sample_dtype=samples)
    raw[later:] = t_hot + (sc.fluid.injection_temperature - t_hot) * dropped
    return _finish_series(raw, times, sc, config)

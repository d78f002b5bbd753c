"""Gaver-Stehfest Laplace inversion and the Laplace-domain fluid solutions.

The produced-temperature transform for a fracture against a semi-infinite
rock half-space has a closed-form time-domain inverse, which makes it the
natural self-test for the inversion machinery. The finite-slab variant
(adjacent fractures share the rock between them, with a zero-flux symmetry
midplane at half the spacing) has no elementary inverse and is where the
numerical inversion earns its keep: it is the engine behind the
multi-fracture forecast.

Stehfest weights are assembled exactly as rationals and only then rounded,
and the weighted inversion sum is always accumulated in extended precision
(long double); the alternating weights grow like 10^9 by n_terms = 20, so
naive double-precision assembly loses most of the mantissa to cancellation.
The inversion takes an array of times and evaluates the image once on the
whole (times x n_terms) grid of sample points, so a forecast costs one
vectorised image evaluation. The forecast builds that grid, and evaluates the
slab image, in float64 up to n_terms = 16 and in long double at 18 and 20: the
image's own rounding is amplified by the weights, and only from n_terms = 18
does the float64 image move the inverted temperatures by more than the last
printed digit. The weighted sum is long double at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

import numpy as np

# fluid_temp_single is read through its module at call time: this module may
# load after egstherm.analytic's bindings were replaced (perfbench/tracing.py
# wraps them), and a copy taken at import would then be wrapped twice
from . import analytic
from .analytic import ForecastSeries
from .scenario import face_coupling, thermal_diffusivity, validate

__all__ = [
    "LaplaceImage",
    "StehfestConfig",
    "stehfest_invert",
    "fluid_temp_laplace",
    "fluid_temp_laplace_slab",
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

# Highest order at which the forecast samples and evaluates the slab image in
# float64.
# The weights amplify the image's rounding: the float64 image moves the
# inverted temperatures by at most 5e-5 C at n = 16 on the bundled sites and
# the design panel, but by 1e-3 C at 18 (changing printed CSV digits) and
# 2e-2 C at 20 (a worse error against a 30-digit reference), so 18 and 20
# keep the long-double image. The weighted sum is long double at every order.
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

    The weighted sum runs in long double at every order. The forecast builds
    its sample grid and evaluates the slab image in float64 up to
    n_terms = 16, and in long double at 18 and 20, where the weights amplify
    float64 image rounding past the printed digits.
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
    the grid s[..., j-1] = j ln 2 / t of shape (*t.shape, n_terms), and the
    weighted sum runs in extended precision term by term. The grid is long
    double, s = j * (ln 2 / t), unless sample_dtype is float64: then it is
    (j ln 2 rounded to float64) / t, built in float64, for an image that
    computes in float64 anyway. A scalar t returns a float; an array t
    returns a float64 array of t's shape.
    Exact for transforms of low-order polynomials; for smooth monotone
    transforms the systematic error floor is reached around n_terms 12-18.

    Raises
    ------
    ValueError
        If any t is not > 0, or sample_dtype is neither float64 nor long
        double.
    ArithmeticError
        If the image or the weighted sum raises, overflow, division by zero
        and invalid operations included, whatever the warnings filter; the
        sampled range of s is named and the original error chained.
    """
    # np.dtype(None) is float64, so None is refused before it is converted
    if sample_dtype is None or (sample := np.dtype(sample_dtype)) not in _SAMPLE_DTYPES:
        raise ValueError(f"sample_dtype must be float64 or longdouble, got {sample_dtype!r}")
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr > 0.0).all():
        bad = t_arr[~(t_arr > 0.0)].flat[0]
        raise ValueError(f"inversion time must be > 0, got {float(bad)}")
    weights = _weights_longdouble(config.n_terms)
    log2_over_t = _LN2_LONG / t_arr.astype(np.longdouble)
    if sample == np.float64:
        s = _ln2_multiples_float64(config.n_terms) / t_arr[..., None]
    else:
        s = np.arange(1, config.n_terms + 1, dtype=np.longdouble) * log2_over_t[..., None]
    try:
        with np.errstate(all="raise", under="ignore"):
            values = np.asarray(image(s), dtype=np.longdouble)
            # NumPy's longdouble product sums the terms in order, as the series
            # is written; np.sum's pairwise order would move the last bits of a
            # sum that cancels weights of up to ~10^9 against each other
            out = (log2_over_t * (values @ weights)).astype(float)
    except Exception as err:
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
    return _fluid_image(sc, x, math.inf)


def fluid_temp_laplace_slab(sc, x: float) -> LaplaceImage:
    """Transform of the produced-fluid temperature, finite rock slab.

    Models an interior member of an equidistant fracture array: the rock
    available to each exchange face extends only to the midplane between
    neighbours, d = spacing/2, where symmetry forces zero flux. In the
    transform domain the half-space kernel sqrt(s/alpha) picks up a factor
    tanh(d sqrt(s/alpha)):

        s -> T0/s + (T_inj - T0)/s * exp(-x g(s)),
        g(s) = (faces k / (rho_f c_f v b)) sqrt(s/alpha) tanh(d sqrt(s/alpha))

    tanh -> 1 recovers the semi-infinite image exactly, so early times are
    indistinguishable from the isolated fracture; once the diffusion depth
    reaches d the slab starts exhausting its heat inventory and the forecast
    drops toward T_inj on the depletion timescale
    faces x d rho_r c_r / (rho_f c_f v b).
    """
    fr = sc.fractures
    if fr.count <= 1:
        raise ValueError("slab image requires a multi-fracture array (count > 1)")
    if fr.spacing is None or not fr.spacing > 0.0:
        raise ValueError("slab image requires a positive fracture spacing")
    return _fluid_image(sc, x, fr.spacing / 2.0)


def _fluid_image(sc, x: float, half_spacing: float) -> LaplaceImage:
    """The slab image at half-spacing d; d = inf is the half-space."""
    x = float(x)
    if not 0.0 <= x <= sc.fractures.flow_length:
        raise ValueError(f"x must lie in [0, flow_length={sc.fractures.flow_length}], got {x}")

    alpha = thermal_diffusivity(sc.rock)
    coupling = face_coupling(sc)
    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature
    half_space = not half_spacing < _HALF_SPACE_DEPTH * math.sqrt(alpha)

    def image(s):
        root = np.sqrt(s / alpha)
        gamma = coupling * root * (1.0 if half_space else np.tanh(half_spacing * root))
        return (t_hot + (t_cold - t_hot) * np.exp(-x * gamma)) / s

    return image


def _finish_series(raw, times, sc, config: StehfestConfig):
    """Clamp and sanity-check inverted samples, then box them.

    Numerical inversion may leave harmless sub-0.1%-of-span excursions
    outside [T_inj, T0]; those are clipped. Anything larger, any non-finite
    sample, or any non-monotone wiggle above 0.5% of span, means the
    inversion has gone unstable for this transform and is reported instead
    of smoothed over.
    """
    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature
    span = t_hot - t_cold
    raw = np.asarray(raw, dtype=float)

    # the worst excursion is max(raw) - T0 or T_inj - min(raw); written as
    # not (... <= budget) so that a NaN, which compares False, is refused too
    budget = _CLAMP_BUDGET * span
    above = raw.max(initial=t_hot) - t_hot
    below = t_cold - raw.min(initial=t_cold)
    if not (above <= budget and below <= budget):
        excess = np.maximum(raw - t_hot, t_cold - raw)
        idx = int(excess.argmax())
        raise ArithmeticError(
            f"inverted temperature leaves [{t_cold}, {t_hot}] by {float(excess[idx]):.3g} C "
            f"at t={float(times[idx]):.6g} s, beyond the {_CLAMP_BUDGET:.1%} "
            "clamping budget; the transform inversion is unstable here"
        )
    clipped = np.minimum(np.maximum(raw, t_cold), t_hot)

    rises = clipped[1:] - clipped[:-1]
    if rises.max(initial=0.0) > _WIGGLE_BUDGET * span:
        idx = int(rises.argmax())
        raise ArithmeticError(
            f"non-monotone inversion wiggle of {float(rises[idx]):.3g} C between "
            f"t={float(times[idx]):.6g} s and t={float(times[idx + 1]):.6g} s; "
            f"try a different Stehfest term count (n_terms={config.n_terms} used; "
            "10-16 usually behaves best)"
        )
    return ForecastSeries(
        model="multi_slab",
        times=np.asarray(times, dtype=float),
        outlet_temperatures=clipped,
        injection_temperature=t_cold,
        initial_temperature=t_hot,
    )


def multi_fracture_forecast(sc, times: Sequence[float], config: StehfestConfig = StehfestConfig()):
    """Produced-temperature forecast at the fracture outlet, any array size.

    A single fracture takes the exact closed-form path. An array takes the
    finite-slab transform, inverted numerically in one
    :func:`stehfest_invert` call over every requested time t > 0. Times are
    seconds, strictly increasing; t = 0 evaluates to the initial rock
    temperature without touching the inversion.

    Returns
    -------
    ForecastSeries
        Model tag ``single`` (count = 1) or ``multi_slab``.
    """
    violations = validate(sc)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a one-dimensional sequence of seconds")
    if (times < 0.0).any():
        raise ValueError("forecast times must be >= 0 s")

    length = sc.fractures.flow_length
    if sc.fractures.count == 1:
        return ForecastSeries(
            model="single",
            times=times,
            outlet_temperatures=analytic.fluid_temp_single(sc, length, times),
            injection_temperature=sc.fluid.injection_temperature,
            initial_temperature=sc.rock.initial_temperature,
        )

    # both bindings are looked up at call time and the closure is passed on
    # as returned, so a wrapper installed on either sees every call
    slab = fluid_temp_laplace_slab(sc, length)
    samples = np.float64 if config.n_terms <= _FLOAT64_IMAGE_MAX_TERMS else np.longdouble
    raw = np.full(times.shape, sc.rock.initial_temperature)
    later = times != 0.0  # keeps NaN, which the inversion refuses
    raw[later] = stehfest_invert(slab, times[later], config, sample_dtype=samples)
    return _finish_series(raw, times, sc, config)

"""Gaver-Stehfest Laplace inversion and the Laplace-domain fluid solutions.

The produced-temperature transform for a fracture against a semi-infinite
rock half-space has a closed-form time-domain inverse, which makes it the
natural self-test for the inversion machinery. The finite-slab variant
(adjacent fractures share the rock between them, with a zero-flux symmetry
midplane at half the spacing) has no elementary inverse and is where the
numerical inversion earns its keep: it is the engine behind the
multi-fracture forecast.

Stehfest weights are assembled exactly as rationals and only then rounded,
and the inversion sum is accumulated in extended precision; the alternating
weights grow like 10^9 by n_terms = 20, so naive double-precision assembly
loses most of the mantissa to cancellation. The inversion takes an array of
times and evaluates the image once on the whole (times x n_terms) grid of
sample points, so a forecast costs one vectorised image evaluation.
"""

from __future__ import annotations

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
from .scenario import face_coupling, thermal_diffusivity, transfer_coefficient, validate

__all__ = [
    "LaplaceImage",
    "StehfestConfig",
    "stehfest_invert",
    "fluid_temp_laplace",
    "fluid_temp_laplace_slab",
    "multi_fracture_forecast",
]

# An evaluable transform: maps s > 0 to the image value. The inversion calls
# it once, with a longdouble array of sample points, so it must be a pure
# NumPy elementwise expression returning an array of the same shape.
LaplaceImage = Callable[[np.ndarray], np.ndarray]

_LN2_LONG = np.log(np.longdouble(2.0))

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


@dataclass(frozen=True)
class StehfestConfig:
    """Inversion order. Even n_terms in [6, 20]; 12 is the double-precision
    sweet spot for smooth monotone transforms."""

    n_terms: int = 12

    def __post_init__(self) -> None:
        n = self.n_terms
        if not isinstance(n, int) or n % 2 != 0 or not 6 <= n <= 20:
            raise ValueError(f"Stehfest term count must be an even integer in [6, 20], got {n!r}")


def stehfest_invert(
    image: LaplaceImage, t: float | np.ndarray, config: StehfestConfig | None = None
) -> float | np.ndarray:
    """Evaluate the inverse transform at time t > 0, or at an array of times.

    f(t) ~ (ln 2 / t) * sum_j V_j F(j ln 2 / t). The image is called once, on
    the longdouble grid s[..., j-1] = j ln 2 / t of shape (*t.shape, n_terms),
    and the weighted sum runs in extended precision term by term. A scalar t
    returns a float; an array t returns a float64 array of t's shape.
    Exact for transforms of low-order polynomials; for smooth monotone
    transforms the systematic error floor is reached around n_terms 12-18.

    Raises
    ------
    ValueError
        If any t is not > 0.
    ArithmeticError
        If the image raises; the sampled range of s is named and the
        original error chained.
    """
    if config is None:
        config = StehfestConfig()
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        bad = t_arr[~(t_arr > 0.0)].flat[0]
        raise ValueError(f"inversion time must be > 0, got {float(bad)}")
    weights = _weights_longdouble(config.n_terms)
    log2_over_t = _LN2_LONG / t_arr.astype(np.longdouble)
    s = np.arange(1, config.n_terms + 1, dtype=np.longdouble) * log2_over_t[..., None]
    try:
        values = np.asarray(image(s), dtype=np.longdouble)
    except Exception as err:
        raise ArithmeticError(
            f"Laplace image evaluation failed on s={float(s.min())!r}..{float(s.max())!r}: {err}"
        ) from err
    # one term at a time, in order: a pairwise np.sum would move the last bits
    acc = np.zeros(t_arr.shape, dtype=np.longdouble)
    for j in range(config.n_terms):
        acc += weights[j] * values[..., j]
    out = (log2_over_t * acc).astype(float)
    return float(out) if out.ndim == 0 else out


def fluid_temp_laplace(sc, x: float) -> LaplaceImage:
    """Transform of the produced-fluid temperature, semi-infinite rock.

    s -> T0/s + (T_inj - T0)/s * exp(-a sqrt(s)), with a the scenario's
    transfer coefficient at x. The decaying exponential branch is the
    physical one (bounded temperatures). The time-domain inverse is the
    closed form in :func:`egstherm.analytic.fluid_temp_single`, so the two
    routes cross-validate each other.
    """
    a = transfer_coefficient(sc, x)
    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature

    def image(s):
        return (t_hot + (t_cold - t_hot) * np.exp(-a * np.sqrt(s))) / s

    return image


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
    x = float(x)
    if not 0.0 <= x <= fr.flow_length:
        raise ValueError(f"x must lie in [0, flow_length={fr.flow_length}], got {x}")

    alpha = thermal_diffusivity(sc.rock)
    coupling = face_coupling(sc)
    half_spacing = fr.spacing / 2.0
    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature

    def image(s):
        root = np.sqrt(s / alpha)
        gamma = coupling * root * np.tanh(half_spacing * root)
        return (t_hot + (t_cold - t_hot) * np.exp(-x * gamma)) / s

    return image


def _finish_series(raw, times, sc, config: StehfestConfig):
    """Clamp and sanity-check inverted samples, then box them.

    Numerical inversion may leave harmless sub-0.1%-of-span excursions
    outside [T_inj, T0]; those are clipped. Anything larger, or any
    non-monotone wiggle above 0.5% of span, means the inversion has gone
    unstable for this transform and is reported instead of smoothed over.
    """
    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature
    span = t_hot - t_cold
    raw = np.asarray(raw, dtype=float)

    excess = np.maximum(raw - t_hot, t_cold - raw)
    worst = float(excess.max(initial=0.0))
    if worst > _CLAMP_BUDGET * span:
        idx = int(excess.argmax())
        raise ArithmeticError(
            f"inverted temperature leaves [{t_cold}, {t_hot}] by {worst:.3g} C "
            f"at t={float(times[idx]):.6g} s, beyond the {_CLAMP_BUDGET:.1%} "
            "clamping budget; the transform inversion is unstable here"
        )
    clipped = np.clip(raw, t_cold, t_hot)

    rises = np.diff(clipped)
    if rises.size and float(rises.max(initial=0.0)) > _WIGGLE_BUDGET * span:
        idx = int(rises.argmax())
        raise ArithmeticError(
            f"non-monotone inversion wiggle of {float(rises.max()):.3g} C between "
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


def multi_fracture_forecast(
    sc, times: Sequence[float], config: StehfestConfig | None = None
):
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
    if config is None:
        config = StehfestConfig()
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a one-dimensional sequence of seconds")
    if np.any(times < 0.0):
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

    raw = np.full(times.shape, sc.rock.initial_temperature)
    later = times != 0.0  # keeps NaN, which the inversion refuses
    raw[later] = stehfest_invert(fluid_temp_laplace_slab(sc, length), times[later], config)
    return _finish_series(raw, times, sc, config)

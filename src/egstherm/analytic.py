"""Closed-form solutions for fracture-fluid heat extraction.

The core result: for quasi-steady flow between parallel faces of a
semi-infinite conducting half-space, the produced-fluid temperature is

    T_f(x, t) = T0 + (T_inj - T0) erfc(a(x) / (2 sqrt(t)))

with a(x) the scenario's transfer coefficient. Around it sit the rock
temperature it implies (the same erfc with a shifted by y / sqrt(alpha)),
the interfacial heat flux, the onset of decline of a forecast, and the
produced thermal power. The front-traversal table used for spacing design
needs no NumPy and lives in :mod:`egstherm.scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .scenario import Scenario, thermal_diffusivity, transfer_coefficient

__all__ = [
    "ForecastSeries",
    "band_outlier",
    "MODEL_TAGS",
    "rock_temp",
    "fluid_temp_single",
    "interfacial_flux",
    "onset_of_decline",
    "thermal_power",
]

MODEL_TAGS = ("single", "gringarten_ref", "multi_slab", "oracle")

# erfc argument beyond which the produced temperature is the initial
# temperature to double precision
_ERFC_SATURATION = 6.0


def band_outlier(temps: np.ndarray, cold: float, hot: float, slack: float = 1e-9):
    """(index, distance outside, C) of the sample furthest outside [cold, hot],
    or None if all lie within slack |hot - cold| of it, by default the rounding
    a ForecastSeries allows. NaN lies outside, beyond any number.
    """
    allowance = slack * abs(hot - cold)
    # not (... <= ...), so that a NaN is outside; ufunc.reduce skips a wrapper
    if not temps.size or (
        cold - allowance <= np.minimum.reduce(temps)
        and np.maximum.reduce(temps) <= hot + allowance
    ):
        return None
    excess = np.maximum(cold - temps, temps - hot)
    worst = int(excess.argmax())  # the first NaN, if any
    return worst, float(excess[worst])


@dataclass(frozen=True, eq=False)
class ForecastSeries:
    """A produced-temperature time series from one model.

    times are seconds, strictly increasing (check_times); temperatures lie
    in [T_inj, T0] up to band_outlier's default rounding slack. The public
    constructor, dataclasses.replace included, applies both rules. The
    engines apply each rule once on their own terms and build their series
    from those parts with _from_checked, which repeats neither. Equality
    and hash go by identity, as the fields hold arrays.
    """

    model: str
    times: np.ndarray
    outlet_temperatures: np.ndarray
    injection_temperature: float
    initial_temperature: float

    @staticmethod
    def check_times(times) -> np.ndarray:
        """times as a float64 array, refused unless 1-D and strictly increasing."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be a one-dimensional sequence of seconds")
        if not np.logical_and.reduce(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        return times

    def __post_init__(self) -> None:
        if self.model not in MODEL_TAGS:
            raise ValueError(f"model must be one of {MODEL_TAGS}, got {self.model!r}")
        times = self.check_times(self.times)
        temps = np.asarray(self.outlet_temperatures, dtype=float)
        if temps.shape != times.shape:
            raise ValueError("times and outlet_temperatures must be 1-D and equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "outlet_temperatures", temps)
        cold, hot = self.injection_temperature, self.initial_temperature
        if band_outlier(temps, cold, hot) is not None:
            raise ValueError(
                "outlet temperatures must lie between the injection and initial "
                f"temperatures [{cold}, {hot}]"
            )

    @classmethod
    def _from_checked(cls, model: str, times: np.ndarray, temps: np.ndarray,
                      cold: float, hot: float) -> ForecastSeries:
        """The series of parts an engine has already checked, checked no further.

        The caller's contract: model is one of MODEL_TAGS; times is the
        float64 array check_times returned; temps is a float64 array of the
        times' shape with no NaN and every sample within band_outlier's
        default slack of [cold, hot], as a band check, or a clip after a
        check that refused NaN, has made sure.
        """
        series = object.__new__(cls)
        object.__setattr__(series, "model", model)
        object.__setattr__(series, "times", times)
        object.__setattr__(series, "outlet_temperatures", temps)
        object.__setattr__(series, "injection_temperature", cold)
        object.__setattr__(series, "initial_temperature", hot)
        return series


def _erfc_response(sc: Scenario, numerator: float, t: float | np.ndarray) -> float | np.ndarray:
    """T0 + (T_inj - T0) erfc(numerator / (2 sqrt(t))), elementwise over t.

    Exactly T0 at t = 0 and wherever the argument has saturated (>= 6): the
    cooling front has not arrived. A float for a scalar t, a float64 array
    of t's shape otherwise; any negative or NaN time is refused.
    """
    t = np.asarray(t, dtype=float)
    if not np.logical_and.reduce(t >= 0.0, axis=None):
        raise ValueError(f"t must be >= 0, got {float(t[~(t >= 0.0)].flat[0])}")
    t_hot = sc.rock.initial_temperature
    with np.errstate(divide="ignore", invalid="ignore"):
        z = numerator / (2.0 * np.sqrt(t))  # inf or NaN at t = 0, so never live
    live = z < _ERFC_SATURATION
    out = np.empty(t.shape)
    out.fill(t_hot)
    # T0 + (T_inj - T0) erfc(z) in place: the same product and sum, the same bits
    temps = specfun.erfc(z[live])
    temps *= sc.fluid.injection_temperature - t_hot
    temps += t_hot
    out[live] = temps
    return float(out) if out.ndim == 0 else out


def fluid_temp_single(sc: Scenario, x: float, t: float | np.ndarray) -> float | np.ndarray:
    """Produced-fluid temperature for a fracture against semi-infinite rock.

    T0 + (T_inj - T0) erfc(a / (2 sqrt(t))) with a = transfer_coefficient(sc, x);
    identically T_inj + (T0 - T_inj) erf of the same argument. Returns the
    initial temperature at t = 0 and whenever the argument has saturated
    (a / (2 sqrt(t)) >= 6): the thermal front has not yet reached the outlet.
    Evaluated elementwise in one pass over an array of times.

    Parameters
    ----------
    sc : Scenario
    x : float
        Along-fracture distance, 0 <= x <= flow_length, m.
    t : float or array
        Time since circulation start, s, every element >= 0.

    Returns
    -------
    float or array
        A float for a scalar t, a float64 array of t's shape otherwise.

    Raises
    ------
    ValueError
        If any element of t is negative or NaN.
    """
    return _erfc_response(sc, transfer_coefficient(sc, x), t)


def rock_temp(y: float, t: float, sc: Scenario, x: float) -> float:
    """Rock temperature at depth y into the face, at station x and time t.

    The rock's Laplace image at depth y is the fluid's times
    exp(-y sqrt(s / alpha)), which shifts the transfer coefficient by
    y / sqrt(alpha). Exactly,

        T_r = T0 + (T_inj - T0) erfc((a + y / sqrt(alpha)) / (2 sqrt(t)))

    with a = transfer_coefficient(sc, x), under fluid_temp_single's
    saturation rule: T0 once the argument reaches 6. At y = 0 this is the
    fluid temperature bit for bit (the coupling boundary condition), and
    from eta = y / (2 sqrt(alpha t)) >= 6 on it is exactly T0.

    Raises
    ------
    ValueError
        If y is not >= 0 (negative or NaN) or t <= 0.
    """
    y = float(y)
    t = float(t)
    if not y >= 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    lag = y / math.sqrt(thermal_diffusivity(sc.rock))
    return _erfc_response(sc, transfer_coefficient(sc, x) + lag, t)


def interfacial_flux(sc: Scenario, x: float, t: float) -> float:
    """Heat flux density through one fracture face, W/m2, positive rock->fluid.

    The exact inverse of the face-gradient image
    (k / sqrt(alpha)) sqrt(s) (T0/s - T_f_image(x, s)):

        q = k (T0 - T_inj) exp(-a^2 / (4 t)) / sqrt(pi alpha t)

    with a = transfer_coefficient(sc, x). The x -> 0 limit is the classical
    sudden-contact flux k (T0 - T_inj) / sqrt(pi alpha t).
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    a = transfer_coefficient(sc, x)
    span = sc.rock.initial_temperature - sc.fluid.injection_temperature
    return (
        sc.rock.conductivity
        * span
        * math.exp(-a * a / (4.0 * t))
        / math.sqrt(math.pi * thermal_diffusivity(sc.rock) * t)
    )


def onset_of_decline(series: ForecastSeries, frac: float = 0.01) -> float | None:
    """Earliest time the forecast drops frac of the span below the initial
    temperature, linearly interpolated between samples; None if it never does.

    Parameters
    ----------
    series : ForecastSeries
    frac : float
        Decline fraction of (T0 - T_inj) defining "onset", in (0, 1).

    Returns
    -------
    float or None
        Crossing time in seconds.
    """
    frac = float(frac)
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in (0, 1), got {frac}")
    span = series.initial_temperature - series.injection_temperature
    threshold = series.initial_temperature - frac * span
    temps = series.outlet_temperatures
    times = series.times
    below = np.nonzero(temps < threshold)[0]
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(times[0])
    t_lo, t_hi = times[i - 1], times[i]
    f_lo, f_hi = temps[i - 1], temps[i]
    return float(t_lo + (threshold - f_lo) * (t_hi - t_lo) / (f_hi - f_lo))


def thermal_power(sc: Scenario, T_out: float) -> float:
    """Instantaneous thermal power of the produced stream, W.

    rho_f c_f Q (T_out - T_inj) over the total circulation rate.
    """
    return (
        sc.fluid.density
        * sc.fluid.specific_heat
        * sc.operating.total_rate
        * (float(T_out) - sc.fluid.injection_temperature)
    )

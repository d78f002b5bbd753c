"""Closed-form solutions for fracture-fluid heat extraction.

The core result: for quasi-steady flow between parallel faces of a
semi-infinite conducting half-space, the produced-fluid temperature is

    T_f(x, t) = T0 + (T_inj - T0) erfc(a(x) / (2 sqrt(t)))

with a(x) the scenario's transfer coefficient. Around it sit the rock
temperature field it implies, the interfacial heat flux, the method-of-images
Green's function the derivation rests on, classical continuous point and
line sources, and the thermal-radius bookkeeping used for spacing design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import specfun
from .laplace import StehfestConfig, fluid_temp_laplace, stehfest_invert
from .scenario import Scenario, thermal_diffusivity, transfer_coefficient
from .units import SECONDS_PER_YEAR

__all__ = [
    "InterferenceRow",
    "ForecastSeries",
    "MODEL_TAGS",
    "greens_semi_infinite",
    "rock_temp_initial",
    "rock_temp",
    "fluid_temp_single",
    "interfacial_flux",
    "point_source_dT",
    "line_source_dT",
    "thermal_radius",
    "time_to_radius",
    "interference_table",
    "onset_of_decline",
    "thermal_power",
]

MODEL_TAGS = ("single", "gringarten_ref", "multi_slab", "oracle")

# erfc argument beyond which the produced temperature is the initial
# temperature to double precision
_ERFC_SATURATION = 6.0


@dataclass(frozen=True)
class InterferenceRow:
    """One spacing's worth of thermal-front bookkeeping.

    radius_m is the front's reach sqrt(4 alpha t); interference_time_yr is
    half the full-traversal time (the moment fronts advancing from both
    neighbours meet), and interference_radius_m is half the spacing.
    """

    radius_m: float
    time_yr: float
    interference_time_yr: float
    interference_radius_m: float


@dataclass(frozen=True)
class ForecastSeries:
    """A produced-temperature time series from one model.

    times are seconds, strictly increasing; temperatures are bounded by the
    injection and initial temperatures (a tiny rounding slack is allowed).
    """

    model: str
    times: np.ndarray
    outlet_temperatures: np.ndarray
    injection_temperature: float
    initial_temperature: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        temps = np.asarray(self.outlet_temperatures, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "outlet_temperatures", temps)
        if self.model not in MODEL_TAGS:
            raise ValueError(f"model must be one of {MODEL_TAGS}, got {self.model!r}")
        if times.ndim != 1 or temps.shape != times.shape:
            raise ValueError("times and outlet_temperatures must be 1-D and equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        span = self.initial_temperature - self.injection_temperature
        slack = 1e-9 * abs(span)
        if temps.size and (
            temps.min() < self.injection_temperature - slack
            or temps.max() > self.initial_temperature + slack
        ):
            raise ValueError(
                "outlet temperatures must lie between the injection and initial "
                f"temperatures [{self.injection_temperature}, {self.initial_temperature}]"
            )


def greens_semi_infinite(y: float, t: float, y_src: float, tau: float, alpha: float) -> float:
    """Half-space heat kernel with a zero-temperature boundary at y = 0.

    Method of images: the free-space Gaussian minus its mirror,

        G = (4 pi alpha (t - tau))^(-1/2)
            [exp(-(y - y_src)^2 / (4 alpha (t - tau)))
             - exp(-(y + y_src)^2 / (4 alpha (t - tau)))]

    Vanishes identically at y = 0 and for t <= tau (causality). Units 1/m.
    """
    y, y_src = float(y), float(y_src)
    if y < 0.0 or y_src < 0.0:
        raise ValueError(f"coordinates must be >= 0, got y={y}, y_src={y_src}")
    dt = float(t) - float(tau)
    if dt <= 0.0:
        return 0.0
    spread = 4.0 * alpha * dt
    direct = math.exp(-((y - y_src) ** 2) / spread)
    mirror = math.exp(-((y + y_src) ** 2) / spread)
    return (direct - mirror) / math.sqrt(math.pi * spread)


def rock_temp_initial(y: float, t: float, T0: float, alpha: float) -> float:
    """Rock temperature from the initial field alone, face held at zero.

    T0 erf(y / (2 sqrt(alpha t))): the undisturbed interior relaxing against
    a cold boundary, before any fluid-history contribution is added back.
    """
    y = float(y)
    t = float(t)
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    return T0 * specfun.erf(y / (2.0 * math.sqrt(alpha * t)))


def fluid_temp_single(sc: Scenario, x: float, t: float) -> float:
    """Produced-fluid temperature for a fracture against semi-infinite rock.

    T0 + (T_inj - T0) erfc(a / (2 sqrt(t))) with a = transfer_coefficient(sc, x);
    identically T_inj + (T0 - T_inj) erf of the same argument. Returns the
    initial temperature at t = 0 and whenever the argument has saturated
    (a / (2 sqrt(t)) >= 6): the thermal front has not yet reached the outlet.

    Parameters
    ----------
    sc : Scenario
    x : float
        Along-fracture distance, 0 <= x <= flow_length, m.
    t : float
        Time since circulation start, s, >= 0.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    t_hot = sc.rock.initial_temperature
    if t == 0.0:
        return t_hot
    a = transfer_coefficient(sc, x)
    z = a / (2.0 * math.sqrt(t))
    if z >= _ERFC_SATURATION:
        return t_hot
    return t_hot + (sc.fluid.injection_temperature - t_hot) * specfun.erfc(z)


def rock_temp(y: float, t: float, sc: Scenario, x: float) -> float:
    """Rock temperature at depth y into the face, at station x and time t.

    Superposes the relaxing initial field and the convolution of the fluid
    history with the half-space boundary kernel. Substituting
    w = y / (2 sqrt(alpha (t - tau))) turns the (t - tau)^(-3/2) kernel into
    a plain Gaussian weight:

        T_r = T0 erf(eta) + (2/sqrt(pi)) * integral_eta^inf
              T_f(x, t - y^2/(4 alpha w^2)) exp(-w^2) dw,   eta = y/(2 sqrt(alpha t))

    evaluated by adaptive quadrature to 1e-8 relative. At y = 0 the fluid
    temperature itself is returned (the coupling boundary condition).

    Raises
    ------
    ArithmeticError
        If the quadrature does not converge; the achieved error estimate is
        reported.
    """
    y = float(y)
    t = float(t)
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if y == 0.0:
        return fluid_temp_single(sc, x, t)

    alpha = thermal_diffusivity(sc.rock)
    t_hot = sc.rock.initial_temperature
    eta = y / (2.0 * math.sqrt(alpha * t))
    if eta >= 8.0:
        # farther than the front has diffused; avoid quadrature on a
        # numerically zero integrand
        return t_hot

    from scipy.integrate import quad  # imported here: SciPy costs ~0.6 s at CLI start

    y_sq_over_4a = y * y / (4.0 * alpha)

    def integrand(w: float) -> float:
        tau_lag = t - y_sq_over_4a / (w * w)
        return fluid_temp_single(sc, x, tau_lag) * math.exp(-w * w) * 2.0 / math.sqrt(math.pi)

    value, abserr = quad(integrand, eta, np.inf, epsabs=1e-10 * t_hot, epsrel=1e-8, limit=200)
    if abserr > max(1e-6, 1e-6 * abs(value)):
        raise ArithmeticError(
            f"rock temperature quadrature did not converge at (y={y}, t={t}): "
            f"achieved error estimate {abserr:.3g}"
        )
    return t_hot * specfun.erf(eta) + value


def interfacial_flux(sc: Scenario, x: float, t: float) -> float:
    """Heat flux density through one fracture face, W/m2, positive rock->fluid.

    Inverted from the transform domain: the face-gradient image
    (k / sqrt(alpha)) sqrt(s) (T0/s - T_f_image(x, s)), built on
    :func:`egstherm.laplace.fluid_temp_laplace`. The x -> 0 limit reproduces
    the classical sudden-contact flux k (T0 - T_inj) / sqrt(pi alpha t).
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    alpha = thermal_diffusivity(sc.rock)
    conductivity = sc.rock.conductivity
    t_hot = sc.rock.initial_temperature
    temp_image = fluid_temp_laplace(sc, x)

    def flux_image(s):
        return (conductivity / math.sqrt(alpha)) * np.sqrt(s) * (t_hot / s - temp_image(s))

    return stehfest_invert(flux_image, t, StehfestConfig())


def point_source_dT(P: float, r: float, t: float, k: float, alpha: float) -> float:
    """Temperature rise at distance r from a continuous point source of power P.

    P / (4 pi k r) * erfc(r / (2 sqrt(alpha t))): transient approach to the
    steady conduction field. Singular at r = 0, which is rejected.
    """
    r = float(r)
    t = float(t)
    if not r > 0.0:
        raise ValueError(f"r must be > 0 (the source point is singular), got {r}")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    return P / (4.0 * math.pi * k * r) * specfun.erfc(r / (2.0 * math.sqrt(alpha * t)))


def line_source_dT(q_l: float, r1: float, r2: float, t: float, k: float, alpha: float) -> float:
    """Temperature rise from a continuous line source and its image line.

    q_l / (4 pi k) * [E1(r1^2 / 4 alpha t) + E1(r2^2 / 4 alpha t)] for the
    two perpendicular distances; coincident distances double the single term.
    """
    r1 = float(r1)
    r2 = float(r2)
    t = float(t)
    if not (r1 > 0.0 and r2 > 0.0):
        raise ValueError(f"line-source distances must be > 0, got r1={r1}, r2={r2}")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    denom = 4.0 * alpha * t
    return (
        q_l
        / (4.0 * math.pi * k)
        * (specfun.exp_integral_e1(r1 * r1 / denom) + specfun.exp_integral_e1(r2 * r2 / denom))
    )


def thermal_radius(t: float, alpha: float) -> float:
    """Reach of a cooling front after time t: sqrt(4 alpha t), m."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    return math.sqrt(4.0 * alpha * t)


def time_to_radius(r: float, alpha: float) -> float:
    """Time for the front to reach distance r: r^2 / (4 alpha), s."""
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"r must be > 0, got {r}")
    return r * r / (4.0 * alpha)


def interference_table(spacings: Sequence[float], alpha: float) -> list[InterferenceRow]:
    """Front-traversal and interference times for candidate fracture spacings.

    Per spacing s: the traversal time t(s) = time_to_radius(s), the
    interference time t_i = t(s)/2 (fronts advance from both neighbours),
    and the interference radius s/2. Times reported in 365-day years.
    """
    rows = []
    for spacing in spacings:
        spacing = float(spacing)
        if not spacing > 0.0:
            raise ValueError(f"spacings must be > 0, got {spacing}")
        t_yr = time_to_radius(spacing, alpha) / SECONDS_PER_YEAR
        rows.append(
            InterferenceRow(
                radius_m=spacing,
                time_yr=t_yr,
                interference_time_yr=t_yr / 2.0,
                interference_radius_m=spacing / 2.0,
            )
        )
    return rows


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

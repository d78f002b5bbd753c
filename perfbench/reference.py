"""Independent references for the values egstherm prints.

Nothing here imports egstherm. The physics is restated from the scenario
JSON and the model equations, so a fault in the package's parameter handling
shows as a mismatch instead of cancelling out:

* the slab transform is inverted by mpmath's fixed Talbot contour at 30
  digits (Abate & Valko 2004), not by Gaver-Stehfest;
* the isolated fracture uses the closed form with ``math.erfc``;
* ``table2`` rows follow s^2 / (4 alpha) in 365-day years;
* ``convert`` uses the exact barrel, 42 US gallons of 231 in^3 with
  1 in = 0.0254 m, i.e. 0.158987294928 m^3.
"""

from __future__ import annotations

import math

import mpmath

SECONDS_PER_YEAR = 365.0 * 86400.0
BARREL_M3 = 42 * 231 * 0.0254**3
TALBOT_DIGITS = 30

# SI factor of each unit tag the benchmark converts
UNIT_SI = {
    "m3_per_s": 1.0,
    "bpd": BARREL_M3 / 86400.0,
}


def diffusivity(sc: dict) -> float:
    rock = sc["rock"]
    return rock["conductivity"] / (rock["density"] * rock["specific_heat"])


def _coupling(sc: dict) -> float:
    """faces k / (rho_f c_f v b), with v the mean velocity in one fracture."""
    fr, fl = sc["fractures"], sc["fluid"]
    velocity = (sc["operating"]["total_rate"] / fr["count"]) / (fr["aperture"] * fr["height"])
    return fr["faces"] * sc["rock"]["conductivity"] / (
        fl["density"] * fl["specific_heat"] * velocity * fr["aperture"]
    )


def span(sc: dict) -> float:
    return sc["rock"]["initial_temperature"] - sc["fluid"]["injection_temperature"]


def isolated_outlet(sc: dict, t: float) -> float:
    """Outlet of one fracture against semi-infinite rock, closed form."""
    t_hot = sc["rock"]["initial_temperature"]
    if t == 0.0:
        return t_hot
    a = _coupling(sc) * sc["fractures"]["flow_length"] / math.sqrt(diffusivity(sc))
    return t_hot - span(sc) * math.erfc(a / (2.0 * math.sqrt(t)))


def slab_outlet(sc: dict, times) -> list[float]:
    """Outlet of an interior array fracture: the slab image
    exp(-L c sqrt(s/alpha) tanh(d sqrt(s/alpha))) / s inverted at 30 digits."""
    alpha = diffusivity(sc)
    length_coupling = _coupling(sc) * sc["fractures"]["flow_length"]
    half_spacing = sc["fractures"]["spacing"] / 2.0
    t_hot = sc["rock"]["initial_temperature"]
    width = span(sc)
    out = []
    with mpmath.workdps(TALBOT_DIGITS):
        alpha_mp = mpmath.mpf(alpha)

        def image(s):
            root = mpmath.sqrt(s / alpha_mp)
            return mpmath.exp(-length_coupling * root * mpmath.tanh(half_spacing * root)) / s

        for t in times:
            fraction = mpmath.invertlaplace(image, mpmath.mpf(t), method="talbot")
            out.append(t_hot - width * float(fraction))
    return out


def table2_row(spacing: float, alpha: float) -> tuple[float, float, float, float]:
    """(radius m, traversal yr, interference yr, interference radius m)."""
    t_yr = spacing * spacing / (4.0 * alpha) / SECONDS_PER_YEAR
    return spacing, t_yr, t_yr / 2.0, spacing / 2.0


def convert(value: float, src: str, dst: str) -> float:
    return value * UNIT_SI[src] / UNIT_SI[dst]


def half_ulp6(exact: float) -> float:
    """Largest distance of the exact value from its correct rounding to 6
    significant digits, plus a little slack for the last float bit."""
    if exact == 0.0:
        return 0.0
    return 0.5e-5 * 10.0 ** math.floor(math.log10(abs(exact))) * (1.0 + 1e-6)

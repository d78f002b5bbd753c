"""Walk through the closed-form life of one fracture.

The bundled granite case, collapsed to a single fracture carrying the
whole 0.144 m3/s: when does the outlet start to cool, how fast does it
fall, and what does the adjacent rock look like along the way?
"""

import numpy as np

from egstherm.analytic import interfacial_flux, onset_of_decline, rock_temp, thermal_power
from egstherm.laplace import multi_fracture_forecast
from egstherm.scenario import bundled_scenario, collapse_to_single, transfer_coefficient
from egstherm.units import SECONDS_PER_YEAR as YR


def main():
    sc = collapse_to_single(bundled_scenario("valles_caldera"))
    x = sc.fractures.flow_length

    print("One fracture, full flow, semi-infinite granite on one side.")
    print(f"transfer coefficient a(x=L) = {transfer_coefficient(sc, x):.1f} s^0.5")
    print()

    times = np.geomspace(0.01, 50.0, 12) * YR
    # one fracture: the forecast is the closed form at the outlet
    series = multi_fracture_forecast(sc, times)
    print(" t [yr]   outlet [C]   face flux [W/m2]   power [MW]")
    for t, temp in zip(times, series.outlet_temperatures):
        flux = interfacial_flux(sc, x, float(t))
        power = thermal_power(sc, temp) / 1e6
        print(f"{t / YR:7.2f}   {temp:10.2f}   {flux:16.1f}   {power:10.1f}")

    onset = onset_of_decline(series, frac=0.01)
    print()
    print(f"outlet first drops 1% of span at ~{onset / YR:.2f} yr")

    print()
    print("rock beside the outlet after 10 years (distance into the wall):")
    for y in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        print(f"  y = {y:5.1f} m   T = {rock_temp(y, 10.0 * YR, sc, x):7.2f} C")


if __name__ == "__main__":
    main()

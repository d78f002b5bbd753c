"""Pick a fracture spacing before neighbours start stealing heat.

Two views of the same question: the diffusion-length table (when does a
cooling front reach a neighbour?) and the slab forecast (what does the
outlet actually do once the midplane between fractures goes cold?).
"""

import dataclasses

import numpy as np

from egstherm.analytic import fluid_temp_single, onset_of_decline
from egstherm.laplace import multi_fracture_forecast
from egstherm.scenario import bundled_scenario, interference_table, thermal_diffusivity
from egstherm.units import SECONDS_PER_YEAR as YR


def main():
    sc = bundled_scenario("valles_caldera")
    alpha = thermal_diffusivity(sc.rock)

    print("Front-spreading view: time for a front to cross the spacing,")
    print("and the (halved) first-interaction estimate.")
    print(" spacing [m]   reach [yr]   interact [yr]")
    for row in interference_table(np.arange(10.0, 90.0, 10.0), alpha):
        print(f"{row.radius_m:12.0f}   {row.time_yr:10.2f}   {row.interference_time_yr:13.2f}")

    print()
    print("Forecast view: ten parallel fractures, 50-year outlet and the")
    print("onset of a 1% decline, as spacing varies.")
    times = np.geomspace(0.1, 50.0, 120) * YR
    print(" spacing [m]   T(50 yr) [C]   onset [yr]")
    for spacing in (20.0, 40.0, 60.0, 80.0):
        spaced = dataclasses.replace(
            sc, fractures=dataclasses.replace(sc.fractures, spacing=spacing)
        )
        series = multi_fracture_forecast(spaced, times)
        onset = onset_of_decline(series, frac=0.01)
        onset_txt = f"{onset / YR:10.2f}" if onset is not None else "     never"
        print(f"{spacing:12.0f}   {series.outlet_temperatures[-1]:12.2f}   {onset_txt}")

    isolated = fluid_temp_single(sc, sc.fractures.flow_length, 50.0 * YR)
    print()
    print(f"isolated member of the same array would sit at {isolated:.2f} C;")
    print("wider spacing climbs toward that ceiling.")


if __name__ == "__main__":
    main()

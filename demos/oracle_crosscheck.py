"""Check the analytics against the finite-difference reference solver.

The FD solver shares no mathematics with the closed forms (Crank-Nicolson
conduction on a stretched grid, exactly coupled to an advective fluid march),
so agreement here is a genuine cross-validation, and the refinement study
shows the scheme's second order.
"""

import dataclasses
import time

import numpy as np

from egstherm.analytic import fluid_temp_single
from egstherm.laplace import multi_fracture_forecast
from egstherm.oracle import convergence_study, fd_simulate, semi_infinite_grid, slab_grid
from egstherm.scenario import bundled_scenario, collapse_to_single
from egstherm.units import SECONDS_PER_YEAR as YR


def main():
    base = bundled_scenario("valles_caldera")
    single = collapse_to_single(base)
    x = single.fractures.flow_length

    probes = np.geomspace(1.0, 50.0, 8) * YR
    grid = semi_infinite_grid(single, nx=80, ny=160, n_steps=800)
    t0 = time.perf_counter()
    series = fd_simulate(single, grid, probes)
    print(f"semi-infinite run ({grid.nx}x{grid.ny}, {800} steps, "
          f"{time.perf_counter() - t0:.2f} s):")
    print(" t [yr]   FD [C]     closed [C]   diff [C]")
    closed_form = fluid_temp_single(single, x, probes)
    for t, fd, closed in zip(probes, series.outlet_temperatures, closed_form):
        print(f"{t / YR:7.2f}   {fd:8.3f}   {closed:10.3f}   {fd - closed:+8.4f}")

    print()
    print("grid refinement, max error against the closed form:")
    coarse = dataclasses.replace(
        semi_infinite_grid(single, nx=24, ny=48, n_steps=250), ratio=1.05
    )
    study = convergence_study(single, coarse, levels=3)
    for factor, err in study.rows:
        print(f"  x{factor:<2d} resolution: {err:.4f} C")
    print(f"  observed order {study.observed_order:.2f}")

    print()
    print("slab mode (ten fractures, 40 m spacing) against the transform engine:")
    probes = np.array([10.0, 25.0, 50.0]) * YR
    series, details = fd_simulate(
        base, slab_grid(base, nx=80, ny=160, n_steps=800), probes, return_details=True
    )
    engine = multi_fracture_forecast(base, probes).outlet_temperatures
    print(" t [yr]   FD [C]     engine [C]   diff [C]")
    for t, fd, en in zip(probes, series.outlet_temperatures, engine):
        print(f"{t / YR:7.2f}   {fd:8.3f}   {en:10.3f}   {fd - en:+8.4f}")
    print(f"energy closure (fluid enthalpy vs rock deficit): "
          f"{details.energy_imbalance:.2e} relative")


if __name__ == "__main__":
    main()

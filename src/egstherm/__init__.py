"""Produced-fluid temperature forecasting for fractured geothermal reservoirs.

Closed-form conjugate heat-transfer solutions for single fractures,
a finite-slab interference model for equidistant fracture arrays driven
by Gaver-Stehfest transform inversion, and an independent finite-difference
oracle that cross-validates both.

The names below are loaded on first use: ``egstherm.fd_simulate`` imports
``egstherm.oracle`` (and with it NumPy) only when it is first read, so a
caller that needs only the scenario or unit tools never pays for the solvers.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    "ForecastSeries": "analytic",
    "InterferenceRow": "scenario",
    "fluid_temp_single": "analytic",
    "interfacial_flux": "analytic",
    "interference_table": "scenario",
    "onset_of_decline": "analytic",
    "rock_temp": "analytic",
    "thermal_power": "analytic",
    "time_to_radius": "scenario",
    "StehfestConfig": "laplace",
    "fluid_temp_laplace": "laplace",
    "fluid_temp_laplace_slab": "laplace",
    "fluid_drop_laplace_slab": "laplace",
    "multi_fracture_forecast": "laplace",
    "stehfest_invert": "laplace",
    "ConvergenceStudy": "oracle",
    "OracleGrid": "oracle",
    "convergence_study": "oracle",
    "fd_simulate": "oracle",
    "semi_infinite_grid": "oracle",
    "slab_grid": "oracle",
    "FluidProperties": "scenario",
    "FractureArray": "scenario",
    "Operating": "scenario",
    "RockProperties": "scenario",
    "Scenario": "scenario",
    "ScenarioError": "scenario",
    "bundled_scenario": "scenario",
    "bundled_scenario_path": "scenario",
    "fracture_velocity": "scenario",
    "load_scenario": "scenario",
    "scenario_from_dict": "scenario",
    "thermal_diffusivity": "scenario",
    "transfer_coefficient": "scenario",
    "validate": "scenario",
    "SECONDS_PER_YEAR": "units",
    "convert_value": "units",
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})

"""Produced-fluid temperature forecasting for fractured geothermal reservoirs.

Closed-form conjugate heat-transfer solutions for single fractures,
a finite-slab interference model for equidistant fracture arrays driven
by Gaver-Stehfest transform inversion, and an independent finite-difference
oracle that cross-validates both.
"""

from .analytic import (
    ForecastSeries,
    InterferenceRow,
    fluid_temp_single,
    interfacial_flux,
    interference_table,
    onset_of_decline,
    rock_temp,
    thermal_power,
    time_to_radius,
)
from .laplace import (
    StehfestConfig,
    fluid_temp_laplace,
    fluid_temp_laplace_slab,
    multi_fracture_forecast,
    stehfest_invert,
)
from .oracle import (
    ConvergenceStudy,
    OracleGrid,
    convergence_study,
    fd_simulate,
    semi_infinite_grid,
    slab_grid,
)
from .scenario import (
    FluidProperties,
    FractureArray,
    Operating,
    RockProperties,
    Scenario,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_path,
    fracture_velocity,
    load_scenario,
    scenario_from_dict,
    thermal_diffusivity,
    transfer_coefficient,
    validate,
)
from .units import SECONDS_PER_YEAR, Quantity, convert, convert_value

__version__ = "0.1.0"

__all__ = [
    "ForecastSeries",
    "InterferenceRow",
    "fluid_temp_single",
    "interfacial_flux",
    "interference_table",
    "onset_of_decline",
    "rock_temp",
    "thermal_power",
    "time_to_radius",
    "StehfestConfig",
    "fluid_temp_laplace",
    "fluid_temp_laplace_slab",
    "multi_fracture_forecast",
    "stehfest_invert",
    "ConvergenceStudy",
    "OracleGrid",
    "convergence_study",
    "fd_simulate",
    "semi_infinite_grid",
    "slab_grid",
    "FluidProperties",
    "FractureArray",
    "Operating",
    "RockProperties",
    "Scenario",
    "ScenarioError",
    "bundled_scenario",
    "bundled_scenario_path",
    "fracture_velocity",
    "load_scenario",
    "scenario_from_dict",
    "thermal_diffusivity",
    "transfer_coefficient",
    "validate",
    "SECONDS_PER_YEAR",
    "Quantity",
    "convert",
    "convert_value",
    "__version__",
]

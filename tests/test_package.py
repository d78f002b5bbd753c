"""The package namespace: every public name, each loaded on first use."""

import importlib
import json

import pytest

import egstherm
import egstherm.units

from conftest import fresh_python


def test_every_public_name_is_the_defining_modules_object():
    assert set(egstherm.__all__) <= set(dir(egstherm))
    assert egstherm.SECONDS_PER_YEAR is egstherm.units.SECONDS_PER_YEAR
    for name in set(egstherm.__all__) - {"__version__", "SECONDS_PER_YEAR"}:
        value = getattr(egstherm, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from egstherm import *", namespace)
    assert [name for name in egstherm.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(egstherm, name) for name in egstherm.__all__)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'egstherm' has no attribute 'no_such_name'"):
        egstherm.no_such_name


def test_bare_import_loads_no_numpy():
    out = fresh_python("import json, sys, egstherm\nprint(json.dumps(sorted(sys.modules)))")
    modules = json.loads(out)
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("egstherm.")] == []


def test_closed_forms_load_no_oracle_or_scipy():
    # every closed-form entry point and the slab forecast run without the
    # finite-difference oracle
    out = fresh_python(
        "import json, sys, numpy as np, egstherm\n"
        "sc = egstherm.bundled_scenario('valles_caldera')\n"
        "L, yr = sc.fractures.flow_length, egstherm.SECONDS_PER_YEAR\n"
        "T0, T_inj = sc.rock.initial_temperature, sc.fluid.injection_temperature\n"
        "times = np.geomspace(0.1, 50.0, 40) * yr\n"
        "assert T_inj < egstherm.rock_temp(2.0, 10.0 * yr, sc, L) < T0\n"
        "assert egstherm.interfacial_flux(sc, L, 10.0 * yr) > 0.0\n"
        "assert egstherm.interference_table([10.0], egstherm.thermal_diffusivity(sc.rock))\n"
        "assert egstherm.thermal_power(sc, T0) > 0.0\n"
        "outlet = egstherm.fluid_temp_single(sc, L, times)\n"
        "series = egstherm.ForecastSeries('single', times, outlet, T_inj, T0)\n"
        "assert egstherm.onset_of_decline(series) is not None\n"
        "assert egstherm.multi_fracture_forecast(sc, times).outlet_temperatures.size == 40\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    modules = json.loads(out)
    assert [m for m in modules if m == "egstherm.oracle" or m.split(".")[0] == "scipy"] == []

"""Field-unit bookkeeping: the same scenario in both unit systems.

The bundled files store SI; the numbers the field crew quotes are feet,
inches, barrels per day, and calorie-based rock properties. This round
trip shows the registry covering every pair that appears in the bundled
cases, then rebuilds a scenario from field-unit inputs.
"""

import json

from egstherm.scenario import bundled_scenario, bundled_scenario_path, scenario_from_dict
from egstherm.units import convert_value


def main():
    sc = bundled_scenario("valles_caldera")
    rows = [
        ("fracture height", sc.fractures.height, "m", "ft"),
        ("fracture aperture", sc.fractures.aperture, "m", "in"),
        ("total rate", sc.operating.total_rate, "m3_per_s", "bpd"),
        ("rock conductivity", sc.rock.conductivity, "W_per_mC", "cal_per_cm_s_C"),
        ("rock density", sc.rock.density, "kg_per_m3", "g_per_cm3"),
        ("rock specific heat", sc.rock.specific_heat, "J_per_kgC", "cal_per_gC"),
        ("horizon", sc.operating.horizon, "s", "yr"),
    ]
    print("granite benchmark case, SI <-> field:")
    for label, value, si, field in rows:
        converted = convert_value(value, si, field)
        back = convert_value(converted, field, si)
        print(f"  {label:20s} {value:14.6g} {si:14s} = {converted:12.6g} {field}"
              f"   (back: {back:.6g})")

    print()
    print("building a scenario straight from field-unit numbers:")
    field_case = {
        "rock": {
            "conductivity": convert_value(0.0062, "cal_per_cm_s_C", "W_per_mC"),
            "density": convert_value(2.65, "g_per_cm3", "kg_per_m3"),
            "specific_heat": convert_value(0.25, "cal_per_gC", "J_per_kgC"),
            "initial_temperature": 300.0,
        },
        "fluid": {
            "density": 1000.0,
            "specific_heat": convert_value(1.0, "cal_per_gC", "J_per_kgC"),
            "injection_temperature": 65.0,
        },
        "fractures": {
            "count": 10,
            "aperture": convert_value(0.05, "in", "m"),
            "height": convert_value(3280.0, "ft", "m"),
            "flow_length": convert_value(3280.0, "ft", "m"),
            "spacing": 40.0,
            "faces": 2,
        },
        "operating": {
            "total_rate": convert_value(78294.0, "bpd", "m3_per_s"),
            "horizon": convert_value(50.0, "yr", "s"),
        },
    }
    rebuilt = scenario_from_dict(field_case)
    bundled = json.loads(bundled_scenario_path("valles_caldera").read_text())
    print(f"  rebuilt conductivity {rebuilt.rock.conductivity} "
          f"(bundled {bundled['rock']['conductivity']})")
    print(f"  rebuilt height {rebuilt.fractures.height} "
          f"(bundled {bundled['fractures']['height']})")
    print(f"  rebuilt rate {rebuilt.operating.total_rate:.6f} "
          f"(bundled {bundled['operating']['total_rate']}, printed figure was rounded)")


if __name__ == "__main__":
    main()

"""End-to-end acceptance gates, one test per criterion.

Each test prints a single verdict line (visible in failure output and with
-rA) and then asserts it. Tolerances are stated inline next to each gate.

Known red: the 1/(s+1) inversion at t = 10 in criterion 5. The requested
1e-6 relative accuracy is out of reach for this transform family at that
point for every admissible term count; the verdict line carries the best
achievable figure. The gate is kept as stated rather than loosened.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from egstherm.analytic import fluid_temp_single, onset_of_decline
from egstherm.cli import main
from egstherm.laplace import (
    StehfestConfig,
    fluid_temp_laplace,
    multi_fracture_forecast,
    stehfest_invert,
)
from egstherm.oracle import convergence_study, fd_simulate, semi_infinite_grid, slab_grid
from egstherm.scenario import (
    bundled_scenario_path,
    collapse_to_single,
    interference_table,
    thermal_diffusivity,
)
from egstherm.units import SECONDS_PER_YEAR as YR, convert_value

from conftest import with_total_rate

L = 999.744
SPAN = 235.0  # initial rock minus injection temperature, both sites

# Published interference table: spacing, reach time, first-interaction time.
PRINTED_TABLE = [
    (10.0, 0.847, 0.424),
    (20.0, 3.388, 1.694),
    (30.0, 7.624, 3.812),
    (40.0, 13.553, 6.777),
    (50.0, 21.177, 10.589),
    (60.0, 30.495, 15.248),
    (70.0, 41.507, 20.754),
    (80.0, 54.214, 27.107),
]


def _verdict(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_interference_table(valles):
    t0 = time.perf_counter()
    alpha = thermal_diffusivity(valles.rock)
    rows = interference_table([r[0] for r in PRINTED_TABLE], alpha)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for row, (spacing, t_printed, ti_printed) in zip(rows, PRINTED_TABLE):
        assert row.radius_m == spacing
        assert row.interference_radius_m == spacing / 2.0
        worst = max(
            worst,
            abs(row.time_yr - t_printed) / t_printed,
            abs(row.interference_time_yr - ti_printed) / ti_printed,
        )
    ok = worst <= 5e-3 and elapsed < 1.0
    _verdict(1, ok, f"all 8 rows within {worst:.2e} relative (gate 5e-3), "
                    f"radii exact, {elapsed * 1e3:.1f} ms")


def test_criterion_02_single_fracture_anchor(valles_single):
    got = fluid_temp_single(valles_single, L, 50.0 * YR)
    ok = abs(got - 80.0) <= 1.0
    _verdict(2, ok, f"isolated fracture 50 yr outlet {got:.3f} C (gate 80 +- 1 C)")


def test_criterion_03_two_face_reference_anchor(valles_gringarten):
    got = fluid_temp_single(valles_gringarten, L, 50.0 * YR)
    ok = abs(got - 94.0) <= 1.5
    _verdict(3, ok, f"two-face reference 50 yr outlet {got:.3f} C (gate 94 +- 1.5 C)")


def test_criterion_04_transform_self_consistency(valles, zeinali):
    t0 = time.perf_counter()
    budget = 1e-3 * SPAN
    worst = 0.0
    for sc in (valles, zeinali):
        single = collapse_to_single(sc, faces=1)
        x = single.fractures.flow_length
        times = np.geomspace(0.01, 50.0, 50) * YR
        inverted = stehfest_invert(fluid_temp_laplace(single, x), times)
        closed = fluid_temp_single(single, x, times)
        worst = max(worst, float(np.max(np.abs(inverted - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= budget and elapsed < 1.0
    _verdict(4, ok, f"both sites, 50 log-spaced times: max |inverted - closed| "
                    f"{worst:.2e} C (gate {budget:.3f} C), {elapsed * 1e3:.0f} ms")


def test_criterion_05_inversion_unit_transforms():
    cases = [
        ("1/s", lambda s: 1.0 / s, lambda t: 1.0),
        ("1/s^2", lambda s: 1.0 / (s * s), lambda t: t),
        ("1/(s+1)", lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
    ]
    report = []
    ok = True
    for name, image, exact in cases:
        worst_rel, worst_t = -1.0, 0.1
        for t in (0.1, 1.0, 10.0):
            best = math.inf
            for n in range(6, 21, 2):
                got = stehfest_invert(image, t, StehfestConfig(n_terms=n))
                best = min(best, abs(got - exact(t)) / abs(exact(t)))
            if best > worst_rel:
                worst_rel, worst_t = best, t
        report.append(f"{name}: worst {worst_rel:.2e} at t={worst_t:g}")
        ok = ok and worst_rel <= 1e-6
    _verdict(5, ok, "; ".join(report) + " (gate 1e-6 relative each)")


def test_criterion_06_slab_limit_properties(valles):
    times = np.geomspace(valles.operating.horizon / 1e4, valles.operating.horizon, 200)
    # (a) an effectively unbounded slab reproduces the isolated curve
    unbounded = dataclasses.replace(
        valles, fractures=dataclasses.replace(valles.fractures, spacing=1e6)
    )
    wide = multi_fracture_forecast(unbounded, times).outlet_temperatures
    isolated = fluid_temp_single(valles, L, times)
    limit_gap = float(np.max(np.abs(wide - isolated)))
    # (b) any finite slab sits at or below the isolated curve; 0.05 C
    # covers the inversion's measured noise floor (< 0.005 C)
    finite = multi_fracture_forecast(valles, times).outlet_temperatures
    excess = float(np.max(finite - isolated))
    ok = limit_gap <= 1e-3 * SPAN and excess <= 0.05
    _verdict(6, ok, f"wide-spacing gap {limit_gap:.3f} C (gate {1e-3 * SPAN:.3f}); "
                    f"finite slab excess over isolated {excess:+.4f} C (noise gate 0.05)")


def test_criterion_07_oracle_semi_infinite(valles_single):
    grid = semi_infinite_grid(valles_single)
    probes = np.geomspace(0.5, 50.0, 12) * YR
    series = fd_simulate(valles_single, grid, probes)
    reference = fluid_temp_single(valles_single, L, probes)
    dev = float(np.max(np.abs(np.asarray(series.outlet_temperatures) - reference)))
    base = dataclasses.replace(
        semi_infinite_grid(valles_single, nx=24, ny=48, n_steps=250), ratio=1.05
    )
    study = convergence_study(valles_single, base, levels=3)  # raises if non-monotone
    ok = dev <= 0.01 * SPAN and study.observed_order >= 1.5
    _verdict(7, ok, f"default grid max deviation {dev:.3f} C (gate {0.01 * SPAN:.2f}); "
                    f"error monotone over x1/x2/x4, observed order "
                    f"{study.observed_order:.2f} (gate 1.5)")


def test_criterion_08_oracle_slab(valles):
    probes = np.array([10.0, 25.0, 50.0]) * YR
    series, details = fd_simulate(valles, slab_grid(valles), probes, return_details=True)
    engine = multi_fracture_forecast(valles, probes).outlet_temperatures
    dev = float(np.max(np.abs(np.asarray(series.outlet_temperatures) - np.asarray(engine))))
    imbalance = details.energy_imbalance
    ok = dev <= 0.02 * SPAN and imbalance is not None and imbalance <= 5e-3
    _verdict(8, ok, f"slab oracle vs engine max {dev:.3f} C (gate {0.02 * SPAN:.2f}); "
                    f"energy imbalance {imbalance:.2e} (gate 5e-3)")


def test_criterion_09_qualitative_orderings(valles, zeinali):
    t50 = np.array([50.0 * YR])
    narrow = multi_fracture_forecast(valles, t50).outlet_temperatures[0]
    wide_sc = dataclasses.replace(
        valles, fractures=dataclasses.replace(valles.fractures, spacing=80.0)
    )
    wide = multi_fracture_forecast(wide_sc, t50).outlet_temperatures[0]
    isolated = fluid_temp_single(valles, L, 50.0 * YR)
    spacing_ok = narrow <= wide <= isolated
    rates = []
    for rate_bpd in (40.0, 80.0, 160.0):
        sc = with_total_rate(zeinali, 10.0 * rate_bpd * 0.158987 / 86400.0)
        rates.append(float(multi_fracture_forecast(sc, t50).outlet_temperatures[0]))
    rates_ok = rates[0] > rates[1] > rates[2]
    ok = spacing_ok and rates_ok
    _verdict(9, ok, f"50 yr: 40 m {narrow:.1f} <= 80 m {wide:.1f} <= isolated "
                    f"{isolated:.1f} C; rate sweep {rates[0]:.1f} > {rates[1]:.1f} "
                    f"> {rates[2]:.1f} C")


def test_criterion_10_anchor_deviations_reported(capsys):
    rc1 = main(["compare", "--model", "multi_slab:40", "--model", "multi_slab:80",
                "--steps", "30"])
    out1 = capsys.readouterr().out
    rc2 = main(["compare", "--scenario", str(bundled_scenario_path("zeinali")),
                "--model", "multi_slab", "--model", "single", "--steps", "30"])
    out2 = capsys.readouterr().out
    anchors_shown = all(v in out1 for v in ("165.3", "192.4", "2.6", "4.2"))
    rates_shown = "139" in out2
    labelled = out1.count("[not gated]") >= 4 and "[not gated]" in out2
    disclaimed = "never gates" in out1 and "never gates" in out2
    ok = rc1 == 0 and rc2 == 0 and anchors_shown and rates_shown and labelled and disclaimed
    _verdict(10, ok, "compare reports engine deviation from every informational "
                     "anchor, each marked [not gated], none asserted as a gate")


def test_criterion_11_unit_round_trips(tmp_path, capsys):
    pairs = [
        (999.744, "m", 3280.0, "ft"),
        (91.44, "m", 300.0, "ft"),
        (45.72, "m", 150.0, "ft"),
        (39.62, "m", 130.0, "ft"),
        (0.00127, "m", 0.05, "in"),
        (0.144, "m3_per_s", 78294.0, "bpd"),
        (2650.0, "kg_per_m3", 2.65, "g_per_cm3"),
        (1000.0, "kg_per_m3", 1.0, "g_per_cm3"),
        (1046.0, "J_per_kgC", 0.25, "cal_per_gC"),
        (4184.0, "J_per_kgC", 1.0, "cal_per_gC"),
        (2.59408, "W_per_mC", 0.0062, "cal_per_cm_s_C"),
    ]
    worst = 0.0
    for si, si_unit, field, field_unit in pairs:
        there = convert_value(si, si_unit, field_unit)
        back = convert_value(there, field_unit, si_unit)
        worst = max(worst, abs(there - field) / field, abs(back - si) / si)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["forecast", "--model", "multi_slab", "--steps", "40",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = worst <= 5e-3 and identical
    _verdict(11, ok, f"{len(pairs)} SI/field pairs round-trip within {worst:.2e} "
                     f"(gate 5e-3); repeated runs byte-identical: {identical}")

"""Command-line interface, driven in-process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egstherm
from egstherm.cli import main
from egstherm.scenario import bundled_scenario_path

FORECAST_TWO_STEPS = "time_yr,T_out_C,model\n0.005,300,single\n50,79.8373,single\n"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_convert_flow_rate(capsys):
    rc, out, err = run(capsys, "convert", "7829.4", "bpd", "m3_per_s")
    assert rc == 0 and err == ""
    assert out == "0.0144071\n"


def test_convert_length(capsys):
    rc, out, _ = run(capsys, "convert", "300", "ft", "m")
    assert rc == 0
    assert out == "91.44\n"


def test_convert_dimension_mismatch(capsys):
    rc, out, err = run(capsys, "convert", "1", "yr", "C")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "yr" in err and "C" in err


def test_forecast_two_steps_exact(capsys):
    rc, out, err = run(capsys, "forecast", "--model", "single", "--steps", "2")
    assert rc == 0 and err == ""
    assert out == FORECAST_TWO_STEPS


def test_forecast_out_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    rc, out, _ = run(capsys, "forecast", "--model", "single", "--steps", "2",
                     "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text() == FORECAST_TWO_STEPS
    assert "\r" not in target.read_bytes().decode()


def test_forecast_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "forecast", "--model", "multi_slab", "--steps", "25", "--out", str(a))
    run(capsys, "forecast", "--model", "multi_slab", "--steps", "25", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_forecast_linear_time(capsys):
    rc, out, _ = run(capsys, "forecast", "--model", "single", "--steps", "4",
                     "--linear-time")
    assert rc == 0
    times = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert times == ["12.5", "25", "37.5", "50"]


def test_forecast_multi_slab_default_spacing(capsys):
    rc, out, _ = run(capsys, "forecast", "--model", "multi_slab", "--steps", "2")
    assert rc == 0
    assert out.splitlines()[-1] == "50,204.886,multi_slab"


def test_forecast_spacing_flag_overrides(capsys):
    rc, out, _ = run(capsys, "forecast", "--model", "multi_slab", "--steps", "2",
                     "--spacing-m", "80")
    assert rc == 0
    assert out.splitlines()[-1] == "50,267.761,multi_slab"


def test_forecast_faces_flag(capsys):
    # the reference collapse keeps both faces active by default; forcing
    # one face reproduces the plain single-fracture curve
    rc, out, _ = run(capsys, "forecast", "--model", "gringarten_ref", "--steps", "2",
                     "--faces", "1")
    assert rc == 0
    assert out.splitlines()[-1] == "50,79.8373,gringarten_ref"


def test_forecast_rejects_one_step(capsys):
    rc, _, err = run(capsys, "forecast", "--steps", "1")
    assert rc == 1
    assert err.startswith("error:")


def test_forecast_bad_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rock": {}}))
    rc, _, err = run(capsys, "forecast", "--scenario", str(bad))
    assert rc == 1
    assert err.startswith("error:")


def test_forecast_missing_scenario_file(capsys):
    rc, _, err = run(capsys, "forecast", "--scenario", "/nonexistent/path.json")
    assert rc == 1
    assert err.startswith("error:")


def test_forecast_failure_leaves_no_partial_csv(tmp_path, capsys):
    # the far-tail inversion guard trips; the output file must not appear
    target = tmp_path / "tail.csv"
    rc, _, err = run(capsys, "forecast", "--model", "multi_slab", "--steps", "3",
                     "--horizon-yr", "200", "--out", str(target))
    assert rc == 1
    assert err.startswith("error:")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv", [["forecast"], ["forecast", "--model", "multi_slab"], ["oracle", "--probes", "0"]]
)
@pytest.mark.parametrize("horizon", ["inf", "nan", "1e308"])
def test_non_finite_horizon_names_the_flag(argv, horizon, capsys):
    # 1e308 yr is finite but overflows to an infinite horizon in seconds
    rc, out, err = run(capsys, *argv, "--horizon-yr", horizon)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --horizon-yr must be a finite number > 0")


def test_table2_default(capsys):
    rc, out, _ = run(capsys, "table2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "radius_m,time_yr,interference_time_yr,interference_radius_m"
    assert len(lines) == 9
    assert lines[1] == "10,0.847086,0.423543,5"
    assert lines[-1] == "80,54.2135,27.1068,40"


def test_table2_empty_spacings(capsys):
    rc, out, _ = run(capsys, "table2", "--spacings", "")
    assert rc == 0
    assert out == "radius_m,time_yr,interference_time_yr,interference_radius_m\n"


def test_table2_bad_spacings(capsys):
    rc, _, err = run(capsys, "table2", "--spacings", "40,abc")
    assert rc == 1
    assert err.startswith("error:")


def test_compare_reference_gap(capsys):
    rc, out, _ = run(capsys, "compare", "--model", "single", "--model",
                     "gringarten_ref", "--steps", "50")
    assert rc == 0
    lines = out.splitlines()
    header = "time_yr,T_single_C,T_gringarten_ref_C"
    assert header in lines
    # the report follows the CSV block on stdout; grab the final data row
    last = [l for l in lines if l.startswith("50,")][-1].split(",")
    gap = float(last[2]) - float(last[1])
    assert gap == pytest.approx(14.7445, abs=0.01)
    assert any(line.startswith("model single: onset") for line in lines)
    assert any(line.startswith("max pairwise gap:") for line in lines)
    assert any("never gates" in line for line in lines)
    assert any("none applicable" in line for line in lines)


def test_compare_requires_two_models(capsys):
    rc, _, err = run(capsys, "compare", "--model", "single")
    assert rc == 1
    assert err.startswith("error:")


def test_compare_duplicate_models_disambiguated(capsys):
    rc, out, _ = run(capsys, "compare", "--model", "single", "--model", "single",
                     "--steps", "2")
    assert rc == 0
    assert "time_yr,T_single_C,T_single_C_dup" in out.splitlines()


def test_compare_reports_array_anchors(capsys):
    rc, out, _ = run(capsys, "compare", "--model", "multi_slab:40", "--model",
                     "multi_slab:80", "--steps", "30")
    assert rc == 0
    assert out.count("[not gated]") >= 4
    for needle in ("165.3", "192.4", "2.6", "4.2"):
        assert needle in out
    assert "informational anchors" in out


def test_compare_reports_rate_anchor_for_second_site(capsys):
    rc, out, _ = run(capsys, "compare", "--scenario",
                     str(bundled_scenario_path("zeinali")), "--model",
                     "multi_slab", "--model", "single", "--steps", "30")
    assert rc == 0
    assert "139" in out
    assert "[not gated]" in out


def test_oracle_header_only(capsys):
    rc, out, _ = run(capsys, "oracle", "--nx", "16", "--ny", "16", "--nt", "60",
                     "--probes", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "time_yr,T_oracle_C,T_model_C,deviation_C"
    assert "header-only" in out


def test_oracle_small_run(capsys):
    rc, out, _ = run(capsys, "oracle", "--nx", "16", "--ny", "16", "--nt", "60",
                     "--probe-yr", "50")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "time_yr,T_oracle_C,T_model_C,deviation_C"
    row = lines[1].split(",")
    assert row[0] == "50"
    assert abs(float(row[3])) < 0.5
    assert "max deviation vs single" in out


def test_oracle_slab_rejects_y_max(capsys):
    rc, _, err = run(capsys, "oracle", "--model", "multi_slab", "--y-max", "5",
                     "--probes", "0")
    assert rc == 1
    assert "y_max" in err


def test_oracle_snapshots(tmp_path, capsys):
    prefix = tmp_path / "field"
    rc, out, _ = run(capsys, "oracle", "--nx", "16", "--ny", "16", "--nt", "60",
                     "--probes", "0", "--snapshot-yr", "10",
                     "--snapshot-out", str(prefix))
    assert rc == 0
    snap = tmp_path / "field_10yr.csv"
    assert snap.exists()
    lines = snap.read_text().splitlines()
    assert lines[0] == "x_m,y_m,T_C"
    assert len(lines) == 1 + 17 * 17


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_cli_import_loads_no_scipy():
    # SciPy takes most of a CLI call's start-up; only the finite-difference
    # oracle needs it, and imports it when it runs. The slab forecast, the
    # comparison and every closed-form entry point stay NumPy-only.
    src = str(Path(egstherm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import contextlib, io, sys, numpy as np, egstherm, egstherm.cli\n"
        "for argv in (['forecast', '--model', 'multi_slab'],\n"
        "             ['compare', '--model', 'single', '--model', 'gringarten_ref',\n"
        "              '--model', 'multi_slab']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert egstherm.cli.main(argv) == 0, argv\n"
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
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"

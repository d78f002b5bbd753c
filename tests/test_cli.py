"""Command-line interface, driven in-process through main(argv)."""

import argparse
import json
from pathlib import Path

import pytest

import egstherm.cli
from egstherm.cli import build_parser, main
from egstherm.scenario import bundled_scenario_path

from conftest import fresh_python

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


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["forecast", "--steps", "2"], "fractures.spacing must be > 0"),
        (["oracle", "--nx", "16", "--ny", "16", "--nt", "60", "--probes", "0"],
         "positive fracture spacing"),
    ],
    ids=["forecast", "oracle"],
)
def test_zero_spacing_flag_is_refused(argv, needle, capsys):
    # 0 m is a given spacing, not a missing one: it must not fall back to
    # the scenario's 40 m
    rc, out, err = run(capsys, *argv, "--model", "multi_slab", "--spacing-m", "0")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and needle in err


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


def test_table2_refuses_infinite_spacing(capsys):
    # 1e200 m is finite, but its traversal time overflows to inf years
    for spacing, rule in (("inf", "finite"), ("1e200", "small enough for a finite traversal time")):
        rc, out, err = run(capsys, "table2", "--spacings", f"40,{spacing}")
        assert rc == 1
        assert out == ""
        assert err == f"error: spacings must be {rule}, got {float(spacing)}\n"


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


SNAPSHOT_PAIR = "error: --snapshot-yr and --snapshot-out go together: give both or neither\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nt", "0"], "error: n_steps must be an integer >= 1, got 0\n"),
        (["--nt", "60", "--probes", "-3"], "error: --probes must be >= 0, got -3\n"),
        (["--nt", "60", "--probe-yr", "nan"], "error: probe times must be finite, got nan\n"),
        (["--nt", "60", "--snapshot-yr", "inf", "--snapshot-out", "snap"],
         "error: snapshot times must be finite, got inf\n"),
        (["--nt", "60", "--probes", "1", "--snapshot-yr", "2"], SNAPSHOT_PAIR),
        (["--nt", "60", "--probes", "1", "--snapshot-out", "snap"], SNAPSHOT_PAIR),
    ],
    ids=["nt-zero", "probes-negative", "probe-nan", "snapshot-inf", "snapshot-yr-alone",
         "snapshot-out-alone"],
)
def test_oracle_refuses_bad_grid_input(flags, message, capsys):
    rc, out, err = run(capsys, "oracle", "--nx", "16", "--ny", "16", *flags)
    assert rc == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--model", "multi_slab", "--steps", "2"],
        ["compare", "--model", "single", "--model", "multi_slab:80", "--steps", "2"],
        ["oracle", "--nx", "16", "--ny", "16", "--nt", "60", "--probes", "1"],
    ],
    ids=["forecast", "compare", "oracle"],
)
def test_each_call_reads_the_scenario_once(argv, monkeypatch, capsys):
    calls = []

    def counting_load(path):
        calls.append(path)
        return egstherm.load_scenario(path)

    monkeypatch.setattr(egstherm.cli, "load_scenario", counting_load)
    rc, _, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert len(calls) == 1


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


def test_compare_checks_onset_fraction_before_writing(tmp_path, capsys):
    target = tmp_path / "cmp.csv"
    rc, out, err = run(capsys, "compare", "--model", "single", "--model", "gringarten_ref",
                       "--onset-frac", "2", "--out", str(target))
    assert rc == 1
    assert out == ""
    assert err == "error: onset fraction must lie in (0, 1), got 2.0\n"
    assert not target.exists()


# every option string each subcommand accepts; a flag that its command does
# not read has no place here
CLI_SURFACE = {
    "forecast": {"--scenario", "--model", "--horizon-yr", "--steps", "--stehfest-n", "--faces",
                 "--spacing-m", "--out", "--linear-time"},
    "table2": {"--scenario", "--spacings", "--out"},
    "compare": {"--scenario", "--model", "--horizon-yr", "--steps", "--stehfest-n",
                "--onset-frac", "--faces", "--spacing-m", "--out", "--linear-time"},
    "oracle": {"--scenario", "--model", "--horizon-yr", "--stehfest-n", "--faces", "--spacing-m",
               "--out", "--nx", "--ny", "--nt", "--y-max", "--ratio", "--probes", "--probe-yr",
               "--snapshot-yr", "--snapshot-out"},
    "convert": set(),
}


def test_cli_surface_is_pinned():
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--steps", "3"],
        ["oracle", "--linear-time"],
        ["oracle", "--onset-frac", "0.1"],
        ["forecast", "--onset-frac", "0.1"],
    ],
    ids=["oracle-steps", "oracle-linear-time", "oracle-onset-frac", "forecast-onset-frac"],
)
def test_flags_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# subcommand -> (argv, modules the call loads, modules it leaves unloaded)
_IMPORT_GRAPH = {
    "convert": (["convert", "300", "ft", "m"], [], ["numpy", "egstherm.oracle", "scipy"]),
    "table2": (["table2"], [], ["numpy", "egstherm.oracle", "scipy"]),
    "forecast": (["forecast", "--model", "multi_slab"], ["numpy"], ["egstherm.oracle", "scipy"]),
    "compare": (
        ["compare", "--model", "single", "--model", "gringarten_ref", "--model", "multi_slab"],
        ["numpy"],
        ["egstherm.oracle", "scipy"],
    ),
    "oracle": (
        ["oracle", "--nx", "16", "--ny", "16", "--nt", "60", "--probes", "1"],
        ["numpy", "egstherm.oracle", "scipy"],
        [],
    ),
}


@pytest.mark.parametrize("command", list(_IMPORT_GRAPH))
def test_each_subcommand_imports_only_what_it_runs(command):
    argv, loads, leaves = _IMPORT_GRAPH[command]
    out = fresh_python(
        "import contextlib, io, json, sys, egstherm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = egstherm.cli.main({argv!r})\n"
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )
    rc, modules = json.loads(out)
    assert rc == 0
    assert [m for m in loads if m not in modules] == []
    assert [m for m in leaves if m in modules] == []

"""Command-line interface, driven in-process through main(argv)."""

import argparse
import json
import re
import warnings
from pathlib import Path

import pytest

import egstherm.cli
import egstherm.oracle
from egstherm.cli import build_parser, main
from egstherm.oracle import semi_infinite_grid, slab_grid
from egstherm.scenario import bundled_scenario, bundled_scenario_path
from egstherm.units import SECONDS_PER_YEAR

from conftest import fresh_python, python_run

FORECAST_TWO_STEPS = "time_yr,T_out_C,model\n0.005,300,single\n50,79.8373,single\n"
OVERFLOW_REFUSAL = ("error: Laplace image evaluation failed on "
                    "s=2.1979552909688777e-308..2.6375463491626532e-303: "
                    "overflow encountered in divide\n")


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


def test_convert_takes_a_negative_value_in_exponent_form(capsys):
    # argparse alone takes -1e-3 or -inf for an option and exits 2 with its usage
    assert run(capsys, "convert", "-1e-3", "ft", "in") == (0, "-0.012\n", "")
    assert run(capsys, "convert", "-Inf", "m", "ft") == (
        1, "", "error: quantity value must be finite, got -inf\n")
    assert run(capsys, "convert", "-2e-310", "m", "ft") == (
        1, "", "error: converting -2e-310 'm' to 'ft' underflows: below the normal float range\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["forecast", "--horizon-yr", "-1e3"],
         "--horizon-yr must be a finite number > 0, got -1000.0"),
        (["oracle", "--probe-yr", "-1e-5"], "probe times must be > 0 s"),
        (["oracle", "--y-max", "-1e3"], "y_max must be a finite number > 0, got -1000.0"),
        (["forecast", "--model", "multi_slab", "--spacing-m", "-1e3"],
         "invalid scenario: fractures.spacing must be > 0 when count > 1, got -1000.0"),
    ],
    ids=["horizon", "probe", "y-max", "spacing"],
)
def test_every_subcommand_takes_a_negative_value_in_exponent_form(argv, message, capsys):
    # as for convert: argparse alone takes -1e3 or -1e-5 for an option, so
    # the program's own refusal never ran
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


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


SLAB_RUNS = pytest.mark.parametrize(
    "argv",
    [["forecast", "--model", "multi_slab"],
     ["compare", "--model", "single", "--model", "multi_slab"]],
    ids=["forecast", "compare"],
)


@SLAB_RUNS
def test_non_finite_inversion_is_refused(argv, capsys):
    # at 1e300 yr the slab image overflows dividing by its subnormal samples
    rc, out, err = run(capsys, *argv, "--horizon-yr", "1e300", "--steps", "3")
    assert rc == 1
    assert out == ""
    assert err == OVERFLOW_REFUSAL


@pytest.mark.parametrize("flag", ["default", "error"])
@SLAB_RUNS
def test_non_finite_inversion_reads_alike_under_any_warnings_filter(argv, flag):
    # as a user runs it: the interpreter's own -W filter prints no
    # RuntimeWarning and picks no other refusal
    proc = python_run("-W", flag, "-m", "egstherm", *argv, "--horizon-yr", "1e300", "--steps", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == OVERFLOW_REFUSAL


def test_slab_at_a_deep_midplane_reads_the_half_space(capsys):
    # at a 1e300 m spacing tanh(d sqrt(s/alpha)) is 1 for every sample a float
    # time gives, so the image takes it as 1 and never forms the product,
    # which overflows here (and this suite turns warnings into errors)
    rc, out, err = run(capsys, "forecast", "--model", "multi_slab", "--horizon-yr", "1e-300",
                       "--spacing-m", "1e300", "--stehfest-n", "6", "--steps", "3")
    assert rc == 0 and err == ""
    assert out == ("time_yr,T_out_C,model\n1e-304,300,multi_slab\n"
                   "1e-302,300,multi_slab\n1e-300,300,multi_slab\n")


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


def test_table2_refuses_underflowed_times(capsys):
    # at 1e-160 m the interference time is subnormal, at 1e-200 m it is 0
    rule = "large enough for traversal and interference times in the normal float range"
    for spacing in ("1e-160", "1e-200"):
        rc, out, err = run(capsys, "table2", "--spacings", f"40,{spacing}")
        assert (rc, out) == (1, "")
        assert err == f"error: spacings must be {rule}, got {spacing}\n"
    rc, out, _ = run(capsys, "table2", "--spacings", "1e-150")
    assert rc == 0
    assert out.splitlines()[1] == "1e-150,8.47086e-303,4.23543e-303,5e-151"


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
CAP_PREFIX = "error: the latest probe time, "
CAP_SUFFIX = (" oracle steps from a first step of 2.628e+07 s, beyond the cap of 1000000; "
              "shorten the run or lengthen the first step (fewer n_steps)\n")
FIRST_CELL_PREFIX = "error: the first rock cell, "
FIRST_CELL_SUFFIX = (" m, is wider than the cooling front reaches by t=1.5768e+09 s (192.071 m, "
                     "5 sqrt(alpha t)); shrink y_max or the fracture spacing, or raise ny\n")
THIN_CELL_SUFFIX = (" over ny=16 cells is thinner than 7.4e-154 m, where 1/h^2 or the longest "
                    "step's alpha dt/h^2 overflows; raise y_max or the fracture spacing, lower ny "
                    "or shorten the first step\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nt", "0"], "error: n_steps must be an integer >= 1, got 0\n"),
        (["--nt", "60", "--probes", "-3"], "error: --probes must be >= 0, got -3\n"),
        # --probe-yr gives the probe times: a --probes count beside it is read by nothing
        (["--nt", "60", "--probe-yr", "10", "--probes", "3"],
         "error: --probe-yr sets the probe times, so nothing reads --probes; drop it\n"),
        (["--nt", "60", "--probe-yr", "nan"], "error: probe times must be finite, got nan\n"),
        # sorted with the NaNs last, whatever order they hash in
        (["--nt", "60", "--probe-yr", "nan", "--probe-yr", "inf", "--probe-yr", "nan"],
         "error: probe times must be finite, got inf\n"),
        (["--nt", "60", "--snapshot-yr", "inf", "--snapshot-out", "snap"],
         "error: snapshot times must be finite, got inf\n"),
        (["--nt", "60", "--probes", "1", "--snapshot-yr", "2"], SNAPSHOT_PAIR),
        (["--nt", "60", "--probes", "1", "--snapshot-out", "snap"], SNAPSHOT_PAIR),
        # refused before the run, which would otherwise be lost to the write
        (["--nt", "60", "--probes", "2", "--out", "no-such-dir/run.csv"],
         "error: --out directory 'no-such-dir' does not exist\n"),
        (["--nt", "60", "--probes", "2", "--snapshot-yr", "10", "--snapshot-out",
          "no-such-dir/snap"], "error: --snapshot-out directory 'no-such-dir' does not exist\n"),
        # non-finite geometry is refused by name before NumPy sees it
        (["--nt", "60", "--probes", "2", "--y-max", "inf"],
         "error: y_max must be a finite number > 0, got inf\n"),
        (["--nt", "60", "--probes", "2", "--model", "multi_slab", "--spacing-m", "inf"],
         "error: slab mode requires a scenario with a finite positive fracture spacing\n"),
        # a finite but far-off probe would need more steps than the oracle can hold
        (["--nt", "60", "--probe-yr", "1e300"], CAP_PREFIX + "3.1536e+307 s, takes 1.5e+299"
         + CAP_SUFFIX),
        (["--nt", "60", "--probe-yr", "1e12"], CAP_PREFIX + "3.1536e+19 s, takes 1.5e+11"
         + CAP_SUFFIX),
        # a first rock cell the cooling front never reaches by the run's end
        (["--nt", "60", "--probes", "3", "--y-max", "1e300"],
         FIRST_CELL_PREFIX + "5.1599e+298" + FIRST_CELL_SUFFIX),
        (["--nt", "60", "--probes", "3", "--y-max", "1e4"],
         FIRST_CELL_PREFIX + "515.99" + FIRST_CELL_SUFFIX),
        (["--nt", "60", "--probes", "3", "--model", "multi_slab", "--spacing-m", "1e6"],
         FIRST_CELL_PREFIX + "25799.5" + FIRST_CELL_SUFFIX),
        (["--nt", "60", "--probes", "3", "--model", "multi_slab", "--spacing-m", "1e300"],
         FIRST_CELL_PREFIX + "2.57995e+298" + FIRST_CELL_SUFFIX),
        # a first rock cell too thin for its 1/h^2 to be a float
        (["--nt", "60", "--probes", "3", "--y-max", "1e-224"],
         FIRST_CELL_PREFIX + "5.1599e-226 m, of y_max=1e-224 m" + THIN_CELL_SUFFIX),
        (["--nt", "60", "--probes", "3", "--model", "multi_slab", "--spacing-m", "1e-224"],
         FIRST_CELL_PREFIX + "2.57995e-226 m, of y_max=5e-225 m (half the fracture spacing)"
         + THIN_CELL_SUFFIX),
    ],
    ids=["nt-zero", "probes-negative", "probes-with-probe-yr", "probe-nan", "probe-nan-and-inf",
         "snapshot-inf", "snapshot-yr-alone", "snapshot-out-alone", "out-dir-missing", "snapshot-dir-missing",
         "y-max-inf", "slab-spacing-inf", "probe-1e300-yr", "probe-1e12-yr", "y-max-1e300",
         "y-max-1e4", "slab-spacing-1e6", "slab-spacing-1e300", "y-max-1e-224",
         "slab-spacing-1e-224"],
)
def test_oracle_refuses_bad_grid_input(flags, message, capsys):
    rc, out, err = run(capsys, "oracle", "--nx", "16", "--ny", "16", *flags)
    assert rc == 1
    assert out == ""
    assert err == message


def test_oracle_names_its_own_out_of_range_outlet(capsys):
    # the drained 1 mm slab rings below T_inj, by about 0.0097 C at its
    # probe near 1 yr: the oracle refuses the run itself, naming the probe,
    # the excursion and the grid, instead of ForecastSeries' bounds message
    rc, out, err = run(capsys, "oracle", "--model", "multi_slab", "--spacing-m", "1e-3")
    assert rc == 1
    assert out == ""
    assert re.fullmatch(
        r"error: the oracle outlet at t=3\.04432e\+07 s is 64\.99\d+ C, \S+ C outside "
        r"\[T_inj, T0\] = \[65, 300\] C: the scheme rings past them on the grid nx=200, "
        r"ny=200, y_max=0\.0005 m with a first step of 657000 s, so it is no reference for "
        r"this run\n", err), err


@pytest.mark.parametrize(
    "flags, grid",
    [
        (["--model", "multi_slab", "--ny", "800"],
         "ny=800 cells at stretching ratio 1.025 spans ratio^ny = 3.79e+08 from a first rock "
         "cell of 1.32e-09 m"),
        (["--ny", "400", "--ratio", "1.05"],
         "ny=400 cells at stretching ratio 1.05 spans ratio^ny = 2.99e+08 from a first rock "
         "cell of 3.85e-08 m"),
    ],
    ids=["slab-ny-800", "semi-infinite-ratio-1.05"],
)
def test_oracle_refuses_a_y_grid_too_graded_for_its_basis(flags, grid, capsys):
    # cells spanning ratio^ny of about 3e8: the y-basis still fails its own
    # check after its refinement steps, so the run is refused by name, not
    # served far off
    rc, out, err = run(capsys, "oracle", *flags)
    assert rc == 1
    assert out == ""
    assert err == (f"error: the y-grid of {grid}: its eigenbasis still fails its own check "
                   "after 3 refinement steps, so the grid is too strongly graded to solve; "
                   "lower ny or the ratio\n")


def first_cell_refusal(width: str, t: str, reach: str) -> str:
    return (f"error: the first rock cell, {width} m, is wider than the cooling front reaches "
            f"by t={t} s ({reach} m, 5 sqrt(alpha t)); shrink y_max or the fracture spacing, "
            "or raise ny\n")


def test_oracle_takes_a_step_whatever_is_asked(tmp_path, capsys):
    # a run that asks for nothing, or only for times before the first step's
    # end, still takes that step, under any warnings filter: its grid is
    # checked at that step's end, a probe reads T0 and a snapshot is written
    small = ["oracle", "--nx", "16", "--ny", "16"]
    cases = [
        (small + ["--nt", "60", "--probes", "0", "--y-max", "1e300"],
         (1, "", first_cell_refusal("5.1599e+298", "2.628e+07", "24.7962"))),
        (small + ["--y-max", "1e300", "--probe-yr", "1e-20"],
         (1, "", first_cell_refusal("5.1599e+298", "657000", "3.92063"))),
        (small + ["--nt", "60", "--probe-yr", "1e-20"],
         (0, "time_yr,T_oracle_C,T_model_C,deviation_C\n1e-20,300,300,0\n"
             "max deviation vs single: 0 C (0% of span) at t = 1e-20 yr\n", "")),
    ]
    for action in ("error", "ignore"):
        prefix = tmp_path / action / "P"
        prefix.parent.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            for argv, expected in cases:
                assert run(capsys, *argv) == expected
            rc, out, err = run(capsys, *small, "--nt", "60", "--probes", "0",
                               "--snapshot-yr", "1e-20", "--snapshot-out", str(prefix))
        assert (rc, err) == (0, "")
        assert out == ("time_yr,T_oracle_C,T_model_C,deviation_C\n"
                       "no probe times: header-only CSV written\n")
        # taken at the first step's end, horizon/60 = 0.833333 yr
        (snapshot,) = prefix.parent.iterdir()
        assert snapshot.name == "P_0p833333yr.csv"
        assert len(snapshot.read_text().splitlines()) == 1 + 17 * 17


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


@pytest.mark.parametrize(
    "argv",
    [
        # the far-tail inversion guard trips at 200 yr
        ["forecast", "--model", "multi_slab", "--steps", "3", "--horizon-yr", "200"],
        ["compare", "--model", "single", "--model", "gringarten_ref", "--onset-frac", "2"],
        ["oracle", "--nx", "16", "--ny", "16", "--nt", "60", "--probes", "2",
         "--snapshot-yr", "10", "--snapshot-out", "missing/snap"],
        ["convert", "1", "yr", "C"],
        ["oracle", "--ny", "400", "--ratio", "1.05"],
    ],
    ids=["forecast-clamp", "compare-onset", "oracle-snapshot-dir", "convert-units",
         "oracle-graded-y"],
)
def test_failed_command_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    # each command fails after its inputs parse; neither stdout nor a file
    # may show any of the work done before the failure
    monkeypatch.chdir(tmp_path)
    out_flag = [] if argv[0] == "convert" else ["--out", "run.csv"]
    rc, out, err = run(capsys, *argv, *out_flag)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_refused_file_write_leaves_stdout_empty(tmp_path, monkeypatch, capsys):
    # files are written before stdout: a snapshot path the system refuses
    # (here, a directory) ends the call before the CSV and summary print
    monkeypatch.chdir(tmp_path)
    (tmp_path / "snap_10yr.csv").mkdir()
    rc, out, err = run(capsys, "oracle", "--nx", "16", "--ny", "16", "--nt", "60",
                       "--probes", "1", "--snapshot-yr", "10", "--snapshot-out", "snap")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "snap_10yr.csv" in err


def test_multi_file_output_is_all_or_nothing(tmp_path, monkeypatch, capsys):
    # the snapshot file cannot replace its directory, so the run CSV, written
    # before it, must not appear either, nor any temporary file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "snap_10yr.csv").mkdir()
    rc, out, err = run(capsys, "oracle", "--nx", "16", "--ny", "16", "--nt", "60",
                       "--probes", "1", "--snapshot-yr", "10", "--snapshot-out", "snap",
                       "--out", "run.csv")
    assert rc == 1
    assert out == ""
    assert err == "error: [Errno 21] Is a directory: 'snap_10yr.csv'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["snap_10yr.csv"]


def test_outputs_sharing_a_destination_leave_the_later_one(tmp_path, monkeypatch, capsys):
    # --out names the file the snapshot also writes: both are written, in
    # order, and only the snapshot remains
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, "oracle", "--nx", "16", "--ny", "16", "--nt", "60",
                       "--probes", "1", "--snapshot-yr", "10", "--snapshot-out", "snap",
                       "--out", "snap_10yr.csv")
    assert rc == 0 and err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["snap_10yr.csv"]
    assert (tmp_path / "snap_10yr.csv").read_text().startswith("x_m,y_m,T_C\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--model", "single", "--steps", "2"],
        ["compare", "--model", "single", "--model", "gringarten_ref", "--steps", "2"],
        ["table2"],
    ],
    ids=["forecast", "compare", "table2"],
)
def test_out_into_missing_directory_is_refused_before_the_run(argv, monkeypatch, capsys):
    monkeypatch.setattr(egstherm.cli, "_series", lambda *args: pytest.fail("the forecast ran"))
    rc, out, err = run(capsys, *argv, "--out", "no-such-dir/run.csv")
    assert rc == 1
    assert out == ""
    assert err == "error: --out directory 'no-such-dir' does not exist\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--model", "single", "--steps", "2"],
        ["compare", "--model", "single", "--model", "gringarten_ref", "--steps", "2"],
        ["oracle", "--model", "multi_slab", "--nx", "16", "--ny", "16", "--nt", "60",
         "--probes", "1"],
    ],
    ids=["forecast", "compare", "oracle"],
)
def test_out_naming_a_directory_is_refused_before_the_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    monkeypatch.setattr(egstherm.cli, "_resolve", lambda *args: pytest.fail("the command ran"))
    rc, out, err = run(capsys, *argv, "--out", "results")
    assert rc == 1
    assert out == ""
    assert err == "error: --out 'results' is a directory, not a file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results"]
    assert list((tmp_path / "results").iterdir()) == []


def test_spacing_flag_every_slab_token_overrides_is_refused(capsys):
    rc, out, err = run(capsys, "compare", "--model", "multi_slab:40", "--model", "multi_slab:80",
                       "--steps", "2", "--spacing-m", "5")
    assert rc == 1
    assert out == ""
    assert err == ("error: --spacing-m is read by no model: each multi_slab token gives its "
                   "own spacing; drop --spacing-m\n")
    # an unqualified multi_slab reads it
    rc, out, err = run(capsys, "compare", "--model", "multi_slab", "--model", "multi_slab:80",
                       "--steps", "2", "--spacing-m", "5")
    assert rc == 0 and err == ""
    assert out.startswith("time_yr,T_multi_slab_C,T_multi_slab_80m_C\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--model", "single", "--steps", "2"],
        ["compare", "--model", "single", "--model", "gringarten_ref", "--steps", "2"],
        ["oracle", "--nx", "16", "--ny", "16", "--nt", "60", "--probes", "0"],
    ],
    ids=["forecast", "compare", "oracle"],
)
def test_spacing_flag_no_model_reads_is_refused(argv, capsys):
    rc, out, err = run(capsys, *argv, "--spacing-m", "5")
    assert rc == 1
    assert out == ""
    assert err == "error: --spacing-m applies only to multi_slab models; drop --spacing-m\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--model", "single", "--steps", "2"],
        ["compare", "--model", "single", "--model", "gringarten_ref", "--steps", "2"],
        ["oracle", "--model", "single", "--nx", "16", "--ny", "16", "--nt", "60", "--probes", "0"],
    ],
    ids=["forecast", "compare", "oracle"],
)
def test_stehfest_flag_no_model_reads_is_refused(argv, capsys):
    rc, out, err = run(capsys, *argv, "--stehfest-n", "14")
    assert rc == 1
    assert out == ""
    assert err == "error: --stehfest-n applies only to multi_slab models; drop --stehfest-n\n"


def test_forecast_stehfest_flag_sets_the_inversion_order(capsys):
    argv = ["forecast", "--model", "multi_slab", "--steps", "20"]
    rc, default, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    # the default order is 12, and 14 moves the inverted outlets
    assert run(capsys, *argv, "--stehfest-n", "12") == (0, default, "")
    rc, order_14, err = run(capsys, *argv, "--stehfest-n", "14")
    assert rc == 0 and err == ""
    assert order_14.startswith("time_yr,T_out_C,model\n")
    assert order_14 != default
    assert len(order_14.splitlines()) == len(default.splitlines()) == 21


def test_odd_stehfest_flag_is_refused(capsys):
    rc, out, err = run(capsys, "forecast", "--model", "multi_slab", "--stehfest-n", "7")
    assert rc == 1
    assert out == ""
    assert err == "error: Stehfest term count must be an even integer in [6, 20], got 7\n"


@pytest.mark.parametrize(
    "token, message",
    [
        ("bogus", "unknown model 'bogus'; expected one of single, gringarten_ref, multi_slab "
                  "(multi_slab accepts a spacing qualifier, e.g. multi_slab:80)"),
        ("single:80", "only multi_slab accepts a spacing qualifier, got 'single:80'"),
        ("multi_slab:abc", "bad spacing qualifier in model token 'multi_slab:abc'"),
        ("multi_slab:0", "spacing qualifier must be > 0, got 'multi_slab:0'"),
    ],
)
def test_compare_refuses_bad_model_token(token, message, capsys):
    rc, out, err = run(capsys, "compare", "--model", "single", "--model", token)
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_multi_slab_refuses_a_single_fracture_scenario(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("valles_caldera").read_text())
    doc["fractures"].update(count=1, spacing=None)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "forecast", "--model", "multi_slab", "--scenario", str(path))
    assert rc == 1
    assert out == ""
    assert err == "error: model multi_slab requires a scenario with count > 1\n"


def test_compare_anchors_past_the_horizon_are_skipped(capsys):
    # the 50 yr temperature anchors lie past a 10 yr horizon, and the array
    # has not begun to decline by then
    rc, out, _ = run(capsys, "compare", "--model", "single", "--model", "multi_slab",
                     "--horizon-yr", "10")
    assert rc == 0
    anchors = out[out.index("informational anchors"):].splitlines()[1:]
    assert anchors == ["  onset multi_slab: engine none, reported 2.6 yr, deviation n/a [not gated]"]


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


class _GridSeen(Exception):
    pass


def test_oracle_grid_defaults_are_the_oracles(monkeypatch):
    # the parser holds no grid default: a flag-less run hands fd_simulate the
    # factory's own default grid, at the horizon the CLI computes
    args = build_parser().parse_args(["oracle"])
    assert (args.nx, args.ny, args.nt, args.ratio) == (None, None, None, None)

    def seen(sc, grid, *rest, **kwargs):
        raise _GridSeen(sc, grid)

    monkeypatch.setattr(egstherm.oracle, "fd_simulate", seen)
    horizon = bundled_scenario("valles_caldera").operating.horizon
    horizon = horizon / SECONDS_PER_YEAR * SECONDS_PER_YEAR
    for model, factory in (("single", semi_infinite_grid), ("multi_slab", slab_grid)):
        with pytest.raises(_GridSeen) as caught:
            main(["oracle", "--model", model])
        sc, grid = caught.value.args
        assert grid == factory(sc, horizon=horizon)
        # at nx = 200 x carries 5e-5 C of the semi-infinite error and as
        # much as the whole slab error, so the modes take different nx
        assert grid.nx == {"single": 100, "multi_slab": 200}[model]


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
        ["numpy", "egstherm.oracle"],
        ["scipy"],
    ),
}


@pytest.mark.parametrize("command", list(_IMPORT_GRAPH))
def test_each_subcommand_imports_only_what_it_runs(command):
    # with SciPy blocked (importing it raises ImportError), every subcommand
    # still runs: NumPy is the only runtime dependency
    argv, loads, leaves = _IMPORT_GRAPH[command]
    out = fresh_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import contextlib, io, json, egstherm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = egstherm.cli.main({argv!r})\n"
        "print(json.dumps([rc, sorted(m for m, mod in sys.modules.items() if mod is not None)]))"
    )
    rc, modules = json.loads(out)
    assert rc == 0
    assert [m for m in loads if m not in modules] == []
    assert [m for m in leaves if m in modules] == []

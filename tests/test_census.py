"""Census of the subcommands' argv: each reads the same under any warnings filter.

Every call either succeeds with bounded temperatures and nothing on stderr,
or exits 1 with one "error:" line and nothing on stdout. Which of the two,
and every byte of it, must not depend on whether warnings are errors. The
same holds on scenario files with one field broken, and a file with a
number that is not finite (save an infinite spacing) is refused by name.
"""

import contextlib
import io
import json
import math
import re
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egstherm.cli import main
from egstherm.scenario import (
    ScenarioError,
    bundled_scenario,
    bundled_scenario_path,
    load_scenario,
)
from egstherm.units import _UNIT_TABLE

SITES = ("valles_caldera", "zeinali")


def magnitudes(*specials: str):
    """Decimal strings of 10^e for e in [-300, 300], and the given specials."""
    return st.one_of(
        st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e)), st.sampled_from(specials)
    )


# (base, spacing): compare reads a spacing from its multi_slab:spacing token,
# forecast from --spacing-m
MODELS = st.one_of(
    st.tuples(st.sampled_from(["single", "gringarten_ref", "multi_slab"]), st.none()),
    st.tuples(st.just("multi_slab"), magnitudes("inf", "nan", "0")),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["forecast", "compare"]))
    site = draw(st.sampled_from(SITES))
    steps = draw(st.integers(2, 12))
    argv = [command, "--scenario", str(bundled_scenario_path(site))]
    if command == "forecast":
        base, spacing = draw(MODELS)
        argv += ["--model", base] + ([] if spacing is None else ["--spacing-m", spacing])
    else:
        for base, spacing in draw(st.lists(MODELS, min_size=2, max_size=3)):
            argv += ["--model", base if spacing is None else f"{base}:{spacing}"]
    argv += ["--horizon-yr", draw(magnitudes("0", "-1", "-1e3", "-inf", "nan", "inf", "1e300")),
             "--steps", str(steps)]
    stehfest_n = draw(st.none() | st.integers(6, 20))
    if stehfest_n is not None:
        argv += ["--stehfest-n", str(stehfest_n)]
    if draw(st.booleans()):
        argv.append("--linear-time")
    return site, steps, argv


@st.composite
def oracle_argvs(draw):
    """Small oracle grids (a few ms a run) at extreme horizons, depths, spacings
    and probe times, in both modes."""
    site = draw(st.sampled_from(SITES))
    base, spacing = draw(MODELS)
    argv = ["oracle", "--scenario", str(bundled_scenario_path(site)), "--model", base]
    if spacing is not None:
        argv += ["--spacing-m", spacing]
    argv += ["--nx", str(draw(st.integers(16, 24))), "--ny", str(draw(st.integers(16, 24))),
             "--nt", str(draw(st.integers(1, 200)))]
    if draw(st.booleans()):
        argv += ["--horizon-yr", draw(magnitudes("0", "-1", "nan", "inf", "1e300"))]
    if base != "multi_slab" and draw(st.booleans()):
        argv += ["--y-max", draw(magnitudes("inf", "nan", "0"))]
    if draw(st.booleans()):
        for probe in draw(st.lists(magnitudes("0", "nan", "inf"), min_size=1, max_size=3)):
            argv += ["--probe-yr", probe]
    else:
        argv += ["--probes", str(draw(st.integers(0, 4)))]
    return site, argv


def run(argv: list[str], action: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_alike(site: str, argv: list[str], rows: int | None) -> None:
    """The same (exit code, stdout, stderr) under "error" and "ignore": a run
    that succeeds prints only bounded, finite temperatures in the CSV rows
    after the header (how many, or None for all but oracle's summary line)
    and nothing on stderr, and any other exits 1 with one "error:" line and
    no stdout."""
    rc, out, err = run(argv, "error")
    assert run(argv, "ignore") == (rc, out, err)
    if rc == 0:
        assert err == ""
        sc = bundled_scenario(site)
        t_cold, t_hot = sc.fluid.injection_temperature, sc.rock.initial_temperature
        header, *lines = out.splitlines()
        columns = [i for i, name in enumerate(header.split(",")) if name.startswith("T_")]
        for line in lines[:-1] if rows is None else lines[:rows]:
            cells = line.split(",")
            for i in columns:
                temp = float(cells[i])
                assert math.isfinite(temp) and t_cold <= temp <= t_hot, line
    else:
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_forecast_and_compare_read_alike_under_any_warnings_filter(case):
    site, steps, argv = case
    check_alike(site, argv, steps)


VALLES = str(bundled_scenario_path("valles_caldera"))
SMALL_GRID = ["--nx", "16", "--ny", "16", "--nt", "60", "--probes", "3"]


# a first y-cell whose 1/h^2 overflows, in slab and semi-infinite mode
@example(("valles_caldera", ["oracle", "--scenario", VALLES, "--model", "multi_slab",
                             *SMALL_GRID, "--spacing-m", "1e-224"]))
@example(("valles_caldera", ["oracle", "--scenario", VALLES, *SMALL_GRID, "--y-max", "1e-224"]))
# a first y-cell the front never reaches, asking for nothing or only for a
# time before the first step's end: the grid is still checked at that step
@example(("valles_caldera", ["oracle", "--scenario", VALLES, "--nx", "16", "--ny", "16", "--nt",
                             "60", "--probes", "0", "--y-max", "1e300"]))
@example(("valles_caldera", ["oracle", "--scenario", VALLES, "--nx", "16", "--ny", "16",
                             "--y-max", "1e300", "--probe-yr", "1e-20"]))
# a negative probe time in exponent form is a value, refused by the oracle
@example(("valles_caldera", ["oracle", "--scenario", VALLES, *SMALL_GRID, "--probe-yr", "-1e-5"]))
# a probe count beside explicit probe times, which nothing would read
@example(("valles_caldera", ["oracle", "--scenario", VALLES, *SMALL_GRID, "--probe-yr", "10"]))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(oracle_argvs())
def test_oracle_reads_alike_under_any_warnings_filter(case):
    site, argv = case
    check_alike(site, argv, None)


UNIT_TAGS = st.sampled_from([*_UNIT_TABLE, "furlong"])


@st.composite
def convert_argvs(draw):
    """A value of any magnitude between two tags of the unit table or an
    unknown one; half the time the target shares the source's dimension."""
    unit = draw(UNIT_TAGS)
    dimension = _UNIT_TABLE.get(unit, ("",))[0]
    same = [tag for tag, (dim, _) in _UNIT_TABLE.items() if dim == dimension]
    target = draw(st.sampled_from(same) if same and draw(st.booleans()) else UNIT_TAGS)
    value = draw(magnitudes("nan", "inf", "-0", "1e308", "5e-324", "1e-320", "-2e-310"))
    return ["convert", value, unit, target]


@example(["convert", "7829.4", "bpd", "m3_per_s"])
@example(["convert", "1", "yr", "C"])
@example(["convert", "1", "furlong", "m"])
@example(["convert", "1", "m", "furlong"])
@example(["convert", "nan", "m", "ft"])
@example(["convert", "1e308", "ft", "in"])
@example(["convert", "5e-324", "ft", "m"])
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(convert_argvs())
def test_convert_reads_alike_under_any_warnings_filter(argv):
    # one finite number on stdout, or one "error:" line on stderr
    rc, out, err = run(argv, "error")
    assert run(argv, "ignore") == (rc, out, err)
    if rc == 0:
        assert err == "" and out.count("\n") == 1 and out.endswith("\n")
        assert math.isfinite(float(out))
    else:
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@st.composite
def table2_argvs(draw):
    """A --spacings list of any magnitudes, with spacings whose times
    overflow or underflow, non-finite, non-positive and non-number tokens."""
    site = draw(st.sampled_from(SITES))
    spacings = draw(st.lists(magnitudes("1e-200", "1e-160", "1e-150", "1e200", "inf", "nan", "0",
                                        "-1", "abc"), max_size=4))
    return ["table2", "--scenario", str(bundled_scenario_path(site)), "--spacings",
            ",".join(spacings)]


@example(["table2", "--spacings", "1e-200"])
@example(["table2", "--spacings", "1e-160"])
@example(["table2", "--spacings", "1e-150"])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(table2_argvs())
def test_table2_reads_alike_under_any_warnings_filter(argv):
    # a table of finite numbers in the normal float range, or one "error:" line
    rc, out, err = run(argv, "error")
    assert run(argv, "ignore") == (rc, out, err)
    if rc == 0:
        header, *lines = out.splitlines()
        assert err == "" and header == "radius_m,time_yr,interference_time_yr,interference_radius_m"
        for line in lines:
            for cell in line.split(","):
                assert sys.float_info.min <= float(cell) < math.inf, line
    else:
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# every numeric field of a scenario file, and the values that break or stretch
# it: JSON reads 1e400 as inf and -1e400 as -inf
SCENARIO_FIELDS = [
    ("rock", "conductivity"), ("rock", "density"), ("rock", "specific_heat"),
    ("rock", "initial_temperature"), ("fluid", "density"), ("fluid", "specific_heat"),
    ("fluid", "injection_temperature"), ("fractures", "count"), ("fractures", "aperture"),
    ("fractures", "height"), ("fractures", "flow_length"), ("fractures", "spacing"),
    ("fractures", "faces"), ("operating", "total_rate"), ("operating", "horizon"),
    ("operating", "n_steps"),
]
SCENARIO_VALUES = ("1e400", "-1e400", "NaN", "0", "-2")
SCENARIO_RUNS = [
    ["forecast", "--model", "multi_slab", "--steps", "4"],
    ["compare", "--model", "single", "--model", "gringarten_ref", "--model", "multi_slab",
     "--steps", "3"],
    ["oracle", *SMALL_GRID],
    ["oracle", "--model", "multi_slab", *SMALL_GRID],
]


def _scenario_file(tmp_path, site: str, section: str, field: str, value: str) -> str:
    data = json.loads(bundled_scenario_path(site).read_text())
    data[section][field] = "@value@"
    path = tmp_path / f"{site}-{section}-{field}-{value}.json"
    path.write_text(json.dumps(data).replace('"@value@"', value))
    return str(path)


@pytest.mark.parametrize("section,field", SCENARIO_FIELDS,
                         ids=[f"{section}.{field}" for section, field in SCENARIO_FIELDS])
def test_scenario_files_read_as_finite_numbers_or_one_error(tmp_path, section, field):
    # a scenario with one field overflowed, NaN, zero or negative is refused
    # by the loader, naming the field, whenever the value is not finite
    # (save an infinite spacing, the isolated fracture); each forecast,
    # compare and small-grid oracle run on one that loads prints only finite
    # numbers, or exits 1 with one "error:" line, under either warnings filter
    for site in SITES:
        for value in SCENARIO_VALUES:
            path = _scenario_file(tmp_path, site, section, field, value)
            try:
                load_scenario(path)
            except ScenarioError as refusal:
                assert f"{section}.{field}" in str(refusal)
                expected = (1, "", f"error: {refusal}\n")
            else:
                assert math.isfinite(float(value)) or (field, value) == ("spacing", "1e400"), path
                expected = None
            for command, *flags in SCENARIO_RUNS:
                argv = [command, "--scenario", path, *flags]
                rc, out, err = run(argv, "error")
                assert run(argv, "ignore") == (rc, out, err), argv
                if expected is not None:
                    assert (rc, out, err) == expected, argv
                elif rc == 0:
                    assert err == "", argv
                    for token in re.split(r"[\s,=:()]+", out):
                        with contextlib.suppress(ValueError):
                            assert math.isfinite(float(token)), (argv, out)
                else:
                    assert rc == 1 and out == "", argv
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_an_infinitely_spaced_array_forecasts_as_the_isolated_fracture(tmp_path):
    # spacing may be inf: the slab image's half-space branch
    path = _scenario_file(tmp_path, "valles_caldera", "fractures", "spacing", "1e400")
    argv = ["forecast", "--scenario", path, "--model", "multi_slab", "--horizon-yr", "50",
            "--steps", "2"]
    assert run(argv, "error") == (0, "time_yr,T_out_C,model\n0.005,300,multi_slab\n"
                                     "50,273.42,multi_slab\n", "")

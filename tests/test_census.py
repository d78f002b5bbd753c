"""Census of forecast/compare argv: each reads the same under any warnings filter.

Every call either succeeds with bounded temperatures and nothing on stderr,
or exits 1 with one "error:" line and nothing on stdout. Which of the two,
and every byte of it, must not depend on whether warnings are errors.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from egstherm.cli import main
from egstherm.scenario import bundled_scenario, bundled_scenario_path

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
    argv += ["--horizon-yr", draw(magnitudes("0", "-1", "nan", "inf", "1e300")),
             "--steps", str(steps)]
    stehfest_n = draw(st.none() | st.integers(6, 20))
    if stehfest_n is not None:
        argv += ["--stehfest-n", str(stehfest_n)]
    if draw(st.booleans()):
        argv.append("--linear-time")
    return site, steps, argv


def run(argv: list[str], action: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_forecast_and_compare_read_alike_under_any_warnings_filter(case):
    site, steps, argv = case
    rc, out, err = run(argv, "error")
    assert run(argv, "ignore") == (rc, out, err)
    if rc == 0:
        assert err == ""
        sc = bundled_scenario(site)
        t_cold, t_hot = sc.fluid.injection_temperature, sc.rock.initial_temperature
        lines = out.splitlines()
        header = lines[0].split(",")
        columns = [i for i, name in enumerate(header) if name.startswith("T_")]
        for line in lines[1:steps + 1]:
            cells = line.split(",")
            for i in columns:
                temp = float(cells[i])
                assert math.isfinite(temp) and t_cold <= temp <= t_hot, line
    else:
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

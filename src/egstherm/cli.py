"""Scenario-driven command line: forecasts, interference tables, model
comparisons, finite-difference oracle runs, and unit conversions.

Subcommands
-----------
forecast   produced-temperature series for one model -> CSV
table2     thermal-radius / interference-time table -> CSV
compare    several models side by side -> wide CSV + text report
oracle     finite-difference run vs the matching analytical model -> CSV
convert    single unit conversion, printed at 6 significant digits

All CSV output is deterministic: fixed column order, 6-significant-digit
values, LF line endings. Each cmd_* function returns its output as
(destination, text) pairs and writes nothing itself; main writes them,
files first and stdout last, only after the command has returned. Before
the command runs, main refuses an --out or --snapshot-out whose directory
does not exist, and an --out that names a directory. Files are written
to temporary siblings that replace their destinations only once all are
written. So a command that fails leaves stdout empty and writes no file;
it prints one "error:" line to stderr and exits 1.

Each subcommand imports only what it runs: convert and table2 need the
standard library alone, forecast and compare add NumPy and the Laplace
engine, and only oracle loads the finite-difference oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import importlib.resources
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .scenario import (
    Scenario,
    bundled_scenario_path,
    collapse_to_single,
    interference_table,
    load_scenario,
    thermal_diffusivity,
)
from .units import SECONDS_PER_YEAR, convert_value

if TYPE_CHECKING:
    import numpy as np

    from .laplace import StehfestConfig

__all__ = ["main"]

_MODEL_BASES = ("single", "gringarten_ref", "multi_slab")
_DEFAULT_SPACINGS = "10,20,30,40,50,60,70,80"

# what a command returns: (destination, text) pairs, None = stdout
_Output = list[tuple[Path | None, str]]


@dataclass(frozen=True)
class _Model:
    """One --model token, read once: its base model, its spacing qualifier
    and the scenario reconfigured for it."""

    token: str
    base: str
    spacing: float | None
    scenario: Scenario


def _fmt(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0
    return format(value, ".6g")


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row)
        )
    return "\n".join(lines) + "\n"


def _parse_model_token(token: str) -> tuple[str, float | None]:
    base, sep, qualifier = token.partition(":")
    if base not in _MODEL_BASES:
        raise ValueError(
            f"unknown model {token!r}; expected one of {', '.join(_MODEL_BASES)} "
            "(multi_slab accepts a spacing qualifier, e.g. multi_slab:80)"
        )
    if not sep:
        return base, None
    if base != "multi_slab":
        raise ValueError(f"only multi_slab accepts a spacing qualifier, got {token!r}")
    try:
        spacing = float(qualifier)
    except ValueError:
        raise ValueError(f"bad spacing qualifier in model token {token!r}") from None
    if not spacing > 0.0:
        raise ValueError(f"spacing qualifier must be > 0, got {token!r}")
    return base, spacing


def _model_scenario(
    sc: Scenario, base: str, token_spacing: float | None, args: argparse.Namespace
) -> Scenario:
    """Reconfigure the scenario for the requested model.

    single and gringarten_ref collapse the array to one fracture carrying
    the full rate (one and two exchange faces respectively); multi_slab
    keeps the array and takes its spacing from the token qualifier, the
    --spacing-m flag, or the scenario: the first of them that is given.
    """
    if base == "single":
        return collapse_to_single(sc, args.faces or 1)
    if base == "gringarten_ref":
        return collapse_to_single(sc, args.faces or 2)
    fr = sc.fractures
    if fr.count <= 1:
        raise ValueError("model multi_slab requires a scenario with count > 1")
    # a loaded array scenario always has a spacing, so one of them is given
    spacing = next(s for s in (token_spacing, args.spacing_m, fr.spacing) if s is not None)
    fractures = dataclasses.replace(fr, spacing=float(spacing), faces=args.faces or fr.faces)
    return dataclasses.replace(sc, fractures=fractures)


def _load(args: argparse.Namespace) -> Scenario:
    """Load --scenario, filling it in with the bundled default when not given."""
    args.scenario = args.scenario or bundled_scenario_path("valles_caldera")
    return load_scenario(args.scenario)


def _resolve(
    args: argparse.Namespace, tokens: list[str]
) -> tuple[list[_Model], StehfestConfig]:
    """Read the scenario and each model token once and check the run flags.

    Fills in args.scenario (:func:`_load`) and args.horizon_yr from the
    bundled default and the scenario where they were not given. Returns the
    models and the inversion order.
    """
    from .laplace import StehfestConfig

    sc = _load(args)
    parsed = [(token, *_parse_model_token(token)) for token in tokens]
    slab_spacings = [spacing for _, base, spacing in parsed if base == "multi_slab"]
    if not slab_spacings:
        for flag, value in (("--stehfest-n", args.stehfest_n), ("--spacing-m", args.spacing_m)):
            if value is not None:
                raise ValueError(f"{flag} applies only to multi_slab models; drop {flag}")
    if args.spacing_m is not None:
        if None not in slab_spacings:
            raise ValueError(
                "--spacing-m is read by no model: each multi_slab token gives its own "
                "spacing; drop --spacing-m"
            )
    if args.horizon_yr is None:
        args.horizon_yr = sc.operating.horizon / SECONDS_PER_YEAR
    if not (args.horizon_yr > 0.0 and math.isfinite(args.horizon_yr * SECONDS_PER_YEAR)):
        raise ValueError(f"--horizon-yr must be a finite number > 0, got {args.horizon_yr}")
    models = [
        _Model(token, base, spacing, _model_scenario(sc, base, spacing, args))
        for token, base, spacing in parsed
    ]
    stehfest = StehfestConfig() if args.stehfest_n is None else StehfestConfig(args.stehfest_n)
    return models, stehfest


def _forecast_times(args: argparse.Namespace, sc: Scenario) -> np.ndarray:
    """The forecast times over the horizon, log-spaced unless --linear-time."""
    import numpy as np

    steps = sc.operating.n_steps if args.steps is None else args.steps
    if steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    horizon = args.horizon_yr * SECONDS_PER_YEAR
    # log spacing by default: drawdown knees live decades before the horizon
    if args.linear_time:
        return np.linspace(horizon / steps, horizon, steps)
    return np.geomspace(horizon / 1e4, horizon, steps)


def _series(model: _Model, times: np.ndarray, stehfest: StehfestConfig):
    from .laplace import multi_fracture_forecast

    return multi_fracture_forecast(model.scenario, times, stehfest)


def cmd_forecast(args: argparse.Namespace) -> _Output:
    """The produced-temperature series for one model as CSV."""
    (model,), stehfest = _resolve(args, [args.model])
    series = _series(model, _forecast_times(args, model.scenario), stehfest)
    rows = [
        [t / SECONDS_PER_YEAR, temp, model.base]
        for t, temp in zip(series.times, series.outlet_temperatures)
    ]
    return [(args.out, _csv(["time_yr", "T_out_C", "model"], rows))]


def cmd_table2(args: argparse.Namespace) -> _Output:
    """The thermal-radius / interference-time table as CSV."""
    spacings = _parse_spacings(args.spacings)
    alpha = thermal_diffusivity(_load(args).rock)
    rows = [
        [row.radius_m, row.time_yr, row.interference_time_yr, row.interference_radius_m]
        for row in interference_table(spacings, alpha)
    ]
    header = ["radius_m", "time_yr", "interference_time_yr", "interference_radius_m"]
    return [(args.out, _csv(header, rows))]


def _column_names(models: list[_Model]) -> list[str]:
    names = []
    for model in models:
        base, spacing = model.base, model.spacing
        name = f"T_{base}_C" if spacing is None else f"T_{base}_{spacing:g}m_C"
        while name in names:
            name += "_dup"
        names.append(name)
    return names


def _anchor_lines(args: argparse.Namespace, runs: list[tuple[_Model, object]]) -> list[str]:
    """Informational published reference values with engine deviations.

    These derive from a formulation that was never published in full, so
    they are context, never gates; the report says so on every line.
    """
    import numpy as np

    from .analytic import onset_of_decline

    stem = Path(args.scenario).stem
    resource = importlib.resources.files("egstherm.data") / "anchors.json"
    anchors = json.loads(resource.read_text(encoding="utf-8"))
    lines = [
        "informational anchors (reference values from an unpublished "
        "formulation; deviations are context only, never gates):"
    ]

    def model_matches(anchor: dict, model: _Model) -> bool:
        if model.base != anchor.get("model"):
            return False
        if "spacing_m" in anchor:
            spacing = model.scenario.fractures.spacing
            if spacing is None or not math.isclose(
                spacing, anchor["spacing_m"], rel_tol=1e-6
            ):
                return False
        if "per_fracture_rate_bpd" in anchor:
            sc = model.scenario
            rate = convert_value(sc.operating.total_rate / sc.fractures.count, "m3_per_s", "bpd")
            if not math.isclose(rate, anchor["per_fracture_rate_bpd"], rel_tol=0.01):
                return False
        return True

    # each anchor reports against the first run that matches it; a
    # temperature anchor also needs a run that reaches its time
    for anchor in anchors.get("temperature_anchors", []) + anchors.get("onset_anchors", []):
        if anchor.get("scenario") != stem:
            continue
        for model, ser in runs:
            if not model_matches(anchor, model):
                continue
            if "reported_C" in anchor:
                t_anchor = anchor["time_yr"] * SECONDS_PER_YEAR
                if t_anchor > ser.times[-1]:
                    continue
                engine = float(np.interp(t_anchor, ser.times, ser.outlet_temperatures))
                dev = engine - anchor["reported_C"]
                lines.append(
                    f"  {model.token} at {anchor['time_yr']:g} yr: engine {_fmt(engine)} C, "
                    f"reported {anchor['reported_C']:g} C, deviation {dev:+.4g} C [not gated]"
                )
            else:
                onset = onset_of_decline(ser, anchor.get("onset_frac", args.onset_frac))
                engine_txt = "none" if onset is None else f"{_fmt(onset / SECONDS_PER_YEAR)} yr"
                dev_txt = (
                    "n/a"
                    if onset is None
                    else f"{onset / SECONDS_PER_YEAR - anchor['reported_yr']:+.4g} yr"
                )
                lines.append(
                    f"  onset {model.token}: engine {engine_txt}, reported "
                    f"{anchor['reported_yr']:g} yr, deviation {dev_txt} [not gated]"
                )
            break

    if len(lines) == 1:
        lines.append(f"  none applicable to scenario {stem!r} with these models")
    return lines


def cmd_compare(args: argparse.Namespace) -> _Output:
    """Run several models on one scenario: wide CSV plus a text report."""
    import numpy as np

    from .analytic import onset_of_decline

    tokens = args.model or []
    if len(tokens) < 2:
        raise ValueError("compare needs at least two --model entries")
    models, stehfest = _resolve(args, tokens)
    times = _forecast_times(args, models[0].scenario)
    if not 0.0 < args.onset_frac < 1.0:
        raise ValueError(f"onset fraction must lie in (0, 1), got {args.onset_frac}")
    runs = [(model, _series(model, times, stehfest)) for model in models]
    temp_matrix = np.vstack([ser.outlet_temperatures for _, ser in runs])
    rows = [
        [times[i] / SECONDS_PER_YEAR, *temp_matrix[:, i]] for i in range(times.size)
    ]
    report = []
    for model, ser in runs:
        onset = onset_of_decline(ser, args.onset_frac)
        onset_txt = "none" if onset is None else f"{_fmt(onset / SECONDS_PER_YEAR)} yr"
        final = ser.outlet_temperatures[-1]
        report.append(
            f"model {model.token}: onset {onset_txt}, "
            f"T({_fmt(args.horizon_yr)} yr) = {_fmt(final)} C"
        )
    gaps = temp_matrix.max(axis=0) - temp_matrix.min(axis=0)
    worst = int(np.argmax(gaps))
    report.append(
        f"max pairwise gap: {_fmt(gaps[worst])} C at t = "
        f"{_fmt(times[worst] / SECONDS_PER_YEAR)} yr"
    )
    report.extend(_anchor_lines(args, runs))
    return [
        (args.out, _csv(["time_yr", *_column_names(models)], rows)),
        (None, "\n".join(report) + "\n"),
    ]


def cmd_oracle(args: argparse.Namespace) -> _Output:
    """Finite-difference run with a per-probe deviation table vs the model."""
    import numpy as np

    from .oracle import fd_simulate, semi_infinite_grid, slab_grid

    if (args.snapshot_yr is None) != (args.snapshot_out is None):
        raise ValueError("--snapshot-yr and --snapshot-out go together: give both or neither")
    if args.probe_yr and args.probes is not None:
        raise ValueError("--probe-yr sets the probe times, so nothing reads --probes; drop it")
    (model,), stehfest = _resolve(args, [args.model])
    probes = 8 if args.probes is None else args.probes
    if probes < 0:
        raise ValueError(f"--probes must be >= 0, got {probes}")
    resolved = model.scenario
    horizon = args.horizon_yr * SECONDS_PER_YEAR

    # only the grid flags given reach the factories, which own the defaults
    given = {"nx": args.nx, "ny": args.ny, "n_steps": args.nt, "ratio": args.ratio}
    grid_args = {name: value for name, value in given.items() if value is not None}
    if model.base == "multi_slab":
        if args.y_max is not None:
            raise ValueError("slab mode fixes y_max at spacing/2; drop --y-max")
        grid = slab_grid(resolved, horizon=horizon, **grid_args)
    else:
        grid = semi_infinite_grid(resolved, horizon=horizon, y_max=args.y_max, **grid_args)

    if args.probe_yr:
        # sorted, NaNs last and as one: a set keeps every NaN, ordered by identity
        probe_times = np.unique(args.probe_yr) * SECONDS_PER_YEAR
    else:
        probe_times = np.geomspace(horizon / 100.0, horizon, probes)

    snapshot_times = np.unique(args.snapshot_yr or []) * SECONDS_PER_YEAR
    series, details = fd_simulate(
        resolved, grid, probe_times, snapshot_times=snapshot_times, return_details=True
    )

    ref = _series(model, probe_times, stehfest).outlet_temperatures
    deviations = series.outlet_temperatures - ref
    rows = [
        [probe_times[i] / SECONDS_PER_YEAR, series.outlet_temperatures[i], ref[i], deviations[i]]
        for i in range(probe_times.size)
    ]
    if rows:
        span = resolved.rock.initial_temperature - resolved.fluid.injection_temperature
        worst = int(np.argmax(np.abs(deviations)))
        summary = (
            f"max deviation vs {model.base}: {_fmt(abs(deviations[worst]))} C "
            f"({_fmt(100.0 * abs(deviations[worst]) / span)}% of span) at "
            f"t = {_fmt(probe_times[worst] / SECONDS_PER_YEAR)} yr"
        )
    else:
        summary = "no probe times: header-only CSV written"
    output = [
        (args.out, _csv(["time_yr", "T_oracle_C", "T_model_C", "deviation_C"], rows)),
        (None, summary + "\n"),
    ]

    # snapshots exist only when --snapshot-out is given
    for snap in details.snapshots:
        label = _fmt(snap.time / SECONDS_PER_YEAR).replace(".", "p")
        snap_rows = [
            [snap.x[i], snap.y[j], snap.temperatures[j, i]]
            for i in range(snap.x.size)
            for j in range(snap.y.size)
        ]
        path = Path(f"{args.snapshot_out}_{label}yr.csv")
        output.append((path, _csv(["x_m", "y_m", "T_C"], snap_rows)))
    return output


# flags of the model-running subcommands; each subcommand names the ones it reads
_RUN_FLAGS = {
    "--scenario": dict(type=Path, default=None, help="scenario JSON (default: bundled valles_caldera)"),
    "--horizon-yr": dict(type=float, default=None, help="forecast horizon, years"),
    "--steps": dict(type=int, default=None, help="number of time samples"),
    "--stehfest-n": dict(type=int, default=None, help="Stehfest term count, multi_slab only (default 12)"),
    "--onset-frac": dict(type=float, default=0.01, help="decline-onset fraction of span"),
    "--faces": dict(type=int, choices=(1, 2), default=None, help="override exchange faces"),
    "--spacing-m": dict(type=float, default=None, help="override fracture spacing, m"),
    "--out": dict(type=Path, default=None, help="CSV output path (default stdout)"),
    "--linear-time": dict(action="store_true", help="linear time samples instead of log-spaced"),
}
_ONE_MODEL = dict(choices=_MODEL_BASES, default="single", help="forecast model (default single)")
_MODEL_LIST = dict(
    action="append",
    default=None,
    help="model token, repeatable: single | gringarten_ref | multi_slab[:spacing_m]",
)


def _add_run_flags(parser: argparse.ArgumentParser, model: dict, *flags: str) -> None:
    """--scenario, then --model as given, then the named flags."""
    parser.add_argument("--scenario", **_RUN_FLAGS["--scenario"])
    parser.add_argument("--model", **model)
    for flag in flags:
        parser.add_argument(flag, **_RUN_FLAGS[flag])


def _parse_spacings(text: str) -> list[float]:
    text = text.strip()
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad --spacings list {text!r}; expected comma-separated numbers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egstherm",
        description="Produced-temperature forecasting for fractured geothermal reservoirs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forecast = sub.add_parser("forecast", help="produced-temperature series -> CSV")
    _add_run_flags(p_forecast, _ONE_MODEL, "--horizon-yr", "--steps", "--stehfest-n", "--faces",
                   "--spacing-m", "--out", "--linear-time")
    p_forecast.set_defaults(run=cmd_forecast)

    p_table2 = sub.add_parser("table2", help="thermal radius / interference table -> CSV")
    p_table2.add_argument("--scenario", **_RUN_FLAGS["--scenario"])
    p_table2.add_argument(
        "--spacings",
        type=str,
        default=_DEFAULT_SPACINGS,
        help=f"comma-separated spacings in m (default {_DEFAULT_SPACINGS}); empty for none",
    )
    p_table2.add_argument("--out", **_RUN_FLAGS["--out"])
    p_table2.set_defaults(run=cmd_table2)

    p_compare = sub.add_parser("compare", help="models side by side -> CSV + report")
    _add_run_flags(p_compare, _MODEL_LIST, "--horizon-yr", "--steps", "--stehfest-n",
                   "--onset-frac", "--faces", "--spacing-m", "--out", "--linear-time")
    p_compare.set_defaults(run=cmd_compare)

    p_oracle = sub.add_parser("oracle", help="finite-difference check vs a model -> CSV")
    _add_run_flags(p_oracle, _ONE_MODEL, "--horizon-yr", "--stehfest-n", "--faces", "--spacing-m",
                   "--out")
    p_oracle.add_argument("--nx", type=int, default=None, help="along-fracture cells")
    p_oracle.add_argument("--ny", type=int, default=None, help="into-rock cells")
    p_oracle.add_argument(
        "--nt", type=int, default=None,
        help="sets the first time step, horizon/nt; later steps double up to 8x it",
    )
    p_oracle.add_argument("--y-max", type=float, default=None, help="rock depth, m (semi-infinite mode)")
    p_oracle.add_argument("--ratio", type=float, default=None, help="y-grid stretching ratio")
    p_oracle.add_argument(
        "--probes", type=int, default=None, help="log-spaced probe count (default 8; 0 for none)"
    )
    p_oracle.add_argument(
        "--probe-yr", type=float, action="append", default=None, help="explicit probe time, years (repeatable)"
    )
    p_oracle.add_argument(
        "--snapshot-yr", type=float, action="append", default=None, help="rock snapshot time, years (repeatable)"
    )
    p_oracle.add_argument(
        "--snapshot-out", type=Path, default=None, help="path prefix for snapshot CSV dumps"
    )
    p_oracle.set_defaults(run=cmd_oracle)

    p_convert = sub.add_parser("convert", help="convert a value between unit tags")
    p_convert.add_argument("value", type=float)
    p_convert.add_argument("src", help="source unit tag")
    p_convert.add_argument("dst", help="target unit tag")
    p_convert.set_defaults(run=cmd_convert)

    # -1e3, -2e-310 and -inf are values, not options; argparse's own pattern misses them
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"(?i)-(\.?\d|inf|nan)")
    return parser


def cmd_convert(args: argparse.Namespace) -> _Output:
    """One unit conversion."""
    return [(None, _fmt(convert_value(args.value, args.src, args.dst)) + "\n")]


def _write_files(files: list[tuple[Path, str]]) -> None:
    """Write every file or none: each goes to a temporary sibling, and the
    siblings replace their destinations only once all are written, in order,
    so of two outputs with one destination the later one stays."""
    temps: list[Path] = []
    try:
        for index, (dest, text) in enumerate(files):
            # the one destination a rename in its own directory cannot replace;
            # main refuses it for --out before the run, but snapshot paths
            # are known only now
            if dest.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(dest))
            temp = dest.with_name(f".{dest.name}.{os.getpid()}.{index}.tmp")
            with open(temp, "x", encoding="utf-8", newline="\n") as fh:
                temps.append(temp)
                fh.write(text)
        for (dest, _), temp in zip(files, temps):
            os.replace(temp, dest)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; only here is output written, once it has returned."""
    args = build_parser().parse_args(argv)
    try:
        # an output that cannot be written is refused before the run, not after it
        out = getattr(args, "out", None)
        destinations = (("--out", out), ("--snapshot-out", getattr(args, "snapshot_out", None)))
        for flag, path in destinations:
            if path is not None and not path.parent.is_dir():
                raise ValueError(f"{flag} directory {str(path.parent)!r} does not exist")
        # --snapshot-out is a prefix; its files are checked when written
        if out is not None and out.is_dir():
            raise ValueError(f"--out {str(out)!r} is a directory, not a file")
        output = args.run(args)
        # files first: one that cannot be written then leaves stdout empty
        _write_files([(dest, text) for dest, text in output if dest is not None])
        for dest, text in output:
            if dest is None:
                sys.stdout.write(text)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

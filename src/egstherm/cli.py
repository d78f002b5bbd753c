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
values, LF line endings, and nothing is written until the full run has
succeeded (no partial files on failure). Errors exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import fluid_temp_single, interference_table, onset_of_decline
from .laplace import StehfestConfig, multi_fracture_forecast
from .oracle import fd_simulate, semi_infinite_grid, slab_grid
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    thermal_diffusivity,
)
from .units import SECONDS_PER_YEAR, convert_value

__all__ = ["RunConfig", "main", "cmd_forecast", "cmd_table2", "cmd_compare", "cmd_oracle"]

_MODEL_BASES = ("single", "gringarten_ref", "multi_slab")
_DEFAULT_SPACINGS = "10,20,30,40,50,60,70,80"


@dataclass(frozen=True)
class RunConfig:
    """Resolved run options shared by the forecasting subcommands."""

    scenario_path: Path
    models: tuple[str, ...]
    horizon_yr: float
    steps: int
    stehfest_n: int
    onset_frac: float
    out: Path | None
    faces: int | None = None
    spacing_m: float | None = None
    linear_time: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.steps, int) and self.steps >= 2):
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        if not self.horizon_yr > 0.0:
            raise ValueError(f"horizon must be > 0 yr, got {self.horizon_yr}")
        if not 0.0 < self.onset_frac < 1.0:
            raise ValueError(f"onset fraction must lie in (0, 1), got {self.onset_frac}")

    @property
    def horizon_s(self) -> float:
        return self.horizon_yr * SECONDS_PER_YEAR


def _fmt(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0
    return format(value, ".6g")


def _emit_csv(out: Path | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row)
        )
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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


def _resolve_model_scenario(
    sc: Scenario, token: str, faces: int | None, spacing_flag: float | None
) -> tuple[Scenario, str]:
    """Reconfigure the scenario for the requested model.

    single and gringarten_ref collapse the array to one fracture carrying
    the full rate (one and two exchange faces respectively); multi_slab
    keeps the array and takes its spacing from the token qualifier, the
    --spacing-m flag, or the scenario, in that order.
    """
    base, token_spacing = _parse_model_token(token)
    fr = sc.fractures
    if base == "single":
        fractures = dataclasses.replace(fr, count=1, spacing=None, faces=faces or 1)
    elif base == "gringarten_ref":
        fractures = dataclasses.replace(fr, count=1, spacing=None, faces=faces or 2)
    else:
        if fr.count <= 1:
            raise ValueError("model multi_slab requires a scenario with count > 1")
        spacing = token_spacing or spacing_flag or fr.spacing
        if spacing is None:
            raise ValueError(
                "model multi_slab needs a fracture spacing (scenario field, "
                "--spacing-m, or a multi_slab:<spacing> token)"
            )
        fractures = dataclasses.replace(fr, spacing=float(spacing), faces=faces or fr.faces)
    return dataclasses.replace(sc, fractures=fractures), base


def _forecast_times(cfg: RunConfig) -> np.ndarray:
    # log spacing by default: drawdown knees live decades before the horizon
    if cfg.linear_time:
        return np.linspace(cfg.horizon_s / cfg.steps, cfg.horizon_s, cfg.steps)
    return np.geomspace(cfg.horizon_s / 1e4, cfg.horizon_s, cfg.steps)


def _model_series(sc: Scenario, token: str, cfg: RunConfig, times: np.ndarray):
    resolved, base = _resolve_model_scenario(sc, token, cfg.faces, cfg.spacing_m)
    series = multi_fracture_forecast(resolved, times, StehfestConfig(cfg.stehfest_n))
    return dataclasses.replace(series, model=base), resolved


def cmd_forecast(cfg: RunConfig) -> int:
    """Write the produced-temperature series for one model as CSV."""
    sc = load_scenario(cfg.scenario_path)
    times = _forecast_times(cfg)
    series, _ = _model_series(sc, cfg.models[0], cfg, times)
    rows = [
        [t / SECONDS_PER_YEAR, temp, series.model]
        for t, temp in zip(series.times, series.outlet_temperatures)
    ]
    _emit_csv(cfg.out, ["time_yr", "T_out_C", "model"], rows)
    return 0


def cmd_table2(scenario_path: Path, spacings: list[float], out: Path | None) -> int:
    """Write the thermal-radius / interference-time table as CSV."""
    sc = load_scenario(scenario_path)
    alpha = thermal_diffusivity(sc.rock)
    rows = [
        [row.radius_m, row.time_yr, row.interference_time_yr, row.interference_radius_m]
        for row in interference_table(spacings, alpha)
    ]
    _emit_csv(
        out,
        ["radius_m", "time_yr", "interference_time_yr", "interference_radius_m"],
        rows,
    )
    return 0


def _column_names(tokens: tuple[str, ...]) -> list[str]:
    names = []
    for token in tokens:
        base, spacing = _parse_model_token(token)
        name = f"T_{base}_C" if spacing is None else f"T_{base}_{spacing:g}m_C"
        while name in names:
            name += "_dup"
        names.append(name)
    return names


def _load_anchor_file() -> dict:
    resource = importlib.resources.files("egstherm.data") / "anchors.json"
    return json.loads(resource.read_text(encoding="utf-8"))


def _per_fracture_rate_bpd(sc: Scenario) -> float:
    rate_si = sc.operating.total_rate / sc.fractures.count
    return convert_value(rate_si, "m3_per_s", "bpd")


def _anchor_lines(
    cfg: RunConfig,
    tokens: tuple[str, ...],
    resolved: dict[str, Scenario],
    series: dict[str, object],
) -> list[str]:
    """Informational published reference values with engine deviations.

    These derive from a formulation that was never published in full, so
    they are context, never gates; the report says so on every line.
    """
    stem = Path(cfg.scenario_path).stem
    anchors = _load_anchor_file()
    lines = [
        "informational anchors (reference values from an unpublished "
        "formulation; deviations are context only, never gates):"
    ]
    matched = 0

    def token_matches(anchor: dict, token: str) -> bool:
        base, _ = _parse_model_token(token)
        if base != anchor.get("model"):
            return False
        sc_resolved = resolved[token]
        if "spacing_m" in anchor:
            spacing = sc_resolved.fractures.spacing
            if spacing is None or not math.isclose(
                spacing, anchor["spacing_m"], rel_tol=1e-6
            ):
                return False
        if "per_fracture_rate_bpd" in anchor:
            rate = _per_fracture_rate_bpd(sc_resolved)
            if not math.isclose(rate, anchor["per_fracture_rate_bpd"], rel_tol=0.01):
                return False
        return True

    for anchor in anchors.get("temperature_anchors", []):
        if anchor.get("scenario") != stem:
            continue
        for token in tokens:
            if not token_matches(anchor, token):
                continue
            ser = series[token]
            t_anchor = anchor["time_yr"] * SECONDS_PER_YEAR
            if t_anchor > ser.times[-1]:
                continue
            engine = float(np.interp(t_anchor, ser.times, ser.outlet_temperatures))
            dev = engine - anchor["reported_C"]
            lines.append(
                f"  {token} at {anchor['time_yr']:g} yr: engine {_fmt(engine)} C, "
                f"reported {anchor['reported_C']:g} C, deviation {dev:+.4g} C [not gated]"
            )
            matched += 1
            break

    for anchor in anchors.get("onset_anchors", []):
        if anchor.get("scenario") != stem:
            continue
        for token in tokens:
            if not token_matches(anchor, token):
                continue
            onset = onset_of_decline(series[token], anchor.get("onset_frac", cfg.onset_frac))
            engine_txt = "none" if onset is None else f"{_fmt(onset / SECONDS_PER_YEAR)} yr"
            dev_txt = (
                "n/a"
                if onset is None
                else f"{onset / SECONDS_PER_YEAR - anchor['reported_yr']:+.4g} yr"
            )
            lines.append(
                f"  onset {token}: engine {engine_txt}, reported "
                f"{anchor['reported_yr']:g} yr, deviation {dev_txt} [not gated]"
            )
            matched += 1
            break

    if matched == 0:
        lines.append(f"  none applicable to scenario {stem!r} with these models")
    return lines


def cmd_compare(cfg: RunConfig) -> int:
    """Run several models on one scenario: wide CSV plus a text report."""
    if len(cfg.models) < 2:
        raise ValueError("compare needs at least two --model entries")
    sc = load_scenario(cfg.scenario_path)
    times = _forecast_times(cfg)
    series: dict[str, object] = {}
    resolved: dict[str, Scenario] = {}
    for token in cfg.models:
        ser, res = _model_series(sc, token, cfg, times)
        series[token] = ser
        resolved[token] = res

    columns = _column_names(cfg.models)
    temp_matrix = np.vstack([series[t].outlet_temperatures for t in cfg.models])
    rows = [
        [times[i] / SECONDS_PER_YEAR, *temp_matrix[:, i]] for i in range(times.size)
    ]
    _emit_csv(cfg.out, ["time_yr", *columns], rows)

    report = []
    for token in cfg.models:
        ser = series[token]
        onset = onset_of_decline(ser, cfg.onset_frac)
        onset_txt = "none" if onset is None else f"{_fmt(onset / SECONDS_PER_YEAR)} yr"
        final = ser.outlet_temperatures[-1]
        report.append(
            f"model {token}: onset {onset_txt}, "
            f"T({_fmt(cfg.horizon_yr)} yr) = {_fmt(final)} C"
        )
    gaps = temp_matrix.max(axis=0) - temp_matrix.min(axis=0)
    worst = int(np.argmax(gaps))
    report.append(
        f"max pairwise gap: {_fmt(gaps[worst])} C at t = "
        f"{_fmt(times[worst] / SECONDS_PER_YEAR)} yr"
    )
    report.extend(_anchor_lines(cfg, cfg.models, resolved, series))
    print("\n".join(report))
    return 0


def cmd_oracle(
    cfg: RunConfig,
    nx: int,
    ny: int,
    nt: int,
    y_max: float | None,
    ratio: float,
    probes: int,
    probe_yr: list[float] | None,
    snapshot_yr: list[float],
    snapshot_out: Path | None,
) -> int:
    """Finite-difference run with a per-probe deviation table vs the model."""
    sc = load_scenario(cfg.scenario_path)
    token = cfg.models[0]
    resolved, base = _resolve_model_scenario(sc, token, cfg.faces, cfg.spacing_m)
    horizon = cfg.horizon_s

    if base == "multi_slab":
        if y_max is not None:
            raise ValueError("slab mode fixes y_max at spacing/2; drop --y-max")
        grid = slab_grid(resolved, nx, ny, nt, ratio=ratio, horizon=horizon)
    else:
        grid = semi_infinite_grid(resolved, nx, ny, nt, ratio=ratio, horizon=horizon, y_max=y_max)

    if probe_yr:
        probe_times = np.array(sorted(set(probe_yr))) * SECONDS_PER_YEAR
    elif probes > 0:
        probe_times = np.geomspace(horizon / 100.0, horizon, probes)
    else:
        probe_times = np.array([])

    snapshot_times = np.array(sorted(set(snapshot_yr))) * SECONDS_PER_YEAR
    result = fd_simulate(resolved, grid, probe_times, snapshot_times=snapshot_times)
    series, details = result if isinstance(result, tuple) else (result, None)

    if probe_times.size:
        if base == "multi_slab":
            ref = multi_fracture_forecast(
                resolved, probe_times, StehfestConfig(cfg.stehfest_n)
            ).outlet_temperatures
        else:
            length = resolved.fractures.flow_length
            ref = np.array([fluid_temp_single(resolved, length, t) for t in probe_times])
        deviations = series.outlet_temperatures - ref
        rows = [
            [probe_times[i] / SECONDS_PER_YEAR, series.outlet_temperatures[i], ref[i], deviations[i]]
            for i in range(probe_times.size)
        ]
    else:
        rows = []
    _emit_csv(cfg.out, ["time_yr", "T_oracle_C", "T_model_C", "deviation_C"], rows)

    if rows:
        span = resolved.rock.initial_temperature - resolved.fluid.injection_temperature
        worst = int(np.argmax(np.abs(deviations)))
        print(
            f"max deviation vs {base}: {_fmt(abs(deviations[worst]))} C "
            f"({_fmt(100.0 * abs(deviations[worst]) / span)}% of span) at "
            f"t = {_fmt(probe_times[worst] / SECONDS_PER_YEAR)} yr"
        )
    else:
        print("no probe times: header-only CSV written")

    if details is not None and snapshot_out is not None:
        for snap in details.snapshots:
            label = _fmt(snap.time / SECONDS_PER_YEAR).replace(".", "p")
            path = Path(f"{snapshot_out}_{label}yr.csv")
            snap_rows = [
                [snap.x[i], snap.y[j], snap.temperatures[j, i]]
                for i in range(snap.x.size)
                for j in range(snap.y.size)
            ]
            _emit_csv(path, ["x_m", "y_m", "T_C"], snap_rows)
    return 0


def _add_common(parser: argparse.ArgumentParser, multi_model: bool) -> None:
    parser.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="scenario JSON (default: bundled valles_caldera)",
    )
    if multi_model:
        parser.add_argument(
            "--model",
            action="append",
            default=None,
            help="model token, repeatable: single | gringarten_ref | "
            "multi_slab[:spacing_m]",
        )
    else:
        parser.add_argument(
            "--model",
            choices=_MODEL_BASES,
            default="single",
            help="forecast model (default single)",
        )
    parser.add_argument("--horizon-yr", type=float, default=None, help="forecast horizon, years")
    parser.add_argument("--steps", type=int, default=None, help="number of time samples")
    parser.add_argument("--stehfest-n", type=int, default=12, help="Stehfest term count")
    parser.add_argument("--onset-frac", type=float, default=0.01, help="decline-onset fraction of span")
    parser.add_argument("--faces", type=int, choices=(1, 2), default=None, help="override exchange faces")
    parser.add_argument("--spacing-m", type=float, default=None, help="override fracture spacing, m")
    parser.add_argument("--out", type=Path, default=None, help="CSV output path (default stdout)")
    parser.add_argument(
        "--linear-time", action="store_true", help="linear time samples instead of log-spaced"
    )


def _build_config(args: argparse.Namespace, models: tuple[str, ...]) -> RunConfig:
    scenario_path = args.scenario or bundled_scenario_path("valles_caldera")
    sc = load_scenario(scenario_path)  # fail fast, and supply defaults
    horizon_yr = (
        args.horizon_yr
        if args.horizon_yr is not None
        else sc.operating.horizon / SECONDS_PER_YEAR
    )
    steps = args.steps if args.steps is not None else sc.operating.n_steps
    for token in models:
        _parse_model_token(token)
    return RunConfig(
        scenario_path=Path(scenario_path),
        models=models,
        horizon_yr=horizon_yr,
        steps=steps,
        stehfest_n=args.stehfest_n,
        onset_frac=args.onset_frac,
        out=args.out,
        faces=args.faces,
        spacing_m=args.spacing_m,
        linear_time=args.linear_time,
    )


def _parse_spacings(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
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
    _add_common(p_forecast, multi_model=False)

    p_table2 = sub.add_parser("table2", help="thermal radius / interference table -> CSV")
    p_table2.add_argument("--scenario", type=Path, default=None)
    p_table2.add_argument(
        "--spacings",
        type=str,
        default=_DEFAULT_SPACINGS,
        help=f"comma-separated spacings in m (default {_DEFAULT_SPACINGS}); empty for none",
    )
    p_table2.add_argument("--out", type=Path, default=None)

    p_compare = sub.add_parser("compare", help="models side by side -> CSV + report")
    _add_common(p_compare, multi_model=True)

    p_oracle = sub.add_parser("oracle", help="finite-difference check vs a model -> CSV")
    _add_common(p_oracle, multi_model=False)
    p_oracle.add_argument("--nx", type=int, default=200, help="along-fracture cells")
    p_oracle.add_argument("--ny", type=int, default=400, help="into-rock cells")
    p_oracle.add_argument("--nt", type=int, default=2000, help="time steps over the horizon")
    p_oracle.add_argument("--y-max", type=float, default=None, help="rock depth, m (semi-infinite mode)")
    p_oracle.add_argument("--ratio", type=float, default=1.02, help="y-grid stretching ratio")
    p_oracle.add_argument("--probes", type=int, default=8, help="log-spaced probe count (0 for none)")
    p_oracle.add_argument(
        "--probe-yr", type=float, action="append", default=None, help="explicit probe time, years (repeatable)"
    )
    p_oracle.add_argument(
        "--snapshot-yr", type=float, action="append", default=None, help="rock snapshot time, years (repeatable)"
    )
    p_oracle.add_argument(
        "--snapshot-out", type=Path, default=None, help="path prefix for snapshot CSV dumps"
    )

    p_convert = sub.add_parser("convert", help="convert a value between unit tags")
    p_convert.add_argument("value", type=float)
    p_convert.add_argument("src", help="source unit tag")
    p_convert.add_argument("dst", help="target unit tag")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "convert":
            print(_fmt(convert_value(args.value, args.src, args.dst)))
            return 0
        if args.command == "table2":
            scenario_path = args.scenario or bundled_scenario_path("valles_caldera")
            return cmd_table2(scenario_path, _parse_spacings(args.spacings), args.out)
        if args.command == "forecast":
            cfg = _build_config(args, (args.model,))
            return cmd_forecast(cfg)
        if args.command == "compare":
            models = tuple(args.model or ())
            cfg = _build_config(args, models)
            return cmd_compare(cfg)
        if args.command == "oracle":
            cfg = _build_config(args, (args.model,))
            return cmd_oracle(
                cfg,
                nx=args.nx,
                ny=args.ny,
                nt=args.nt,
                y_max=args.y_max,
                ratio=args.ratio,
                probes=args.probes,
                probe_yr=args.probe_yr,
                snapshot_yr=args.snapshot_yr or [],
                snapshot_out=args.snapshot_out,
            )
        raise ValueError(f"unknown command {args.command!r}")
    except (ScenarioError, ValueError, ArithmeticError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs and output checks.

Inputs are plain JSON built from the bundled scenario files and the seed;
the worker turns them into egstherm calls. Checks compare what the worker
got back with :mod:`reference`, which never imports egstherm.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

SITES = ("valles_caldera", "zeinali")
WORKLOADS = ("design_sweep", "oracle_crosscheck", "cli_session")
POINTS = 200  # CLI default forecast length

# Design panel: drawn once with a fixed seed, so every run attempts the same
# designs and the clamp-guard refusals are the same share of every run. The
# run's own seed orders each round.
PANEL_SEED = 2601
PANEL_SIZE = 48
# the refusal reported in the design study: a valles-size array of
# 12 fractures at 21.5 m and 0.27x the bundled per-fracture rate
NAMED_REFUSAL = {"site": "valles_caldera", "count": 12, "spacing": 21.5,
                 "rate_factor": 0.27, "horizon_yr": 50.0}
# forecast rows checked against the Talbot reference, in every run: the
# Stehfest error peaks in the depletion tail and swings from row to row
# there, so seeded rows would make max_err_C depend on the seed
CHECK_INDICES = [99, 169, 189, 199]

# Tolerances. The properties use the stated Stehfest accuracy, 0.5% of span.
# The Talbot comparison of the Stehfest forecast is a gross-error gate (5% of
# span); its accuracy is reported as max_err_C, not gated here. The oracle is
# gated at 0.25% of span against the exact references.
PROPERTY_TOL = 5e-3
STEHFEST_GATE = 5e-2
ORACLE_GATE = 2.5e-3
ENERGY_GATE = 1e-6


def load_sites(root: Path) -> dict:
    data = root / "src" / "egstherm" / "data"
    return {name: json.loads((data / f"{name}.json").read_text()) for name in SITES}


def _variant(base: dict, **fractures_and_operating) -> dict:
    sc = json.loads(json.dumps(base))
    for key, value in fractures_and_operating.items():
        section = "operating" if key in ("total_rate", "horizon") else "fractures"
        sc[section][key] = value
    return sc


def _forecast_times(horizon: float) -> list[float]:
    return np.geomspace(horizon / 1e4, horizon, POINTS).tolist()


def _design(sites: dict, site: str, count: int, spacing: float, rate_factor: float,
            horizon_yr: float) -> dict:
    base = sites[site]
    per_fracture = base["operating"]["total_rate"] / base["fractures"]["count"] * rate_factor
    horizon = horizon_yr * ref.SECONDS_PER_YEAR
    array = _variant(base, count=count, spacing=spacing,
                     total_rate=per_fracture * count, horizon=horizon)
    # isolated comparator: one fracture, same per-fracture rate and faces
    isolated = _variant(array, count=1, spacing=None, total_rate=per_fracture)
    return {"site": site, "count": count, "spacing": spacing, "rate_factor": rate_factor,
            "horizon_yr": horizon_yr, "array": array, "isolated": isolated,
            "times": _forecast_times(horizon)}


def design_panel(sites: dict) -> list[dict]:
    rng = np.random.default_rng(PANEL_SEED)
    panel = [_design(sites, **NAMED_REFUSAL)]
    for i in range(PANEL_SIZE - 1):
        panel.append(_design(
            sites,
            site=SITES[i % 2],
            count=int(rng.integers(2, 21)),
            spacing=round(float(np.exp(rng.uniform(math.log(20.0), math.log(200.0)))), 2),
            rate_factor=round(float(np.exp(rng.uniform(math.log(0.25), math.log(4.0)))), 3),
            horizon_yr=round(float(rng.uniform(30.0, 50.0)), 2),
        ))
    for i, d in enumerate(panel):
        d["id"] = f"d{i:02d}"
    return panel


def _single(sc: dict) -> dict:
    """The CLI's ``single`` model: one fracture, one face, the whole rate."""
    return _variant(sc, count=1, spacing=None, faces=1)


def build_inputs(workload: str, seed: int, root: Path) -> dict:
    sites = load_sites(root)
    rng = np.random.default_rng(seed)
    inputs = {"workload": workload, "seed": seed}
    if workload == "design_sweep":
        inputs["designs"] = design_panel(sites)
    elif workload == "oracle_crosscheck":
        cases = []
        for site in SITES:
            h = sites[site]["operating"]["horizon"]
            extra = np.exp(rng.uniform(math.log(h / 100.0), math.log(h), 8))
            # the semi-infinite reference is cheap, so its fixed grid is dense
            # enough to hold the oracle's largest error; the slab one is Talbot
            for mode, n_fixed, sc in (("slab", 32, sites[site]),
                                      ("semi", 256, _single(sites[site]))):
                fixed = np.geomspace(h / 100.0, h, n_fixed)
                probes = sorted(set(np.concatenate([fixed, extra]).tolist()))
                cases.append({"id": f"{site}/{mode}", "mode": mode, "scenario": sc,
                              "probes": probes})
        inputs["cases"] = cases
    elif workload == "cli_session":
        commands = []
        for site in SITES:
            path = f"src/egstherm/data/{site}.json"
            sc = sites[site]
            spacings = sorted({round(float(v), 1) for v in
                               np.exp(rng.uniform(math.log(5.0), math.log(200.0), 8))})
            rate = sc["operating"]["total_rate"]
            per_fracture_bpd = sc.get("metadata", {}).get("per_fracture_rate_bpd")
            commands += [
                {"id": f"{site}/forecast_multi_slab", "kind": "forecast", "site": site,
                 "argv": ["forecast", "--model", "multi_slab", "--scenario", path]},
                {"id": f"{site}/forecast_single", "kind": "forecast", "site": site,
                 "argv": ["forecast", "--model", "single", "--scenario", path]},
                {"id": f"{site}/compare", "kind": "compare", "site": site,
                 "argv": ["compare", "--model", "single", "--model", "gringarten_ref",
                          "--model", "multi_slab", "--scenario", path]},
                {"id": f"{site}/table2", "kind": "table2", "site": site, "spacings": spacings,
                 "argv": ["table2", "--scenario", path,
                          "--spacings", ",".join(format(s, "g") for s in spacings)]},
                # the site's own rate, in the unit its source quotes it
                {"id": f"{site}/convert", "kind": "convert", "site": site,
                 "argv": (["convert", format(per_fracture_bpd, "g"), "bpd", "m3_per_s"]
                          if per_fracture_bpd else
                          ["convert", format(rate, "g"), "m3_per_s", "bpd"])},
            ]
        inputs["commands"] = commands
        inputs["sites"] = sites
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    return inputs


class Checker:
    """Collects failed checks, the largest temperature error seen, and the
    operations whose output is wrong on every run (counted as failed)."""

    def __init__(self):
        self.problems: list[str] = []
        self.wrong: dict[str, str] = {}
        self.max_err = 0.0
        self.samples = 0

    def error(self, label: str, got, want, tol) -> None:
        """|got - want| <= tol elementwise; tol may be an array."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = np.abs(got - want)
        self.samples += err.size
        self.max_err = max(self.max_err, float(err.max(initial=0.0)))
        bad = ~(err <= tol)
        if bad.any():
            i = int(np.argmax(np.where(bad, err, -1.0)))
            limit = float(np.broadcast_to(tol, err.shape)[i])
            self.problems.append(
                f"{label}: |program - reference| = {err[i]:.4g} at sample {i} "
                f"(program {got[i]:.9g}, reference {want[i]:.9g}), tolerance {limit:.3g}")

    def printed(self, label: str, got, want) -> None:
        """Values printed to 6 significant digits: the correctly rounded
        reference, within half a unit in the sixth digit."""
        self.error(label, got, want, [ref.half_ulp6(w) for w in want])

    def properties(self, label: str, sc: dict, temps, upper=None) -> None:
        """Bounded in [T_inj, T0], non-increasing within 0.5% of span, and at
        or below ``upper`` (the isolated fracture) within the same error."""
        temps = np.asarray(temps, dtype=float)
        t_hot = sc["rock"]["initial_temperature"]
        t_cold = sc["fluid"]["injection_temperature"]
        tol = PROPERTY_TOL * ref.span(sc)
        if temps.min() < t_cold or temps.max() > t_hot:
            self.problems.append(f"{label}: outlet leaves [{t_cold}, {t_hot}]: "
                                 f"{temps.min():.6g} .. {temps.max():.6g}")
        rise = float(np.diff(temps).max(initial=0.0))
        if rise > tol:
            self.problems.append(f"{label}: outlet rises by {rise:.4g} C, beyond {tol:.3g} C")
        if upper is not None:
            excess = float((temps - np.asarray(upper, dtype=float)).max())
            if excess > tol:
                self.problems.append(f"{label}: array above the isolated fracture by "
                                     f"{excess:.4g} C, beyond {tol:.3g} C")

    def expect(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self.problems.append(f"{label}: {detail}")


def check_design_sweep(inputs: dict, results: dict, chk: Checker) -> None:
    for d in inputs["designs"]:
        out = results["outputs"].get(d["id"])
        if out is None:  # refused: counted as a failed operation
            continue
        array, isolated = d["array"], d["isolated"]
        label = f"design {d['id']}"
        iso_ref = [ref.isolated_outlet(isolated, t) for t in d["times"]]
        chk.error(f"{label} isolated vs erfc", out["isolated"], iso_ref, 1e-9 * ref.span(array))
        chk.properties(f"{label} isolated", isolated, out["isolated"])
        chk.properties(f"{label} array", array, out["array"], upper=out["isolated"])
        idx = CHECK_INDICES
        slab_ref = ref.slab_outlet(array, [d["times"][i] for i in idx])
        chk.error(f"{label} array vs Talbot", [out["array"][i] for i in idx], slab_ref,
                  STEHFEST_GATE * ref.span(array))


def check_oracle(inputs: dict, results: dict, chk: Checker) -> None:
    for case in inputs["cases"]:
        out = results["outputs"][case["id"]]
        sc, probes = case["scenario"], case["probes"]
        if case["mode"] == "slab":
            want = ref.slab_outlet(sc, probes)
            imbalance = out["energy_imbalance"]
            chk.expect(case["id"], imbalance is not None and imbalance <= ENERGY_GATE,
                       f"slab energy imbalance {imbalance} above {ENERGY_GATE:g}")
        else:
            want = [ref.isolated_outlet(sc, t) for t in probes]
        chk.error(f"oracle {case['id']}", out["outlet"], want, ORACLE_GATE * ref.span(sc))
        chk.properties(f"oracle {case['id']}", sc, out["outlet"])


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# CSV column of each model in forecast and compare output
_FORECAST_COLUMNS = {"single": "T_out_C", "multi_slab": "T_out_C"}
_COMPARE_COLUMNS = {"single": "T_single_C", "gringarten_ref": "T_gringarten_ref_C",
                    "multi_slab": "T_multi_slab_C"}


def check_cli(inputs: dict, results: dict, chk: Checker) -> None:
    sites = inputs["sites"]
    slab_refs: dict[tuple[str, int], float] = {}  # forecast and compare share rows
    for cmd in inputs["commands"]:
        out = results["outputs"].get(cmd["id"])
        if out is None:
            continue
        site, kind = cmd["site"], cmd["kind"]
        sc = sites[site]
        label = f"cli {cmd['id']}"
        if kind == "convert":
            value, src, dst = float(cmd["argv"][1]), cmd["argv"][2], cmd["argv"][3]
            exact = ref.convert(value, src, dst)
            printed = float(out["stdout"].strip())
            if abs(printed - exact) > ref.half_ulp6(exact):
                chk.wrong[cmd["id"]] = f"printed {printed:g}, exact factor gives {exact:.9g}"
            continue
        if kind == "table2":
            header, rows = _csv(out["stdout"])
            chk.expect(label, len(rows) == len(cmd["spacings"]),
                       f"{len(rows)} rows for {len(cmd['spacings'])} spacings")
            exact = [ref.table2_row(s, ref.diffusivity(sc)) for s in cmd["spacings"]]
            chk.printed(f"{label} vs s^2/(4 alpha)", [float(v) for r in rows for v in r],
                        [v for r in exact for v in r])
            continue
        text = out["stdout"]
        if kind == "compare":  # the CSV, then the text report
            text = text[: text.index("\nmodel ") + 1]
            columns = _COMPARE_COLUMNS
        else:
            columns = {cmd["argv"][2]: _FORECAST_COLUMNS[cmd["argv"][2]]}
        header, rows = _csv(text)
        cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)
                if name != "model"}
        times = _forecast_times(sc["operating"]["horizon"])
        chk.expect(label, len(rows) == POINTS, f"{len(rows)} rows, expected {POINTS}")
        chk.printed(f"{label} time_yr", cols["time_yr"],
                    [t / ref.SECONDS_PER_YEAR for t in times])
        for model, column in columns.items():
            temps = cols[column]
            if model == "multi_slab":
                idx = CHECK_INDICES
                todo = [i for i in idx if (site, i) not in slab_refs]
                for i, v in zip(todo, ref.slab_outlet(sc, [times[i] for i in todo])):
                    slab_refs[(site, i)] = v
                chk.error(f"{label} {model} vs Talbot", [temps[i] for i in idx],
                          [slab_refs[(site, i)] for i in idx], STEHFEST_GATE * ref.span(sc))
                chk.properties(f"{label} {model}", sc, temps)
            else:
                single = _variant(_single(sc), faces=2 if model == "gringarten_ref" else 1)
                chk.printed(f"{label} {model} vs erfc", temps,
                            [ref.isolated_outlet(single, t) for t in times])
                chk.properties(f"{label} {model}", single, temps)

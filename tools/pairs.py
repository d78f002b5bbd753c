"""Alternating benchmark pairs of two revisions, summarised in one file.

    python3 tools/pairs.py --against 829a798 --label pr41
    python3 tools/pairs.py --against HEAD~1 --label x \\
        --workload design_sweep --seed 1

Exports the parent revision and HEAD with ``git archive`` into a temporary
directory, so each runs from its committed files alone, and runs each tree's
own ``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds``
once per pair and workload, on the pair's seed, alternating which side runs
first. Every run makes ``PAIRS`` (ten) pairs: with fewer, the parent's
interquartile distance, which a gain must exceed, is too coarse to tell a
gain (with one pair it is 0). Each run's last line is parsed as strict JSON (NaN and Infinity
refused). For every end-to-end metric of
``BENCHMARK.json`` it reports both sides' medians and quartiles, the pairs the
change won and a verdict against the metric's bound, and it writes all of it,
with the host, the Python and NumPy versions and both commit ids, to
``BENCH_<label>.json`` at the repository root. Standard library only.

Verdicts, per workload and metric (bounds are fractions of the parent's
median):

- ``regression``: the change's median is worse by more than the bound;
- ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither side) and its median is better by more than the parent's
  interquartile distance;
- ``unresolved``: the parent's own interquartile distance exceeds the bound,
  and not every run of the change beats every run of the parent;
- ``within bound``: none of these.

A workload whose change fails a larger share of operations than the parent,
in the median, is flagged ``more_failed``, and none of its metrics is then a
``gain``: those read ``within bound``.

After the pairs it runs each tree's ``perfbench/run.py --trace 1`` once per
workload, for ``run_seconds`` on the first pair's seed, and records under
``traced`` whether the last line is strict JSON and, if not, the constant it
refused (the traced report is where a per-layer span that no operation
reaches has printed a bare ``NaN``).

Then it runs one fixed script (``OUTPUTS_SCRIPT``) in each
tree, in a subprocess importing that tree's ``src``: the design panel of the
tree's own ``perfbench/workloads.py``, array at Stehfest orders 8, 12, 16 and
18 and isolated once (the single-fracture path reads no Stehfest order), the
oracle in slab and semi-infinite mode on both bundled sites (outlets on the
default grid and on a 16 x 16 grid of 60 steps per horizon, the default
grid's rock fields at h/20 and h/2, the slab energy ledger in J, and the
drained 1 mm slab, which the oracle refuses), and every distinct
``cli_session`` command of the pairs' seeds as ``python -m egstherm``. The
report's ``outputs`` entry gives, per group, the largest difference (in C,
the ledger's in J), the count of arrays that are not bit-identical and
every refusal whose message differs between the trees, and, per command,
whether its stdout, its stderr and its exit code match byte for byte.

Last it runs the tier-1 test command (``TIER1_COMMAND``) once in each tree,
the tree that ran first in the last pair now second, and records under
``tier1`` each tree's wall time, exit code and the passed, failed and error
counts of pytest's closing summary line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900.0
GAIN_SHARE = 0.9
PAIRS = 10


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} in benchmark output")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def last_result(stdout: str) -> dict:
    """The benchmark's result: its last non-empty output line, strict JSON
    with the keys correct, attempted, failed and metrics."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = strict_loads(lines[-1])
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                             "metrics"} <= result.keys():
        raise ValueError(f"last line is not a benchmark result: {lines[-1][:200]}")
    return result


def traced_line(stdout: str) -> dict:
    """Whether a traced run's last non-empty output line is strict JSON:
    {"strict_json": True}, or False with the first non-finite constant it
    holds ("refused") or why it does not parse at all ("error")."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return {"strict_json": False, "error": "printed nothing"}
    refused = []
    try:
        json.loads(lines[-1], parse_constant=refused.append)
    except ValueError as err:
        return {"strict_json": False, "error": str(err)}
    if refused:
        return {"strict_json": False, "refused": refused[0]}
    return {"strict_json": True}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _gain(parent: float, change: float, better: str) -> float:
    """How much better change is than parent, in the metric's units."""
    return parent - change if better == "lower" else change - parent


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary of one metric over paired runs: parent[i] and change[i] ran
    as pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(_gain(p, c, better) > 0.0 for p, c in zip(parent, change))
    losses = sum(_gain(p, c, better) < 0.0 for p, c in zip(parent, change))
    spread = p_q3 - p_q1
    scale = abs(p_med)
    worse = -_gain(p_med, c_med, better)
    if worse > bound * scale:
        status = "regression"
    elif wins >= GAIN_SHARE * len(parent) and _gain(p_med, c_med, better) > spread:
        status = "gain"
    elif spread > bound * scale and not all(
            _gain(p, c, better) > 0.0 for p in parent for c in change):
        status = "unresolved"
    else:
        status = "within bound"
    return {
        "parent": {"runs": parent, "q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"runs": change, "q1": c_q1, "median": c_med, "q3": c_q3},
        "relative_change": (c_med - p_med) / scale if scale else None,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "bound": bound, "better": better, "verdict": status,
    }


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's report from its pairs, each {"seed", "first",
    "parent": result, "change": result}, against BENCHMARK.json's end-to-end
    metric list."""
    out = {"pairs": [{"seed": r["seed"], "first": r["first"]} for r in runs], "metrics": {}}
    for side in ("parent", "change"):
        shares = [r[side]["failed"] / r[side]["attempted"] for r in runs]
        out[f"{side}_failed_share"] = statistics.median(shares)
        out[f"{side}_correct"] = all(r[side]["correct"] for r in runs)
    out["more_failed"] = out["change_failed_share"] > out["parent_failed_share"]
    for metric in end_to_end:
        name = metric["name"]
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        summary = verdict(parent, change, metric["better"], metric["bound"])
        # a faster run that fails more operations has not gained
        if out["more_failed"] and summary["verdict"] == "gain":
            summary["verdict"] = "within bound"
        out["metrics"][name] = summary
    return out


# Run in a tree's root with that tree's src on the path, with the pairs'
# seeds as arguments; prints one strict JSON object {"series": {group: {case:
# {"values": [...]} or {"refused": message}}}, "cli": {command: {"stdout",
# "stderr", "exit_code"}}}, the CLI's bytes decoded as Latin-1 (one character
# per byte, so equal strings are equal bytes).
OUTPUTS_SCRIPT = """
import json, subprocess, sys
from dataclasses import replace
from pathlib import Path
import numpy as np
import egstherm
from egstherm.scenario import collapse_to_single
sys.path.insert(0, "perfbench")
import workloads

def record(run):
    try:
        return {"values": np.ravel(run()).tolist()}
    except (ArithmeticError, ValueError) as err:
        return {"refused": f"{type(err).__name__}: {err}"}

def ledger(sc, probes):
    _, details = egstherm.fd_simulate(sc, egstherm.slab_grid(sc), probes, return_details=True)
    return [details.fluid_enthalpy_J, details.rock_heat_loss_J]

series = {}
panel = workloads.design_panel(workloads.load_sites(Path.cwd()))
for d in panel:
    times = np.array(d["times"])
    sc = egstherm.scenario_from_dict(d["isolated"])
    series.setdefault("design isolated", {})[d["id"]] = record(
        lambda: egstherm.multi_fracture_forecast(sc, times).outlet_temperatures)
for n in (8, 12, 16, 18):
    config = egstherm.StehfestConfig(n)
    for d in panel:
        times = np.array(d["times"])
        sc = egstherm.scenario_from_dict(d["array"])
        series.setdefault(f"design array n={n}", {})[d["id"]] = record(
            lambda: egstherm.multi_fracture_forecast(sc, times, config).outlet_temperatures)
for site in workloads.SITES:
    sc = egstherm.bundled_scenario(site)
    h = sc.operating.horizon
    probes = np.geomspace(h / 100.0, h, 32)
    single = collapse_to_single(sc, 1)
    for mode, run_sc, factory in (("slab", sc, egstherm.slab_grid),
                                  ("semi-infinite", single, egstherm.semi_infinite_grid)):
        series.setdefault(f"oracle {mode}", {})[site] = record(
            lambda: egstherm.fd_simulate(run_sc, factory(run_sc), probes).outlet_temperatures)
        series.setdefault(f"oracle {mode} 16x16", {})[site] = record(
            lambda: egstherm.fd_simulate(run_sc, factory(run_sc, nx=16, ny=16, n_steps=60),
                                         probes).outlet_temperatures)
        # the rock fields at h/20 and h/2, one after the other
        series.setdefault(f"oracle {mode} snapshots", {})[site] = record(lambda: [
            snap.temperatures for snap in egstherm.fd_simulate(
                run_sc, factory(run_sc), probes, snapshot_times=[h / 20.0, h / 2.0])[1].snapshots])
    series.setdefault("oracle slab ledger (J)", {})[site] = record(lambda: ledger(sc, probes))
    drained = replace(sc, fractures=replace(sc.fractures, spacing=1e-3))
    series.setdefault("oracle drained slab", {})[site] = record(
        lambda: egstherm.fd_simulate(drained, egstherm.slab_grid(drained),
                                     probes).outlet_temperatures)
cli = {}
for seed in map(int, sys.argv[1:]):
    for command in workloads.build_inputs("cli_session", seed, Path.cwd())["commands"]:
        key = " ".join(command["argv"])
        if key not in cli:
            proc = subprocess.run([sys.executable, "-m", "egstherm", *command["argv"]],
                                  capture_output=True)
            cli[key] = {"stdout": proc.stdout.decode("latin-1"),
                        "stderr": proc.stderr.decode("latin-1"),
                        "exit_code": proc.returncode}
print(json.dumps({"series": series, "cli": cli}, allow_nan=False))
"""


def compare_outputs(parent: dict, change: dict) -> dict:
    """Per group of OUTPUTS_SCRIPT's result, the largest |change - parent| in
    C over the arrays both trees served, and the count of arrays that are not
    bit-identical; and, over all groups, every case whose refusal differs
    (refused by one tree only, or with another message) or that one tree
    lacks."""
    out = {"groups": {}, "not_identical": 0, "differing_refusals": [], "unmatched": []}
    for group in dict.fromkeys([*parent, *change]):
        p_cases, c_cases = parent.get(group, {}), change.get(group, {})
        summary = {"arrays": 0, "not_identical": 0, "max_abs_diff_C": 0.0, "refused": 0}
        for case in sorted(p_cases.keys() | c_cases.keys()):
            p, c = p_cases.get(case), c_cases.get(case)
            if p is None or c is None:
                out["unmatched"].append({"group": group, "case": case,
                                         "only_in": "parent" if c is None else "change"})
                continue
            if "refused" in p or "refused" in c:
                summary["refused"] += "refused" in p and "refused" in c
                if p.get("refused") != c.get("refused"):
                    out["differing_refusals"].append({"group": group, "case": case,
                                                      "parent": p.get("refused"),
                                                      "change": c.get("refused")})
                continue
            a, b = p["values"], c["values"]
            summary["arrays"] += 1
            # float.hex tells -0.0 from 0.0, which == does not
            if [x.hex() for x in a] != [y.hex() for y in b]:
                summary["not_identical"] += 1
            if len(a) == len(b):
                diff = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
                summary["max_abs_diff_C"] = max(summary["max_abs_diff_C"], diff)
            else:
                out["unmatched"].append({"group": group, "case": case,
                                         "lengths": [len(a), len(b)]})
        out["groups"][group] = summary
        out["not_identical"] += summary["not_identical"]
    return out


def compare_cli(parent: dict, change: dict) -> dict:
    """Per command of OUTPUTS_SCRIPT's "cli" result, whether its stdout, its
    stderr and its exit code match between the trees, and the count of
    commands where any of them differs or that one tree lacks."""
    out = {"commands": [], "differ": 0}
    for command in dict.fromkeys([*parent, *change]):
        p, c = parent.get(command), change.get(command)
        if p is None or c is None:
            row = {"command": command, "only_in": "parent" if c is None else "change"}
        else:
            row = {"command": command, **{k: p[k] == c[k]
                                          for k in ("stdout", "stderr", "exit_code")}}
        out["differ"] += not all(row.get(k) is True for k in ("stdout", "stderr", "exit_code"))
        out["commands"].append(row)
    return out


def run_outputs(tree: Path, seeds: list[int]) -> dict:
    """OUTPUTS_SCRIPT's result in tree for the CLI commands of seeds,
    parsed strictly."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", OUTPUTS_SCRIPT, *map(str, seeds)], cwd=tree,
                          env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"the outputs script exited with {proc.returncode} in {tree}:\n"
                           f"{proc.stderr[-2000:]}")
    return strict_loads(proc.stdout)


def compare_trees(parent: dict, change: dict) -> dict:
    """The report's outputs entry from both trees' OUTPUTS_SCRIPT results."""
    return {**compare_outputs(parent["series"], change["series"]),
            "cli": compare_cli(parent["cli"], change["cli"])}


# run in a tree's root with that tree's src on the path
TIER1_COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1_counts(stdout: str) -> dict:
    """The passed, failed and error counts of pytest's closing summary line,
    the last non-empty one, such as "1 failed, 603 passed in 17.80s"."""
    lines = [line.strip(" =") for line in stdout.splitlines() if line.strip(" =")]
    if not lines or not re.search(r"\bin \d+(\.\d+)?s\b", lines[-1]):
        raise ValueError(f"no pytest summary line: {lines[-1][:200] if lines else ''!r}")
    counts = {"passed": 0, "failed": 0, "errors": 0}
    for number, word in re.findall(r"(\d+) (passed|failed|errors?)\b", lines[-1]):
        counts["errors" if word.startswith("error") else word] += int(number)
    return counts


def run_tier1(tree: Path) -> dict:
    """Wall time, exit code and counts of one TIER1_COMMAND run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    # 0: all passed, 1: some failed; anything else ran no full suite
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"tier-1 tests exited with {proc.returncode} in {tree}:\n"
                           f"{(proc.stdout + proc.stderr)[-2000:]}")
    return {"wall_s": wall, "exit_code": proc.returncode, **tier1_counts(proc.stdout)}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract rev's committed files into dest; return its full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _benchmark_stdout(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", format(seconds, "g"), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    return last_result(_benchmark_stdout(tree, workload, seed, seconds, trace=0))


def _print_workload(workload: str, report: dict) -> None:
    print(f"{workload}: failed share {report['parent_failed_share']:.4g} -> "
          f"{report['change_failed_share']:.4g}"
          + ("  MORE FAILED" if report["more_failed"] else ""))
    for name, m in report["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:12s} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
              f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"won {m['wins']}/{m['pairs']}  {m['verdict']}")


def _print_traced(traced: dict) -> None:
    for workload, sides in traced["workloads"].items():
        print(f"traced {workload}: " + ", ".join(
            f"{side} " + ("strict JSON" if t["strict_json"] else
                          f"NOT strict JSON ({t.get('refused') or t.get('error')})")
            for side, t in sides.items()))


def _print_outputs(outputs: dict) -> None:
    print(f"outputs: {outputs['not_identical']} arrays not bit-identical, "
          f"{len(outputs['differing_refusals'])} refusals differ, "
          f"{len(outputs['unmatched'])} cases unmatched, "
          f"{outputs['cli']['differ']} of {len(outputs['cli']['commands'])} CLI commands differ")
    for group, g in outputs["groups"].items():
        print(f"  {group:24s} max |diff| {g['max_abs_diff_C']:.3g} C over {g['arrays']} arrays, "
              f"{g['not_identical']} not identical, {g['refused']} refused by both")


def _print_tier1(tier1: dict) -> None:
    for side in ("parent", "change"):
        t = tier1[side]
        print(f"tier-1 {side}: {t['passed']} passed, {t['failed']} failed, {t['errors']} errors "
              f"in {t['wall_s']:.1f} s" + ("  (first)" if tier1["first"] == side else ""))


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="parent revision, measured against HEAD")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable (default: every workload of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    report = {
        "label": args.label,
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "load_average_at_start": list(os.getloadavg())},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "settings": {"pairs": PAIRS, "seconds": seconds, "first_seed": args.seed,
                     "benchmark_command": [*bench["command"], "--trace", "0"]},
        "workloads": {},
    }
    try:
        with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
            trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
            report["parent_commit"] = export(args.against, trees["parent"])
            report["change_commit"] = export("HEAD", trees["change"])
            started = time.time()
            for workload in args.workload or names:
                runs = []
                for i in range(PAIRS):
                    seed = args.seed + i
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_benchmark(trees[side], workload, seed, seconds)
                    runs.append(run)
                report["workloads"][workload] = summarise(runs, bench["end_to_end"])
                _print_workload(workload, report["workloads"][workload])
            report["traced"] = {
                "command": [*bench["command"], "--trace", "1"], "seed": args.seed,
                "workloads": {workload: {side: traced_line(_benchmark_stdout(
                    trees[side], workload, args.seed, seconds, trace=1))
                    for side in ("parent", "change")} for workload in args.workload or names},
            }
            _print_traced(report["traced"])
            seeds = [args.seed + i for i in range(PAIRS)]
            report["outputs"] = compare_trees(*(run_outputs(trees[side], seeds)
                                                for side in ("parent", "change")))
            _print_outputs(report["outputs"])
            # pair number PAIRS of the alternation: the last pair's second runs first
            order = ("parent", "change") if PAIRS % 2 == 0 else ("change", "parent")
            report["tier1"] = {"command": ["python", *TIER1_COMMAND], "first": order[0],
                               **{side: run_tier1(trees[side]) for side in order}}
            _print_tier1(report["tier1"])
            report["wall_s"] = time.time() - started
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs of two revisions, summarised in one file.

    python3 tools/pairs.py --against 829a798 --label pr41
    python3 tools/pairs.py --against HEAD~1 --label x \\
        --workload design_sweep --pairs 10 --seed 1

Exports the parent revision and HEAD with ``git archive`` into a temporary
directory, so each runs from its committed files alone, and runs each tree's
own ``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds``
once per pair and workload, on the pair's seed, alternating which side runs
first. Each run's last line is parsed as strict JSON (NaN and Infinity
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
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
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


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract rev's committed files into dest; return its full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", format(seconds, "g"), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return last_result(proc.stdout)


def _print_workload(workload: str, report: dict) -> None:
    print(f"{workload}: failed share {report['parent_failed_share']:.4g} -> "
          f"{report['change_failed_share']:.4g}"
          + ("  MORE FAILED" if report["more_failed"] else ""))
    for name, m in report["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:12s} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
              f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"won {m['wins']}/{m['pairs']}  {m['verdict']}")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="parent revision, measured against HEAD")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable (default: every workload of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = bench["run_seconds"]

    report = {
        "label": args.label,
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "load_average_at_start": list(os.getloadavg())},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "settings": {"pairs": args.pairs, "seconds": seconds, "first_seed": args.seed,
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
                for i in range(args.pairs):
                    seed = args.seed + i
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_benchmark(trees[side], workload, seed, seconds)
                    runs.append(run)
                report["workloads"][workload] = summarise(runs, bench["end_to_end"])
                _print_workload(workload, report["workloads"][workload])
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

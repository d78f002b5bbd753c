"""egstherm benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

Prints the run report and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md). Run from anywhere;
the package is imported from ``src/`` next to this directory, never from an
installed copy. Exits non-zero without a result when it cannot run.
"""

from __future__ import annotations

import os

# every process of the benchmark runs single-threaded BLAS; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"op_p50_ms": "ms", "ops_per_s": "1/s", "max_err_C": "C",
                    "setup_s": "s", "peak_rss_MB": "MB"}
PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "cli.main_forecast_ms": "ms", "cli.main_compare_ms": "ms",
    "cli.main_table2_ms": "ms", "cli.main_convert_ms": "ms",
    "scenario.load_scenario_us": "us", "scenario.validate_us": "us",
    "scenario.validate_calls_per_op": "count",
    "laplace.multi_fracture_forecast_ms": "ms", "laplace.self_ms_per_op": "ms",
    "laplace.stehfest_invert_us": "us", "laplace.stehfest_invert_calls_per_op": "count",
    "laplace.image_eval_us": "us", "laplace.image_evals_per_op": "count",
    "laplace.first_call_ms": "ms",
    "analytic.fluid_temp_single_us": "us", "analytic.fluid_temp_single_calls_per_op": "count",
    "specfun.erfc_ns": "ns", "specfun.erfc_calls_per_op": "count",
    "oracle.fd_simulate_s": "s", "oracle.step_ms": "ms", "oracle.node_step_ns": "ns",
    "oracle.sweeps_per_step": "count", "oracle.traced_peak_MB": "MB",
    "units.convert_value_us": "us",
    "trace.overhead_ratio": "ratio",
}

FIRST_CALL = """
import time
import numpy as np
import egstherm.cli
from egstherm import bundled_scenario, multi_fracture_forecast
sc = bundled_scenario("valles_caldera")
h = sc.operating.horizon
times = np.geomspace(h / 1e4, h, 200)
start = time.perf_counter()
multi_fracture_forecast(sc, times)
print((time.perf_counter() - start) * 1e3)
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(mode: str, inputs_path: Path, results_path: Path, log: Path) -> float:
    """Start a worker, return seconds from start to READY, wait for its end."""
    start = time.perf_counter()
    with open(log, "a", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(inputs_path), str(results_path), mode],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{tail}")
    return ready


def time_setups(inputs_path: Path, results_path: Path, log: Path) -> tuple[list, list]:
    """Set-up times of fresh workers that exit at READY, as measured and
    scaled by the import reference timed between them."""
    raw, scaled = [], []
    before = speed.probe("import")
    for _ in range(SETUP_SAMPLES):
        ready = run_worker("setup", inputs_path, results_path, log)
        after = speed.probe("import")
        raw.append(ready)
        scaled.append(ready * speed.scale("import", before, after))
        before = after
    return raw, scaled


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(import egstherm.cli, SciPy share of it) in ms from -X importtime output,
    which lists each module after the modules it imported."""
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)

    def scipy_us(node) -> int:
        name, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(scipy_us(c) for c in children)

    ours = [n for n in pending.get(0, []) if n[0] == "egstherm" or n[0].startswith("egstherm.")]
    if not ours:
        raise BenchError("import egstherm.cli did not show in -X importtime output")
    return sum(n[1] for n in ours) / 1e3, sum(scipy_us(n) for n in ours) / 1e3


def first_call_child() -> tuple[float, float, float]:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", FIRST_CALL], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"first-call child failed:\n{proc.stderr[-2000:]}")
    import_ms, scipy_ms = parse_importtime(proc.stderr)
    return import_ms, scipy_ms, float(proc.stdout.strip().splitlines()[-1])


def check(inputs: dict, results: dict) -> workloads.Checker:
    chk = workloads.Checker()
    {"design_sweep": workloads.check_design_sweep,
     "oracle_crosscheck": workloads.check_oracle,
     "cli_session": workloads.check_cli}[inputs["workload"]](inputs, results, chk)
    chk.problems[:0] = results["problems"]
    for key in results["durations"]:
        if key not in results["failed"] and key not in results["outputs"]:
            chk.problems.append(f"{key}: no output recorded")
    return chk


def versions() -> dict:
    out = {"python": platform.python_version(), "cpus": os.cpu_count()}
    for pkg in ("numpy", "scipy", "mpmath"):
        out[pkg] = importlib.metadata.version(pkg)
    return out


def measure(args, out_dir: Path) -> dict:
    inputs = workloads.build_inputs(args.workload, args.seed, ROOT)
    inputs["seconds"] = args.seconds
    if args.trace:
        inputs["fill"] = {w: workloads.build_inputs(w, args.seed, ROOT)
                          for w in workloads.WORKLOADS if w != args.workload}
        if "oracle_crosscheck" in inputs["fill"]:
            inputs["fill"]["oracle_crosscheck"]["cases"] = \
                inputs["fill"]["oracle_crosscheck"]["cases"][:1]
    inputs_path = out_dir / "inputs.json"
    results_path = out_dir / "results.json"
    log = out_dir / "worker.log"
    inputs_path.write_text(json.dumps(inputs))

    # the workload's reference operation, timed before and after it, tells a
    # slow machine phase from a regression
    probe = speed.FOR_WORKLOAD[args.workload]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "versions": versions(),
              "probe_before_ms": speed.probe(probe) * 1e3}
    if args.trace:
        import_ms, scipy_ms, first_ms = first_call_child()
        run_worker("trace", inputs_path, results_path, log)
    else:
        report["setup_raw_s"], report["setup_s"] = time_setups(inputs_path, results_path, log)
        run_worker("run", inputs_path, results_path, log)
    report["probe_after_ms"] = speed.probe(probe) * 1e3
    results = json.loads(results_path.read_text())

    chk = check(inputs, results)
    failed_ops = {**results["failed"], **chk.wrong}
    done = [key for key in results["durations"] if key not in failed_ops]
    times = [t for key in done for t in results["durations"][key]]
    report.update(attempted=results["attempted"],
                  failed=results["attempted"] - len(times), rounds=results["rounds"],
                  failed_operations=failed_ops, problems=chk.problems,
                  checked_samples=chk.samples,
                  op_p50_wall_ms=statistics.median(
                      t for key in done for t in results["raw"][key]) * 1e3)
    if args.trace:
        metrics = dict(results["metrics"])
        metrics.update({"cli.import_ms": import_ms, "cli.import_scipy_ms": scipy_ms,
                        "laplace.first_call_ms": first_ms})
        units = PER_LAYER_UNITS
        report["spans"] = results["spans"]
    else:
        metrics = {
            "op_p50_ms": statistics.median(times) * 1e3,
            "ops_per_s": len(times) / sum(t for ts in results["durations"].values() for t in ts),
            "max_err_C": chk.max_err,
            "setup_s": statistics.median(report["setup_s"]),
            "peak_rss_MB": results["peak_rss_MB"],
        }
        units = END_TO_END_UNITS
    report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    report["correct"] = not chk.problems
    return report


def print_report(report: dict) -> None:
    v = report["versions"]
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
          f"  trace {report['trace']}")
    print(f"python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  mpmath {v['mpmath']}"
          f"  cpus {v['cpus']}")
    print(f"reference operation {report['probe_before_ms']:.4g} ms before the workload, "
          f"{report['probe_after_ms']:.4g} ms after (fast phase "
          f"{speed.REFERENCE_S[speed.FOR_WORKLOAD[report['workload']]] * 1e3:.4g} ms)")
    print(f"attempted {report['attempted']}  failed {report['failed']}  rounds {report['rounds']}"
          f"  checked samples {report['checked_samples']}")
    print(f"median operation wall time {report['op_p50_wall_ms']:.6g} ms, "
          f"before scaling to reference speed")
    for key, why in sorted(report["failed_operations"].items()):
        print(f"  failed {key}: {why[:160]}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED {problem}")
    for name, m in report["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "egstherm" / "__init__.py").is_file():
        print(f"error: no egstherm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        report = measure(args, out_dir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

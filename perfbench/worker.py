"""Runs one workload's operations in a fresh process, one at a time.

    python3 perfbench/worker.py INPUTS.json RESULTS.json MODE

MODE ``setup`` loads the inputs, imports what the operations need and fills
first-call caches, prints READY and exits; the harness times process start to
READY as set-up. ``run`` then runs whole rounds of the workload's operations,
each round in a seeded order, and stops when one more round of the last
round's length would end past the run length (at least one round).
``trace`` runs the traced measurement described in README.md.

run.py starts it with the working directory at the repository root,
PYTHONPATH at ``src/`` and single-threaded BLAS; CLI calls inherit all three.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import speed

# egstherm is imported by the operations that run in process, so that a
# cli_session worker, like a shell, never loads it. Calls go through the
# package namespace at call time, so that a traced run sees them through the
# wrapped bindings.


class Failed(Exception):
    """An operation the program refused or answered with an error exit."""


def _forecast_op(d: dict):
    import egstherm

    array = egstherm.scenario_from_dict(d["array"])
    isolated = egstherm.scenario_from_dict(d["isolated"])
    times = np.array(d["times"])

    def op():
        try:
            arr = egstherm.multi_fracture_forecast(array, times)
        except ArithmeticError as err:  # the clamp guard
            raise Failed(str(err)) from err
        iso = egstherm.multi_fracture_forecast(isolated, times)
        return arr, iso

    def export(value):
        arr, iso = value
        return {"array": arr.outlet_temperatures.tolist(),
                "isolated": iso.outlet_temperatures.tolist()}

    return op, export


class OracleOp:
    def __init__(self, case: dict):
        import egstherm

        self.pkg = egstherm
        self.sc = egstherm.scenario_from_dict(case["scenario"])
        grid = egstherm.slab_grid if case["mode"] == "slab" else egstherm.semi_infinite_grid
        self.grid = grid(self.sc)
        self.probes = np.array(case["probes"])

    def __call__(self):
        return self.pkg.fd_simulate(self.sc, self.grid, self.probes, return_details=True)

    def export(self, value):
        series, details = value
        return {"outlet": series.outlet_temperatures.tolist(),
                "energy_imbalance": details.energy_imbalance,
                "max_sweeps": details.max_sweeps, "n_steps": details.n_steps,
                "nodes": (self.grid.nx + 1) * (self.grid.ny + 1)}

    def traced_peak_mb(self, steps: int = 20) -> float:
        """tracemalloc peak of the first steps on the same grid. The arrays
        do not grow with the step count, and tracemalloc slows the per-node
        Python march about tenfold, so a full run under it would not fit."""
        tracemalloc.start()
        try:
            self.pkg.fd_simulate(self.sc, self.grid, [steps * self.grid.dt], return_details=True)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def _cli_subprocess_op(argv: list[str], spool: Path, peaks_kb: list[int]):
    """One CLI call in a fresh process. Its output goes through files so that
    it can be reaped with os.wait4, whose usage gives this process's own peak
    resident size: RUSAGE_CHILDREN would mix in the reference imports."""

    def op():
        with open(spool / "cli.out", "w+") as out, open(spool / "cli.err", "w+") as err:
            proc = subprocess.Popen([sys.executable, "-m", "egstherm", *argv],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            peaks_kb.append(usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if proc.returncode != 0:
            raise Failed(f"exit {proc.returncode}: {stderr.strip()[-300:]}")
        return stdout

    return op


def _cli_inprocess_op(argv: list[str]):
    import egstherm.cli

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()) as err:
            code = egstherm.cli.main(argv)
        if code != 0:
            raise Failed(f"exit {code}: {err.getvalue().strip()[-300:]}")
        return buf.getvalue()

    return op


def build_ops(inputs: dict, in_process_cli: bool, spool: Path | None = None,
              peaks_kb: list[int] | None = None) -> list[tuple[str, str, object, object]]:
    """(key, kind, operation, export) for every operation of one round. CLI
    calls in fresh processes spool their output in ``spool`` and record their
    peak resident size in ``peaks_kb``."""
    workload = inputs["workload"]
    ops = []
    if workload == "design_sweep":
        for d in inputs["designs"]:
            op, export = _forecast_op(d)
            ops.append((d["id"], "design", op, export))
    elif workload == "oracle_crosscheck":
        for case in inputs["cases"]:
            op = OracleOp(case)
            ops.append((case["id"], "oracle", op, op.export))
    else:
        for cmd in inputs["commands"]:
            op = (_cli_inprocess_op(cmd["argv"]) if in_process_cli else
                  _cli_subprocess_op(cmd["argv"], spool, peaks_kb))
            ops.append((cmd["id"], "cli:" + cmd["argv"][0], op, lambda out: {"stdout": out}))
    return ops


def warm_up(workload: str, ops) -> None:
    """First-call caches a user's first operation would fill."""
    if workload == "design_sweep":
        import egstherm

        sc = egstherm.bundled_scenario("valles_caldera")
        h = sc.operating.horizon
        egstherm.multi_fracture_forecast(sc, np.geomspace(h / 1e4, h, 200))
    elif workload == "cli_session":
        ops[0][2]()


class Loop:
    """Runs rounds of operations and keeps their times (failed operations
    included), failures and outputs. The reference operation ``probe`` runs
    before the first operation and after each one; ``durations`` holds each
    wall time scaled by the probes on either side (see speed.py), ``raw``
    the wall time itself. Without a probe both hold the wall time."""

    def __init__(self, ops, seed: int, probe: str | None):
        self.ops = ops
        self.probe = probe
        self.rng = np.random.default_rng(seed)
        self.durations: dict[str, list[float]] = {key: [] for key, *_ in ops}
        self.raw: dict[str, list[float]] = {key: [] for key, *_ in ops}
        self.failed: dict[str, str] = {}
        self.outputs: dict[str, object] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.last_round_s = 0.0

    def round(self, tracer=None) -> None:
        round_start = time.perf_counter()
        before = self._probe()
        for i in self.rng.permutation(len(self.ops)):
            key, kind, op, export = self.ops[i]
            self.attempted += 1
            value = error = None
            with tracer.operation(kind, key) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    value = op()
                except Failed as err:
                    error = str(err)
                elapsed = time.perf_counter() - start
            after = self._probe()
            self.raw[key].append(elapsed)
            if self.probe:
                elapsed *= speed.scale(self.probe, before, after)
            self.durations[key].append(elapsed)
            before = after
            self._record(key, export, value, error)
        self.last_round_s = time.perf_counter() - round_start
        self.rounds += 1

    def _probe(self) -> float:
        return speed.probe(self.probe) if self.probe else 0.0

    def _record(self, key, export, value, error) -> None:
        first = self.rounds == 0
        if error is not None:
            if first:
                self.failed[key] = error
            elif key not in self.failed:
                self.problems.append(f"{key} failed in round {self.rounds + 1} only: {error}")
            return
        if key in self.failed:
            self.problems.append(f"{key} failed in round 1 but not in round {self.rounds + 1}")
            return
        exported = export(value)
        if first:
            self.outputs[key] = exported
        elif exported != self.outputs[key]:
            self.problems.append(f"{key}: output of round {self.rounds + 1} differs from round 1")

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - start + self.last_round_s > seconds:
                return

    def completed(self) -> list[float]:
        return [d for key, values in self.durations.items() if key not in self.failed
                for d in values]


def _trace(inputs: dict, ops, loop_seconds: float, out_dir: Path) -> dict:
    """Untraced rounds, then one traced round of the same operations, then
    traced fill-in rounds for the layers this workload does not reach."""
    import tracing

    # in-process CLI calls take milliseconds: the interpreter-start reference
    # would swamp them, and the scalar one suits their in-process work
    workload = inputs["workload"]
    probe = "scalar" if workload == "cli_session" else speed.FOR_WORKLOAD[workload]
    untraced = Loop(ops, inputs["seed"], probe)
    untraced.run(loop_seconds)

    tracer = tracing.Tracer()
    tracer.install()

    def traced_round(round_ops, probe):
        loop = Loop(round_ops, inputs["seed"], probe)
        loop.round(tracer)
        return loop

    traced = oracle = traced_round(ops, probe)
    for name, fill in inputs["fill"].items():
        loop = traced_round(build_ops(fill, in_process_cli=True), None)
        if name == "oracle_crosscheck":
            oracle = loop

    tracer.write(out_dir / "spans.csv")
    metrics = layer_metrics(tracer.summary(), oracle.outputs)
    metrics["oracle.traced_peak_MB"] = oracle.ops[0][2].traced_peak_mb()
    metrics["trace.overhead_ratio"] = (statistics.median(traced.completed())
                                       / statistics.median(untraced.completed()))
    return {"metrics": metrics, "loop": traced, "spans": len(tracer.spans)}


def layer_metrics(s, oracle_outputs: dict) -> dict:
    """Per-layer figures from the spans. Counts per operation and the laplace
    figures come from design operations (one array forecast plus its isolated
    comparator); the first forecast span of each is the array forecast."""
    design = "design"
    forecasts = [d for _, d in s.first_per_op("laplace.multi_fracture_forecast", design)]
    m = {
        "cli.main_forecast_ms": s.median_ns("cli.main", "cli:forecast") / 1e6,
        "cli.main_compare_ms": s.median_ns("cli.main", "cli:compare") / 1e6,
        "cli.main_table2_ms": s.median_ns("cli.main", "cli:table2") / 1e6,
        "cli.main_convert_ms": s.median_ns("cli.main", "cli:convert") / 1e6,
        "scenario.load_scenario_us": s.median_ns("scenario.load_scenario") / 1e3,
        "scenario.validate_us": s.median_ns("scenario.validate", design) / 1e3,
        "scenario.validate_calls_per_op": s.per_op("scenario.validate", design),
        "laplace.multi_fracture_forecast_ms": statistics.median(forecasts) / 1e6,
        "laplace.self_ms_per_op": s.layer_self_ns_per_op("laplace", design) / 1e6,
        "laplace.stehfest_invert_us": s.median_ns("laplace.stehfest_invert", design) / 1e3,
        "laplace.stehfest_invert_calls_per_op": s.per_op("laplace.stehfest_invert", design),
        "laplace.image_eval_us": s.median_ns("laplace.image", design) / 1e3,
        "laplace.image_evals_per_op": s.per_op("laplace.image", design),
        "analytic.fluid_temp_single_us": s.median_ns("analytic.fluid_temp_single", design) / 1e3,
        "analytic.fluid_temp_single_calls_per_op": s.per_op("analytic.fluid_temp_single", design),
        "specfun.erfc_ns": s.median_ns("specfun.erfc", design),
        "specfun.erfc_calls_per_op": s.per_op("specfun.erfc", design),
        "units.convert_value_us": s.median_ns("units.convert_value") / 1e3,
    }
    runs = [(d, oracle_outputs[key]) for key, d in s.first_per_op("oracle.fd_simulate", "oracle")]
    m["oracle.fd_simulate_s"] = statistics.median(d for d, _ in runs) / 1e9
    m["oracle.step_ms"] = statistics.median(d / r["n_steps"] for d, r in runs) / 1e6
    m["oracle.node_step_ns"] = statistics.median(d / (r["n_steps"] * r["nodes"]) for d, r in runs)
    m["oracle.sweeps_per_step"] = float(max(r["max_sweeps"] for _, r in runs))
    return m


def main() -> int:
    inputs_path, results_path, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    inputs = json.loads(Path(inputs_path).read_text())
    workload = inputs["workload"]
    peaks_kb: list[int] = []
    ops = build_ops(inputs, mode == "trace", results_path.parent, peaks_kb)
    warm_up(workload, ops)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    if mode == "trace":
        traced = _trace(inputs, ops, inputs["seconds"] / 2.0, results_path.parent)
        loop = traced["loop"]
        extra = {"metrics": traced["metrics"], "spans": traced["spans"]}
    else:
        loop = Loop(ops, inputs["seed"], speed.FOR_WORKLOAD[workload])
        loop.run(inputs["seconds"])
        # the worker's own peak, or for a CLI session the largest CLI process
        peak_kb = max(peaks_kb) if peaks_kb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        extra = {"peak_rss_MB": peak_kb / 1024.0}
    results = {"durations": loop.durations, "raw": loop.raw, "failed": loop.failed,
               "outputs": loop.outputs,
               "problems": loop.problems, "attempted": loop.attempted,
               "rounds": loop.rounds, **extra}
    results_path.write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

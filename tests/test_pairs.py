"""The pure parts of tools/pairs.py: strict parsing, the traced line's check,
quartiles, verdicts, report, the comparison of two trees' outputs and the
reading of pytest's summary line.

No benchmark or pytest run is started here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _result(**metrics):
    return {"correct": True, "attempted": 48, "failed": 3,
            "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_strict_loads_refuses_non_finite_numbers(constant):
    with pytest.raises(ValueError, match=f"non-finite number {constant}"):
        pairs.strict_loads(f'{{"value": {constant}}}')
    assert pairs.strict_loads('{"value": 1e308}') == {"value": 1e308}


def test_last_result_is_the_last_line():
    out = "report line\n" + json.dumps(_result(op_p50_ms=0.1)) + "\n\n"
    assert pairs.last_result(out) == _result(op_p50_ms=0.1)
    with pytest.raises(ValueError, match="printed nothing"):
        pairs.last_result("\n \n")
    with pytest.raises(ValueError, match="not a benchmark result"):
        pairs.last_result('{"metrics": {}}')
    with pytest.raises(ValueError, match="non-finite number NaN"):
        pairs.last_result(json.dumps(_result(op_p50_ms=float("nan"))))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_traced_line_names_the_constant_it_refuses(constant):
    # only the last non-empty line counts, as in the untraced runs
    report = '{"metrics": {"laplace.stehfest_invert_us": {"value": 1.5}}}'
    bare = f'{{"metrics": {{"a": {{"value": {constant}}}, "b": {{"value": NaN}}}}}}'
    assert pairs.traced_line(f"{report}\n{bare}\n") == {"strict_json": False,
                                                         "refused": constant}
    assert pairs.traced_line(f"{bare}\n{report}\n\n") == {"strict_json": True}


def test_traced_line_reports_output_that_does_not_parse():
    assert pairs.traced_line(" \n") == {"strict_json": False, "error": "printed nothing"}
    got = pairs.traced_line('{"metrics": {"a": nan}}')
    assert got["strict_json"] is False and got["error"].startswith("Expecting value")


def test_quartiles_interpolate_inclusively():
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_verdict_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [p - 0.1 for p in parent]
    got = pairs.verdict(parent, change, "lower", 0.24)
    assert got["verdict"] == "gain" and got["wins"] == 10 and got["losses"] == 0
    assert got["relative_change"] == pytest.approx(-0.1)
    # two lost pairs of ten: no longer a gain, and well within the bound
    lost = change[:8] + [parent[8] + 0.01, parent[9] + 0.01]
    assert pairs.verdict(parent, lost, "lower", 0.24)["verdict"] == "within bound"
    # a tie counts for neither side
    tied = change[:9] + [parent[9]]
    got = pairs.verdict(parent, tied, "lower", 0.24)
    assert (got["wins"], got["losses"], got["verdict"]) == (9, 0, "gain")
    # every pair won, but by less than the parent's interquartile distance
    close = [p - 0.005 for p in parent]
    assert pairs.verdict(parent, close, "lower", 0.24)["verdict"] == "within bound"


def test_verdict_follows_the_metric_direction():
    parent = [100.0, 101.0, 99.0, 100.0]
    assert pairs.verdict(parent, [p * 1.2 for p in parent], "higher", 0.24)["verdict"] == "gain"
    assert pairs.verdict(parent, [p * 0.7 for p in parent], "higher", 0.24)["verdict"] == \
        "regression"
    assert pairs.verdict(parent, [p * 1.3 for p in parent], "lower", 0.24)["verdict"] == \
        "regression"


def test_verdict_is_unresolved_when_the_parent_spreads_past_the_bound():
    parent = [1.0, 1.5, 2.0, 2.5]
    change = [1.1, 1.6, 2.1, 2.4]
    assert pairs.verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent
    assert pairs.verdict(parent, [0.5, 0.6, 0.7, 0.8], "lower", 0.1)["verdict"] == "gain"


def test_verdict_refuses_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError, match="same positive number"):
        pairs.verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError, match="same positive number"):
        pairs.verdict([], [], "lower", 0.1)
    with pytest.raises(ValueError, match="better must be"):
        pairs.verdict([1.0], [1.0], "faster", 0.1)


def test_summary_has_every_metric_of_the_benchmark_and_the_failed_share():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    runs = []
    for seed in (1, 2, 3):
        values = {name: float(seed) for name in names}
        change = _result(**{name: v * 0.5 for name, v in values.items()})
        change["failed"] = 4 if seed == 3 else 3
        runs.append({"seed": seed, "first": "parent" if seed % 2 else "change",
                     "parent": _result(**values), "change": change})
    report = pairs.summarise(runs, bench["end_to_end"])
    assert list(report["metrics"]) == names
    assert report["pairs"] == [{"seed": 1, "first": "parent"}, {"seed": 2, "first": "change"},
                               {"seed": 3, "first": "parent"}]
    assert report["parent_failed_share"] == report["change_failed_share"] == 3 / 48
    assert report["more_failed"] is False and report["parent_correct"] is True
    assert report["metrics"]["op_p50_ms"]["parent"]["runs"] == [1.0, 2.0, 3.0]
    assert report["metrics"]["ops_per_s"]["verdict"] == "regression"
    json.dumps(report, allow_nan=False)


@pytest.mark.parametrize("change_failed, want", [(3, "gain"), (4, "within bound")])
def test_summary_counts_no_gain_when_more_operations_fail(change_failed, want):
    end_to_end = [{"name": "op_p50_ms", "better": "lower", "bound": 0.24}]
    runs = []
    for seed, value in enumerate([1.00, 1.01, 0.99, 1.02, 0.98], start=1):
        change = _result(op_p50_ms=value * 0.5)
        change["failed"] = change_failed
        runs.append({"seed": seed, "first": "parent", "parent": _result(op_p50_ms=value),
                     "change": change})
    report = pairs.summarise(runs, end_to_end)
    assert report["more_failed"] is (change_failed > 3)
    assert report["metrics"]["op_p50_ms"]["wins"] == 5
    assert report["metrics"]["op_p50_ms"]["verdict"] == want


def test_compare_outputs_counts_arrays_that_move_and_refusals_that_differ():
    parent = {
        "design array n=12": {"d00": {"refused": "ArithmeticError: budget"},
                              "d01": {"values": [300.0, 200.0]},
                              "d02": {"values": [300.0, 0.0]},
                              "d03": {"values": [300.0, 100.0]}},
        "oracle slab": {"zeinali": {"values": [250.0]}},
    }
    change = {
        "design array n=12": {"d00": {"refused": "ArithmeticError: budget"},
                              "d01": {"values": [300.0, 200.0 + 2.0**-45]},
                              "d02": {"values": [300.0, -0.0]},
                              "d03": {"refused": "ArithmeticError: wiggle"},
                              "d04": {"values": [1.0]}},
        "oracle slab": {"zeinali": {"values": [250.0, 240.0]}},
    }
    got = pairs.compare_outputs(parent, change)
    assert list(got["groups"]) == ["design array n=12", "oracle slab"]
    # -0.0 equals 0.0 but is another bit pattern
    assert got["groups"]["design array n=12"] == {
        "arrays": 2, "not_identical": 2, "max_abs_diff_C": 2.0**-45, "refused": 1}
    assert got["groups"]["oracle slab"] == {
        "arrays": 1, "not_identical": 1, "max_abs_diff_C": 0.0, "refused": 0}
    assert got["not_identical"] == 3
    assert got["differing_refusals"] == [{"group": "design array n=12", "case": "d03",
                                          "parent": None, "change": "ArithmeticError: wiggle"}]
    assert got["unmatched"] == [
        {"group": "design array n=12", "case": "d04", "only_in": "change"},
        {"group": "oracle slab", "case": "zeinali", "lengths": [1, 2]},
    ]
    json.dumps(got, allow_nan=False)


def test_compare_outputs_of_identical_trees_finds_nothing():
    outputs = {"design isolated": {"d00": {"values": [300.0, 65.5]}},
               "design array n=8": {"d00": {"refused": "ArithmeticError: budget"}}}
    got = pairs.compare_outputs(outputs, json.loads(json.dumps(outputs)))
    assert got["not_identical"] == 0 and got["differing_refusals"] == got["unmatched"] == []
    assert got["groups"]["design array n=8"]["refused"] == 1
    assert got["groups"]["design isolated"]["max_abs_diff_C"] == 0.0


def test_compare_cli_reports_each_stream_per_command():
    ok = {"stdout": "t_yr,T_C\n1,300\n", "stderr": "", "exit_code": 0}
    parent = {"forecast --model single": ok,
              "table2 --spacings 5": {"stdout": "", "stderr": "error: x\n", "exit_code": 2},
              "convert 1 bpd m3_per_s": ok}
    change = {"forecast --model single": dict(ok),
              "table2 --spacings 5": {"stdout": "", "stderr": "error: y\n", "exit_code": 2},
              "compare --model single": ok}
    got = pairs.compare_cli(parent, change)
    assert got["commands"] == [
        {"command": "forecast --model single", "stdout": True, "stderr": True,
         "exit_code": True},
        {"command": "table2 --spacings 5", "stdout": True, "stderr": False, "exit_code": True},
        {"command": "convert 1 bpd m3_per_s", "only_in": "parent"},
        {"command": "compare --model single", "only_in": "change"},
    ]
    assert got["differ"] == 3
    assert pairs.compare_cli(parent, json.loads(json.dumps(parent)))["differ"] == 0


def test_compare_trees_joins_series_and_cli():
    tree = {"series": {"oracle slab": {"zeinali": {"values": [250.0]}}},
            "cli": {"convert 1 bpd m3_per_s": {"stdout": "1.8e-06\n", "stderr": "",
                                               "exit_code": 0}}}
    got = pairs.compare_trees(tree, json.loads(json.dumps(tree)))
    assert got["not_identical"] == 0 and got["groups"]["oracle slab"]["arrays"] == 1
    assert got["cli"] == {"differ": 0, "commands": [
        {"command": "convert 1 bpd m3_per_s", "stdout": True, "stderr": True,
         "exit_code": True}]}
    json.dumps(got, allow_nan=False)


@pytest.mark.parametrize("text, want", [
    ("tests/test_x.py ..F\n1 failed, 603 passed in 17.80s\n", (603, 1, 0)),
    ("===== 603 passed, 2 warnings in 12.30s =====\n\n", (603, 0, 0)),
    ("1 failed, 600 passed, 1 skipped, 2 errors in 20.01s (0:00:20)", (600, 1, 2)),
    ("1 error in 0.50s", (0, 0, 1)),
    ("no tests ran in 0.01s", (0, 0, 0)),
])
def test_tier1_counts_read_pytests_summary_line(text, want):
    got = pairs.tier1_counts(text)
    assert (got["passed"], got["failed"], got["errors"]) == want


@pytest.mark.parametrize("text", ["", "\n \n", "collected 604 items\n",
                                  "1 failed, 603 passed in 17.80s\nINTERNALERROR> boom"])
def test_tier1_counts_refuse_output_without_a_summary_line(text):
    with pytest.raises(ValueError, match="no pytest summary line"):
        pairs.tier1_counts(text)

"""Seeded inputs, the output gates and the count-repeat check."""

import json
from pathlib import Path

import pytest

import workloads
from worker import layer_metrics

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
    assert workloads.inputs(name, 7) != workloads.inputs(name, 8)
    # the draw depends on nothing but the workload and the seed
    assert json.dumps(workloads.inputs(name, 7)) == json.dumps(workloads.inputs(name, 7))


def test_inputs_stay_in_their_ranges():
    for seed in range(50):
        lo, hi = workloads.inputs("threshold-disk", seed)["alphas"]
        assert 0.505 <= lo <= 0.525 and 1.41 <= hi <= 1.43
        lo, hi = workloads.inputs("evolve-square", seed)["alphas"]
        assert 0.4 <= lo <= 0.6 and 1.4 <= hi <= 1.6
        sweep = workloads.inputs("steady-sweep", seed)
        pairs = sweep["disk"] + sweep["ball"] + [sweep["square"]]
        assert len(pairs) == 2 * workloads.STEADY_PAIRS + 1
        assert all(1.5 <= x <= 3.5 for pair in pairs for x in pair)


def test_workload_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_csv_gate_counts_one_row_per_step():
    good = "t,dt,phi\n0,0,1\n0.25,0.25,1\n0.5,0.25,1\n"
    assert workloads._csv_problems(good, 0.5) == []
    assert workloads._csv_problems(good, 0.75)                       # wrong end time
    assert workloads._csv_problems(good.replace("0.5,0.25", "0.75,0.25"), 0.75)   # gap
    assert workloads._csv_problems("t,dt,phi\n0,0,1\n", 0.0)         # no step


def _summary(calls, steps):
    return {"spans": {"parabolic.evolve": {"calls": calls, "total_s": 1.0, "self_s": 1.0}},
            "roots_s": 1.0, "counts": {"parabolic.evolve.steps": steps}, "distinct": {}}


def test_counts_must_repeat_across_traced_passes():
    metrics, problems = layer_metrics([_summary(1, 10), _summary(1, 10)], [1.5, 1.5])
    assert problems == []
    assert metrics["parabolic.evolve.steps"] == (10, "count")
    assert metrics["trace.unattributed_s"] == (0.5, "s")
    _, problems = layer_metrics([_summary(1, 10), _summary(1, 11)], [1.5, 1.5])
    assert any("parabolic.evolve.steps" in p for p in problems)
    _, problems = layer_metrics([_summary(1, 10), _summary(2, 10)], [1.5, 1.5])
    assert any("parabolic.evolve.calls" in p for p in problems)


def test_traced_metrics_are_the_per_layer_list_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = layer_metrics([_summary(1, 10)], [1.5])
    metrics["trace.overhead_s"] = (0.0, "s")          # added by the worker's main
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}

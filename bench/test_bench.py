"""Self-test of the benchmark at a tiny scale.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

It checks the shape of the benchmark's output against BENCHMARK.json, that
every run is correct, and that the workloads' operation counts follow their
size.  Scaling is checked by counts only, never by wall-clock bounds.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ps():
    return run.load_pagersim()


def tiny(ps, name, trace):
    w = workloads.generate(name, 5, 0.02)
    return run.run_benchmark(ps, w, seconds=0, trace=trace)


def test_spec_names_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.layer_units()
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_generator_is_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 11, 0.05)
        assert a == workloads.generate(name, 11, 0.05)
        assert a.text != workloads.generate(name, 12, 0.05).text


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_output_shape_and_correct(ps, name, trace):
    result = tiny(ps, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.layer_units() if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    json.dumps(result)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fault_counts_follow_fault_stream_size(ps):
    small, large = (workloads.generate("fault-stream", 5, s) for s in (0.02, 0.04))
    assert large.faults == 2 * small.faults
    metrics = [
        run.run_benchmark(ps, w, seconds=0, trace=1)["metrics"]
        for w in (small, large)
    ]
    for w, m in zip((small, large), metrics):
        assert m["fault_dispatch.cycles.DISPATCHED"]["value"] == w.faults
        for scheme, cost in workloads.DISPATCHED_COST.items():
            got = tuple(m[f"sim.{scheme}.{s}"]["value"] for s in run.SIM_STATS)
            assert got == tuple(w.faults * c for c in cost)
    calls = [m["trace.of_cycle.calls"]["value"] for m in metrics]
    scanned = [m["trace.of_cycle.events_scanned"]["value"] for m in metrics]
    # Calls grow with the faults; what each call scans grows with the
    # trace, so the product is at most quadratic in the faults.
    assert calls[1] == 2 * calls[0]
    assert scanned[1] <= 4.5 * scanned[0]


def test_region_slots_follow_declared_spaces(ps):
    w_small = workloads.generate("wide-spaces", 5, 0.02)
    w_large = workloads.generate("wide-spaces", 5, 0.04)
    slots = [
        run.run_benchmark(ps, w, seconds=0, trace=1)["metrics"]
        ["address_space.region_slots"]["value"]
        for w in (w_small, w_large)
    ]
    assert w_large.spaces > w_small.spaces
    ratio = slots[1] / slots[0]
    assert ratio == pytest.approx(w_large.spaces / w_small.spaces, rel=0.1)

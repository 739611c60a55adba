"""The traced run sees every layer it reports on and changes no output.

Runs each benchmark workload once untraced and once traced, in-process, at
its first seed.  Every per-layer span named in ``bench/plan.json`` must
record at least one call on each workload the plan says it moves on, which
fails when a layer function imported by name elsewhere was not rebound there.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SEED = 1


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_traced_run_covers_plan_and_keeps_outputs(workload):
    cli = worker.import_qsk()
    originals = {name: getattr(sys.modules["qsk.disorder"], name)
                 for name in ("spectrum", "build_hamiltonian", "map_batches")}
    ops = worker.operations(workload, SEED)
    plain, _, _ = worker.run_pass(cli, ops)
    with Tracer() as tracer:
        traced, _, _ = worker.run_pass(cli, ops)

    for argv, a, b in zip(ops, plain, traced):
        assert a[0] == 0, (argv, a[2])
        assert a[:2] == b[:2], f"traced output differs for {' '.join(argv)}"
    for name, fn in originals.items():
        assert getattr(sys.modules["qsk.disorder"], name) is fn

    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + (not span.callback)
    expected = {m["span"] for m in worker.PLAN["per_layer"]
                if m["span"] and workload in m["on"]}
    missing = sorted(s for s in expected if calls.get(s, 0) < 1)
    assert not missing, f"no calls recorded on {workload}: {missing}"

    names = [m["name"] for m in worker.PLAN["per_layer"]]
    values = layer_metrics(tracer.spans, names)
    assert all(isinstance(v, (int, float)) for v in values.values())


def test_benchmark_json_matches_plan():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    plan = worker.PLAN
    assert declared["workloads"] == [
        {"name": w["name"], "why": w["why"]} for w in plan["workloads"]]
    assert declared["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in plan["end_to_end"]]
    assert declared["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in plan["per_layer"]]

"""The benchmark's traced run fails when a layer it expects records no call.

This test runs the same traced solves in tier-1, so a change that stops
calling a traced operator fails here first. It imports the benchmark's
modules without writing anything under perfbench/.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ITERATIONS = 2


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import tracer
    import workloads

    return layers, tracer, workloads


def test_every_desk_trace_layer_records_calls(bench):
    layers, tracer, workloads = bench
    spec = dataclasses.replace(workloads.DESK_TRACE, iterations=ITERATIONS)
    t = tracer.Tracer()
    with t.install(layers.targets()):
        inst = workloads.generate(workloads.DESK, workloads.Seeds.derive(0), noisy=False)
        assert len(inst.grid) == 64
        for solver in layers.SOLVERS:
            workloads.solve(spec, solver, inst, ITERATIONS)
    metrics, _ = layers.layer_metrics(t.spans, ITERATIONS)
    expected = workloads.EXPECTED_LAYERS["desk-trace"]
    assert [name for name in expected if metrics.get(name) is None] == []

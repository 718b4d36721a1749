"""The benchmark's traced run fails when a layer it expects records no call.

These tests run the same traced solves and CLI commands in tier-1, so a
change that stops calling a traced operator, or that binds one before the
benchmark wraps it, fails here first. They import the benchmark's modules
without writing anything under perfbench/.
"""

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import pytest
import yaml

from ptychokit import cli, fields

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


def missing_layers(bench, spec, scale, noisy):
    """(J, expected layers of ``spec`` that recorded no call) for traced solves of
    every solver on ``scale``, at ``spec.workers``."""
    layers, tracer, workloads = bench
    spec = dataclasses.replace(spec, iterations=ITERATIONS)
    t = tracer.Tracer()
    with t.install(layers.targets()):
        inst = workloads.generate(scale, workloads.Seeds.derive(0), noisy=noisy)
        for solver in layers.SOLVERS:
            workloads.solve(spec, solver, inst, ITERATIONS)
    metrics, _ = layers.layer_metrics(t.spans, ITERATIONS)
    expected = workloads.EXPECTED_LAYERS[spec.name]
    return len(inst.grid), [name for name in expected if metrics.get(name) is None]


def test_every_desk_trace_layer_records_calls(bench):
    _, _, workloads = bench
    assert missing_layers(bench, workloads.DESK_TRACE, workloads.DESK, noisy=False) == (64, [])


def test_every_wide_scan_layer_records_calls_at_two_workers(bench):
    # a small noisy 9x9 grid: J = 81 is three frame blocks, the last one partial,
    # traced at the wide-scan workload's two workers
    _, _, workloads = bench
    assert workloads.WIDE_SCAN.workers == 2
    assert 2 * fields.BLOCK_FRAMES < 81 < 3 * fields.BLOCK_FRAMES
    scale = workloads.Scale((88, 88), 16, (9, 9), 8)
    assert missing_layers(bench, workloads.WIDE_SCAN, scale, noisy=True) == (81, [])


def test_every_cli_pipeline_layer_records_calls(bench, tmp_path):
    # the benchmark's cli-pipeline commands through cli.main, as its traced CLI runs
    # them, on a noisy 48² instance: simulate, then reconstruct with pmace and sharp
    layers, tracer, workloads = bench
    small = {"image_shape": [48, 48], "probe_size": 16, "grid_dims": [3, 3], "spacing": 8}
    for solver in ("pmace", "sharp"):
        cfg = workloads._config(workloads.Seeds.derive(0), solver)
        cfg["sim"].update(small)
        cfg["solver"]["iterations"] = ITERATIONS
        (tmp_path / f"{solver}.yaml").write_text(yaml.safe_dump(cfg))
    commands = [["simulate", "--config", str(tmp_path / "pmace.yaml"),
                 "--out", str(tmp_path / "ds")]]
    commands += [["reconstruct", "--config", str(tmp_path / f"{solver}.yaml"), "--dataset",
                  str(tmp_path / "ds"), "--out", str(tmp_path / solver)]
                 for solver in ("pmace", "sharp")]
    t = tracer.Tracer()
    with t.install(layers.targets()), contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main([*argv, "--workers", "1"]) for argv in commands] == [0, 0, 0]
    metrics, _ = layers.layer_metrics(t.spans, ITERATIONS)
    expected = workloads.EXPECTED_LAYERS["cli-pipeline"]
    assert [name for name in expected if metrics.get(name) is None] == []

"""ptychokit benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The package is imported from
the checkout's ``src/`` directory, never from an installed copy, and the
command fails without a result when that directory is absent. Workloads
and metrics are described in perfbench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full record of the run (environment, every metric's
sample count and quartiles, the per-solver layer breakdown) is written
to perfbench/out/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("desk-trace", "wide-scan", "cli-pipeline")
# Reported for a metric with no measurement on this workload, such as a
# layer that recorded no calls or a tolerance that was never reached.
MISSING = -1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ptychokit from this checkout's sources, or exit nonzero."""
    if not (SRC / "ptychokit" / "__init__.py").is_file():
        sys.exit(f"error: no ptychokit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ptychokit

    if Path(ptychokit.__file__).resolve().parent != SRC / "ptychokit":
        sys.exit(f"error: imported ptychokit from {ptychokit.__file__}, not {SRC}")


# --- environment -----------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _last_level_cache() -> str | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = [(int(_read(d / "level") or 0), _read(d / "size").strip())
              for d in caches.glob("index*")]
    return max(levels)[1] if levels else None


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and ".so" in line}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(spec) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    meminfo = dict(line.split(":", 1) for line in _read("/proc/meminfo").splitlines()
                   if ":" in line)
    j = spec.scale.grid[0] * spec.scale.grid[1]
    stack = j * spec.scale.probe ** 2 * 16
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "last_level_cache": _last_level_cache(),
        "mem_total": meminfo.get("MemTotal", "").strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "fft_workers": spec.workers,
        "J": j,
        "complex_stack_bytes_computed": stack,
        "note": "bytes are computed from array shapes, not measured traffic; "
                "compare the stack size with the last-level cache",
    }


# --- metrics ---------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else None


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


def _quartiles(xs) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "median": _median(xs)}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": q2, "q1": q1, "q3": q3}


def end_to_end(samples, solvers) -> dict:
    m = {
        "setup_s": _median(samples["setup_s"]),
        "peak_rss_mb": samples["peak_rss_mb"][0],
        "job_s": _median(samples["job_s"]),
    }
    for s in solvers:
        m[f"{s}.iter_ms"] = _ms(_median(samples.get(f"{s}.iter_s")))
    return m


def per_layer(samples, span_metrics, solvers) -> dict:
    import numpy as np

    m = dict(span_metrics)
    for s in solvers:
        it = samples.get(f"{s}.iter_s", [])
        traced = samples.get(f"traced.{s}.iter_s")
        m[f"{s}.nrmse"] = _median(samples.get(f"{s}.nrmse"))
        if it and traced:
            m[f"{s}.trace_overhead_ms"] = _ms(_median(traced) - _median(it))
        m[f"{s}.iter_ms.samples"] = len(it)
        # A percentile is reported only with at least ten samples beyond it.
        if len(it) >= 100:
            m[f"{s}.iter_ms.p90"] = _ms(float(np.percentile(it, 90)))
        hits = samples.get(f"{s}.iters_to_tol", [])
        if hits and min(hits) >= 0:
            m[f"{s}.iters_to_tol"] = hits[0]
            m[f"{s}.time_to_tol_s"] = _median(samples[f"{s}.time_to_tol_s"])
    for name in ("pipeline_s", "sweep_s", "trace.rows", "cli.startup.s", "cli.simulate.s",
                 "cli.reconstruct.s", "cli.evaluate.s", "cli.sweep.s",
                 "cli.reconstruct.solver_s", "sim.dataset.files", "fields.cfld.bytes"):
        m[name] = _median(samples.get(name))
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import layers
    import workloads

    spec = {"desk-trace": workloads.DESK_TRACE, "wide-scan": workloads.WIDE_SCAN,
            "cli-pipeline": workloads.CLI_PIPELINE}[args.workload]
    tally = workloads.Tally()
    trace = bool(args.trace)
    if args.workload == "cli-pipeline":
        samples, traced = workloads.run_cli_pipeline(args.seed, args.seconds, trace, tally)
    else:
        samples, traced = workloads.run_in_process(spec, args.seed, args.seconds, trace, tally)

    breakdown = None
    if trace:
        run_id, spans = traced
        span_metrics, breakdown = layers.layer_metrics(spans, spec.iterations)
        values = per_layer(samples, span_metrics, layers.SOLVERS)
        for name in workloads.EXPECTED_LAYERS[args.workload]:
            tally.check(values.get(name) is not None, f"layer {name} recorded no calls")
    else:
        values = end_to_end(samples, layers.SOLVERS)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for d in declared:
        value = values.get(d["name"])
        if not trace:
            tally.check(value is not None, f"end-to-end metric {d['name']} was not measured")
        metrics[d["name"]] = {"value": MISSING if value is None else value, "unit": d["unit"]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(spec),
        "samples": {k: _quartiles(v) for k, v in sorted(samples.items())},
        "solver_layers": breakdown, "failures": tally.failures, "metrics": metrics,
    }
    if trace:
        from tracer import dump_spans

        record["spans_file"] = f"spans-{stem}.jsonl"
        record["run_id"] = run_id
        dump_spans(OUT / record["spans_file"], run_id, spans)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    if breakdown:
        for solver, b in breakdown.items():
            layers_ms = ", ".join(f"{k} {v:.3f}" for k, v in b["self_ms_per_iter"].items())
            print(f"{solver}: self ms/iter: {layers_ms}; "
                  f"span coverage {b['span_coverage_pct']:.1f}%")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

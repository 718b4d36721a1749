"""Which ptychokit calls are wrapped for tracing, and how their spans
become per-layer metrics.

Solver layers are reported as self time per solver iteration. Set-up,
I/O and CLI layers are reported per call, as the call's whole duration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from tracer import Span, self_times, subtree

SOLVERS = ("pmace", "sharp", "sharp_plus")
FFT_SPANS = ("fields.fft2", "fields.ifft2")


def _sharp_root(args, kwargs) -> str:
    params = kwargs.get("params", args[3] if len(args) > 3 else None)
    return f"solve.{params.variant}"


def targets():
    """(module, attribute, span name[, count bytes]) for every wrapped call.

    Each function is wrapped in the module that calls it, because the
    callers look it up there at call time.
    """
    from ptychokit import cli, pmace, sharp, sim

    out = [
        (pmace, "mann_iterate", "solve.pmace"),
        (sharp, "sharp_iterate", _sharp_root),
        (pmace, "agent_update", "pmace.agent_update"),
        (pmace, "phase_factor", "pmace.phase_factor"),
        (pmace, "consensus", "pmace.consensus"),
        (pmace, "stitch_weighted", "pmace.stitch_weighted"),
        (sharp, "p_a", "sharp.p_a"),
        (sharp, "p_q", "sharp.p_q"),
        (sharp, "stitch_frames", "sharp.stitch_frames"),
        (sim, "synth_object", "sim.synth_object"),
        (sim, "synth_probe", "sim.synth_probe"),
        (sim, "forward_amplitude", "sim.forward_amplitude"),
        (sim, "add_poisson_noise", "sim.add_poisson_noise"),
        (sim, "write_dataset", "sim.write_dataset"),
        (sim, "load_dataset", "sim.load_dataset"),
        (sim, "write_cfld", "fields.write_cfld"),
        (sim, "read_cfld", "fields.read_cfld"),
        (cli, "write_cfld", "fields.write_cfld"),
        (cli, "read_cfld", "fields.read_cfld"),
        (cli, "build_coverage", "fields.build_coverage"),
        (cli, "nrmse_phase_aligned", "metrics.nrmse"),
    ]
    for module in (pmace, sharp):
        out += [
            (module, "fft2_orthonormal", "fields.fft2", True),
            (module, "ifft2_orthonormal", "fields.ifft2", True),
            (module, "extract_stack", "fields.extract_stack"),
            (module, "accumulate_stack", "fields.accumulate_stack"),
            (module, "build_coverage", "fields.build_coverage"),
            (module, "nrmse_phase_aligned", "metrics.nrmse"),
        ]
    return out


@dataclass
class SolverSpans:
    """Spans under every call of one solver, summed over the calls."""

    iterations: int = 0
    wall: float = 0.0
    covered: float = 0.0
    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    nbytes: Counter = field(default_factory=Counter)
    records: list = field(default_factory=list)

    def per_iter_ms(self, name: str) -> float:
        return 1e3 * self.self_s[name] / self.iterations

    def report(self) -> dict:
        """Self time per iteration of every layer, plus span coverage."""
        return {
            "iterations": self.iterations,
            "self_ms_per_iter": {k: self.per_iter_ms(k) for k in sorted(self.self_s)},
            "calls_per_iter": {k: self.calls[k] / self.iterations for k in sorted(self.calls)},
            "span_coverage_pct": 100 * self.covered / self.wall,
        }


def solver_spans(spans: list[Span], iterations: int) -> dict[str, SolverSpans]:
    """Group spans by the solver call they happened in.

    ``other`` is the solver's own self time: the code between wrapped
    calls, which holds the Mann/relaxation update and the NaN guard.
    A trace record is a stitch called by the solver itself followed by
    an NRMSE; its time runs from the stitch's start to the NRMSE's end.
    """
    selfs = self_times(spans)
    out: dict[str, SolverSpans] = {}
    for i, root in enumerate(spans):
        if not root.name.startswith("solve."):
            continue
        b = out.setdefault(root.name[len("solve."):], SolverSpans())
        b.iterations += iterations
        b.wall += root.duration
        b.self_s["other"] += selfs[i]
        prev = None
        for j in subtree(spans, i)[1:]:
            s = spans[j]
            b.self_s[s.name] += selfs[j]
            b.calls[s.name] += 1
            b.nbytes[s.name] += s.nbytes
            if s.parent != i:
                continue
            b.covered += s.duration
            if s.name == "metrics.nrmse" and prev is not None and "stitch" in prev.name:
                b.records.append(s.end - prev.start)
            prev = s
    return out


def _per_call(spans: list[Span], *names: str, scale: float = 1e3):
    """Mean duration per call of the first name, summing all names."""
    count = sum(1 for s in spans if s.name == names[0])
    if count == 0:
        return None
    return scale * sum(s.duration for s in spans if s.name in names) / count


def layer_metrics(spans: list[Span], iterations: int) -> tuple[dict, dict]:
    """Per-layer metric values and the per-solver breakdown behind them.

    A value is ``None`` when no call of that layer was recorded.
    """
    by_solver = solver_spans(spans, iterations)
    m: dict[str, float | None] = {}

    def pooled(solvers):
        parts = [by_solver[s] for s in solvers if s in by_solver]
        if not parts:
            return None
        pool = SolverSpans()
        for p in parts:
            pool.iterations += p.iterations
            pool.self_s.update(p.self_s)
            pool.calls.update(p.calls)
            pool.nbytes.update(p.nbytes)
            pool.records += p.records
        return pool

    def per_iter(name, pool, layer):
        recorded = pool is not None and (layer == "other" or pool.calls[layer] > 0)
        m[name] = pool.per_iter_ms(layer) if recorded else None

    every = pooled(SOLVERS)
    for layer in ("fft2", "ifft2", "extract_stack", "accumulate_stack"):
        per_iter(f"fields.{layer}.ms", every, f"fields.{layer}")
    if every is not None and any(every.calls[k] for k in FFT_SPANS):
        m["fields.fft.calls_per_iter"] = sum(every.calls[k] for k in FFT_SPANS) / every.iterations
        m["fields.fft.bytes_per_iter"] = sum(every.nbytes[k] for k in FFT_SPANS) / every.iterations
    if every is not None and every.records:
        m["trace.record.ms"] = 1e3 * sum(every.records) / len(every.records)

    pm = pooled(["pmace"])
    for layer in ("agent_update", "phase_factor", "consensus", "stitch_weighted"):
        per_iter(f"pmace.{layer}.ms", pm, f"pmace.{layer}")
    per_iter("pmace.other.ms", pm, "other")
    sh = pooled(["sharp", "sharp_plus"])
    for layer in ("p_a", "p_q", "stitch_frames"):
        per_iter(f"sharp.{layer}.ms", sh, f"sharp.{layer}")
    per_iter("sharp.other.ms", sh, "other")
    if sh is not None and sh.calls["sharp.p_q"]:
        m["sharp.p_q.calls_per_iter"] = sh.calls["sharp.p_q"] / sh.iterations
    for solver, b in by_solver.items():
        m[f"{solver}.span_coverage"] = 100 * b.covered / b.wall

    m["fields.build_coverage.ms"] = _per_call(spans, "fields.build_coverage")
    m["fields.write_cfld.ms"] = _per_call(spans, "fields.write_cfld")
    m["fields.read_cfld.ms"] = _per_call(spans, "fields.read_cfld")
    m["metrics.nrmse.ms"] = _per_call(spans, "metrics.nrmse")
    m["sim.synth.ms"] = _per_call(spans, "sim.synth_object", "sim.synth_probe")
    m["sim.forward_amplitude.ms"] = _per_call(spans, "sim.forward_amplitude")
    m["sim.add_poisson_noise.ms"] = _per_call(spans, "sim.add_poisson_noise")
    m["sim.write_dataset.s"] = _per_call(spans, "sim.write_dataset", scale=1.0)
    m["sim.load_dataset.s"] = _per_call(spans, "sim.load_dataset", scale=1.0)
    return m, {solver: b.report() for solver, b in by_solver.items()}

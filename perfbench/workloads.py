"""The benchmark's three workloads.

Each workload is one closed-loop client: every step starts after the
previous one ended. The workload seed fixes the object, probe and noise
seeds, so the program only sees generated inputs and configs. Every
solver call, CLI command and correctness check counts as one attempted
operation; a NumericalFailure, a nonzero exit or a failed check counts
as a failed one.

``desk-trace`` and ``wide-scan`` call the library in-process and warm it
up before timing. ``cli-pipeline`` runs ``python -m ptychokit`` as child
processes without warm-up, because CLI users pay start-up on every
command.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from ptychokit import metrics, pmace, sharp, sim
from ptychokit.fields import NumericalFailure, read_cfld

import layers
from tracer import Span, Tracer, load_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

SOLVERS = layers.SOLVERS
TOL = 1e-2
R_P = 1e5
PMACE_PARAMS = {"alpha": 0.1, "rho": 0.5, "kappa": 1.25}
# At beta = 0.5 the (1 - 2 beta) P_a term vanishes and SHARP and SHARP+
# become the same program; 0.45 keeps the two variants distinct.
BETA = 0.45
# Set-up is repeated at least this often and for at least this long, and
# the median is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

# Final-NRMSE ceilings per workload and solver, from commit bd9fe01 over
# workload seeds 0-23: at least twice the largest value seen there, and
# far below the NRMSE of the all-ones starting image (0.6 to 0.95).
CEILINGS = {
    "desk-trace": {"pmace": 0.02, "sharp": 0.15, "sharp_plus": 0.15},
    "wide-scan": {"pmace": 0.35, "sharp": 0.45, "sharp_plus": 0.45},
    "cli-pipeline": {"pmace": 0.3, "sharp": 0.4, "sharp_plus": 0.4},
}

# Layers that must record calls on each workload; one that records none
# is reported as missing and fails the run.
_SOLVER_LAYERS = [
    "fields.fft2.ms", "fields.ifft2.ms", "fields.extract_stack.ms",
    "fields.accumulate_stack.ms", "fields.build_coverage.ms",
    "pmace.agent_update.ms", "pmace.phase_factor.ms", "pmace.consensus.ms",
    "pmace.stitch_weighted.ms", "sharp.p_a.ms", "sharp.p_q.ms",
    "sharp.stitch_frames.ms", "metrics.nrmse.ms", "trace.record.ms",
    "sim.synth.ms", "sim.forward_amplitude.ms",
]
EXPECTED_LAYERS = {
    "desk-trace": _SOLVER_LAYERS,
    "wide-scan": _SOLVER_LAYERS + ["sim.add_poisson_noise.ms"],
    "cli-pipeline": _SOLVER_LAYERS + [
        "sim.add_poisson_noise.ms", "sim.write_dataset.s", "sim.load_dataset.s",
        "fields.write_cfld.ms", "fields.read_cfld.ms",
    ],
}


@dataclass(frozen=True)
class Scale:
    shape: tuple[int, int]
    probe: int
    grid: tuple[int, int]
    spacing: int


DESK = Scale((176, 176), 64, (8, 8), 14)  # J = 64
PIPE = Scale((274, 274), 64, (16, 16), 14)  # J = 256
WIDE = Scale((498, 498), 64, (32, 32), 14)  # J = 1024


@dataclass(frozen=True)
class Seeds:
    object: int
    probe: int
    noise: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(v) for v in np.random.SeedSequence(seed).generate_state(3)))


@dataclass
class Instance:
    grid: object
    truth: np.ndarray
    probe: np.ndarray
    y: np.ndarray
    descale: float


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Samples(dict):
    """Named lists of measurements taken during one run."""

    def add(self, name: str, *values: float) -> None:
        self.setdefault(name, []).extend(values)


def generate(scale: Scale, seeds: Seeds, noisy: bool) -> Instance:
    """Synthesised object and probe, scan grid, forward model and noise."""
    grid = sim.make_scan_grid(scale.shape, scale.probe, scale.grid, scale.spacing)
    x = sim.synth_object(scale.shape, seeds.object)
    d = sim.synth_probe(scale.probe, seeds.probe)
    y = sim.forward_amplitude(x, d, grid)
    if not noisy:
        return Instance(grid, x, d, y, 1.0)
    n = sim.add_poisson_noise(y, R_P, seeds.noise)
    return Instance(grid, x, d, n.stack, n.scale_factor)


def timed_setup(scale: Scale, seeds: Seeds, noisy: bool, samples: Samples) -> Instance:
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        inst = generate(scale, seeds, noisy)
        times.append(time.perf_counter() - t0)
    samples.add("setup_s", *times)
    return inst


def iteration_seconds(rows) -> list[float]:
    """Per-iteration wall times between consecutive trace rows."""
    return [(b[2] - a[2]) / (b[0] - a[0]) for a, b in zip(rows, rows[1:])]


def first_below_tol(rows):
    """(iteration, seconds) of the first trace row with NRMSE <= TOL."""
    return next(((it, sec) for it, err, sec in rows if err <= TOL), None)


def check_result(tally: Tally, workload: str, solver: str, recon, final_nrmse) -> None:
    tally.check(bool(np.isfinite(recon).all()), f"{solver}: reconstruction is not finite")
    ceiling = CEILINGS[workload][solver]
    tally.check(final_nrmse <= ceiling,
                f"{solver}: final NRMSE {final_nrmse:.4e} above ceiling {ceiling:.1e}")


def check_variants(tally: Tally, nrmse: dict) -> None:
    tally.check(nrmse["sharp"] != nrmse["sharp_plus"],
                f"sharp and sharp_plus gave the same NRMSE {nrmse['sharp']!r}")


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


@dataclass(frozen=True)
class Workload:
    name: str
    scale: Scale
    noisy: bool
    iterations: int
    eval_every: int
    workers: int


DESK_TRACE = Workload("desk-trace", DESK, noisy=False, iterations=100, eval_every=1, workers=1)
WIDE_SCAN = Workload("wide-scan", WIDE, noisy=True, iterations=3, eval_every=3, workers=2)
# The CLI's reconstruct runs at workers=1 and its sweep at workers=2.
CLI_PIPELINE = Workload("cli-pipeline", PIPE, noisy=True, iterations=5, eval_every=1, workers=1)


# --- in-process workloads --------------------------------------------------


def solve(spec: Workload, solver: str, inst: Instance, iterations: int):
    init = np.ones(inst.grid.image_shape, dtype=np.complex128)
    common = dict(trace_target=inst.truth, descale=inst.descale, workers=spec.workers)
    if solver == "pmace":
        params = pmace.PmaceParams(max_iters=iterations, eval_every=spec.eval_every, **PMACE_PARAMS)
        return pmace.mann_iterate(inst.y, inst.probe, inst.grid, params, init, **common)
    params = sharp.SharpParams(beta=BETA, max_iters=iterations, variant=solver,
                               eval_every=spec.eval_every)
    return sharp.sharp_iterate(inst.y, inst.probe, inst.grid, params, init, **common)


def solver_pass(spec, inst, tally, samples, prefix=""):
    """Run every solver once; return {solver: reconstruction}."""
    recons, nrmse = {}, {}
    t_pass = time.perf_counter()
    for solver in SOLVERS:
        try:
            recon, rows = solve(spec, solver, inst, spec.iterations)
        except NumericalFailure as exc:
            tally.check(False, f"{solver}: {exc}")
            continue
        tally.check(True, f"{solver} ran")
        check_result(tally, spec.name, solver, recon, rows[-1][1])
        recons[solver], nrmse[solver] = recon, rows[-1][1]
        samples.add(f"{prefix}{solver}.iter_s", *iteration_seconds(rows))
        samples.add(f"{prefix}{solver}.nrmse", rows[-1][1])
        samples.add(f"{prefix}trace.rows", len(rows))
        hit = first_below_tol(rows)
        samples.add(f"{prefix}{solver}.iters_to_tol", hit[0] if hit else -1)
        samples.add(f"{prefix}{solver}.time_to_tol_s", hit[1] if hit else -1)
    samples.add(f"{prefix}job_s", time.perf_counter() - t_pass)
    if len(nrmse) == len(SOLVERS):
        check_variants(tally, nrmse)
    return recons


def run_in_process(spec: Workload, seed: int, seconds: float, trace: bool, tally: Tally):
    samples = Samples()
    seeds = Seeds.derive(seed)
    inst = timed_setup(spec.scale, seeds, spec.noisy, samples)
    for solver in SOLVERS:  # warm-up: FFT plans, page faults, lazy imports
        solve(spec, solver, inst, 1)

    start = time.perf_counter()
    untraced_until = seconds / 2 if trace else seconds
    reference = None
    while reference is None or time.perf_counter() - start < untraced_until:
        recons = solver_pass(spec, inst, tally, samples)
        reference = reference or recons
    samples["peak_rss_mb"] = [peak_rss_mb(resource.RUSAGE_SELF)]
    if not trace:
        return samples, None

    tracer = Tracer()
    with tracer.install(layers.targets()):
        generate(spec.scale, seeds, spec.noisy)
        traced_passes = 0
        while traced_passes == 0 or time.perf_counter() - start < seconds:
            recons = solver_pass(spec, inst, tally, samples, prefix="traced.")
            traced_passes += 1
            for solver, recon in recons.items():
                tally.check(np.array_equal(recon, reference.get(solver)),
                            f"{solver}: traced reconstruction differs from untraced")
    return samples, (tracer.run_id, tracer.spans)


# --- CLI pipeline ----------------------------------------------------------

SWEEP_VALUES = "0.05,0.1,0.2"


def _config(seeds: Seeds, solver: str) -> dict:
    spec = CLI_PIPELINE
    s = spec.scale
    return {
        "sim": {
            "image_shape": list(s.shape), "probe_size": s.probe,
            "grid_dims": list(s.grid), "spacing": s.spacing,
            "object_seed": seeds.object, "probe_seed": seeds.probe,
            "noise": True, "r_p": R_P, "normalization": "global-max",
            "noise_seed": seeds.noise,
        },
        "solver": {
            "name": solver, **PMACE_PARAMS, "beta": BETA,
            "iterations": spec.iterations, "eval_every": spec.eval_every, "init": "ones",
            "data": "noisy",
        },
    }


class Cli:
    """Runs ``python -m ptychokit`` commands, optionally with span recording."""

    def __init__(self, tally: Tally, traced_run_id: str | None = None):
        self.tally = tally
        self.run_id = traced_run_id
        self.span_files: list[Path] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def __call__(self, what: str, *args: str, cwd: Path):
        if self.run_id is None:
            cmd = [sys.executable, "-m", "ptychokit", *args]
        else:
            spans = cwd / f"spans-{len(self.span_files)}.jsonl"
            self.span_files.append(spans)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), self.run_id, str(spans), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True,
                              timeout=150)
        wall = time.perf_counter() - t0
        ok = self.tally.check(proc.returncode == 0,
                              f"{what} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return ok, proc, wall


def cli_pass(cli: Cli, d: Path, seeds: Seeds, inst: Instance, tally: Tally, samples: Samples,
             prefix: str = "") -> dict:
    """simulate -> reconstruct -> evaluate, the other two solvers, then a sweep.

    Returns the bytes of every reconstruction file, keyed by run. A step
    whose command failed is counted and skipped along with what reads its
    output.
    """
    d.mkdir(parents=True)
    for solver in SOLVERS:
        (d / f"{solver}.yaml").write_text(yaml.safe_dump(_config(seeds, solver)))
    walls = {}
    t_pass = time.perf_counter()
    ok, _, walls["simulate"] = cli("simulate", "simulate", "--config", "pmace.yaml",
                                   "--out", "ds", "--workers", "1", cwd=d)
    if not ok:
        return {}
    tally.check(np.array_equal(read_cfld(d / "ds" / "truth.cfld"), inst.truth)
                and np.array_equal(read_cfld(d / "ds" / "probe.cfld"), inst.probe),
                "simulate did not write the generated object and probe")
    nrmse, recon_bytes = {}, {}
    for solver in SOLVERS:
        ok, _, walls[f"reconstruct.{solver}"] = cli(
            f"reconstruct {solver}", "reconstruct", "--config", f"{solver}.yaml",
            "--dataset", "ds", "--out", f"run_{solver}", "--workers", "1", cwd=d)
        if not ok:
            continue
        run = d / f"run_{solver}"
        rows = metrics.read_trace_csv(run / "trace.csv")
        recon_bytes[solver] = (run / "recon.cfld").read_bytes()
        check_result(tally, "cli-pipeline", solver, read_cfld(run / "recon.cfld"), rows[-1][1])
        nrmse[solver] = rows[-1][1]
        samples.add(f"{prefix}{solver}.iter_s", *iteration_seconds(rows))
        samples.add(f"{prefix}{solver}.nrmse", rows[-1][1])
        samples.add(f"{prefix}trace.rows", len(rows))
        if solver == "pmace":
            _, proc, walls["evaluate"] = cli("evaluate", "evaluate", "--recon",
                                             "run_pmace/recon.cfld", "--dataset", "ds", cwd=d)
            trace_last = (run / "trace.csv").read_text().splitlines()[-1].split(",")[1]
            tally.check(proc.stdout.strip() == trace_last,
                        f"evaluate printed {proc.stdout.strip()!r}, trace has {trace_last!r}")
            summary = json.loads((run / "summary.json").read_text())
            samples.add(f"{prefix}cli.reconstruct.solver_s", summary["wall_seconds"])
    if len(nrmse) == len(SOLVERS):
        check_variants(tally, nrmse)
    ok, _, walls["sweep"] = cli("sweep", "sweep", "--config", "pmace.yaml", "--dataset", "ds",
                                "--out", "sweep", "--param", "alpha", "--values", SWEEP_VALUES,
                                "--workers", "2", cwd=d)
    if ok and "pmace" in recon_bytes:
        recon_bytes["sweep"] = (d / "sweep" / "alpha_0.1" / "recon.cfld").read_bytes()
        tally.check(recon_bytes["sweep"] == recon_bytes["pmace"],
                    "sweep alpha_0.1 (workers 2) differs from reconstruct (workers 1)")
    samples.add(f"{prefix}job_s", time.perf_counter() - t_pass)
    if "evaluate" in walls:
        samples.add(f"{prefix}pipeline_s", walls["simulate"] + walls["reconstruct.pmace"]
                    + walls["evaluate"])
        samples.add(f"{prefix}cli.evaluate.s", walls["evaluate"])
    samples.add(f"{prefix}sweep_s", walls["sweep"])
    samples.add(f"{prefix}cli.simulate.s", walls["simulate"])
    samples.add(f"{prefix}cli.sweep.s", walls["sweep"])
    samples.add(f"{prefix}cli.reconstruct.s", walls["reconstruct.pmace"])
    samples.add(f"{prefix}sim.dataset.files", len(list((d / "ds").iterdir())))
    samples.add(f"{prefix}fields.cfld.bytes",
                sum(p.stat().st_size for p in d.rglob("*.cfld")))
    return recon_bytes


def run_cli_pipeline(seed: int, seconds: float, trace: bool, tally: Tally):
    samples = Samples()
    seeds = Seeds.derive(seed)
    inst = timed_setup(PIPE, seeds, True, samples)
    work = WORK / f"cli-pipeline-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli = Cli(tally)
        start = time.perf_counter()
        untraced_until = seconds / 2 if trace else seconds
        reference, k = None, 0
        while reference is None or time.perf_counter() - start < untraced_until:
            recon_bytes = cli_pass(cli, work / f"pass{k}", seeds, inst, tally, samples)
            reference = reference or recon_bytes
            shutil.rmtree(work / f"pass{k}")
            k += 1
        samples["peak_rss_mb"] = [peak_rss_mb(resource.RUSAGE_CHILDREN)]
        if not trace:
            return samples, None

        for _ in range(3):
            _, _, wall = cli("startup", "--help", cwd=work)
            samples.add("cli.startup.s", wall)
        traced = Cli(tally, traced_run_id=uuid.uuid4().hex)
        recon_bytes = cli_pass(traced, work / "traced", seeds, inst, tally, samples,
                               prefix="traced.")
        for key, data in recon_bytes.items():
            tally.check(data == reference.get(key), f"{key}: traced reconstruction differs")
        spans = concat([load_spans(p) for p in traced.span_files if p.exists()])
        return samples, (traced.run_id, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def concat(span_lists: list[list[Span]]) -> list[Span]:
    """One span list from several processes' lists, parents re-indexed."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            parent = None if s.parent is None else s.parent + base
            out.append(Span(s.name, s.start, s.end, parent, s.nbytes))
    return out

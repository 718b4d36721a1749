"""Experiment orchestration CLI.

Subcommands: simulate (write a synthetic dataset), reconstruct (run a
solver against a dataset), sweep (reconstruct across one parameter's
values), evaluate (phase-aligned NRMSE of a stored reconstruction).

Exit codes: 0 success, 2 usage/config error, 3 numerical failure (NaN in
solver iterates).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import pmace, sharp, sim
from .fields import NumericalFailure, build_coverage, read_cfld, write_cfld
from .metrics import nrmse_phase_aligned, write_trace_csv

SOLVER_NAMES = ("pmace", "sharp", "sharp_plus")
SWEEP_PARAMS = ("alpha", "beta", "kappa", "rho")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration or unusable inputs; maps to exit code 2."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping of sections")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"config is missing a '{name}' section")
    return sec


def _require(sec: dict, key: str, section: str):
    if key not in sec:
        raise ConfigError(f"config key '{section}.{key}' is required")
    return sec[key]


def make_init(mode: str, shape: tuple[int, int], seed: int) -> np.ndarray:
    """Initial image: constant ones, or a seeded random field."""
    if mode == "ones":
        return np.ones(shape, dtype=np.complex128)
    if mode == "random":
        rng = np.random.default_rng(seed)
        amp = 0.5 + 0.5 * rng.random(shape)
        pha = rng.uniform(-np.pi, np.pi, shape)
        return amp * np.exp(1j * pha)
    raise ConfigError(f"unknown init mode {mode!r} (expected 'ones' or 'random')")


def cmd_simulate(cfg: dict, out_dir, seed_override: int | None, workers: int) -> int:
    sec = _section(cfg, "sim")
    image_shape = tuple(_require(sec, "image_shape", "sim"))
    probe_size = int(_require(sec, "probe_size", "sim"))
    grid_dims = tuple(_require(sec, "grid_dims", "sim"))
    spacing = int(_require(sec, "spacing", "sim"))
    object_seed = int(sec.get("object_seed", 0))
    probe_seed = int(sec.get("probe_seed", 1))
    noise = bool(sec.get("noise", False))
    r_p = float(sec.get("r_p", 1e5))
    normalization = sec.get("normalization", "global-max")
    noise_seed = int(sec.get("noise_seed", 0))
    if seed_override is not None:
        noise_seed = seed_override

    try:
        grid = sim.make_scan_grid(image_shape, probe_size, grid_dims, spacing)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    x = sim.synth_object(image_shape, object_seed)
    probe = sim.synth_probe(probe_size, probe_seed)
    clean = sim.forward_amplitude(x, probe, grid, workers=workers)
    noisy = None
    if noise:
        try:
            noisy = sim.add_poisson_noise(clean, r_p, noise_seed, mode=normalization)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    params = {
        "grid_dims": grid_dims,
        "spacing": spacing,
        "seed": {"object": object_seed, "probe": probe_seed, "noise": noise_seed},
        "r_p": r_p if noise else None,
        "normalization": normalization if noise else None,
    }
    root = sim.write_dataset(out_dir, x, probe, grid, clean, noisy, params)
    print(f"dataset written to {root} ({len(grid)} patterns, noise={'on' if noise else 'off'})")
    return EXIT_OK


def _solver_settings(cfg: dict) -> dict:
    sec = _section(cfg, "solver")
    name = _require(sec, "name", "solver")
    if name not in SOLVER_NAMES:
        raise ConfigError(f"unknown solver {name!r} (expected one of {SOLVER_NAMES})")
    return {
        "name": name,
        "alpha": float(sec.get("alpha", 0.0)),
        "rho": float(sec.get("rho", 0.5)),
        "kappa": float(sec.get("kappa", 1.25)),
        "beta": float(sec.get("beta", 0.5)),
        "iterations": int(sec.get("iterations", 100)),
        "eval_every": int(sec.get("eval_every", 1)),
        "init": sec.get("init", "ones"),
        "init_seed": int(sec.get("init_seed", 0)),
        "data": sec.get("data", "clean"),
    }


def _run_solver(settings: dict, dataset: sim.Dataset, workers: int):
    if settings["data"] not in ("clean", "noisy"):
        raise ConfigError(f"solver.data must be 'clean' or 'noisy', got {settings['data']!r}")
    if settings["data"] == "noisy":
        if dataset.noisy is None:
            raise ConfigError("config requests noisy data but the dataset has none")
        y = dataset.noisy
        descale = dataset.scale_factor
    else:
        y = dataset.clean
        descale = 1.0
    init = make_init(settings["init"], dataset.grid.image_shape, settings["init_seed"])
    try:
        if settings["name"] == "pmace":
            params = pmace.PmaceParams(
                alpha=settings["alpha"],
                rho=settings["rho"],
                kappa=settings["kappa"],
                max_iters=settings["iterations"],
                eval_every=settings["eval_every"],
            )
            return pmace.mann_iterate(
                y, dataset.probe, dataset.grid, params, init,
                trace_target=dataset.truth, descale=descale, workers=workers,
            )
        params = sharp.SharpParams(
            beta=settings["beta"],
            max_iters=settings["iterations"],
            variant=settings["name"],
            eval_every=settings["eval_every"],
        )
        return sharp.sharp_iterate(
            y, dataset.probe, dataset.grid, params, init,
            trace_target=dataset.truth, descale=descale, workers=workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_reconstruct(cfg: dict, dataset_path, out_dir, seed_override: int | None, workers: int) -> int:
    settings = _solver_settings(cfg)
    if seed_override is not None:
        settings["init_seed"] = seed_override
    dataset = sim.load_dataset(dataset_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    recon, trace = _run_solver(settings, dataset, workers)
    wall = time.perf_counter() - t0
    write_cfld(out / "recon.cfld", recon)
    write_trace_csv(out / "trace.csv", trace)
    summary = {
        "solver": settings,
        "dataset": str(dataset_path),
        "iterations": settings["iterations"],
        "final_nrmse": trace[-1][1],
        "wall_seconds": wall,
        "workers": workers,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"final NRMSE {trace[-1][1]:.6e} after {settings['iterations']} iterations "
          f"({wall:.2f}s); artifacts in {out}")
    return EXIT_OK


def _sweep_values(args) -> list[float]:
    if args.values:
        try:
            vals = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --values: {exc}") from exc
    elif args.log_range:
        lo, hi, n = args.log_range
        if lo <= 0 or hi <= 0:
            raise ConfigError("--log-range endpoints must be positive")
        vals = list(np.geomspace(lo, hi, int(n)))
    else:
        vals = []
    if not vals:
        raise ConfigError("sweep needs a nonempty value list (--values or --log-range)")
    return vals


def cmd_sweep(cfg: dict, dataset_path, out_dir, param: str, values: list[float], workers: int) -> int:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
    run_names: dict[str, float] = {}
    for value in values:
        name = f"{param}_{value:g}"
        if name in run_names:
            raise ConfigError(
                f"sweep values {run_names[name]!r} and {float(value)!r} would both "
                f"write run directory {name}/"
            )
        run_names[name] = float(value)
    settings = _solver_settings(cfg)
    dataset = sim.load_dataset(dataset_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, value in run_names.items():
        run = dict(settings)
        run[param] = value
        t0 = time.perf_counter()
        recon, trace = _run_solver(run, dataset, workers)
        wall = time.perf_counter() - t0
        run_dir = out / name
        run_dir.mkdir(exist_ok=True)
        write_cfld(run_dir / "recon.cfld", recon)
        write_trace_csv(run_dir / "trace.csv", trace)
        rows.append((value, trace[-1][1], wall))
        print(f"{param}={value:g}: final NRMSE {trace[-1][1]:.6e} ({wall:.2f}s)")
    with open(out / "sweep.csv", "w") as fh:
        fh.write("value,final_nrmse,seconds\n")
        for value, err, wall in rows:
            fh.write(f"{value!r},{err!r},{wall!r}\n")
    best = min(rows, key=lambda r: r[1])
    with open(out / "sweep_summary.json", "w") as fh:
        json.dump(
            {"param": param, "best_value": best[0], "best_nrmse": best[1],
             "runs": len(rows), "solver": settings},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"best {param}={best[0]:g} with final NRMSE {best[1]:.6e}")
    return EXIT_OK


def cmd_evaluate(recon_path, dataset_path) -> int:
    dataset = sim.load_dataset(dataset_path)
    recon = read_cfld(recon_path)
    if recon.shape != dataset.truth.shape:
        raise ConfigError(
            f"reconstruction shape {recon.shape} does not match "
            f"ground truth {dataset.truth.shape}"
        )
    coverage = build_coverage(dataset.probe, dataset.grid, 1.25)
    err = nrmse_phase_aligned(recon, dataset.truth, coverage.covered_mask)
    print(f"{err!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptychokit",
        description="Simulate ptychographic measurements and reconstruct them "
                    "with PMACE or SHARP solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset directory")
    p_sim.add_argument("--config", required=True, help="YAML experiment config")
    p_sim.add_argument("--out", help="dataset output directory (default: config 'output')")
    p_sim.add_argument("--seed", type=int, help="override the noise seed")
    p_sim.add_argument("--workers", type=int, help="FFT worker threads")

    p_rec = sub.add_parser("reconstruct", help="run a solver against a dataset")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--dataset", required=True, help="dataset directory from 'simulate'")
    p_rec.add_argument("--out", help="artifact output directory (default: config 'output')")
    p_rec.add_argument("--seed", type=int, help="override the init seed")
    p_rec.add_argument("--workers", type=int)

    p_swp = sub.add_parser("sweep", help="reconstruct across one parameter's values")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--dataset", required=True)
    p_swp.add_argument("--out", help="artifact output directory (default: config 'output')")
    p_swp.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_swp.add_argument("--values", help="comma-separated values, e.g. 0.1,0.2,0.5")
    p_swp.add_argument("--log-range", nargs=3, type=float, metavar=("LO", "HI", "N"),
                       help="log-spaced grid from LO to HI with N points")
    p_swp.add_argument("--workers", type=int)

    p_eval = sub.add_parser("evaluate", help="NRMSE of a stored reconstruction")
    p_eval.add_argument("--recon", required=True, help="reconstruction CFLD file")
    p_eval.add_argument("--dataset", required=True)

    return parser


def _resolve_out(args, cfg) -> str:
    out = getattr(args, "out", None) or cfg.get("output")
    if not out:
        raise ConfigError("no output directory: pass --out or set 'output' in the config")
    return out


def _resolve_workers(args, cfg) -> int:
    w = getattr(args, "workers", None)
    if w is None:
        w = cfg.get("workers")
    if w is None:
        w = os.cpu_count() or 1
    w = int(w)
    if w < 1:
        raise ConfigError("workers must be at least 1")
    return w


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(args.recon, args.dataset)
        cfg = load_config(args.config)
        workers = _resolve_workers(args, cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, _resolve_out(args, cfg), args.seed, workers)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.dataset, _resolve_out(args, cfg), args.seed, workers)
        if args.command == "sweep":
            values = _sweep_values(args)
            return cmd_sweep(cfg, args.dataset, _resolve_out(args, cfg), args.param, values, workers)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

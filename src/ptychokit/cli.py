"""Experiment orchestration CLI.

Subcommands: simulate (write a synthetic dataset), reconstruct (run a
solver against a dataset), sweep (reconstruct across one parameter's
values), evaluate (phase-aligned NRMSE of a stored reconstruction).

The config file says what to compute (geometry, seeds, solver values);
``--out`` and ``--workers`` say where the output goes and on how many
threads, and each setting has only that one source.

Exit codes: 0 success, 2 usage/config error or bad dataset file, 3
numerical failure (non-finite iterate; NumPy's warnings stay off stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
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

WORKERS_HELP = "threads across frames (default: CPU count); results do not depend on it"

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
    unread = [key for key in cfg if key not in ("sim", "solver")]
    if unread:
        raise ConfigError(f"config key '{unread[0]}' is not read by any command")
    return cfg


def _read(cfg: dict, section: str, keys: dict) -> dict:
    """``cfg[section]`` cast by :func:`_cast` through ``keys``, a ``{key: (cast, default)}``
    table (a None default makes a key required); a key not in ``keys`` exits 2."""
    sec = cfg.get(section)
    if not isinstance(sec, dict):
        raise ConfigError(f"config is missing a '{section}' section")
    unread = [key for key in sec if key not in keys]
    if unread:
        raise ConfigError(f"config key '{section}.{unread[0]}' is not read by any command")
    for key, (cast, default) in keys.items():
        if key not in sec and default is None:
            raise ConfigError(f"config key '{section}.{key}' is required")
    return {key: _cast(sec.get(key, default), f"{section}.{key}", cast)
            for key, (cast, default) in keys.items()}


def make_init(mode: str, shape: tuple[int, int], seed: int) -> np.ndarray:
    """Initial image: constant ones (mode 'ones'), or a seeded random field ('random')."""
    if mode == "ones":
        return np.ones(shape, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    amp = 0.5 + 0.5 * rng.random(shape)
    pha = rng.uniform(-np.pi, np.pi, shape)
    return amp * np.exp(1j * pha)


SIM_KEYS = {"image_shape": (tuple, None), "probe_size": (int, None), "grid_dims": (tuple, None),
            "spacing": (int, None), "object_seed": (int, 0), "probe_seed": (int, 1),
            "noise": (bool, False), "r_p": (float, 1e5),
            "normalization": (sim.NORMALIZATION_MODES, "global-max"), "noise_seed": (int, 0)}


def cmd_simulate(cfg: dict, out_dir, workers: int) -> int:
    c = _read(cfg, "sim", SIM_KEYS)
    if c["noise"]:  # before any work; add_poisson_noise's scale-factor check needs the stack
        sim.check_rate(c["r_p"])
    grid = sim.make_scan_grid(c["image_shape"], c["probe_size"], c["grid_dims"], c["spacing"])
    probe = sim.synth_probe(c["probe_size"], c["probe_seed"])  # first: it refuses a size below 8
    x = sim.synth_object(c["image_shape"], c["object_seed"])
    clean = sim.forward_amplitude(x, probe, grid, workers=workers)
    noisy = (sim.add_poisson_noise(clean, c["r_p"], c["noise_seed"], mode=c["normalization"])
             if c["noise"] else None)
    params = {
        "grid_dims": c["grid_dims"],
        "spacing": c["spacing"],
        "seed": {"object": c["object_seed"], "probe": c["probe_seed"], "noise": c["noise_seed"]},
        "r_p": c["r_p"] if c["noise"] else None,
        "normalization": c["normalization"] if c["noise"] else None,
    }
    root = sim.write_dataset(out_dir, x, probe, grid, clean, noisy, params)
    print(f"dataset written to {root} ({len(grid)} patterns, "
          f"noise={'on' if c['noise'] else 'off'})")
    return EXIT_OK


def _cast(value, key: str, cast):
    """``value`` as ``cast``: an int must be a whole number that is not negative, a bool a
    boolean, a tuple two such ints; a tuple of strings lists the values allowed as they are."""
    try:
        if isinstance(cast, tuple):
            return cast[cast.index(value)]  # ValueError for a value not in the list
        if cast is tuple and isinstance(value, list) and len(value) == 2:
            return tuple(_cast(v, key, int) for v in value)
        if cast is tuple or (cast is bool) != isinstance(value, bool) or (
                cast is int and not (float(value).is_integer() and int(value) >= 0)):
            raise ValueError(value)
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        allowed = f" (one of: {', '.join(cast)})" if isinstance(cast, tuple) else ""
        raise ConfigError(f"config key '{key}' has invalid value {value!r}{allowed}") from exc


# The solver section: the run settings, then both solvers' parameter fields as their defaults'
# types (a shared field has one default); max_iters is read as iterations, variant is name.
RUN_KEYS = {"name": (("pmace", *sharp.VARIANTS), None), "data": (("clean", "noisy"), "clean"),
            "init": (("ones", "random"), "ones"), "init_seed": (int, 0)}
SOLVER_KEYS = dict(RUN_KEYS, **{
    ("iterations" if f.name == "max_iters" else f.name): (type(f.default), f.default)
    for cls in (pmace.PmaceParams, sharp.SharpParams) for f in dataclasses.fields(cls)
    if f.name != "variant"})
SWEEP_PARAMS = sorted(key for key, (cast, _) in SOLVER_KEYS.items() if cast is float)


def read_solver(cfg: dict):
    """The solver section as (params, solve, settings): RUN_KEYS in ``settings``, the params of
    the solver ``name`` names (the other's keys are checked, then unused) and its iteration
    ``solve``, looked up on its module now, so that a wrapper installed there beforehand applies."""
    c = _read(cfg, "solver", SOLVER_KEYS)
    c.update(max_iters=c.pop("iterations"), variant=c["name"])
    cls, solve = ((pmace.PmaceParams, pmace.mann_iterate) if c["name"] == "pmace"
                  else (sharp.SharpParams, sharp.sharp_iterate))
    params = cls(**{f.name: c[f.name] for f in dataclasses.fields(cls)})
    return params, solve, {key: c[key] for key in RUN_KEYS}


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_solve(cfg: dict, dataset_path, out_dir, workers: int, param=None, values=None) -> int:
    """Solve each run and write it under ``out_dir``.

    ``reconstruct`` is one run, written into ``out_dir`` itself. ``sweep``
    sets ``param`` to each of the comma-separated ``values``, one run per
    value in ``out_dir/<param>_<value:g>``, and then writes sweep.csv and
    sweep_summary.json. Every run is checked before the dataset is read;
    the stack and the starting image are then made once for all runs.
    """
    base, solve, settings = read_solver(cfg)
    runs = {"": base}
    if param is not None:
        if param not in {field.name for field in dataclasses.fields(base)}:
            raise ConfigError(f"--param {param} is not a parameter of solver {settings['name']}")
        try:
            floats = [float(v) for v in values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --values: {exc}") from exc
        if not floats:
            raise ConfigError("sweep needs a nonempty --values list")
        runs = {}
        for value in floats:
            name = f"{param}_{value:g}"
            if name in runs:
                raise ConfigError(
                    f"sweep values {getattr(runs[name], param)!r} and {value!r} would both "
                    f"write run directory {name}/"
                )
            runs[name] = dataclasses.replace(base, **{param: value})
    dataset = sim.load_dataset(dataset_path)
    y, descale = dataset.amplitudes(noisy=settings["data"] == "noisy")
    init = make_init(settings["init"], dataset.grid.image_shape, settings["init_seed"])
    out = Path(out_dir)
    rows = []
    for name, params in runs.items():
        t0 = time.perf_counter()
        recon, trace = solve(y, dataset.probe, dataset.grid, params, init,
                             trace_target=dataset.truth, descale=descale, workers=workers)
        wall, final = time.perf_counter() - t0, trace[-1][1]
        (out / name).mkdir(parents=True, exist_ok=True)
        write_cfld(out / name / "recon.cfld", recon)
        write_trace_csv(out / name / "trace.csv", trace)
        _write_json(out / name / "summary.json", {
            "solver": dict(settings, **dataclasses.asdict(params)),
            "dataset": str(dataset_path), "iterations": params.max_iters,
            "final_nrmse": final, "wall_seconds": wall, "workers": workers,
        })
        rows.append((getattr(params, param) if param else None, final, wall))
        print(f"final NRMSE {final:.6e} after {params.max_iters} iterations "
              f"({wall:.2f}s); artifacts in {out / name}")
    if param is None:
        return EXIT_OK
    (out / "sweep.csv").write_text("value,final_nrmse,seconds\n" + "".join(
        f"{value!r},{err!r},{wall!r}\n" for value, err, wall in rows))
    best = min(rows, key=lambda r: r[1])
    _write_json(out / "sweep_summary.json", {
        "param": param, "best_value": best[0], "best_nrmse": best[1],
        "runs": len(rows), "solver": dict(settings, **dataclasses.asdict(base)),
    })
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
    covered = build_coverage(dataset.probe, dataset.grid, 0) > 0
    err = nrmse_phase_aligned(recon, dataset.truth, covered)
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
    p_rec = sub.add_parser("reconstruct", help="run a solver against a dataset")
    p_swp = sub.add_parser("sweep", help="reconstruct across one parameter's values")
    for p, what in ((p_sim, "dataset"), (p_rec, "artifact"), (p_swp, "artifact")):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", required=True, help=f"{what} output directory")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=WORKERS_HELP)
    p_rec.add_argument("--dataset", required=True, help="dataset directory from 'simulate'")
    p_rec.set_defaults(param=None, values=None)
    p_swp.add_argument("--dataset", required=True)
    p_swp.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_swp.add_argument("--values", required=True, help="comma-separated values, e.g. 0.1,0.2,0.5")

    p_eval = sub.add_parser("evaluate", help="NRMSE of a stored reconstruction")
    p_eval.add_argument("--recon", required=True, help="reconstruction CFLD file")
    p_eval.add_argument("--dataset", required=True)

    return parser


@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(args.recon, args.dataset)
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        # outputs come after the work, so an --out that is not a new or empty directory fails now
        existing = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} exists and is not a directory")
        if existing == Path(args.out) and any(existing.iterdir()):
            raise ConfigError(f"--out {args.out} is a directory that is not empty")
        cfg = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.workers)
        return cmd_solve(cfg, args.dataset, args.out, args.workers, args.param, args.values)
    except (ConfigError, OSError, ValueError, MemoryError, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalFailure) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

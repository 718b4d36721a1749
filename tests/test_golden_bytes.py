"""Golden bytes: a small simulate -> reconstruct -> evaluate run, hashed.

Two noisy datasets (a 16x16 probe over 36 frames, so two frame blocks, and
a 20x20 probe over a 53-column image) are simulated, each is reconstructed
by PMACE, SHARP and SHARP+ from its clean and its noisy data, and each
reconstruction is evaluated, all in-process through ``cli.main``. The run
is reduced to SHA-256 digests of every dataset file and ``recon.cfld``,
of each ``trace.csv`` without its seconds column and each
``summary.json`` without ``wall_seconds`` and ``workers``, plus the text
``evaluate`` prints. These must equal ``golden_bytes.json``, at workers 1
and 2 alike.

FFT bits can change between NumPy versions, so the file records the
version it was written with and the comparison skips under another one.
A change that moves any of these bytes on purpose regenerates the file::

    PYTHONPATH=src python tests/test_golden_bytes.py --write

and declares the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import trace_bytes_without_seconds
from ptychokit.cli import main

GOLDEN = Path(__file__).with_name("golden_bytes.json")

DATASETS = {
    "p16": {"image_shape": [40, 40], "probe_size": 16, "grid_dims": [6, 6], "spacing": 4,
            "object_seed": 1, "probe_seed": 2, "noise": True, "r_p": 1.0e4,
            "normalization": "global-max", "noise_seed": 3},
    "p20": {"image_shape": [40, 53], "probe_size": 20, "grid_dims": [4, 6], "spacing": 6,
            "object_seed": 4, "probe_seed": 5, "noise": True, "r_p": 1.0e3,
            "normalization": "per-pattern-max", "noise_seed": 6},
}
SOLVERS = {
    "pmace": {"alpha": 0.1, "rho": 0.5, "kappa": 1.25},
    "sharp": {"beta": 0.5},
    "sharp_plus": {"beta": 0.6},
}
RUN = {"iterations": 40, "eval_every": 10, "init": "random", "init_seed": 7}


def _cli(*argv: str) -> str:
    """Run one command in-process; return what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return printed.getvalue()


def _digest(path: Path) -> str:
    if path.name == "trace.csv":
        data = trace_bytes_without_seconds(path)
    elif path.name == "summary.json":
        summary = json.loads(path.read_text())
        del summary["wall_seconds"], summary["workers"]
        data = json.dumps(summary, indent=2, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_pipeline(workers: int) -> dict:
    """The golden record of one run at ``workers`` threads, made in a
    temporary directory; paths are relative to it."""
    evaluated = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for ds, sim in DATASETS.items():
                Path(f"{ds}.yaml").write_text(yaml.safe_dump({"sim": sim}))
                _cli("simulate", "--config", f"{ds}.yaml", "--out", ds, "--workers", str(workers))
                for name, params in SOLVERS.items():
                    for data in ("clean", "noisy"):
                        run = f"{ds}_{name}_{data}"
                        solver = dict(RUN, name=name, data=data, **params)
                        Path(f"{run}.yaml").write_text(yaml.safe_dump({"solver": solver}))
                        _cli("reconstruct", "--config", f"{run}.yaml", "--dataset", ds,
                             "--out", run, "--workers", str(workers))
                        evaluated[run] = _cli("evaluate", "--recon", f"{run}/recon.cfld",
                                              "--dataset", ds)
            sha256 = {path.as_posix(): _digest(path)
                      for path in sorted(Path(".").rglob("*"))
                      if path.is_file() and path.suffix != ".yaml"}
        finally:
            os.chdir(cwd)
    return {"sha256": sha256, "evaluate": evaluated}


@pytest.fixture(scope="module")
def runs():
    return {workers: run_pipeline(workers) for workers in (1, 2)}


def test_bytes_do_not_depend_on_workers(runs):
    assert runs[1] == runs[2]


def test_bytes_match_the_golden_file(runs):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"{GOLDEN.name} was written with NumPy {golden['numpy']}; "
                    f"this is NumPy {np.__version__}")
    assert runs[1]["evaluate"] == golden["evaluate"]
    assert runs[1]["sha256"] == golden["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    record = {"numpy": np.__version__, **run_pipeline(workers=1)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(record['sha256'])} files)")

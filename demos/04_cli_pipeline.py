"""
Experiment pipeline through the CLI
===================================

Drives the command-line interface end to end: simulate a dataset,
reconstruct it, evaluate the stored reconstruction, and sweep a solver
parameter. Everything lands under ./demo_output/pipeline, which is cleared
first: the CLI refuses an --out directory that is not empty.
"""

import shutil
from pathlib import Path

import yaml

from ptychokit.cli import main

ROOT = Path("demo_output") / "pipeline"
shutil.rmtree(ROOT, ignore_errors=True)
ROOT.mkdir(parents=True)

config = {
    "sim": {
        "image_shape": [176, 176],
        "probe_size": 64,
        "grid_dims": [8, 8],
        "spacing": 14,
        "object_seed": 7,
        "probe_seed": 11,
        "noise": True,
        "r_p": 1e5,
        "normalization": "global-max",
        "noise_seed": 6,
    },
    "solver": {
        "name": "pmace",
        "alpha": 0.1,
        "rho": 0.5,
        "kappa": 1.25,
        "iterations": 100,
        "eval_every": 10,
        "init": "ones",
        "data": "clean",
    },
}
cfg_path = ROOT / "experiment.yaml"
cfg_path.write_text(yaml.safe_dump(config))

dataset = ROOT / "dataset"
run = ROOT / "run"
sweep = ROOT / "alpha_sweep"

print("== simulate ==")
assert main(["simulate", "--config", str(cfg_path), "--out", str(dataset),
             "--workers", "4"]) == 0

print("\n== reconstruct ==")
assert main(["reconstruct", "--config", str(cfg_path), "--dataset", str(dataset),
             "--out", str(run), "--workers", "4"]) == 0

print("\n== evaluate the stored reconstruction ==")
assert main(["evaluate", "--recon", str(run / "recon.cfld"),
             "--dataset", str(dataset)]) == 0

print("\n== sweep alpha on the noisy data ==")
noisy_cfg = ROOT / "experiment_noisy.yaml"
config["solver"]["data"] = "noisy"
noisy_cfg.write_text(yaml.safe_dump(config))
assert main(["sweep", "--config", str(noisy_cfg), "--dataset", str(dataset),
             "--out", str(sweep), "--param", "alpha",
             "--values", "0.2,0.5,0.8", "--workers", "4"]) == 0

print("\nartifacts:")
for path in sorted(ROOT.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(ROOT)}")

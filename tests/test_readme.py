"""The README's code and config blocks, and the dataset and CLI demos, run as
written against the package."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

from ptychokit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
DEMOS = README.parent / "demos"


def test_quick_start_block_runs(capsys):
    section = README.read_text().split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}: Quick start", "exec"), namespace)
    iteration, err, _ = namespace["trace"][-1]
    assert iteration == 100 and err < 1e-2
    assert namespace["recon"].shape == (176, 176)
    assert capsys.readouterr().out.startswith("(100, ")


def test_example_config_simulates_and_reconstructs(tmp_path):
    section = README.read_text().split("Example config:", 1)[1]
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(re.search(r"```yaml\n(.*?)```", section, re.S).group(1))
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    for argv in (["simulate", "--config", str(cfg), "--out", data],
                 ["reconstruct", "--config", str(cfg), "--dataset", data, "--out", run]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([*argv, "--workers", "2"]) == 0, err.getvalue()
    assert (tmp_path / "run" / "recon.cfld").exists()


# demo -> the last file it writes; 02 and 03 are library solves, which the
# quick-start test already runs
DEMO_OUTPUTS = {
    "01_simulate_and_inspect.py": "demo_output/dataset/manifest.json",
    "04_cli_pipeline.py": "demo_output/pipeline/alpha_sweep/sweep.csv",
}


@pytest.mark.parametrize("demo", sorted(DEMO_OUTPUTS))
def test_demo_runs_to_the_end(tmp_path, monkeypatch, capsys, demo):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert (tmp_path / DEMO_OUTPUTS[demo]).is_file()
    assert capsys.readouterr().out

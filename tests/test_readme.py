"""The README's code and config blocks run as written against the package."""

import contextlib
import io
import re
from pathlib import Path

from ptychokit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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

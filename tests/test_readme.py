"""The README's Quick start code runs as written against the package."""

import re
from pathlib import Path

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

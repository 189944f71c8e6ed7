"""The README's "Library surface" block runs as written."""

import re
import time
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    t0 = time.monotonic()
    exec(compile(code, "README.md", "exec"), {})
    elapsed = time.monotonic() - t0
    bound, fitted, fs = capsys.readouterr().out.splitlines()
    assert all(0.0 < float(x) < 1.0 for x in (bound, fitted, fs.split()[0]))
    assert elapsed < 5.0, f"took {elapsed:.2f}s"

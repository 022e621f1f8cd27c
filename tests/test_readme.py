"""The README's library example runs as written, and its key table is the schema."""

import math
import os
import subprocess
import sys
from pathlib import Path

from nesscorr.harness import CONFIG_KEYS

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_two_finite_numbers():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    values = [float(line.rsplit(" ", 1)[1]) for line in proc.stdout.splitlines()]
    assert len(values) == 2
    assert all(math.isfinite(v) for v in values)


def test_config_table_lists_exactly_the_config_keys():
    # each key once: a removed key leaves no stale row, a new one no gap
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration schema", 1)[1].split("\n\n")[2]
    keys = [key for line in table.splitlines()[2:]
            for key in line.split("|")[1].replace("`", "").replace(",", " ").split()]
    assert sorted(keys) == sorted(CONFIG_KEYS)

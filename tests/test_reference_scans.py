"""The committed scan configs reproduce the committed reference CSVs.

``benchmarks/reference/`` holds the scan CSVs of ``configs/
symmetric_length_scan.cfg``, ``configs/offset_scan.cfg`` and the benchmark's
finite-distance scan ``FULL_MODE_CFG`` (read from ``benchmarks/workloads.py``).  Every field
of a reference row must be matched to REL_TOL of the largest field of
that row, the rule the benchmark applies to them.  The negativity rows
move by about 1e-7 when the entries of C_A move by one rounding unit, so
a change to the matrix build that is not bit-exact fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from nesscorr.harness import parse_config, rows_to_csv, run_scan

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-10


def _full_mode_config() -> str:
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FULL_MODE_CFG


def parse_csv(text):
    lines = text.strip().splitlines()
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[tuple(fields[:3])] = [float(x) for x in fields[3:]]
    return lines[0], rows


@pytest.mark.parametrize("config,reference", [
    ("symmetric_length_scan.cfg", "length_scan.csv"),
    ("offset_scan.cfg", "offset_scan.csv"),
    ("FULL_MODE_CFG", "full_mode.csv"),
])
def test_scan_matches_reference(config, reference):
    text = (_full_mode_config() if config == "FULL_MODE_CFG"
            else (ROOT / "configs" / config).read_text())
    rows = run_scan(parse_config(text))
    assert [r.error for r in rows if r.error is not None] == []
    header, got = parse_csv(rows_to_csv(rows))
    ref_header, want = parse_csv(
        (ROOT / "benchmarks" / "reference" / reference).read_text())
    assert header == ref_header
    assert sorted(got) == sorted(want)
    off = []
    for key, ref in want.items():
        scale = max(abs(x) for x in ref)
        worst = max(abs(a - b) for a, b in zip(got[key], ref))
        if worst > REL_TOL * scale:
            off.append(f"{'/'.join(key)}: max diff {worst:.3e}, row scale {scale:.3e}")
    assert off == []

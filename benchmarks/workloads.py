"""Benchmark workloads: the scan configurations each workload runs.

Seed 0 gives exactly the inputs listed below.  Any other seed shifts both
Fermi momenta by one common offset drawn from [-KF_SHIFT, KF_SHIFT] rad
and, for the single-site model, ``eps0`` by an offset drawn from
[-EPS0_SHIFT, EPS0_SHIFT].  Grids, sizes, the bias window width
kf_l - kf_r and the beamsplitter transmissions never change, so every seed
asks for the same amount of work and the exact answers stay exact.

Workloads (see BENCHMARK.json for why each was chosen):

``length_scan``  configs/symmetric_length_scan.cfg as committed.
``offset_scan``  configs/offset_scan.cfg as committed.
``full_mode``    FULL_MODE_CFG: a finite-distance (mode = full) length scan.
``exact_cases``  BEAMSPLITTER_CFG at T = 0 and T = 1, then the identity
                 suite and the Fisher-Hartwig validation suite with their
                 defaults.
"""

from __future__ import annotations

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("length_scan", "offset_scan", "full_mode", "exact_cases")

KF_SHIFT = 0.02
EPS0_SHIFT = 0.05

_BIAS = """bias.kf_l = 1.7707963267948966
bias.kf_r = 1.5707963267948966
"""

FULL_MODE_CFG = """model.kind = single_site
model.eps0 = 1.0
model.eta = 1.0
""" + _BIAS + """geometry.m0 = 0
geometry.d_l = 20
geometry.d_r = 20
scan.variable = length
scan.values = 6,10,14
measures = MI,E
mode = full
"""

BEAMSPLITTER_CFG = """model.kind = constant_s
model.transmission = {transmission}
""" + _BIAS + """geometry.m0 = 0
geometry.d_l = 0
geometry.d_r = 0
scan.variable = length
scan.values = 128,256,512
measures = E,E_n
n_values = 2,4
"""


def _committed(name: str) -> str:
    return (ROOT / "configs" / name).read_text(encoding="utf-8")


def base_configs(workload: str) -> dict[str, str]:
    """Seed-0 configuration texts of a workload, keyed by scan name."""
    if workload == "length_scan":
        return {"length_scan": _committed("symmetric_length_scan.cfg")}
    if workload == "offset_scan":
        return {"offset_scan": _committed("offset_scan.cfg")}
    if workload == "full_mode":
        return {"full_mode": FULL_MODE_CFG}
    if workload == "exact_cases":
        return {"exact_T0": BEAMSPLITTER_CFG.format(transmission=0.0),
                "exact_T1": BEAMSPLITTER_CFG.format(transmission=1.0)}
    raise ValueError(f"unknown workload {workload!r}")


def _override(text: str, values: dict[str, float]) -> str:
    lines = []
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in raw.split("#", 1)[0] and key in values:
            raw = f"{key} = {values[key]!r}"
        lines.append(raw)
    return "\n".join(lines) + "\n"


def _value(text: str, key: str) -> float | None:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        if "=" in line and line.split("=", 1)[0].strip() == key:
            return float(line.split("=", 1)[1])
    return None


def scan_configs(workload: str, seed: int) -> dict[str, str]:
    """Configuration texts of a workload for one seed, keyed by scan name."""
    configs = base_configs(workload)
    if seed == 0:
        return configs
    rng = random.Random(seed)
    kf_shift = rng.uniform(-KF_SHIFT, KF_SHIFT)
    eps0_shift = rng.uniform(-EPS0_SHIFT, EPS0_SHIFT)
    out = {}
    for name, text in configs.items():
        values = {key: _value(text, key) + kf_shift
                  for key in ("bias.kf_l", "bias.kf_r")}
        eps0 = _value(text, "model.eps0")
        if eps0 is not None:
            values["model.eps0"] = eps0 + eps0_shift
        out[name] = _override(text, values)
    return out


def run(workload: str, harness, configs: dict[str, str]) -> dict:
    """The timed region: every call the workload makes into nesscorr.

    Returns the raw outputs; checking them is left to the caller, outside
    the timed region.
    """
    scans = {}
    for name, text in configs.items():
        rows = harness.run_scan(harness.parse_config(text))
        scans[name] = {
            "csv": harness.rows_to_csv([r for r in rows if r.error is None]),
            "rows": [[r.scan_value, r.measure, r.n, r.numeric, r.error]
                     for r in rows],
        }
    out = {"scans": scans}
    if workload == "exact_cases":
        out["identities"] = harness.run_identities()
        out["fh_validation"] = harness.run_fh_validation()
    return out

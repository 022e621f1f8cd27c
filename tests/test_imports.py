"""Run-time imports: numpy is the only numerical library the package loads.

Each check runs in a fresh interpreter, the way every command-line call
and every cold benchmark process starts.  Importing the CLI must load no
scipy module, and a scan, the identity suite and the Fisher-Hartwig
validation afterwards must import nothing at all, so no import cost
lands inside a timed run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

POINT = """model.kind = single_site
model.eps0 = 1.0
bias.kf_l = 1.7707963267948966
bias.kf_r = 1.5707963267948966
geometry.d_l = {d}
geometry.d_r = {d}
scan.variable = length
scan.values = 6
measures = {measures}
n_values = 2,4
mode = {mode}
"""

SCRIPT = """
import json, sys
import nesscorr.cli
from nesscorr import harness
scipy = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
before = set(sys.modules)
errors = []
for text in json.loads(sys.argv[1]):
    rows = harness.run_scan(harness.parse_config(text))
    harness.rows_to_csv(rows)
    harness.scan_summary(rows)
    errors += [r.error for r in rows if r.error is not None]
harness.run_identities()
harness.run_fh_validation()
print(json.dumps({"scipy": scipy, "added": sorted(set(sys.modules) - before),
                  "errors": errors}))
"""


def _fresh_interpreter_run(configs: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(configs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy_and_a_run_imports_nothing():
    configs = [POINT.format(d=0, measures="MI,MI_n,S_n,E,E_n", mode="longrange"),
               POINT.format(d=4, measures="MI,E", mode="full")]
    result = _fresh_interpreter_run(configs)
    assert result["scipy"] == []
    assert result["added"] == []
    assert result["errors"] == []

"""Summarize benchmark result records into one baseline file.

    python3 benchmarks/summarize.py OUT.json benchmarks/out/result_*.json

Groups the records by workload and trace mode.  For every table metric it
gives the median over the records, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
(third minus first quartile, over the median); every record's table is
kept as well, so the seed-0 runs can be read in full.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(f"{rec['workload']}/trace{rec['trace']}", []).append(rec)
    out = {"git_commit": records[0]["git_commit"], "host": records[0]["host"],
           "groups": {}}
    for key, recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name in [row["name"] for row in recs[0]["table"]]:
            values = [row["value"] for r in recs for row in r["table"] if row["name"] == name]
            med = statistics.median(values)
            entry = {"median": med, "n": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            metrics[name] = entry
        out["groups"][key] = {
            "seeds": [r["seed"] for r in recs],
            "seconds": recs[0]["seconds"],
            "metrics": metrics,
            "runs": [{"seed": r["seed"], "samples": r["samples"],
                      "failed_checks": len(r["failed_checks"]), "attempted": r["attempted"],
                      "table": {row["name"]: row["value"] for row in r["table"]}}
                     for r in recs],
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    Path(argv[0]).write_text(json.dumps(summarize(records), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

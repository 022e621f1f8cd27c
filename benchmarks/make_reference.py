"""Write the seed-0 reference CSVs that benchmarks/checks.py compares against.

    python3 benchmarks/make_reference.py

Run it only at a commit whose outputs are the accepted reference; the
files it writes are committed under benchmarks/reference/.
"""

from __future__ import annotations

from run import spawn
from checks import REFERENCE
from workloads import WORKLOADS


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        sample = spawn("sample", "--workload", workload, "--seed", "0")
        for scan, out in sample["scans"].items():
            (REFERENCE / f"{scan}.csv").write_text(out["csv"])
            print(f"wrote {scan}.csv ({len(out['rows'])} rows)")


if __name__ == "__main__":
    main()

"""nesscorr benchmark.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (benchmarks/child.py), one process at a time, so each timed
run starts cold, the way a command-line user starts: the Q-function
``lru_cache``s, the Gauss-Legendre rule cache and the lazy BLAS set-up
are all empty.  BLAS keeps its default thread count.

``--trace 0``: ``setup_s`` is the median of SETUP_PROBES set-up probes;
workload samples then run back to back until ``--seconds`` have passed
(at least one), and ``wall_s`` and ``peak_rss_mb`` are their medians.
``--trace 1``: samples alternate untraced and traced; the per-layer
metrics come from the traced ones, and the tracing overhead is the
difference of the two medians.

The outputs of every sample are checked (benchmarks/checks.py) outside
the timed region.  The last line of stdout is the JSON result; the lines
before it are a table of every metric with its unit and direction.  The
full record, host included, goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(*args: str, stdin: str | None = None) -> dict:
    """Run benchmarks/child.py in a fresh interpreter; return its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          cwd=ROOT, env=env, input=stdin, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median(values) -> float:
    return float(statistics.median(values))


def length_scan_eig_values(sample) -> dict:
    out: dict[str, dict[str, float]] = {}
    for scan_value, measure, n, numeric, _ in sample["scans"]["length_scan"]["rows"]:
        if measure == "E_n":
            out.setdefault(f"{n:g}", {})[str(scan_value)] = numeric
    return out


def run_samples(workload: str, seed: int, seconds: float, trace: bool):
    """Samples (untraced, traced) taken back to back for ``seconds``."""
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(spawn("sample", "--workload", workload, "--seed", str(seed)))
        if trace:
            spans = OUT / f"spans_{workload}_seed{seed}_{len(traced)}.jsonl"
            traced.append(spawn("sample", "--workload", workload, "--seed", str(seed),
                                "--trace", "--spans", str(spans)))
    return plain, traced


def check_outputs(workload, seed, samples, route_gap) -> list[dict]:
    ops = []
    first = samples[0]
    ops += [{"check": "typed_error", "ok": False, "detail": e}
            for s in samples for e in s["errors"]]
    for s in samples:
        ops.append(checks.cold_start_check(s))
        if "unpatched" in s:
            ops.append({"check": "untraced_run_unpatched", "ok": s["unpatched"],
                        "detail": ""})
        for scan, out in s["scans"].items():
            ops += checks.row_checks(scan, out["rows"])
    for s in samples[1:]:
        same = {k: v["csv"] for k, v in s["scans"].items()} == \
            {k: v["csv"] for k, v in first["scans"].items()}
        ops.append({"check": "rerun_bit_identical", "ok": same, "detail": ""})
    if seed == 0:
        for scan, out in first["scans"].items():
            ops += checks.compare_reference(scan, out["csv"])
    if workload == "exact_cases" and first["scans"]:
        ops.append(checks.zero_negativity_check(checks.zero_negativity(first["scans"])))
        ops += checks.identity_checks(first["identities"])
        ops += checks.fh_checks(first["fh_validation"])
    if route_gap is not None:
        ops += checks.route_gap_checks(route_gap["points"])
    for s in samples:
        if "calls" in s:   # traced
            ops += checks.coverage_checks(
                workload, s["calls"], route_gap.get("calls") if route_gap else None)
    return ops


def layer_values(traced, plain, route_gap) -> dict[str, float]:
    """Every per-layer value: medians over traced samples, plus shares."""
    values = {name: median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    wall = median(s["wall_s"] for s in traced)
    if route_gap is not None and "layers" in route_gap:
        check_s = route_gap["layers"]["measures.renyi_negativity_det.s"]
        values["measures.renyi_negativity_det.s"] = check_s
        values["measures.renyi_negativity_det.share"] = check_s / route_gap["wall_s"]
    else:
        values["measures.renyi_negativity_det.share"] = 0.0
    for name in ("densela.gen_eigvals.s", "densela.lu_logdet.s",
                 "measures.build_c_xi.s", "fisher_hartwig.s"):
        values[name[:-2] + ".share"] = values[name] / wall
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - median(s["wall_s"] for s in plain)
    return values


def print_table(rows) -> None:
    for name, value, unit, better in rows:
        print(f"  {name:45s} {value:>16.6g} {unit:8s} {better} is better")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nesscorr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nesscorr" / "__init__.py").is_file() or not spec_path.is_file():
        print("benchmark: run from the root of a nesscorr checkout "
              "(src/nesscorr and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    try:
        setups = [spawn("setup") for _ in range(SETUP_PROBES)]
        plain, traced = run_samples(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        route_gap = None
        if args.workload == "length_scan":
            eig = json.dumps(length_scan_eig_values(plain[0]))
            extra = ("--trace", "--spans",
                     str(OUT / f"spans_{args.workload}_seed{args.seed}_check.jsonl")
                     ) if args.trace else ()
            route_gap = spawn("route-gap", "--seed", str(args.seed), *extra, stdin=eig)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    ops = check_outputs(args.workload, args.seed, samples, route_gap)
    failed = [op for op in ops if not op["ok"]]

    e2e = {
        "wall_s": median(s["wall_s"] for s in plain),
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
    }
    table = [(m["name"], e2e[m["name"]], m["unit"], m["better"])
             for m in spec["end_to_end"]]
    table.append(("fail_frac", len(failed) / len(ops), "ratio", "lower"))
    if args.workload == "exact_cases" and plain[0]["scans"]:
        zero = checks.zero_negativity(plain[0]["scans"])
        table.append(("zero_neg_log10", _log10(zero), "decades", "lower"))
    if route_gap is not None:
        gap = max(p["abs_diff"] for p in route_gap["points"])
        table.append(("route_gap_log10", _log10(gap), "decades", "lower"))

    metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    if args.trace:
        layers = layer_values(traced, plain, route_gap)
        units = dict(tracing.LAYER_METRICS)
        table += [(name, value, units.get(name, _unit(name)), _better(name))
                  for name, value in layers.items()]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "host": setups[0]["host"],
        "samples": {"setup": len(setups), "untraced": len(plain), "traced": len(traced)},
        "setup_s": [s["setup_s"] for s in setups],
        "wall_s": [s["wall_s"] for s in plain],
        "traced_wall_s": [s["wall_s"] for s in traced],
        "cpu_s": [s["cpu_s"] for s in plain],
        "import_s": [s["import_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        "table": [{"name": n, "value": v, "unit": u, "better": b} for n, v, u, b in table],
        "failed_checks": failed,
        "attempted": len(ops),
        "route_gap": route_gap["points"] if route_gap else None,
    }
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"nesscorr benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; samples: {len(setups)} set-up, {len(plain)} untraced, "
          f"{len(traced)} traced (medians)")
    print(f"host: {json.dumps(record['host'])}; commit {record['git_commit']}")
    print_table(table)
    for op in failed[:20]:
        print(f"  FAILED {op['check']}: {op['detail']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _log10(x: float) -> float:
    return math.log10(x) if x > 0 else float("-inf")


def _unit(name: str) -> str:
    return "ratio" if name.endswith(".share") else "s"


def _better(name: str) -> str:
    return "higher" if name.endswith(("hit_ratio", "grid_points")) else "lower"


if __name__ == "__main__":
    sys.exit(main())

"""One measurement in a fresh interpreter; prints one JSON object.

    python3 benchmarks/child.py setup
    python3 benchmarks/child.py sample --workload W --seed N [--trace]
    python3 benchmarks/child.py route-gap --seed N [--trace] < eig_values.json

``setup`` times ``import nesscorr`` plus the first LAPACK call and records
the host.  ``sample`` runs one workload cold and times it from the first
call into nesscorr to the last.  ``route-gap`` recomputes the length
scan's E_n by the determinant route, for comparison with the eigenvalue
route values read from stdin.  ``src`` must be on the import path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module, imports nothing of nesscorr)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    """User plus system time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _emit(obj) -> int:
    sys.stdout.write(json.dumps(obj) + "\n")
    return 0


def _blas_threads() -> dict[str, int]:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[f"{pkg.__name__}:{Path(path).name}"] = int(fn())
                    break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def _host() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def cmd_setup(_args) -> int:
    t0 = time.perf_counter()
    import nesscorr  # noqa: F401
    import numpy as np
    np.linalg.eigvalsh(np.eye(64) + np.diag(np.ones(63), 1) + np.diag(np.ones(63), -1))
    setup_s = time.perf_counter() - t0
    return _emit({"setup_s": setup_s, "host": _host()})


def cmd_sample(args) -> int:
    configs = workloads.scan_configs(args.workload, args.seed)
    t0 = time.perf_counter()
    from nesscorr import harness
    from nesscorr.errors import NesscorrError
    from nesscorr import quadrature
    import tracer as tracing
    import_s = time.perf_counter() - t0

    cold = {"q_cache": tracing.q_cache_stats(),
            "gl_rules": len(getattr(quadrature, "_GL_CACHE", ()))}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.run_id = "timed"
    result = {"import_s": import_s, "cold_start": cold, "errors": []}
    cpu_start = _cpu_s()
    t_start = time.perf_counter()
    try:
        outputs = workloads.run(args.workload, harness, configs)
    except NesscorrError as exc:   # a typed error counts as a failed operation
        outputs = {"scans": {}}
        result["errors"].append(f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - t_start
    cpu_s = _cpu_s() - cpu_start
    result.update(outputs, wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=_peak_rss_mb())
    if tracer is None:
        result["unpatched"] = tracing.unpatched()
    else:
        result["layers"] = tracing.layer_metrics(tracer, "timed",
                                                 tracing.q_cache_stats())
        result["calls"] = tracing.calls_by_function(tracer, "timed")
        tracer.uninstall()
        tracer.write(args.spans)
    return _emit(result)


def cmd_route_gap(args) -> int:
    """max |E_n(eig) - E_n(det)| over the length scan, per (n, ell)."""
    eig = json.load(sys.stdin)   # {"<n>": {"<ell>": value}}
    from nesscorr import correlation, harness, measures
    import tracer as tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.run_id = "check"
    t0 = time.perf_counter()
    cfg = harness.parse_config(workloads.scan_configs("length_scan", args.seed)["length_scan"])
    points = []
    cache: dict = {}   # window integrals shared across the grid, as run_scan does
    for ell in cfg.scan_values:
        g = harness.geometry_at(cfg, ell)
        c_a = correlation.build_corr_matrix(cfg.model, cfg.bias, g, "A", cfg.mode, cache)
        for n_key, by_ell in sorted(eig.items()):
            n = int(float(n_key))
            value = by_ell[str(ell)]
            det = measures.renyi_negativity_det(c_a, c_a.n_left, n).value
            points.append({"n": n, "ell": ell, "eig": value, "det": det,
                           "abs_diff": abs(value - det)})
    result = {"points": points, "wall_s": time.perf_counter() - t0}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, "check",
                                                 tracing.q_cache_stats())
        result["calls"] = tracing.calls_by_function(tracer, "check")
        tracer.uninstall()
        tracer.write(args.spans)
    return _emit(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("setup").set_defaults(func=cmd_setup)
    for name, func in (("sample", cmd_sample), ("route-gap", cmd_route_gap)):
        p = sub.add_parser(name)
        if name == "sample":
            p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--spans", default=None, help="span file (with --trace)")
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

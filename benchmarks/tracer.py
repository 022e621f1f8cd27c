"""Spans around the calls into each nesscorr layer, recorded from outside.

:class:`Tracer` replaces every public function of the layer modules with
a timing wrapper, at every module binding that refers to it.  Bindings
matter because modules import each other's functions by name (``from
.densela import herm_eigvals``): patching only the defining module would
miss those calls.  Spans (name, start, end, parent, run id) stay in
memory until :meth:`Tracer.write`; the work counters are updated at the
same boundaries.

Layers are the modules.  ``harness`` contributes only its entry points;
its other public functions are helpers of those.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "correlation", "densela", "measures", "asymptotics",
          "fisher_hartwig", "harness")
HARNESS_ENTRY_POINTS = ("run_scan", "run_identities", "run_fh_validation")
Q_FUNCTIONS = ("q_n", "q_tilde_n", "q_fun", "q_tilde_fun")

# per-layer metrics (name -> unit); "computed" counts come from matrix sizes
LAYER_METRICS = {
    "quadrature.adaptive_gauss_legendre.calls": "count",
    "quadrature.adaptive_gauss_legendre.s": "s",
    "quadrature.adaptive_gauss_legendre.nodes": "count",
    "correlation.build_corr_matrix.calls": "count",
    "correlation.build_corr_matrix.self_s": "s",
    "correlation.build_corr_matrix.entries": "count",
    "densela.herm_eigvals.calls": "count",
    "densela.herm_eigvals.s": "s",
    "densela.herm_eigvals.n3": "count",
    "densela.gen_eigvals.calls": "count",
    "densela.gen_eigvals.s": "s",
    "densela.gen_eigvals.n3": "count",
    "densela.lu_logdet.calls": "count",
    "densela.lu_logdet.s": "s",
    "measures.build_c_xi.s": "s",
    "measures.self_s": "s",
    "measures.clamped_eigs": "count",
    "measures.renyi_negativity_det.s": "s",
    "asymptotics.s": "s",
    "asymptotics.q_cache_hit_ratio": "ratio",
    "fisher_hartwig.s": "s",
    "fisher_hartwig.toeplitz_dim_sum": "count",
    "harness.run_scan.self_s": "s",
    "harness.run_scan.grid_points": "count",
}


def public_functions() -> list[tuple[str, str, object]]:
    """(layer, name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"nesscorr.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from another layer; wrapped there
            if layer == "harness" and name not in HARNESS_ENTRY_POINTS:
                continue
            out.append((layer, name, obj))
    return out


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded nesscorr package bound to fn."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "nesscorr" and not modname.startswith("nesscorr."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, attr))
    return found


def unpatched() -> bool:
    """True when no nesscorr module binding refers to a tracing wrapper."""
    for modname, mod in list(sys.modules.items()):
        if modname == "nesscorr" or modname.startswith("nesscorr."):
            if any(getattr(v, "_bench_traced", False) for v in vars(mod).values()):
                return False
    return True


def q_cache_stats() -> dict[str, list[int]]:
    """[hits, misses] of each memoized Q function, read from the originals."""
    asym = importlib.import_module("nesscorr.asymptotics")
    out = {}
    for name in Q_FUNCTIONS:
        fn = getattr(asym, name)
        fn = getattr(fn, "_bench_original", fn)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[name] = [info.hits, info.misses]
    return out


class Tracer:
    """Wraps the layer functions; records spans and work counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, run_id]
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))   # run_id -> counter -> value
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        for layer, name, fn in public_functions():
            wrapper = self._wrap(f"{layer}.{name}", fn)
            for mod, attr in _bindings(fn):
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _count_nodes(self, f):
        counts = self.counts[self.run_id]

        def counted(x):
            counts["quadrature.adaptive_gauss_legendre.nodes"] += np.size(x)
            return f(x)

        return counted

    def _after(self, name, args, result, parent):
        c = self.counts[self.run_id]
        if name == "correlation.build_corr_matrix":
            c["correlation.build_corr_matrix.entries"] += result.dim ** 2
        elif name in ("densela.herm_eigvals", "densela.gen_eigvals"):
            c[name + ".n3"] += np.shape(args[0])[0] ** 3
        elif name in ("fisher_hartwig.toeplitz_from_symbol",
                      "fisher_hartwig.block_toeplitz_matrix"):
            c["fisher_hartwig.toeplitz_dim_sum"] += np.shape(result)[0]
        elif name == "harness.run_scan":
            c["harness.run_scan.grid_points"] += len(args[0].scan_values)
        if name.startswith("measures.") and (
                parent is None or not self.spans[parent][0].startswith("measures.")):
            c["measures.clamped_eigs"] += getattr(result, "clamped_count", 0)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count_nodes = name == "quadrature.adaptive_gauss_legendre"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_nodes:
                args = (self._count_nodes(args[0]),) + args[1:]
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, parent, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            self._after(name, args, result, parent)
            return result

        wrapper._bench_traced = True
        wrapper._bench_original = fn
        return wrapper

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run_id": run_id}) + "\n")


def calls_by_function(tracer: Tracer, run_id: str) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        if span[4] == run_id:
            out[span[0]] += 1
    return dict(out)


def layer_metrics(tracer: Tracer, run_id: str, q_stats) -> dict[str, float]:
    """Per-layer metrics of the spans and counters that carry ``run_id``.

    ``X.s`` is the time inside calls to X (outermost calls only);
    ``self_s`` excludes the time of nested calls into other layers.
    """
    spans, counts = tracer.spans, tracer.counts[run_id]
    ids = [i for i, s in enumerate(spans) if s[4] == run_id]
    children = defaultdict(list)
    for i in ids:
        if spans[i][3] is not None:
            children[spans[i][3]].append(i)

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def inside(i, pred):
        p = spans[i][3]
        while p is not None:
            if pred(p):
                return True
            p = spans[p][3]
        return False

    def same_layer_self(i):
        total = dur(i)
        for ch in children[i]:
            total -= dur(ch)
            if layer(ch) == layer(i):
                total += same_layer_self(ch)
        return total

    def calls(name):
        return float(sum(1 for i in ids if spans[i][0] == name))

    def fn_s(name):
        return sum(dur(i) for i in ids if spans[i][0] == name
                   and not inside(i, lambda p: spans[p][0] == name))

    def layer_s(lay):
        return sum(dur(i) for i in ids if layer(i) == lay
                   and not inside(i, lambda p: layer(p) == lay))

    def fn_self(name):
        return sum(same_layer_self(i) for i in ids if spans[i][0] == name)

    hits = sum(h for h, _ in q_stats.values())
    lookups = sum(h + m for h, m in q_stats.values())
    out = {}
    for fn in ("quadrature.adaptive_gauss_legendre", "correlation.build_corr_matrix",
               "densela.herm_eigvals", "densela.gen_eigvals", "densela.lu_logdet"):
        out[fn + ".calls"] = calls(fn)
    for fn in ("quadrature.adaptive_gauss_legendre", "densela.herm_eigvals",
               "densela.gen_eigvals", "densela.lu_logdet", "measures.build_c_xi",
               "measures.renyi_negativity_det"):
        out[fn + ".s"] = fn_s(fn)
    out["correlation.build_corr_matrix.self_s"] = fn_self("correlation.build_corr_matrix")
    out["harness.run_scan.self_s"] = fn_self("harness.run_scan")
    out["measures.self_s"] = sum(
        same_layer_self(i) for i in ids if layer(i) == "measures"
        and not inside(i, lambda p: layer(p) == "measures"))
    out["asymptotics.s"] = layer_s("asymptotics")
    out["fisher_hartwig.s"] = layer_s("fisher_hartwig")
    out["asymptotics.q_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    for key in ("quadrature.adaptive_gauss_legendre.nodes",
                "correlation.build_corr_matrix.entries", "densela.herm_eigvals.n3",
                "densela.gen_eigvals.n3", "measures.clamped_eigs",
                "fisher_hartwig.toeplitz_dim_sum", "harness.run_scan.grid_points"):
        out[key] = float(counts.get(key, 0.0))
    return out

"""Class-batched correlation builds against the entry-by-entry oracles, bit for bit.

The builds evaluate the quadrature nodes, the amplitudes and each
distinct phase once per panel class; ``tests/oracles.py`` keeps the scalar
quadrature per entry (full mode) or per window frequency (long range).
The scan reference rows pin every bit of C_A, so the comparison is exact.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from nesscorr import correlation
from nesscorr.correlation import _window_integrals, build_corr_matrix, corr_entry_full
from nesscorr.errors import DomainError
from nesscorr.harness import parse_config, run_scan
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite
from nesscorr.quadrature import InitialPanels

SRC = Path(__file__).resolve().parent.parent / "src"

BIASES = {
    "kf_l>kf_r": BiasConfig(np.pi / 2 + 0.2, np.pi / 2),
    "kf_l<kf_r": BiasConfig(np.pi / 2, np.pi / 2 + 0.2),
    "kf_l=kf_r": BiasConfig(1.3, 1.3),
}
MODELS = {
    "eps0=1": SingleSite(eps0=1.0),
    "eps0=0.05": SingleSite(eps0=0.05),   # full mode bisects near k = 0 at d_l=5
    "beamsplitter": ConstantS.beamsplitter(0.4),
}
GEOMETRIES = {
    "d=20": Geometry(d_l=20, ell_l=6, d_r=20, ell_r=6),
    "d_l=5": Geometry(d_l=5, ell_l=4, d_r=9, ell_r=5),
}


def _continuations(monkeypatch) -> list:
    """Node counts of every bisection level the batched builds evaluate."""
    levels = []
    integrate = InitialPanels.integrate

    def recording(self, f, values):
        def counted(k):
            levels.append(k.size)
            return f(k)
        return integrate(self, counted, values)

    monkeypatch.setattr(InitialPanels, "integrate", recording)
    return levels


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("bias", BIASES)
@pytest.mark.parametrize("mode", ["full", "longrange"])
def test_build_equals_entry_by_entry_oracle(monkeypatch, mode, bias, model, geometry):
    levels = _continuations(monkeypatch)
    args = (MODELS[model], BIASES[bias], GEOMETRIES[geometry])
    got = build_corr_matrix(*args, "A", mode).mat
    want = oracles.build_corr_matrix(*args, mode)
    assert got.tobytes() == want.tobytes()
    if (mode, model, geometry) == ("full", "eps0=0.05", "d_l=5"):
        assert levels  # entries whose initial panels fail continue from them


def test_shared_window_cache_across_builds_equals_oracle():
    model, bias = SingleSite(eps0=0.8), BIASES["kf_l>kf_r"]
    cache, oracle_cache = {}, {}
    for d_l, d_r in ((3, 9), (9, 3), (5, 5), (12, 1)):
        g = Geometry(d_l=d_l, ell_l=7, d_r=d_r, ell_r=5)
        got = build_corr_matrix(model, bias, g, "A", "longrange", cache).mat
        want = oracles.build_corr_matrix(model, bias, g, "longrange", oracle_cache)
        assert got.tobytes() == want.tobytes()
    oracle = oracles.WindowIntegrals(model, bias)
    assert all(repr(cache[key]) == repr(oracle(*key)) for key in cache)


def _length_scan(d: int) -> list:
    return [Geometry(d_l=d, ell_l=ell, d_r=d, ell_r=ell) for ell in (2, 4, 6)]


def _offset_scan(d: int) -> list:
    # as run_scan places offsets: >= 0 moves d_l, < 0 moves d_r
    return [Geometry(d_l=d + max(v, 0), ell_l=3, d_r=d - min(v, 0), ell_r=4)
            for v in (-4, -2, 0, 2, 4)]


REUSE_CASES = {
    "eps0=1": (MODELS["eps0=1"], 3),
    "eps0=0.05 d=5": (MODELS["eps0=0.05"], 5),
    "beamsplitter": (MODELS["beamsplitter"], 6),
}


@pytest.mark.parametrize("scan", [_length_scan, _offset_scan])
@pytest.mark.parametrize("case", REUSE_CASES)
def test_full_builds_sharing_a_cache_equal_fresh_builds(scan, case):
    # a shared cache copies the entries of site pairs the last build held
    model, d = REUSE_CASES[case]
    bias = BIASES["kf_l>kf_r"]
    cache: dict = {}
    for g in scan(d):
        got = build_corr_matrix(model, bias, g, "A", "full", cache).mat
        assert got.tobytes() == build_corr_matrix(model, bias, g, "A", "full").mat.tobytes()
        assert got.tobytes() == oracles.build_corr_matrix(model, bias, g, "full").tobytes()
        assert len(cache) == 1   # the last build's matrix alone


FULL_MODE_SCAN = """model.kind = single_site
model.eps0 = 1.0
bias.kf_l = 1.7707963267948966
bias.kf_r = 1.5707963267948966
geometry.d_r = 20
scan.variable = length
scan.values = 6,10,14
measures = MI,E
mode = full
"""


def test_full_mode_scan_integrates_each_site_pair_once(monkeypatch):
    # ell = 6, 10, 14 at d = 20 hold 78, 210 and 406 upper-triangle pairs,
    # of which the earlier point held 0, 78 and 210
    pairs = []
    real = correlation.corr_entry_full

    def spy(model, bias, j, m):
        pairs.append(np.size(j))
        return real(model, bias, j, m)

    monkeypatch.setattr(correlation, "corr_entry_full", spy)
    rows = run_scan(parse_config(FULL_MODE_SCAN))
    assert all(r.error is None for r in rows)
    assert pairs == [78, 132, 196]


def _distinct_phases(model, bias, geometries) -> int:
    """Distinct (build, sea, n0, lag) of the full builds sharing one cache.

    Each integrated entry's sea term needs e^{-iky} at its own lag (D on
    the same side, S across) and, unless the pair lies on the other side,
    at its shared lag (S, D), on the nodes of its class n0.
    """
    phases, held = set(), set()
    for b, g in enumerate(geometries):
        sites = np.concatenate([g.left_sites(), g.right_sites()]).tolist()
        for a, j in enumerate(sites):
            for m in sites[a:]:
                if j in held and m in held:
                    continue
                for left, kf in ((True, bias.kf_l), (False, bias.kf_r)):
                    same = (j < 0) == (m < 0)
                    shared, own = (j + m, j - m) if same else (j - m, j + m)
                    n0 = int(InitialPanels.count(kf, abs(shared)))
                    phases.add((b, left, n0, own))
                    if not (same and (j < 0) != left):
                        phases.add((b, left, n0, shared))
        held = set(sites)
    return len(phases)


def test_full_mode_scan_evaluates_each_phase_once_per_class(monkeypatch):
    # the full_mode workload's builds: same-side NEAR and FAR entries and
    # the cross entries of one class share their lags, so 976 entry and
    # group exponentials reduce to 515 distinct phases
    model, bias = SingleSite(eps0=1.0), BIASES["kf_l>kf_r"]
    geometries = [Geometry(d_l=20, ell_l=ell, d_r=20, ell_r=ell) for ell in (6, 10, 14)]
    calls = 0
    exp = np.exp

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    cache: dict = {}
    for g in geometries:
        build_corr_matrix(model, bias, g, "A", "full", cache)
    assert calls == _distinct_phases(model, bias, geometries) == 515


def test_failed_full_build_leaves_the_cache_unchanged(monkeypatch):
    model, bias = SingleSite(eps0=1.0), BIASES["kf_l>kf_r"]
    cache: dict = {}
    build_corr_matrix(model, bias, Geometry(5, 3, 5, 3), "A", "full", cache)
    before = dict(cache)

    def failing(*args):
        raise DomainError("injected")

    monkeypatch.setattr(correlation, "corr_entry_full", failing)
    with pytest.raises(DomainError, match="injected"):
        build_corr_matrix(model, bias, Geometry(5, 4, 5, 4), "A", "full", cache)
    assert cache.keys() == before.keys()
    assert all(cache[key] is before[key] for key in before)


def test_window_list_resolves_like_one_call_per_frequency():
    # the integrals of T at f > 0 are conjugates of those at -f; the oracle
    # integrates each f on its own
    model, bias = SingleSite(eps0=1.0), BIASES["kf_l<kf_r"]
    freqs = [3, -3, 0, 7, 3, -8, 8, -7]
    oracle = oracles.WindowIntegrals(model, bias)
    cache: dict = {}
    got = _window_integrals(model, bias, "T", freqs, cache)
    want = np.array([oracle("T", f) for f in freqs])
    assert got.tobytes() == want.tobytes()
    assert all(repr(cache[key]) == repr(oracle(*key)) for key in cache)


# numpy reuses a temporary of at least 256 KiB (16384 complex values) as the
# output of a product, which swaps the operands of a complex multiply; these
# entries reach that size, the workloads' entries (at most 3696 nodes) do not
ELIDED = 16384


@pytest.mark.parametrize("g", [
    Geometry(d_l=199, ell_l=7, d_r=199, ell_r=5),   # sites -206..-200, 200..204
    Geometry(d_l=199, ell_l=7, d_r=199, ell_r=7),   # NEAR and FAR lags coincide
], ids=["ell_r=5", "ell_r=7"])
def test_full_build_above_elision_size_equals_oracle(g):
    model, bias = SingleSite(eps0=1.0), BIASES["kf_l>kf_r"]
    assert 48 * int(InitialPanels.count(bias.kf_r, 400)) > ELIDED
    got = build_corr_matrix(model, bias, g, "A", "full").mat
    assert got.tobytes() == oracles.build_corr_matrix(model, bias, g, "full").tobytes()


@pytest.mark.parametrize("j, m", [(200, -201), (204, -203), (205, -201)])
def test_lower_cross_entry_above_elision_size_equals_oracle(j, m):
    # the builds fill the upper triangle, whose cross entries have j < 0 < m
    model, bias = SingleSite(eps0=1.0), BIASES["kf_l>kf_r"]
    got = corr_entry_full(model, bias, j, m)
    assert repr(got) == repr(oracles.corr_entry_full(model, bias, j, m))


@pytest.mark.parametrize("kind", ["T", "R"])
def test_window_integral_above_elision_size_equals_oracle(kind):
    model, bias = SingleSite(eps0=1.0), BIASES["kf_l>kf_r"]
    freq = 3001
    assert 48 * int(InitialPanels.count(bias.kf_l - bias.kf_r, freq)) > ELIDED
    got = _window_integrals(model, bias, kind, [freq], {})[0]
    assert repr(got) == repr(oracles.window_integral(model, bias, kind, freq))


def test_site_arrays_give_the_scalar_entries():
    model, bias = SingleSite(eps0=0.7), BIASES["kf_l>kf_r"]
    j = np.array([[-7, -6], [8, 9]])
    m = np.array([[9, -6], [-7, 9]])
    got = corr_entry_full(model, bias, j, m)
    assert got.shape == (2, 2)
    for idx in np.ndindex(j.shape):
        assert repr(got[idx]) == repr(corr_entry_full(model, bias, j[idx], m[idx]))
        assert got[idx] == oracles.corr_entry_full(model, bias, j[idx], m[idx])


# twice the traced peak of the entry-by-entry build (0.42 MiB); arrays the
# size of a whole panel class, or an import of numpy.ma (1.1 MiB), exceed it
FULL_BUILD_PEAK_MIB = 0.84

MEMORY_SCRIPT = """
import json, tracemalloc
from nesscorr.correlation import build_corr_matrix
from nesscorr.model import BiasConfig, Geometry, SingleSite
from nesscorr.quadrature import _gl_rule
_gl_rule(16), _gl_rule(32)
bias = BiasConfig(1.7707963267948966, 1.5707963267948966)
cache = {cache}
tracemalloc.start()
for ell in {lengths}:
    g = Geometry(d_l=20, ell_l=ell, d_r=20, ell_r=ell)
    build_corr_matrix(SingleSite(eps0=1.0), bias, g, "A", "full", cache)
print(json.dumps(tracemalloc.get_traced_memory()[1] / 2 ** 20))
"""


def _traced_peak_mib(lengths, cache: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = MEMORY_SCRIPT.format(lengths=lengths, cache=cache)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_full_build_traced_peak():
    """One full-mode build at the full_mode workload's largest point."""
    assert _traced_peak_mib((14,), "None") <= FULL_BUILD_PEAK_MIB


def test_full_scan_traced_peak():
    """The full_mode workload's three builds with one shared cache: the
    cache holds one earlier matrix, not every entry it has seen."""
    assert _traced_peak_mib((6, 10, 14), "{}") <= FULL_BUILD_PEAK_MIB

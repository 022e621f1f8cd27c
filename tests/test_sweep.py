"""A fixed-seed robustness sweep over the edges of the parameter space.

Single-site impurities from the trivial one (eps0 = 0) to a nearly
opaque one (eps0 = 30), attractive ones (eps0 < 0, whose bound state
full mode fills), beamsplitters from opaque to transparent, Fermi
momenta within 1e-3 of the band edges, zero bias, and lengths up to 32,
in both modes.  Every row must be finite or carry a typed error, and
only the errors a point can legitimately raise may appear:
``SpectrumError`` for a constant S-matrix in full mode (no lattice
realisation near the impurity) and ``BiasError`` at zero bias (the
closed forms refuse it).  A ``ConvergenceError`` is a numerical fault.
"""

import numpy as np
import pytest

from nesscorr import errors
from nesscorr.harness import ExperimentConfig, run_scan
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite

SEED = 2023
EDGE = 1e-3
MODELS = ([SingleSite(eps0=eps0) for eps0 in (0.0, 1e-12, 2e-8, 1e-6, 1e-3, 0.05, 1.0, 30.0)]
          + [ConstantS.beamsplitter(t) for t in (0.0, 1e-12, 0.5, 1.0)]
          + [SingleSite(eps0=eps0) for eps0 in (-0.05, -1.0)])
BIAS_KINDS = ("low edge", "high edge", "across", "zero")
MAX_ELL = {"longrange": 32, "full": 16}   # full mode integrates every entry
TYPED = {name for name in dir(errors)
         if isinstance(getattr(errors, name), type)
         and issubclass(getattr(errors, name), errors.NesscorrError)}


def _bias(kind: str, rng) -> BiasConfig:
    def edge(low):
        u = rng.uniform(0.0, EDGE)
        return u if low else np.pi - u

    if kind == "low edge":
        return BiasConfig(edge(True), np.pi / 2)
    if kind == "high edge":
        return BiasConfig(np.pi / 2, edge(False))
    if kind == "across":
        return BiasConfig(edge(False), edge(True))
    kf = edge(bool(rng.integers(2)))
    return BiasConfig(kf, kf)


CASES = [(i, mode) for i in range(len(MODELS)) for mode in ("longrange", "full")]


@pytest.mark.parametrize("index, mode", CASES)
def test_sweep_rows_are_finite_or_typed(index, mode):
    model = MODELS[index]
    # every model meets a different bias kind in each mode
    kind = BIAS_KINDS[(index + (mode == "full")) % len(BIAS_KINDS)]
    rng = np.random.default_rng([SEED, index, mode == "full"])
    bias = _bias(kind, rng)
    d_l, d_r = (int(d) for d in rng.integers(0, 4, size=2))
    lengths = np.sort(rng.choice(np.arange(2, MAX_ELL[mode] + 1), 2, replace=False))
    cfg = ExperimentConfig(model=model, bias=bias, geometry=Geometry(d_l, 4, d_r, 4),
                           scan_variable="length", scan_values=tuple(lengths.tolist()),
                           measures=("S_n", "MI_n", "MI", "E_n", "E"), n_values=(2, 4),
                           mode=mode)
    rows = run_scan(cfg)
    allowed = set()
    if isinstance(model, ConstantS) and mode == "full":
        allowed.add("SpectrumError")
    if kind == "zero":
        allowed.add("BiasError")
    for r in rows:
        if r.error is None:
            assert np.all(np.isfinite([r.numeric, r.lin_term, r.log_term, r.const_fit,
                                       r.residual])), r
            continue
        name = r.error.split(":")[0]
        assert name in TYPED, r.error
        assert name != "ConvergenceError", r.error
        assert name not in {"SpectrumError", "BiasError"} or name in allowed, r.error

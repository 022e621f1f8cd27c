"""Quadrature engine checks against closed-form integrals and a bit-exact oracle."""

import math

import numpy as np
import pytest

import nesscorr.asymptotics as asymptotics
import nesscorr.quadrature as quadrature
import oracles
from nesscorr.errors import ConvergenceError, NesscorrError
from nesscorr.model import BiasConfig, SingleSite
from nesscorr.quadrature import _gl_rule, adaptive_gauss_legendre
from oracles import tanh_sinh


def test_polynomial_exact():
    got = adaptive_gauss_legendre(lambda x: 3 * x ** 2, 0.0, 2.0, tol=1e-12)
    assert got == pytest.approx(8.0, abs=1e-12)


def test_oriented_interval_flips_sign():
    fwd = adaptive_gauss_legendre(np.cos, 0.0, 1.0)
    bwd = adaptive_gauss_legendre(np.cos, 1.0, 0.0)
    assert fwd == pytest.approx(np.sin(1.0), abs=1e-12)
    assert bwd == pytest.approx(-fwd, abs=1e-13)


def test_empty_interval():
    assert adaptive_gauss_legendre(np.exp, 0.3, 0.3) == 0.0


@pytest.mark.parametrize("freq", [11.0, 137.0, 1001.0])
def test_oscillatory_complex_exponential(freq):
    got = adaptive_gauss_legendre(lambda k: np.exp(1j * freq * k), 0.2, 1.7,
                                  tol=1e-12, frequency=freq)
    want = (np.exp(1j * freq * 1.7) - np.exp(1j * freq * 0.2)) / (1j * freq)
    assert got == pytest.approx(want, abs=1e-11)


def test_oscillatory_with_smooth_weight():
    freq = 713.0
    got = adaptive_gauss_legendre(lambda k: np.sin(k) * np.exp(1j * freq * k),
                                  0.0, np.pi, tol=1e-12, frequency=freq)
    # int sin(k) e^{i f k} dk over [0, pi], exact
    f = freq
    want = (1.0 + np.exp(1j * np.pi * f)) / (1.0 - f ** 2)
    assert got == pytest.approx(want, abs=1e-10)


def test_adaptive_refines_endpoint_log_singularity():
    got = adaptive_gauss_legendre(lambda x: np.log(x), 0.0, 1.0, tol=1e-11)
    assert got == pytest.approx(-1.0, abs=1e-10)


def test_tanh_sinh_log_singularity():
    assert tanh_sinh(lambda x: np.log(x), 0.0, 1.0) == pytest.approx(-1.0,
                                                                     abs=1e-12)


def test_tanh_sinh_inverse_sqrt_singularity():
    # endpoint sampling in double precision caps the attainable accuracy
    # for algebraic singularities near 1e-7; log singularities do better
    got = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert got == pytest.approx(2.0, abs=5e-7)


def test_tanh_sinh_oriented():
    assert tanh_sinh(np.cos, 1.0, 0.0) == pytest.approx(-np.sin(1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# bit-exact oracle: the depth-first stack loop the level-batched rule replaced


def _reference_panel(f, lo, hi, order):
    x, w = _gl_rule(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * np.sum(w * f(mid + half * x))


def _reference_adaptive_gl(f, a, b, tol=1e-10, frequency=0.0, order=16):
    """One panel per integrand call, last-in first-out (test oracle)."""
    max_panels = quadrature.MAX_PANELS
    if a == b:
        return 0.0
    sign = 1.0
    lo, hi = a, b
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    width = hi - lo
    n0 = max(1, math.ceil(width * abs(frequency) / (0.5 * math.pi)))
    if n0 > max_panels:
        raise ConvergenceError(f"{n0} initial panels exceed {max_panels}")
    edges = np.linspace(lo, hi, n0 + 1)
    stack = [(edges[i], edges[i + 1]) for i in range(n0)]
    total = 0.0
    spent = n0
    while stack:
        plo, phi = stack.pop()
        coarse = _reference_panel(f, plo, phi, order)
        fine = _reference_panel(f, plo, phi, 2 * order)
        err = abs(fine - coarse)
        if err <= tol * (phi - plo) / width or (phi - plo) < width * 2.0 ** -52:
            total = total + fine
            continue
        spent += 2
        if spent > max_panels:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] exceeded {max_panels} panels "
                f"(last panel error {err:.3e})")
        pm = 0.5 * (plo + phi)
        stack.append((plo, pm))
        stack.append((pm, phi))
    return sign * total


class _Counting:
    """Integrand wrapper that counts the nodes it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.nodes = 0

    def __call__(self, x):
        self.nodes += np.size(x)
        return self.f(x)


def assert_bit_exact(f, a, b, **kwargs):
    """Both rules give the same bits from the same nodes; returns the node count."""
    ref, new = _Counting(f), _Counting(f)
    want = _reference_adaptive_gl(ref, a, b, **kwargs)
    got = adaptive_gauss_legendre(new, a, b, **kwargs)
    assert got == want
    assert repr(got) == repr(want)
    assert new.nodes == ref.nodes
    return ref.nodes


def _oriented(cases):
    """Each (f, a, b, kwargs) case on [a, b] and on [b, a]."""
    out = []
    for name, f, a, b, kwargs in cases:
        out.append(pytest.param(f, a, b, kwargs, id=f"{name}-fwd"))
        out.append(pytest.param(f, b, a, kwargs, id=f"{name}-bwd"))
    return out


def _log_abs_phase(k):
    return np.log(np.abs(k)) * np.exp(2j * np.pi * k)


def _initial_panels(a, b, kwargs):
    return max(1, math.ceil(abs(b - a) * kwargs.get("frequency", 0.0)
                            / (0.5 * np.pi)))


# only cases that bisect exercise the level bookkeeping and the summation
# order: every production quadrature of the scan workloads accepts all of
# its initial panels
REFINING = [
    ("log", np.log, 0.0, 1.0, {"tol": 1e-11}),
    ("log_abs_phase", _log_abs_phase, -1.0, 1.0,
     {"tol": 1e-11, "frequency": 2 * np.pi}),
]

# the integrands of the closed-form tests above, plus refining ones
ELEMENTARY = _oriented([
    ("cubic", lambda x: 3 * x ** 2, 0.0, 2.0, {"tol": 1e-12}),
    ("cos", np.cos, 0.0, 1.0, {}),
    ("empty", np.exp, 0.3, 0.3, {}),
    *[(f"phase{freq:g}", lambda k, freq=freq: np.exp(1j * freq * k), 0.2, 1.7,
       {"tol": 1e-12, "frequency": freq}) for freq in (11.0, 137.0, 1001.0)],
    ("sin_phase", lambda k: np.sin(k) * np.exp(713j * k), 0.0, np.pi,
     {"tol": 1e-12, "frequency": 713.0}),
    *REFINING,
    ("log_default_tol", np.log, 0.0, 1.0, {}),
    ("inv_sqrt", lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, {"tol": 1e-9}),
    ("constant", lambda k: 2.5, -1.0, 2.0, {}),
])


@pytest.mark.parametrize("f, a, b, kwargs", ELEMENTARY)
def test_bit_exact_against_stack_oracle(f, a, b, kwargs):
    assert_bit_exact(f, a, b, **kwargs)


@pytest.mark.parametrize("name, f, a, b, kwargs", REFINING,
                         ids=[case[0] for case in REFINING])
def test_refining_cases_bisect_many_panels(name, f, a, b, kwargs):
    counted = _Counting(f)
    adaptive_gauss_legendre(counted, a, b, **kwargs)
    assert counted.nodes > 48 * (_initial_panels(a, b, kwargs) + 50)


def _captured(monkeypatch, module, call):
    """The (f, a, b, kwargs) of every scalar quadrature that ``call`` makes."""
    seen = []
    real = module.adaptive_gauss_legendre

    def recording(f, a, b, **kwargs):
        seen.append((f, a, b, kwargs))
        return real(f, a, b, **kwargs)

    monkeypatch.setattr(module, "adaptive_gauss_legendre", recording)
    call()
    monkeypatch.undo()
    assert seen
    return seen


BIAS = BiasConfig(np.pi / 2 + 0.2, np.pi / 2)
MODEL = SingleSite(eps0=1.0)


# the correlation builds evaluate these integrands class by class; the
# entry-by-entry oracles they must match call the scalar rule


@pytest.mark.parametrize("kind", ["T", "R"])
@pytest.mark.parametrize("lag", [0, 1, -1, -511, 1023])
def test_window_integral_integrands_bit_exact(monkeypatch, kind, lag):
    window = oracles.WindowIntegrals(MODEL, BIAS)
    for f, a, b, kwargs in _captured(monkeypatch, oracles,
                                     lambda: window(kind, lag)):
        assert_bit_exact(f, a, b, **kwargs)
        assert_bit_exact(f, b, a, **kwargs)


@pytest.mark.parametrize("j, m", [(-3, -5), (4, 2), (3, -6), (-2, 7)])
def test_full_mode_entry_integrands_bit_exact(monkeypatch, j, m):
    calls = _captured(monkeypatch, oracles,
                      lambda: oracles.corr_entry_full(MODEL, BIAS, j, m))
    for f, a, b, kwargs in calls:
        assert_bit_exact(f, a, b, **kwargs)


@pytest.mark.parametrize("t", [0.3, 0.77])
def test_q_fun_integrands_bit_exact(monkeypatch, t):
    calls = _captured(monkeypatch, asymptotics,
                      lambda: asymptotics.q_fun.__wrapped__(t, 1.0 - t))
    assert len(calls) == 2  # f1 and f2
    for f, a, b, kwargs in calls:
        assert_bit_exact(f, a, b, **kwargs)
        assert_bit_exact(f, b, a, **kwargs)


# ---------------------------------------------------------------------------
# panel budget: the rule raises iff n0 + 2 * splits > MAX_PANELS


def _narrow_peak_phase(k):
    return np.exp(40j * k) / (1e-4 + (k - 0.3) ** 2)


# a fast phase gives many initial panels (n0 = 26) and a narrow peak makes
# two of them split (budget 30); a budget below 4 * n0 must not coarsen
# the initial partition into a tree that fits it
BUDGET_CASES = REFINING + [
    ("narrow_peak_phase", _narrow_peak_phase, 0.0, 1.0, {"frequency": 40.0}),
]


@pytest.mark.parametrize("name, f, a, b, kwargs", BUDGET_CASES,
                         ids=[case[0] for case in BUDGET_CASES])
def test_panel_budget_boundary(name, f, a, b, kwargs, monkeypatch):
    n0 = _initial_panels(a, b, kwargs)
    counted = _Counting(f)
    _reference_adaptive_gl(counted, a, b, **kwargs)
    panels = counted.nodes // 48
    splits = (panels - n0) // 2
    assert splits > 0 and panels == n0 + 2 * splits
    budget = n0 + 2 * splits
    if name == "narrow_peak_phase":
        assert (n0, budget) == (26, 30)
    for rule in (_reference_adaptive_gl, adaptive_gauss_legendre):
        monkeypatch.setattr(quadrature, "MAX_PANELS", budget)
        rule(f, a, b, **kwargs)
        monkeypatch.setattr(quadrature, "MAX_PANELS", budget - 1)
        with pytest.raises(ConvergenceError) as info:
            rule(f, a, b, **kwargs)
        assert isinstance(info.value, NesscorrError)
    # fewer panels than the initial partition: raise before any evaluation
    monkeypatch.setattr(quadrature, "MAX_PANELS", n0 - 1)
    unused = _Counting(f)
    with pytest.raises(ConvergenceError):
        adaptive_gauss_legendre(unused, a, b, **kwargs)
    assert unused.nodes == 0

"""Closed-form scaling laws: volume coefficients and logarithmic terms.

Special functions
-----------------
Every logarithmic coefficient is built from four functions of the
transmission probability.  With R = 1 - p, or the reflection R = 1 - T
that Qt_n, q and qt take from callers, free of 1 - T's rounding near T = 1:

    Q_n(p)  = -n/12 + int_0^1 dx/(2 pi^2 x) { ln[(1+px)^n + ((1-p)x)^n]
              + ln[((x+p)^n + (1-p)^n) / (p^n + (1-p)^n)] },

    Qt_n(T) = -n/12 + int_0^1 dx/(2 pi^2 x) { ln[(1+Tx)^n + (Rx)^n]
              + ln[(1+Rx)^n + (Tx)^n]
              + ln[((x+T)^n + R^n) / ((T+Rx)^n + (R+Tx)^n)]
              + ln[((x+R)^n + T^n) / ((T+Rx)^n + (R+Tx)^n)] },

    q(T)  = 1/24 - int_0^1 dx/(2 pi^2 x) [(1+Rx)ln(1+Rx) + (1+Tx)ln(1+Tx)]/(1+x)
            + int_0^1 dx/(2 pi^2 x) [T ln T + R ln R
              - ((R+x)ln(R+x) + (T+x)ln(T+x))/(1+x)],

    qt(T) = q(T) + 1/12 + int_0^1 dx/(pi^2 x)
            [((R+Tx)ln(R+Tx) + (T+Rx)ln(T+Rx))/(1+x) - T ln T - R ln R].

These are the smooth representations used in production; Q_n and Qt_n
also have equivalent representations with integrable endpoint
singularities, which the test suite evaluates as an independent oracle.

Structure of a prediction
-------------------------
An :class:`AsymptoticPrediction` is a volume term (coefficient times a
stored length) and a list of (coefficient, argument) logarithmic terms;
the additive constant is fitted downstream.  Logarithm arguments are
ratios of differences of the four interval edges {d_l, d_l + ell_l, d_r,
d_r + ell_r}; a difference that is exactly zero is omitted from its
ratio.  All formulas assume a finite bias; the zero-bias limit does not
commute with them and is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BiasError, DomainError, ScopeError
from .model import PROBABILITY_TOL, BiasConfig, Geometry, ImpurityModel, mirror_overlap
from .quadrature import adaptive_gauss_legendre

Q_TOL = 1e-10


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise for x >= 0, with the limit 0 at x = 0."""
    return x * np.log(x, out=np.zeros_like(x), where=x > 0)


def _unit_integral(f) -> float:
    """int_0^1 f(x) dx through the substitution x = u^2.

    The Q-integrands develop x^(n-1)-type endpoint behavior at x = 0
    whenever n is not an integer (harshest for n <= 1, but present as a
    derivative cusp for any fractional n); the substitution turns it into
    u^(2n-1), smooth for every index used here (n >= 1/2).
    """
    return adaptive_gauss_legendre(
        lambda u: 2.0 * u * f(u * u), 0.0, 1.0, tol=Q_TOL)


def _rise(v, d, n: float):
    """(v + d)^n - v^n for v, d >= 0 (d^n at v = 0), accurate when d << v.

    The Q-integrands divide ln(1 + rise) by x: a rise formed as a
    difference of powers near 1 leaves an error of order eps / x.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return -(v + d) ** n * np.expm1(-n * np.log1p(d / v))


@lru_cache(maxsize=4096)
def q_n(p: float, n: float) -> float:
    """Q_n(p): single-jump logarithmic kernel.

    Satisfies Q_n(1) = 0 and Q_n(0) = (1/n - n)/12.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"argument p={p} outside [0, 1]")
    if not 0 < n < np.inf:  # NaN fails too
        raise DomainError(f"index n={n} must be positive and finite")
    c = 1.0 - p
    norm = p ** n + c ** n

    def f(x):
        t1 = np.log1p(_rise(1.0, p * x, n) + (c * x) ** n)
        t2 = np.log1p(_rise(p, x, n) / norm)
        return (t1 + t2) / (2.0 * np.pi ** 2 * x)

    return -n / 12.0 + _unit_integral(f)


def _check_probabilities(t: float, r: float):
    if not (0.0 <= t <= 1.0 and 0.0 <= r <= 1.0) or abs(t + r - 1.0) > PROBABILITY_TOL:
        raise DomainError(f"T={t}, R={r}: need T, R in [0, 1] with T + R = 1")


@lru_cache(maxsize=4096)
def q_tilde_n(t: float, r: float, n: float) -> float:
    """Qt_n(T) with R = 1 - T: double-jump kernel, symmetric under T <-> R."""
    _check_probabilities(t, r)
    if not 0 < n < np.inf:  # NaN fails too
        raise DomainError(f"index n={n} must be positive and finite")

    def f(x):
        # each log's rise above 1: x + t = (t + r x) + t x, x + r = (r + t x) + r x
        den = (t + r * x) ** n + (r + t * x) ** n
        t1 = np.log1p(_rise(1.0, t * x, n) + (r * x) ** n)
        t2 = np.log1p(_rise(1.0, r * x, n) + (t * x) ** n)
        t3 = _log_jump((_rise(t + r * x, t * x, n) - _rise(r, t * x, n)) / den,
                       x, t, r, n)
        t4 = _log_jump((_rise(r + t * x, r * x, n) - _rise(t, r * x, n)) / den,
                       x, r, t, n)
        return (t1 + t2 + t3 + t4) / (2.0 * np.pi ** 2 * x)

    return -n / 12.0 + _unit_integral(f)


def _log_jump(rise: np.ndarray, x: np.ndarray, v: float, w: float,
              n: float) -> np.ndarray:
    """ln[((x + v)^n + w^n) / ((w + v x)^n + (v + w x)^n)] from its ``rise`` above 1.

    ln(1 + rise) wherever rise >= -1/2.  Below that the rise cancels toward
    -1 at large n (exactly -1 by n = 300 at T = 0.79), so the logarithm
    is taken of each power sum instead: ln(a^n + b^n) = logaddexp(n ln a,
    n ln b), with ln 0 = -inf for a zero T or R.
    """
    out = np.log1p(np.maximum(rise, -0.5))
    low = rise < -0.5
    if low.any():
        xl = x[low]
        n_ln_w = n * math.log(w) if w > 0.0 else -np.inf
        out[low] = (np.logaddexp(n * np.log(xl + v), n_ln_w)
                    - np.logaddexp(n * np.log(w + v * xl), n * np.log(v + w * xl)))
    return out


@lru_cache(maxsize=1024)
def q_fun(t: float, r: float) -> float:
    """q(T) with R = 1 - T: von Neumann MI log coefficient; q < 0 on (0, 1), q(0)=q(1)=0."""
    _check_probabilities(t, r)
    edge = float(_xlogx(np.array([t]))[0] + _xlogx(np.array([r]))[0])

    def f1(x):
        num = (1.0 + r * x) * np.log1p(r * x) + (1.0 + t * x) * np.log1p(t * x)
        return num / ((1.0 + x) * x) / (2.0 * np.pi ** 2)

    def f2(x):
        num = edge - (_xlogx(r + x) + _xlogx(t + x)) / (1.0 + x)
        return num / x / (2.0 * np.pi ** 2)

    i1 = adaptive_gauss_legendre(f1, 0.0, 1.0, tol=Q_TOL)
    i2 = adaptive_gauss_legendre(f2, 0.0, 1.0, tol=Q_TOL)
    return 1.0 / 24.0 - i1 + i2


@lru_cache(maxsize=1024)
def q_tilde_fun(t: float, r: float) -> float:
    """qt(T) with R = 1 - T: the companion coefficient; qt > 0 on (0, 1), qt(0)=qt(1)=0."""
    _check_probabilities(t, r)
    edge = float(_xlogx(np.array([t]))[0] + _xlogx(np.array([r]))[0])

    def f(x):
        num = (_xlogx(r + t * x) + _xlogx(t + r * x)) / (1.0 + x) - edge
        return num / x / np.pi ** 2

    return q_fun(t, r) + 1.0 / 12.0 + adaptive_gauss_legendre(f, 0.0, 1.0, tol=Q_TOL)


# ---------------------------------------------------------------------------
# volume-law coefficients


def _window_average(model: ImpurityModel, bias: BiasConfig, integrand) -> float:
    """int_{k-}^{k+} integrand(T(k), R(k)) dk, via quadrature for k-dependent T.

    R comes from the model, not from 1 - T: where T rounds to just below 1
    the difference is rounding noise, and a root of it jumps from node to
    node by far more than the quadrature tolerance.
    """
    if bias.delta_k == 0.0:
        return 0.0
    return adaptive_gauss_legendre(
        lambda k: integrand(model.transmission(k), model.reflection(k)),
        bias.k_minus, bias.k_plus, tol=Q_TOL)


# ---------------------------------------------------------------------------
# predictions


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Volume term + logarithmic terms; the constant is fitted downstream."""

    linear_coeff: float
    linear_length: float
    log_terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for coeff, arg in self.log_terms:
            if arg <= 0.0:
                raise DomainError(f"log argument {arg} must be positive")

    @property
    def linear_part(self) -> float:
        return self.linear_coeff * self.linear_length

    @property
    def log_part(self) -> float:
        return float(sum(c * math.log(a) for c, a in self.log_terms))

    def total(self) -> float:
        return self.linear_part + self.log_part


def edge_differences(g: Geometry) -> tuple[int, int, int, int]:
    """The four edge differences that divide the four-point ratios.

    (ell_l + d_l - ell_r - d_r, d_l - d_r) divide the first ratio and
    (ell_r + d_r - d_l, ell_l + d_l - d_r) the second.  One of them near
    zero is the crossover where the asymptotics lose accuracy; one that is
    exactly zero is omitted from its ratio.
    """
    return (g.ell_l + g.d_l - g.ell_r - g.d_r, g.d_l - g.d_r,
            g.ell_r + g.d_r - g.d_l, g.ell_l + g.d_l - g.d_r)


def _omitting_ratio(numerators, denominators) -> float:
    """Product of |numerators| over |denominators|, omitting exact zeros.

    The omission rule for degenerate configurations: any difference whose
    value is exactly zero (lengths are integers) simply drops out of its
    ratio.
    """
    num = 1.0
    for x in numerators:
        if x != 0:
            num *= abs(x)
    den = 1.0
    for x in denominators:
        if x != 0:
            den *= abs(x)
    return num / den


def _four_point_ratios(g: Geometry) -> tuple[float, float]:
    m1, m2, m3, m4 = sorted([g.d_l, g.ell_l + g.d_l, g.d_r, g.ell_r + g.d_r])
    numerators = (m3 - m1, m4 - m2)
    d1, d2, d3, d4 = edge_differences(g)
    return (_omitting_ratio(numerators, (d1, d2)),
            _omitting_ratio(numerators, (d3, d4)))


def _require_bias(bias: BiasConfig):
    if bias.delta_k == 0.0:
        raise BiasError(
            "zero bias: the logarithmic terms are not the naive limit of "
            "the finite-bias formulas; refusing to extrapolate")


def single_interval_entropy_asym(model: ImpurityModel, bias: BiasConfig,
                                 g: Geometry, side: str,
                                 n: float) -> AsymptoticPrediction:
    """Renyi entropy asymptotics of a single interval (d/ell >> 1).

    The log coefficient mixes the interval's own Fermi momentum through
    T and the opposite one through R:

        (1+n)/(12n) + [Q_n(T(k_F,side)) + Q_n(R(k_F,other))] / (1-n).
    """
    _require_bias(bias)
    if side not in ("L", "R"):
        raise DomainError(f"side must be 'L' or 'R', got {side!r}")
    if not 0 < n < np.inf or n == 1:  # NaN fails too
        raise DomainError(f"Renyi index n={n} must be positive, finite and != 1")
    kf_own = bias.kf_l if side == "L" else bias.kf_r
    kf_other = bias.kf_r if side == "L" else bias.kf_l
    ell = g.ell_l if side == "L" else g.ell_r
    t_own = float(model.transmission(kf_own))
    r_other = float(model.reflection(kf_other))
    coeff = (1 + n) / (12 * n) + (q_n(t_own, n) + q_n(r_other, n)) / (1 - n)
    return AsymptoticPrediction(
        linear_coeff=_window_average(
            model, bias, lambda t, r: np.log(t ** n + r ** n)) / (2 * np.pi * (1 - n)),
        linear_length=float(ell),
        log_terms=((coeff, float(ell)),))


def _mi_log_terms(model, bias, g, coeff_fn) -> tuple[tuple[float, float], ...]:
    ratio1, ratio2 = _four_point_ratios(g)
    terms = []
    for kf in (bias.kf_l, bias.kf_r):
        c1, c2 = coeff_fn(float(model.transmission(kf)), float(model.reflection(kf)))
        terms.append((c1, ratio1))
        terms.append((c2, ratio2))
    return tuple(terms)


def renyi_mi_asym(model: ImpurityModel, bias: BiasConfig, g: Geometry,
                  n: float) -> AsymptoticPrediction:
    """Full Renyi MI asymptotics: volume law plus four-point log terms."""
    _require_bias(bias)
    if not 0 < n < np.inf or n == 1:  # NaN fails too
        raise DomainError(f"Renyi index n={n} must be positive, finite and != 1")
    ell_mirror, _, _ = mirror_overlap(g)
    q0 = (1.0 / n - n) / 12.0

    def coeffs(t, r):
        c1 = (q_n(t, n) + q_n(r, n) - q0) / (2 * (1 - n))
        c2 = q_tilde_n(t, r, n) / (2 * (1 - n))
        return c1, c2

    return AsymptoticPrediction(
        linear_coeff=_window_average(
            model, bias, lambda t, r: np.log(t ** n + r ** n)) / (np.pi * (1 - n)),
        linear_length=float(ell_mirror),
        log_terms=_mi_log_terms(model, bias, g, coeffs))


def vn_mi_asym(model: ImpurityModel, bias: BiasConfig,
               g: Geometry) -> AsymptoticPrediction:
    """Von Neumann MI asymptotics (the n -> 1 limit of the Renyi result)."""
    _require_bias(bias)
    ell_mirror, _, _ = mirror_overlap(g)

    def coeffs(t, r):
        return 0.5 * q_fun(t, r), 0.5 * q_tilde_fun(t, r)

    return AsymptoticPrediction(
        linear_coeff=_window_average(
            model, bias, lambda t, r: -_xlogx(t) - _xlogx(r)) / np.pi,
        linear_length=float(ell_mirror),
        log_terms=_mi_log_terms(model, bias, g, coeffs))


def negativity_asym_symmetric(model: ImpurityModel, bias: BiasConfig,
                              g: Geometry, n=None) -> AsymptoticPrediction:
    """Negativity asymptotics for the symmetric configuration only.

    ``n`` even selects the Renyi negativity E_n; ``n=None`` the fermionic
    negativity E (exponent 1/2 and log offset -1/4).  Asymmetric
    geometries are out of scope: the general negativity log term has no
    closed form here.
    """
    _require_bias(bias)
    if g.ell_l != g.ell_r or g.d_l != g.d_r:
        raise ScopeError(
            "negativity asymptotics available only for ell_l == ell_r "
            "and d_l == d_r")
    ell = g.ell_l
    if n is None:
        n_eff = 1.0
    elif n < 2 or n % 2:
        raise DomainError(f"Renyi negativity index n={n} must be even, >= 2")
    else:
        n_eff = float(n)
    # E integrates ln(sqrt T + sqrt R) = ln(1 + 2 sqrt(T R)) / 2 (as T + R = 1),
    # which is exactly 0 wherever T or R is
    integrand = ((lambda t, r: 0.5 * np.log1p(2.0 * np.sqrt(t * r))) if n is None
                 else (lambda t, r: np.log(t ** (n / 2) + r ** (n / 2))))
    coeff = -n_eff / 4.0
    for kf in (bias.kf_l, bias.kf_r):
        t, r = float(model.transmission(kf)), float(model.reflection(kf))
        coeff += q_n(t, n_eff / 2.0) + q_n(r, n_eff / 2.0)
    return AsymptoticPrediction(
        linear_coeff=_window_average(model, bias, integrand) / np.pi,
        linear_length=float(ell),
        log_terms=((coeff, float(ell)),))

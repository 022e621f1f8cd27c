"""Test-only oracles: independent algorithms the production code does not use.

``tanh_sinh`` is a double-exponential rule, deliberately a different
algorithm from the production Gauss-Legendre path, for integrands with
endpoint singularities.  ``q_n_singular_form`` and
``q_tilde_n_singular_form`` evaluate Q_n and Qt_n from their
representations with integrable endpoint singularities, disjoint from the
smooth forms ``nesscorr.asymptotics`` evaluates.  ``c_xi_expression``
is the plain-expression form of the partial-time-reversal matrix that
``nesscorr.measures.build_c_xi`` must reproduce bit for bit.
``occupation_log_sum_mp`` evaluates ln det[C^2 + (I - C)^2] in mpmath at
34 digits from the matrix itself, with no spectrum and no Gamma matrices.
``lu_factor_logdet`` takes log det from scipy's LU factorization, a
LAPACK build apart from the one ``nesscorr.densela.lu_logdet`` calls
through numpy; scipy is a test dependency only.

``corr_entry_full``, ``window_integral`` and ``build_corr_matrix`` are the
entry-by-entry correlation builds the class-batched production builds of
``nesscorr.correlation`` replaced: one scalar adaptive quadrature per
entry and sea, or per window frequency.  The batched builds must give
their matrices bit for bit.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import scipy.linalg

from nesscorr.correlation import (
    ENTRY_TOL,
    FULL_TOL,
    _WEIGHTS,
    _fermi_kernel,
    _phase_integral,
)
from nesscorr.densela import toeplitz
from nesscorr.errors import DomainError
from nesscorr.model import ConstantS
from nesscorr.quadrature import adaptive_gauss_legendre


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12,
              max_level: int = 12):
    """Double-exponential quadrature over the oriented interval [a, b].

    Robust against integrable endpoint singularities (logarithmic or
    algebraic); the abscissas never touch the endpoints.
    """
    if a == b:
        return 0.0
    sign = 1.0
    lo, hi = a, b
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def nodes(ts):
        u = 0.5 * math.pi * np.sinh(ts)
        x = np.tanh(u)
        w = 0.5 * math.pi * np.cosh(ts) / np.cosh(u) ** 2
        return x, w

    # discard nodes whose mapped image could round onto an endpoint: a
    # singular integrand evaluated exactly there would poison the sum
    # with inf regardless of the (tiny) weight
    edge = 1.0 - 1e-14

    t_max = 4.0
    h = 1.0
    ts0 = np.arange(-np.floor(t_max), np.floor(t_max) + 1.0)
    x0, w0 = nodes(ts0)
    keep0 = np.abs(x0) < edge
    total = h * np.sum(w0[keep0] * f(mid + half * x0[keep0]))
    prev = total
    for level in range(1, max_level + 1):
        h *= 0.5
        ts = np.arange(h, t_max, 2 * h)
        ts = np.concatenate([-ts[::-1], ts])
        x, w = nodes(ts)
        keep = np.abs(x) < edge
        x, w = x[keep], w[keep]
        contrib = h * np.sum(w * f(mid + half * x))
        total = 0.5 * prev + contrib
        if level >= 3 and abs(total - prev) <= tol:
            return sign * half * total
        prev = total
    return sign * half * total


def _log_ratio_integral(lo: float, hi: float, n: float) -> float:
    """int_lo^hi [x^(n-1) - (1-x)^(n-1)] / [x^n + (1-x)^n] * ln|(hi-x)/(x-lo)| dx.

    The substitution x = lo + (hi - lo) sin^2(pi s / 2) turns both endpoint
    logarithms (and, at lo = 0 with n < 1, the algebraic singularity) into
    regular factors:  ln|(hi-x)/(x-lo)| = 2 [ln cos(pi s/2) - ln sin(pi s/2)].
    """
    if lo == hi:
        return 0.0
    width = hi - lo

    def g(s):
        sn = np.sin(0.5 * np.pi * s)
        cs = np.cos(0.5 * np.pi * s)
        x = lo + width * sn ** 2
        # complement formed without cancellation so x**(n-1) and
        # (1-x)**(n-1) stay finite arbitrarily close to the endpoints
        comp = (1.0 - hi) + width * cs ** 2
        num = x ** (n - 1.0) - comp ** (n - 1.0)
        den = x ** n + comp ** n
        logs = 2.0 * (np.log(cs) - np.log(sn))
        return num / den * logs * width * 0.5 * np.pi * np.sin(np.pi * s)

    return tanh_sinh(g, 0.0, 1.0, tol=1e-13, max_level=14)


def q_n_singular_form(p: float, n: float) -> float:
    """Q_n(p) from its other integral representation (test oracle).

    Evaluated with tanh-sinh quadrature after a sine regularization of the
    endpoints, both deliberately disjoint from the production path.
    """
    if n == 1.0:
        return 0.0
    return n / (2.0 * np.pi ** 2) * _log_ratio_integral(p, 1.0, n)


def q_tilde_n_singular_form(t: float, n: float) -> float:
    """Qt_n(T) via Q_n plus the signed two-endpoint-log integral (oracle)."""
    r = 1.0 - t
    base = q_n_singular_form(t, n) + q_n_singular_form(r, n)
    if n == 1.0 or t == r:
        return base
    # the oriented integral from r to t of f ln|(r-x)/(t-x)| equals
    # -H(min, max) in the ascending-endpoint convention of the helper
    lo, hi = (r, t) if t > r else (t, r)
    return base - n / (2.0 * np.pi ** 2) * _log_ratio_integral(lo, hi, n)


def c_xi_expression(mat: np.ndarray, size_left: int) -> np.ndarray:
    """C_Xi = [I - (I + Gp Gm)^(-1) (Gp + Gm)] / 2 as one plain expression.

    Gp = D (I - 2C) D with D = diag(i, ..., i, 1, ..., 1) (``size_left``
    entries i) and Gm = Gp^dagger; every temporary is a fresh array.
    """
    n = mat.shape[0]
    g = np.eye(n) - 2.0 * mat
    d = np.concatenate([1j * np.ones(size_left), np.ones(n - size_left)])
    gamma_p = (d[:, None] * g) * d[None, :]
    gamma_m = gamma_p.conj().T
    lhs = np.eye(n) + gamma_p @ gamma_m
    x = np.linalg.solve(lhs, gamma_p + gamma_m)
    return 0.5 * (np.eye(n) - x)


def occupation_log_sum_mp(mat: np.ndarray, dps: int = 34) -> float:
    """ln det[C^2 + (I - C)^2] for the Hermitian C = ``mat``, in mpmath.

    M = C^2 + (I - C)^2 = I - 2C + 2C^2 is built from row products,
    (C^2)_jm = sum_k C_jk conj(C_mk), and is Hermitian positive definite,
    so ln det M = 2 sum_j ln L_jj for its Cholesky factor L.
    """
    n = mat.shape[0]
    with mpmath.workdps(dps):
        rows = [[mpmath.mpc(complex(z)) for z in row] for row in mat]
        m = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(j, n):
                m[j, k] = 2 * mpmath.fdot(rows[j], rows[k], conjugate=True) - 2 * rows[j][k]
                m[k, j] = mpmath.conj(m[j, k])
            m[j, j] += 1
        chol = mpmath.cholesky(m)
        return float(2 * mpmath.fsum(mpmath.log(mpmath.re(chol[j, j])) for j in range(n)))


def lu_factor_logdet(m: np.ndarray) -> tuple[complex | None, int | None]:
    """log det m from ``scipy.linalg.lu_factor`` (partial pivoting).

    Returns ``(logdet, zero_pivot)``.  If a pivot is exactly zero,
    ``zero_pivot`` is the first such index and ``logdet`` is None.
    Otherwise ``logdet`` has the real part sum ln|u_kk| and the phase
    sum arg u_kk + pi per row swap, folded into (-pi, pi].
    """
    with warnings.catch_warnings():   # scipy warns on an exact zero pivot
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    diag = np.diag(lu)
    zero = np.flatnonzero(diag == 0)
    if zero.size:
        return None, int(zero[0])
    swaps = int(np.sum(piv != np.arange(len(piv))))
    phase = float(np.sum(np.angle(diag))) + np.pi * (swaps % 2)
    phase = (phase + np.pi) % (2.0 * np.pi) - np.pi
    if phase == -np.pi:
        phase = np.pi
    return complex(float(np.sum(np.log(np.abs(diag)))), phase), None


def window_integral(model, bias, kind: str, freq) -> complex:
    """int_{kf_r}^{kf_l} w(k) e^{i freq k} dk/2pi by one scalar quadrature."""
    weight = _WEIGHTS[kind]

    def f(k):
        return (weight(*model.amplitudes(k))
                * np.exp(1j * freq * k) / (2.0 * np.pi))

    return adaptive_gauss_legendre(f, bias.kf_r, bias.kf_l, tol=ENTRY_TOL,
                                   frequency=abs(freq))


class WindowIntegrals:
    """Window integrals resolved one frequency per call, memoized."""

    def __init__(self, model, bias, cache=None):
        self.model = model
        self.bias = bias
        self.cache = cache if cache is not None else {}

    def __call__(self, kind: str, freq) -> complex:
        key = (kind, freq)
        value = self.cache.get(key)
        if value is None:
            weight = _WEIGHTS[kind]
            mirror = self.cache.get(("T", -freq)) if kind == "T" else None
            k1, k2 = self.bias.kf_r, self.bias.kf_l
            if mirror is not None:
                value = np.conj(mirror)  # the weight T(k) is real
            elif isinstance(self.model, ConstantS):
                amps = (self.model.r_l, self.model.t_l, self.model.r_r,
                        self.model.t_r)
                value = weight(*amps) * _phase_integral(freq, k1, k2)
            elif k1 == k2:
                value = 0.0
            else:
                value = window_integral(self.model, self.bias, kind, freq)
            self.cache[key] = value
        return value


def corr_entry_full(model, bias, j: int, m: int, m0: int = 0) -> complex:
    """Finite-distance entry <c_j^dag c_m>: one quadrature per sea."""
    if abs(j) <= m0 or abs(m) <= m0:
        raise DomainError(
            f"sites ({j}, {m}) must lie outside the impurity region |m| <= {m0}")
    kf_l, kf_r = bias.kf_l, bias.kf_r
    freq = max(abs(j - m), abs(j + m), 1)

    def left_sea(f):
        if kf_l == 0.0:
            return 0.0
        return adaptive_gauss_legendre(f, 0.0, kf_l, tol=FULL_TOL, frequency=freq)

    def right_sea(f):
        if kf_r == 0.0:
            return 0.0
        return adaptive_gauss_legendre(f, 0.0, kf_r, tol=FULL_TOL, frequency=freq)

    two_pi = 2.0 * np.pi
    if j < 0 and m < 0:
        def fl(k):
            r_l, t_l, _, _ = model.amplitudes(k)
            refl = np.abs(r_l) ** 2
            return (np.exp(-1j * k * (j - m)) + refl * np.exp(1j * k * (j - m))
                    + r_l * np.exp(-1j * k * (j + m))
                    + np.conj(r_l) * np.exp(1j * k * (j + m))) / two_pi

        def fr(k):
            _, _, _, t_r = model.amplitudes(k)
            return np.abs(t_r) ** 2 * np.exp(1j * k * (j - m)) / two_pi

        return left_sea(fl) + right_sea(fr)
    if j > 0 and m > 0:
        def fl(k):
            _, t_l, _, _ = model.amplitudes(k)
            return np.abs(t_l) ** 2 * np.exp(-1j * k * (j - m)) / two_pi

        def fr(k):
            _, _, r_r, _ = model.amplitudes(k)
            refl = np.abs(r_r) ** 2
            return (np.exp(1j * k * (j - m)) + refl * np.exp(-1j * k * (j - m))
                    + r_r * np.exp(1j * k * (j + m))
                    + np.conj(r_r) * np.exp(-1j * k * (j + m))) / two_pi

        return left_sea(fl) + right_sea(fr)
    if j > 0 and m < 0:
        def fl(k):
            r_l, t_l, _, _ = model.amplitudes(k)
            return np.conj(t_l) * (np.exp(-1j * k * (j - m))
                                   + r_l * np.exp(-1j * k * (j + m))) / two_pi

        def fr(k):
            _, _, r_r, t_r = model.amplitudes(k)
            return t_r * (np.exp(1j * k * (j - m))
                          + np.conj(r_r) * np.exp(-1j * k * (j + m))) / two_pi

        return left_sea(fl) + right_sea(fr)

    def fl(k):
        r_l, t_l, _, _ = model.amplitudes(k)
        return t_l * (np.exp(-1j * k * (j - m))
                      + np.conj(r_l) * np.exp(1j * k * (j + m))) / two_pi

    def fr(k):
        _, _, r_r, t_r = model.amplitudes(k)
        return np.conj(t_r) * (np.exp(1j * k * (j - m))
                               + r_r * np.exp(1j * k * (j + m))) / two_pi

    return left_sea(fl) + right_sea(fr)


def build_corr_matrix(model, bias, g, mode: str = "longrange",
                      cache=None) -> np.ndarray:
    """C_A of ``g`` filled entry by entry (full) or lag by lag (long range)."""
    left, right = g.left_sites(), g.right_sites()
    sites = np.concatenate([left, right])
    nl, nr = len(left), len(right)
    n = nl + nr
    mat = np.zeros((n, n), dtype=complex)
    if mode == "full":
        for p in range(n):
            for q in range(p, n):
                mat[p, q] = corr_entry_full(model, bias, sites[p], sites[q], g.m0)
    else:
        win = WindowIntegrals(model, bias, cache)
        mat[:nl, :nl] = toeplitz(
            _fermi_kernel(bias.kf_l, np.arange(1 - nl, nl))
            - np.array([win("T", d) for d in range(1 - nl, nl)]))
        mat[nl:, nl:] = toeplitz(
            _fermi_kernel(bias.kf_r, np.arange(1 - nr, nr))
            + np.array([win("T", -d) for d in range(1 - nr, nr)]))
        base = int(left[0] + right[0])
        anti = np.array([-win("R", base + s) for s in range(n - 1)])
        mat[:nl, nl:] = anti[np.arange(nl)[:, None] + np.arange(nr)[None, :]]
    upper = np.triu(mat, 1)
    diag = mat.diagonal().real.copy()
    mat[...] = 0.0
    np.fill_diagonal(mat, diag)
    mat += upper
    mat += np.conjugate(upper, out=upper).T
    return mat

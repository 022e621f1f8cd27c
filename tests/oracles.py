"""Test-only oracles: independent algorithms the production code does not use.

``tanh_sinh`` is a double-exponential rule, deliberately a different
algorithm from the production Gauss-Legendre path, for integrands with
endpoint singularities.  ``q_n_singular_form`` and
``q_tilde_n_singular_form`` evaluate Q_n and Qt_n from their
representations with integrable endpoint singularities, disjoint from the
smooth forms ``nesscorr.asymptotics`` evaluates; ``q_n_mp`` and
``q_tilde_n_mp`` evaluate the smooth forms themselves in mpmath, with no
cancellation to guard against.  ``c_xi_expression``
is the plain-expression form of the partial-time-reversal matrix that
``nesscorr.measures.build_c_xi`` must reproduce bit for bit.
``xi_negativity_complex`` is the complex route E and E_n took from the
C_Xi spectrum before it was made real: a 1e-8 real-axis clamp, principal
square roots and a complex log-sum.
``occupation_log_sum_mp`` evaluates ln det[C^2 + (I - C)^2] in mpmath at
34 digits from the matrix itself, with no spectrum and no Gamma matrices.
``lu_factor_logdet`` takes log det from scipy's LU factorization, a
LAPACK build apart from the one ``nesscorr.densela.lu_logdet`` calls
through numpy; scipy is a test dependency only.

``corr_entry_full``, ``window_integral`` and ``build_corr_matrix`` are the
entry-by-entry correlation builds the class-batched production builds of
``nesscorr.correlation`` replaced: one scalar adaptive quadrature per
entry and sea, or per window frequency.  The batched builds must give
their matrices bit for bit.  ``toeplitz_gather`` and
``hermitian_fill_triu`` are the fills with n x n temporaries (an int64
index array; a copied triangle) that ``nesscorr.densela.toeplitz`` and
the strip-wise Hermitian storage replaced, equal bit for bit.

The gamma-sum route (``gamma_log_sum_mi``, ``negativity_gamma_linear_sum``,
``negativity_log_coeff_gamma_sum``) sums the Fisher-Hartwig jump
interactions of the measure symbols gamma by gamma, the independent route
the closed-form log coefficients of ``nesscorr.asymptotics`` are checked
against.  The block machinery (``block_symbol``, ``block_toeplitz_matrix``,
``block_fh_logdet_asym``) builds C_A of equal-length intervals from its
2x2 momentum-space symbol: exact block-Toeplitz matrices and the two
asymptotic regimes (symmetric: ell >> |d_l - d_r|; far: the opposite) of
ln det(lambda - C_A).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
from nesscorr.densela import as_matrix
from nesscorr.errors import BranchError, DomainError, ScopeError
from nesscorr.fisher_hartwig import TWO_PI, _arc_fourier, gamma_range
from nesscorr.model import BiasConfig, ConstantS, ImpurityModel
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


def _unit_integral_mp(f, kinks=()):
    """int_0^1 f(x) dx in mpmath through x = u^2, split near the x^(n-1) edge.

    ``kinks`` are further points x where the integrand turns within a
    width of order 1/n; tanh-sinh across one of them loses digits at large
    n (4.4e-7 at n = 300 for Qt_n), so the split is made there too.
    """
    edges = [0, mpmath.mpf(10) ** -6, mpmath.mpf(10) ** -3, mpmath.mpf(10) ** -1, 1]
    edges = sorted(set(edges + [mpmath.sqrt(x) for x in kinks if 0 < x < 1]))
    return mpmath.quad(lambda u: 2 * u * f(u * u), edges)


def q_n_mp(p: float, n: float, dps: int = 30) -> float:
    """Q_n(p) from its smooth representation, evaluated in mpmath."""
    with mpmath.workdps(dps):
        p, n = mpmath.mpf(p), mpmath.mpf(n)
        c = 1 - p
        norm = p ** n + c ** n

        def f(x):
            return (mpmath.log((1 + p * x) ** n + (c * x) ** n)
                    + mpmath.log(((x + p) ** n + c ** n) / norm)) / (2 * mpmath.pi ** 2 * x)

        return float(-n / 12 + _unit_integral_mp(f))


def q_tilde_n_mp(t: float, r: float, n: float, dps: int = 30) -> float:
    """Qt_n(T) with R = 1 - T from its smooth representation, in mpmath."""
    with mpmath.workdps(dps):
        t, r, n = mpmath.mpf(t), mpmath.mpf(r), mpmath.mpf(n)

        def f(x):
            den = (t + r * x) ** n + (r + t * x) ** n
            return (mpmath.log((1 + t * x) ** n + (r * x) ** n)
                    + mpmath.log((1 + r * x) ** n + (t * x) ** n)
                    + mpmath.log(((x + t) ** n + r ** n) / den)
                    + mpmath.log(((x + r) ** n + t ** n) / den)) / (2 * mpmath.pi ** 2 * x)

        # (x + R)^n meets T^n, or (x + T)^n meets R^n, at x = |T - R|
        return float(-n / 12 + _unit_integral_mp(f, kinks=(abs(t - r),)))


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


def xi_negativity_complex(xi: np.ndarray, occupation: float, n: int) -> complex:
    """E (n = 1) or E_n (even n) from C_Xi eigenvalues ``xi``, in complex arithmetic.

    Eigenvalues within 1e-8 of the real axis are put on it and clipped
    into [0, 1]; the others pass through.  E takes principal square
    roots, E_n integer powers; the log-sum keeps its imaginary part.
    """
    xi = xi.astype(complex)
    real_like = np.abs(xi.imag) <= 1e-8
    xi[real_like] = np.clip(xi.real[real_like], 0.0, 1.0)
    if n == 1:
        kernel = np.sqrt(xi) + np.sqrt(1.0 - xi)
    else:
        kernel = xi ** (n // 2) + (1.0 - xi) ** (n // 2)
    return complex(np.sum(np.log(kernel))) + 0.5 * n * occupation


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
    """Window integrals resolved one frequency per call, memoized.

    Every frequency is integrated on its own, f > 0 included: the
    production builds take the integral of T at f > 0 as the conjugate of
    the one at -f, and this is the direct value they must reproduce.
    """

    def __init__(self, model, bias, cache=None):
        self.model = model
        self.bias = bias
        self.cache = cache if cache is not None else {}

    def __call__(self, kind: str, freq) -> complex:
        key = (kind, freq)
        value = self.cache.get(key)
        if value is None:
            weight = _WEIGHTS[kind]
            k1, k2 = self.bias.kf_r, self.bias.kf_l
            if isinstance(self.model, ConstantS):
                amps = (self.model.r_l, self.model.t_l, self.model.r_r,
                        self.model.t_r)
                value = weight(*amps) * _phase_integral(freq, k1, k2)
            elif k1 == k2:
                value = 0.0
            else:
                value = window_integral(self.model, self.bias, kind, freq)
            self.cache[key] = value
        return value


def corr_entry_full(model, bias, j: int, m: int) -> complex:
    """Finite-distance entry <c_j^dag c_m>: one quadrature per sea."""
    if j == 0 or m == 0:
        raise DomainError(f"sites ({j}, {m}): site 0 is the impurity")
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
                mat[p, q] = corr_entry_full(model, bias, sites[p], sites[q])
    else:
        win = WindowIntegrals(model, bias, cache)
        mat[:nl, :nl] = toeplitz_gather(
            _fermi_kernel(bias.kf_l, np.arange(1 - nl, nl))
            - np.array([win("T", d) for d in range(1 - nl, nl)]))
        mat[nl:, nl:] = toeplitz_gather(
            _fermi_kernel(bias.kf_r, np.arange(1 - nr, nr))
            + np.array([win("T", -d) for d in range(1 - nr, nr)]))
        base = int(left[0] + right[0])
        anti = np.array([-win("R", base + s) for s in range(n - 1)])
        mat[:nl, nl:] = anti[np.arange(nl)[:, None] + np.arange(nr)[None, :]]
    hermitian_fill_triu(mat)
    return mat


def toeplitz_gather(coeffs) -> np.ndarray:
    """N x N Toeplitz matrix of its 2N-1 diagonals, gathered by fancy index.

    Entry (p, q) is ``coeffs[p - q + N - 1]``, read through an N x N int64
    index array.
    """
    coeffs = np.asarray(coeffs)
    size = (len(coeffs) + 1) // 2
    idx = np.arange(size)
    return coeffs[idx[:, None] - idx[None, :] + size - 1]


def hermitian_fill_triu(mat: np.ndarray) -> None:
    """Hermitian matrix of ``mat``'s upper triangle, in place, in one sum.

    The diagonal's real part, the strict upper triangle and its conjugate
    transpose are added into zeros, with two n x n temporaries.
    """
    upper = np.triu(mat, 1)
    diag = mat.diagonal().real.copy()
    mat[...] = 0.0
    np.fill_diagonal(mat, diag)
    mat += upper
    mat += np.conjugate(upper, out=upper).T


# ---------------------------------------------------------------------------
# gamma-sum route


def _window_case(lengths) -> str:
    d_l, ell_l, d_r, ell_r = lengths
    l_lo, l_hi = d_l, d_l + ell_l
    r_lo, r_hi = d_r, d_r + ell_r
    if (l_lo >= r_lo and l_hi <= r_hi) or (r_lo >= l_lo and r_hi <= l_hi):
        return "containment"
    if l_hi < r_lo or r_hi < l_lo:
        return "disjoint"
    return "partial"


def _union_jump_events(lengths, transmission: float, phase: complex):
    """Positive-angle jump events (position, ratio) of the union symbol.

    Events at coincident positions are kept separate; their mutual
    interaction term is omitted by the caller.
    """
    refl = 1.0 - transmission
    d_l, ell_l, d_r, ell_r = lengths

    def value(in_l, in_r):
        return (transmission * (phase if in_r else 1.0)
                + refl * (phase if in_l else 1.0))

    raw = [(d_l, "l", True), (d_l + ell_l, "l", False),
           (d_r, "r", True), (d_r + ell_r, "r", False)]
    raw.sort(key=lambda e: (e[0], not e[2]))  # opens before closes at ties
    in_l = in_r = False
    events = []
    for pos, which, opening in raw:
        before = value(in_l, in_r)
        if which == "l":
            in_l = opening
        else:
            in_r = opening
        after = value(in_l, in_r)
        events.append((pos, before / after))
    return events


def _pair_interaction(events, scale: float) -> complex:
    total = 0j
    for i in range(len(events)):
        u1, rho1 = events[i]
        for j in range(i + 1, len(events)):
            u2, rho2 = events[j]
            if u1 == u2:
                continue  # coincident jumps: the divergent term is omitted
            total += np.log(rho1) * np.log(rho2) * math.log(abs(u2 - u1) * scale)
    return total


def mi_gamma_log_summand(transmission: float, n: int, gamma: float,
                         lengths, delta_k: float = 1.0) -> complex:
    """Jump-interaction contribution of one gamma to the MI log term.

    Combines the positive-angle pair sums of the A_L, A_R and union
    symbols; negative-angle jumps drop out of the combination in the
    long-range limit.
    """
    refl = 1.0 - transmission
    phase = np.exp(2j * np.pi * gamma / n)
    val_l = transmission + refl * phase  # inside the mirrored left window
    val_r = transmission * phase + refl  # inside the right window
    d_l, ell_l, d_r, ell_r = lengths
    s_l = _pair_interaction(
        [(d_l, 1.0 / val_l), (d_l + ell_l, val_l)], delta_k)
    s_r = _pair_interaction(
        [(d_r, 1.0 / val_r), (d_r + ell_r, val_r)], delta_k)
    s_a = _pair_interaction(
        _union_jump_events(lengths, transmission, phase), delta_k)
    return -(s_l + s_r - s_a) / (2.0 * np.pi ** 2)


def gamma_log_sum_mi(transmission: float, n: int, case: str, lengths,
                     delta_k: float = 1.0) -> float:
    """Direct gamma sum of the MI logarithmic term for one window case.

    ``lengths`` is (d_l, ell_l, d_r, ell_r) in any common unit; the result
    is independent of both the unit and ``delta_k``.  The window edges
    must be pairwise distinct and consistent with ``case``; degenerate
    arrangements belong to the closed form with its omission rule.
    """
    if case not in ("containment", "disjoint", "partial"):
        raise DomainError(f"unknown window case {case!r}")
    d_l, ell_l, d_r, ell_r = lengths
    edges = [d_l, d_l + ell_l, d_r, d_r + ell_r]
    if len(set(edges)) != 4:
        raise DomainError(
            f"window edges {edges} must be pairwise distinct for the "
            "direct gamma sum; use the closed form for degenerate cases")
    actual = _window_case(lengths)
    if actual != case:
        raise DomainError(
            f"window edges realize the {actual!r} case, not {case!r}")
    total = 0j
    for gamma in gamma_range(n):
        total += mi_gamma_log_summand(transmission, n, gamma, lengths, delta_k)
    if abs(total.imag) > 1e-9:
        raise BranchError(
            f"gamma-summed MI log term has imaginary residue {total.imag:.3e}")
    return float(total.real)


def negativity_gamma_linear_sum(transmission: float, n: int, lengths,
                                delta_k: float) -> float:
    """Gamma-summed extensive term of the negativity symbols.

    Equals (delta_k / 2 pi) [ (dl_l + dl_r) ln(T^n + R^n)
                              + 2 ell_mirror ln(T^(n/2) + R^(n/2)) ].
    """
    if n < 2 or n % 2:
        raise DomainError(f"negativity replica index n={n} must be even, >= 2")
    refl = 1.0 - transmission
    d_l, ell_l, d_r, ell_r = lengths
    mirror = max(min(d_l + ell_l, d_r + ell_r) - max(d_l, d_r), 0)
    dl_l, dl_r = ell_l - mirror, ell_r - mirror
    total = 0j
    for gamma in gamma_range(n):
        plus = np.exp(2j * np.pi * gamma / n)
        b_l = transmission + refl * plus
        b_r = refl - transmission / plus
        b_both = refl * plus - transmission / plus
        total += (delta_k / TWO_PI) * (
            ell_l * 2j * np.pi * gamma / n
            + dl_l * np.log(b_l) + dl_r * np.log(b_r)
            + mirror * np.log(b_both))
    return float(total.real)


def negativity_log_coeff_gamma_sum(transmission: float, n: int) -> float:
    """Gamma-summed ln(ell) coefficient of E_n in the symmetric case.

    Equals 2 Q_{n/2}(T) + 2 Q_{n/2}(R) - n/4.
    """
    if n < 2 or n % 2:
        raise DomainError(f"negativity replica index n={n} must be even, >= 2")
    refl = 1.0 - transmission
    total = 0j
    for gamma in gamma_range(n):
        plus = np.exp(2j * np.pi * gamma / n)
        total += (-2.0 * gamma ** 2 / n ** 2
                  + np.log(refl * plus - transmission / plus) ** 2
                  / (2.0 * np.pi ** 2))
    return float(total.real)


# ---------------------------------------------------------------------------
# block machinery


@dataclass(frozen=True)
class BlockSymbol:
    """2x2 matrix-valued piecewise-constant symbol on [-pi, pi)."""

    breaks: tuple[float, ...]
    blocks: tuple = ()

    def __post_init__(self):
        if len(self.breaks) != len(self.blocks) or len(self.breaks) < 1:
            raise DomainError("need one 2x2 block per break")
        th = np.asarray(self.breaks)
        if np.any(th < -np.pi) or np.any(th >= np.pi) or np.any(np.diff(th) <= 0):
            raise DomainError("breaks must be strictly ascending in [-pi, pi)")
        for b in self.blocks:
            b = np.asarray(b)
            if b.shape != (2, 2):
                raise DomainError("blocks must be 2x2")
            if abs(b[1, 0] - np.conj(b[0, 1])) > 1e-12:
                raise DomainError("block symbol must satisfy Phi_21 = conj(Phi_12)")
            diag = np.diag(b)
            if np.max(np.abs(diag.imag)) > 1e-12 or diag.real.min() < -1e-12 \
                    or diag.real.max() > 1 + 1e-12:
                raise DomainError("block diagonal entries must be real in [0, 1]")


def block_symbol(model: ImpurityModel, bias: BiasConfig,
                 include_cross: bool = True) -> BlockSymbol:
    """Momentum-space 2x2 symbol of C_A for equal-length intervals.

    Requires momentum-independent amplitudes (arcs carry constant
    blocks); the cross entry assumes equal distances d_l = d_r, where its
    phase factor is unity.  ``include_cross=False`` zeroes the
    off-diagonal entries, realizing the |d_l - d_r| >> ell regime.
    """
    if not isinstance(model, ConstantS):
        raise ScopeError(
            "block symbols require momentum-independent amplitudes")
    t_prob = abs(model.t_l) ** 2
    r_prob = 1.0 - t_prob
    cross = np.conj(model.t_l) * model.r_l if include_cross else 0.0
    k_lo, k_hi = bias.k_minus, bias.k_plus
    if k_hi >= np.pi:
        raise ScopeError("band-edge Fermi momentum k_F = pi is out of scope")

    def blk(p11, p22, p12):
        return np.array([[p11, p12], [np.conj(p12), p22]], dtype=complex)

    empty = blk(0.0, 0.0, 0.0)
    if bias.delta_k == 0.0:
        if k_lo == 0.0:
            return BlockSymbol(breaks=(-np.pi,), blocks=(empty,))
        return BlockSymbol(
            breaks=(-np.pi, -k_lo, k_lo),
            blocks=(empty, blk(1.0, 1.0, 0.0), empty))
    # window arc carries (T, R) on the diagonal; which diagonal slot sees
    # the full sea below the window depends on the bias direction
    if bias.kf_l >= bias.kf_r:
        low_block = blk(0.0, 1.0, 0.0)       # only the left-side sea persists
        win_block = blk(t_prob, r_prob, cross)
    else:
        low_block = blk(1.0, 0.0, 0.0)
        win_block = blk(r_prob, t_prob, np.conj(cross))
    breaks = [-np.pi]
    blocks = [empty]
    if k_lo > 0.0:
        breaks += [-k_hi, -k_lo, k_lo, k_hi]
        blocks += [low_block, blk(1.0, 1.0, 0.0), win_block, empty]
    else:
        breaks += [-k_hi, k_lo, k_hi]
        blocks += [low_block, win_block, empty]
    # the leading [-pi, -k_hi) arc and trailing [k_hi, pi) arc are both zero;
    # merge the wrap by dropping the redundant leading break
    return BlockSymbol(breaks=tuple(breaks[1:]), blocks=tuple(blocks[1:]))


def block_toeplitz_matrix(b: BlockSymbol, ell: int) -> np.ndarray:
    """Exact 2 ell x 2 ell block-Toeplitz matrix of a 2x2 symbol.

    Each block entry's Fourier coefficients are the scalar arc integrals;
    the blocks are gathered here, one by one, not by ``densela.toeplitz``.
    """
    if ell < 1:
        raise DomainError(f"block count {ell} must be >= 1")
    lags = np.arange(1 - ell, ell)
    blocks = np.asarray(b.blocks, dtype=complex)
    coeffs = np.empty((len(lags), 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            coeffs[:, i, j] = _arc_fourier(b.breaks, blocks[:, i, j], lags)
    out = np.empty((2 * ell, 2 * ell), dtype=complex)
    for p in range(ell):
        for q in range(ell):
            out[2 * p:2 * p + 2, 2 * q:2 * q + 2] = coeffs[p - q + ell - 1]
    return as_matrix(out)


def _check_lambda(lam: complex):
    if lam.imag == 0.0 and -1e-12 <= lam.real <= 1.0 + 1e-12:
        raise BranchError(
            f"lambda={lam} lies on the spectral segment [0, 1]")


def block_fh_logdet_asym(lam: complex, bias: BiasConfig, t_fermi,
                         regime: str, ell: int,
                         transmission: float | None = None) -> complex:
    """Asymptotics of ln det(lambda I - C_A) for equal-length intervals.

    ``t_fermi`` is (T at kf_l, T at kf_r).  regime 'sym' is the
    ell >> |d_l - d_r| limit, whose ln(ell) coefficient
    (1/pi^2) ln^2((lambda-1)/lambda) carries no scattering data at all;
    regime 'far' is the opposite limit with the cross block dropped.
    The constant ``transmission`` feeds the window integral of the
    far-regime linear term; it defaults to the mean of ``t_fermi``.
    """
    lam = complex(lam)
    _check_lambda(lam)
    if regime not in ("sym", "far"):
        raise DomainError(f"unknown regime {regime!r}")
    if ell < 1:
        raise DomainError(f"length {ell} must be >= 1")
    k_lo, k_hi, dk = bias.k_minus, bias.k_plus, bias.delta_k
    pi = np.pi
    log_l = np.log(lam)
    log_l1 = np.log(lam - 1.0)
    if regime == "sym":
        linear = (2 * k_lo / pi) * log_l1 + (dk / pi) * (log_l + log_l1) \
            + (2 * (pi - k_hi) / pi) * log_l
        log_coeff = (np.log((lam - 1.0) / lam)) ** 2 / pi ** 2
        return ell * linear + log_coeff * math.log(ell)
    t_l, t_r = t_fermi
    t_plus, t_minus = (t_l, t_r) if bias.kf_l >= bias.kf_r else (t_r, t_l)
    t_const = 0.5 * (t_l + t_r) if transmission is None else transmission
    window = (dk / (2 * pi)) * (np.log(lam - t_const)
                                + np.log(lam - (1.0 - t_const)))
    linear = (2 * k_lo / pi) * log_l1 + (dk / (2 * pi)) * (log_l + log_l1) \
        + window + (2 * (pi - k_hi) / pi) * log_l
    log_coeff = (np.log((lam - 1.0) / lam)) ** 2 / (2 * pi ** 2)
    log_coeff += (np.log(lam / (lam - t_plus)) ** 2
                  + np.log(lam / (lam - (1.0 - t_plus))) ** 2
                  + np.log((lam - 1.0) / (lam - t_minus)) ** 2
                  + np.log((lam - 1.0) / (lam - (1.0 - t_minus))) ** 2) / (4 * pi ** 2)
    return ell * linear + log_coeff * math.log(ell)

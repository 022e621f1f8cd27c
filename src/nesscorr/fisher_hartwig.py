"""Piecewise-constant Toeplitz symbols and their determinant asymptotics.

Scalar machinery
----------------
A :class:`PiecewiseSymbol` is a function on the unit circle taking a
constant value on each arc between its jump angles.  Its Toeplitz matrix
has exact closed-form entries (arc integrals); the log-determinant obeys
the Fisher-Hartwig expansion

    ln Z ~ M * (ln phi)_0  -  (sum_r beta_r^2) ln M
           + 2 sum_{r1 < r2} beta_r1 beta_r2 ln|e^{i th_r2} - e^{i th_r1}|
           + O(1),

with jump exponents beta_r = ln(phi(th_r^-)/phi(th_r^+)) / (2 pi i) on
the principal branch (requiring |Re beta_r| < 1/2).  The O(1) constant is
never included here, so exact-vs-asymptotic comparisons must difference
it away.

Measure symbols
---------------
Momentum discretization of the bias window maps entropies of A_L, A_R
and A onto determinants of such symbols: on the negative half-circle the
symbol is a plain window indicator, on the positive half it is the
transmission-weighted mix

    phi(th) = T * W(th) + R * W(-th),      0 <= th < pi,

where W carries the value e^{2 pi i gamma / n} (mutual information) or
additionally -e^{-2 pi i gamma / n} on the right window (negativity)
inside the intervals [th_-, th_+] mapped from the subsystem edges.  The
gamma-summed jump-interaction terms reproduce the closed-form logarithmic
coefficients.  The closed forms (four-point ratios of the interval edges
with the exact-zero omission rule) live in :mod:`nesscorr.asymptotics`.
:func:`gamma_identities` checks the gamma sums of the symbol values
against the Q-function quadratures; ``harness.run_identities`` and
``harness.run_fh_validation`` run this module.  The direct gamma sums of
the log terms and the 2x2 block symbols of C_A are independent oracles
that only the test suite carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import q_n, q_tilde_n
from .densela import toeplitz
from .errors import BranchError, DomainError

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# scalar symbols


@dataclass(frozen=True)
class PiecewiseSymbol:
    """Piecewise-constant function on [-pi, pi).

    ``values[r]`` holds on the arc [jumps[r], jumps[r+1]) with the last
    arc wrapping through +-pi back to jumps[0].  A constant symbol has no
    jumps and a single value.
    """

    jumps: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.jumps) == 0:
            if len(self.values) != 1:
                raise DomainError("constant symbol needs exactly one value")
            return
        if len(self.jumps) != len(self.values):
            raise DomainError("need one value per jump (arc starts at its jump)")
        th = np.asarray(self.jumps)
        if np.any(th < -np.pi) or np.any(th >= np.pi):
            raise DomainError("jump angles must lie in [-pi, pi)")
        if np.any(np.diff(th) <= 0):
            raise DomainError("jump angles must be strictly ascending")
        vals = np.asarray(self.values)
        neighbors = np.roll(vals, 1)
        if np.any(np.abs(vals - neighbors) == 0.0):
            raise DomainError("null jump: adjacent arc values must differ")

    def jump_ratios(self) -> np.ndarray:
        """phi(th_r^-) / phi(th_r^+) at each jump."""
        vals = np.asarray(self.values, dtype=complex)
        return np.roll(vals, 1) / vals

    def beta_exponents(self) -> np.ndarray:
        """Jump exponents beta_r on the principal branch.

        Raises BranchError when a ratio sits on the cut (|Re beta| = 1/2).
        """
        if np.any(np.abs(np.asarray(self.values)) == 0.0):
            raise DomainError("symbol has a zero value; log-based asymptotics undefined")
        ratios = self.jump_ratios()
        on_cut = (ratios.imag == 0.0) & (ratios.real < 0.0)
        if np.any(on_cut):
            raise BranchError(
                "jump ratio on the negative real axis: beta exponent hits "
                "|Re beta| = 1/2; perturb the symbol phases")
        beta = np.log(ratios) / (2j * np.pi)
        if np.any(np.abs(beta.real) >= 0.5):
            raise BranchError("jump exponent outside |Re beta| < 1/2")
        return beta


def _arc_fourier(th, values, lags) -> np.ndarray:
    """sum_r values[r] * int_{arc r} e^{-i lag theta} dtheta / 2 pi, per lag.

    Arc r runs from ``th[r]`` to the next angle, the last one wrapping
    through +-pi back to ``th[0]``; ``values`` holds one scalar per arc.
    These are the Fourier coefficients of a piecewise-constant symbol,
    exact in closed form.
    """
    values = np.asarray(values, dtype=complex)
    # lags run down axis 0, arcs along axis 1
    starts = np.asarray(th, dtype=float)
    ends = np.append(starts[1:], starts[0] + TWO_PI)
    lag = np.asarray(lags)[:, None]
    safe = np.where(lag == 0, 1, lag)
    # each lag divides once, after the sum over arcs
    arcs = np.where(lag == 0, ends - starts,
                    np.exp(-1j * safe * ends) - np.exp(-1j * safe * starts))
    scale = np.where(lag == 0, TWO_PI, -2j * np.pi * safe)
    return np.sum(values * arcs, axis=1) / scale[:, 0]


def toeplitz_from_symbol(s: PiecewiseSymbol, m: int) -> np.ndarray:
    """Exact M x M Toeplitz matrix of the symbol (closed-form arc integrals),
    the read-only view of :func:`toeplitz`."""
    if m < 1:
        raise DomainError(f"matrix size {m} must be >= 1")
    if not s.jumps:
        # a constant symbol's only nonzero coefficient is at lag 0
        coeffs = np.zeros(2 * m - 1, dtype=complex)
        coeffs[m - 1] = s.values[0]
        return toeplitz(coeffs)
    return toeplitz(_arc_fourier(s.jumps, s.values, np.arange(1 - m, m)))


def symbol_linear_coeff(s: PiecewiseSymbol) -> complex:
    """Coefficient of M in the symbol's FH expansion: the mean of ln phi."""
    if not s.jumps:
        return complex(np.log(s.values[0]))
    log_values = np.log(np.asarray(s.values, dtype=complex))
    return complex(_arc_fourier(s.jumps, log_values, [0])[0])


def fh_logdet_asym(s: PiecewiseSymbol, m: int) -> complex:
    """Fisher-Hartwig asymptotics of ln det of the symbol's M x M matrix.

    The O(1) constant is omitted.  Coincident jumps cannot occur here
    (angles are strictly ascending); the degenerate-omission rule lives in
    the closed forms of :mod:`nesscorr.asymptotics`.
    """
    if m < 1:
        raise DomainError(f"matrix size {m} must be >= 1")
    if not s.jumps:
        return m * symbol_linear_coeff(s)
    beta = s.beta_exponents()
    th = np.asarray(s.jumps, dtype=float)
    total = m * symbol_linear_coeff(s) - np.sum(beta ** 2) * math.log(m)
    for r1 in range(len(th)):
        for r2 in range(r1 + 1, len(th)):
            gap = abs(np.exp(1j * th[r2]) - np.exp(1j * th[r1]))
            total += 2.0 * beta[r1] * beta[r2] * math.log(gap)
    return complex(total)


# ---------------------------------------------------------------------------
# measure symbols


def _merge_arcs(breaks, values) -> PiecewiseSymbol:
    """Drop null jumps (merge equal adjacent arcs, including the wrap)."""
    kept_b, kept_v = [], []
    for b, v in zip(breaks, values):
        if kept_v and v == kept_v[-1]:
            continue
        kept_b.append(b)
        kept_v.append(v)
    while len(kept_v) > 1 and kept_v[0] == kept_v[-1]:
        kept_b.pop(0)
        kept_v.pop(0)
    if len(kept_v) == 1:
        return PiecewiseSymbol(jumps=(), values=(kept_v[0],))
    return PiecewiseSymbol(jumps=tuple(kept_b), values=tuple(kept_v))


def _window_symbol(left: complex, right: complex, theta_l, theta_r,
                   transmission: float) -> PiecewiseSymbol:
    """Assemble phi(th) = W(th) on th < 0, T W(th) + R W(-th) on th >= 0.

    W is ``left`` on the mirrored left window [-th_+, -th_-] of
    ``theta_l``, ``right`` on the right window ``theta_r`` and 1 elsewhere.
    """
    for lo, hi in (theta_l, theta_r):
        if not 0.0 < lo < hi < np.pi:
            raise DomainError(
                f"window ({lo}, {hi}) must satisfy 0 < th_- < th_+ < pi")
    (l_lo, l_hi), (r_lo, r_hi) = theta_l, theta_r

    def window(th):
        if -l_hi <= th <= -l_lo:
            return left
        if r_lo <= th <= r_hi:
            return right
        return 1.0

    refl = 1.0 - transmission
    cuts = {-np.pi, 0.0, -l_hi, -l_lo, l_lo, l_hi, -r_hi, -r_lo, r_lo, r_hi}
    breaks = sorted(c for c in cuts if -np.pi <= c < np.pi)
    values = []
    for i, b in enumerate(breaks):
        hi = breaks[i + 1] if i + 1 < len(breaks) else np.pi
        mid = 0.5 * (b + hi)
        if mid < 0:
            values.append(complex(window(mid)))
        else:
            values.append(complex(transmission * window(mid)
                                  + refl * window(-mid)))
    return _merge_arcs(breaks, values)


def mi_symbol(subsystem: str, gamma: float, n: int, theta_l, theta_r,
              transmission: float) -> PiecewiseSymbol:
    """Entropy/MI Toeplitz symbol phi_gamma^(X) for X in {A_L, A_R, A}.

    ``theta_l`` and ``theta_r`` are the (th_-, th_+) windows of the two
    intervals; the left window enters mirrored onto negative angles.
    """
    if subsystem not in ("A_L", "A_R", "A"):
        raise DomainError(f"unknown subsystem {subsystem!r}")
    phase = np.exp(2j * np.pi * gamma / n)
    return _window_symbol(phase if subsystem != "A_R" else 1.0,
                          phase if subsystem != "A_L" else 1.0,
                          theta_l, theta_r, transmission)


def negativity_symbol(gamma: float, n: int, theta_l, theta_r,
                      transmission: float) -> PiecewiseSymbol:
    """Negativity Toeplitz symbol: the right window carries -e^{-2 pi i gamma/n}.

    A jump ratio on the branch cut (the negative real axis) makes
    :meth:`PiecewiseSymbol.beta_exponents` raise a BranchError.
    """
    if n < 2 or n % 2:
        raise DomainError(f"negativity replica index n={n} must be even, >= 2")
    return _window_symbol(np.exp(2j * np.pi * gamma / n),
                          -np.exp(-2j * np.pi * gamma / n),
                          theta_l, theta_r, transmission)


# ---------------------------------------------------------------------------
# gamma machinery


def gamma_range(n: int) -> np.ndarray:
    """gamma = -(n-1)/2, -(n-3)/2, ..., (n-1)/2."""
    return np.arange(n) - (n - 1) / 2.0


def gamma_identities(transmission: float, n: int) -> dict[str, float]:
    """Residuals of the four gamma-sum identities against Q-quadratures.

    (i)   sum ln^2(T E + R) / 4 pi^2            = Q_n(R)
    (ii)  sum (i gamma / pi n) ln(T E + R)      = (1/n - n)/12 + Q_n(R) - Q_n(T)
    (iii) sum ln(T E + R) ln(T + R E) / 2 pi^2  = Qt_n(T)
    (iv)  sum ln^2(R E - T / E) / 2 pi^2        = 2 Q_{n/2}(T) + 2 Q_{n/2}(R)
                                                  - 1/(6n) - n/12   (even n)
    with E = e^{2 pi i gamma / n}.
    """
    if n < 2:
        raise DomainError(f"replica index n={n} must be >= 2")
    refl = 1.0 - transmission
    gammas = gamma_range(n)
    phases = np.exp(2j * np.pi * gammas / n)
    log_a = np.log(transmission * phases + refl)
    log_b = np.log(transmission + refl * phases)
    nf = float(n)
    residuals = {
        "square_log": abs(np.sum(log_a ** 2) / (4 * np.pi ** 2)
                          - q_n(refl, nf)),
        "index_log": abs(np.sum(1j * gammas / (np.pi * n) * log_a)
                         - ((1 / nf - nf) / 12 + q_n(refl, nf)
                            - q_n(transmission, nf))),
        "cross_log": abs(np.sum(log_a * log_b) / (2 * np.pi ** 2)
                         - q_tilde_n(transmission, refl, nf)),
    }
    if n % 2 == 0:
        log_c = np.log(refl * phases - transmission / phases)
        residuals["negativity_log"] = abs(
            np.sum(log_c ** 2) / (2 * np.pi ** 2)
            - (2 * q_n(transmission, nf / 2) + 2 * q_n(refl, nf / 2)
               - 1 / (6 * nf) - nf / 12))
    return residuals

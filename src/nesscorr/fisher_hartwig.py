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
with the exact-zero omission rule) live in :mod:`nesscorr.asymptotics`;
the direct gamma sums here are the independent route the tests check
them against.

Block machinery
---------------
For equal-length intervals the correlation matrix of A is block-Toeplitz
in momentum space with a 2x2 symbol; exact block matrices and the two
asymptotic regimes (symmetric: ell >> |d_l - d_r|; far: the opposite) of
ln det(lambda - C_A) are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import q_n, q_tilde_n
from .densela import as_matrix, toeplitz
from .errors import BranchError, DomainError, ScopeError
from .model import BiasConfig, ConstantS, ImpurityModel

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

    def value_at(self, theta: float) -> complex:
        if not self.jumps:
            return self.values[0]
        idx = int(np.searchsorted(np.asarray(self.jumps), theta, side="right")) - 1
        return self.values[idx]  # idx == -1 wraps to the last arc

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
    through +-pi back to ``th[0]``; ``values`` holds one scalar or one
    square block per arc.  These are the Fourier coefficients of a
    piecewise-constant symbol, exact in closed form.
    """
    values = np.asarray(values, dtype=complex)
    # lags run down axis 0, arcs along axis 1, block entries after them
    trail = (1,) * (values.ndim - 1)
    starts = np.asarray(th, dtype=float)
    ends = np.append(starts[1:], starts[0] + TWO_PI).reshape((-1,) + trail)
    starts = starts.reshape(ends.shape)
    lag = np.asarray(lags).reshape((-1, 1) + trail)
    safe = np.where(lag == 0, 1, lag)
    # each lag divides once, after the sum over arcs
    arcs = np.where(lag == 0, ends - starts,
                    np.exp(-1j * safe * ends) - np.exp(-1j * safe * starts))
    scale = np.where(lag == 0, TWO_PI, -2j * np.pi * safe)
    return np.sum(values * arcs, axis=1) / scale[:, 0]


def toeplitz_from_symbol(s: PiecewiseSymbol, m: int) -> np.ndarray:
    """Exact M x M Toeplitz matrix of the symbol (closed-form arc integrals)."""
    if m < 1:
        raise DomainError(f"matrix size {m} must be >= 1")
    if not s.jumps:
        return s.values[0] * np.eye(m, dtype=complex)
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
    the gamma-sum routines.
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


def _check_windows(theta_l, theta_r):
    for lo, hi in (theta_l, theta_r):
        if not 0.0 < lo < hi < np.pi:
            raise DomainError(
                f"window ({lo}, {hi}) must satisfy 0 < th_- < th_+ < pi")


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


def _mixed_symbol(window_fn, theta_l, theta_r, transmission: float) -> PiecewiseSymbol:
    """Assemble phi(th) = W(th) on th < 0, T W(th) + R W(-th) on th >= 0."""
    refl = 1.0 - transmission
    cuts = {-np.pi, 0.0}
    for lo, hi in (theta_l, theta_r):
        cuts.update((-hi, -lo, lo, hi))
    breaks = sorted(c for c in cuts if -np.pi <= c < np.pi)
    values = []
    for i, b in enumerate(breaks):
        hi = breaks[i + 1] if i + 1 < len(breaks) else np.pi
        mid = 0.5 * (b + hi)
        if mid < 0:
            values.append(complex(window_fn(mid)))
        else:
            values.append(complex(transmission * window_fn(mid)
                                  + refl * window_fn(-mid)))
    return _merge_arcs(breaks, values)


def mi_symbol(subsystem: str, gamma: float, n: int, theta_l, theta_r,
              transmission: float) -> PiecewiseSymbol:
    """Entropy/MI Toeplitz symbol phi_gamma^(X) for X in {A_L, A_R, A}.

    ``theta_l`` and ``theta_r`` are the (th_-, th_+) windows of the two
    intervals; the left window enters mirrored onto negative angles.
    """
    _check_windows(theta_l, theta_r)
    phase = np.exp(2j * np.pi * gamma / n)
    l_lo, l_hi = theta_l
    r_lo, r_hi = theta_r

    def window(th):
        active = False
        if subsystem in ("A_L", "A"):
            active = active or (-l_hi <= th <= -l_lo)
        if subsystem in ("A_R", "A"):
            active = active or (r_lo <= th <= r_hi)
        return phase if active else 1.0

    if subsystem not in ("A_L", "A_R", "A"):
        raise DomainError(f"unknown subsystem {subsystem!r}")
    return _mixed_symbol(window, theta_l, theta_r, transmission)


def negativity_symbol(gamma: float, n: int, theta_l, theta_r,
                      transmission: float) -> PiecewiseSymbol:
    """Negativity Toeplitz symbol: the right window carries -e^{-2 pi i gamma/n}.

    If a jump ratio lands exactly on the negative real axis (the branch
    boundary the asymptotics cannot cross), the gamma phase is nudged by
    one part in 1e9 and the symbol is rebuilt; this is reported through a
    BranchError only if the nudge fails too.
    """
    _check_windows(theta_l, theta_r)
    if n < 2 or n % 2:
        raise DomainError(f"negativity replica index n={n} must be even, >= 2")
    l_lo, l_hi = theta_l
    r_lo, r_hi = theta_r

    def build(g):
        plus = np.exp(2j * np.pi * g / n)
        minus = -np.exp(-2j * np.pi * g / n)

        def window(th):
            if -l_hi <= th <= -l_lo:
                return plus
            if r_lo <= th <= r_hi:
                return minus
            return 1.0

        return _mixed_symbol(window, theta_l, theta_r, transmission)

    symbol = build(gamma)
    ratios = symbol.jump_ratios() if symbol.jumps else np.array([])
    if np.any((ratios.imag == 0.0) & (ratios.real < 0.0)):
        symbol = build(gamma * (1.0 + 1e-9) + 1e-12)
    return symbol


# ---------------------------------------------------------------------------
# gamma machinery


def gamma_range(n: int) -> np.ndarray:
    """gamma = -(n-1)/2, -(n-3)/2, ..., (n-1)/2."""
    return np.arange(n) - (n - 1) / 2.0


@dataclass(frozen=True)
class GammaSet:
    """Roots of p_n(z) = z^n + (1-z)^n and, for even n, of its half-index twin.

    ``z_inv[j]`` is 1/z_gamma = 1 - e^{2 pi i gamma / n}; the gamma = 0
    member of an odd-n set has z_inv = 0 (the missing root).  For even n,
    ``zt_inv`` collects 1/zt_gamma = 1 + e^{-4 pi i gamma / n} over the
    positive half-integers gamma = 1/2, ..., (n-1)/2.
    """

    n: int
    gammas: np.ndarray = field(repr=False)
    z_inv: np.ndarray = field(repr=False)
    zt_inv: np.ndarray | None = field(repr=False, default=None)

    @classmethod
    def build(cls, n: int) -> "GammaSet":
        if n < 2:
            raise DomainError(f"replica index n={n} must be >= 2")
        gammas = gamma_range(n)
        z_inv = 1.0 - np.exp(2j * np.pi * gammas / n)
        zt_inv = None
        if n % 2 == 0:
            pos = gammas[gammas > 0]
            zt_inv = 1.0 + np.exp(-4j * np.pi * pos / n)
        return cls(n=n, gammas=gammas, z_inv=z_inv, zt_inv=zt_inv)

    def char_poly(self, z: complex) -> complex:
        """prod_gamma (1 - z / z_gamma), which equals z^n + (1-z)^n."""
        return complex(np.prod(1.0 - z * self.z_inv))

    def char_poly_tilde(self, z: complex) -> complex:
        """prod over even-n twin roots, equal to z^(n/2) + (1-z)^(n/2)."""
        if self.zt_inv is None:
            raise DomainError("tilde roots exist only for even n")
        return complex(np.prod(1.0 - z * self.zt_inv))


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
                         - q_tilde_n(transmission, nf)),
    }
    if n % 2 == 0:
        log_c = np.log(refl * phases - transmission / phases)
        residuals["negativity_log"] = abs(
            np.sum(log_c ** 2) / (2 * np.pi ** 2)
            - (2 * q_n(transmission, nf / 2) + 2 * q_n(refl, nf / 2)
               - 1 / (6 * nf) - nf / 12))
    return residuals


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
    """Exact 2 ell x 2 ell block-Toeplitz matrix of a 2x2 symbol."""
    if ell < 1:
        raise DomainError(f"block count {ell} must be >= 1")
    coeffs = _arc_fourier(b.breaks, b.blocks, np.arange(1 - ell, ell))
    return as_matrix(toeplitz(coeffs))


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

"""Two-point correlation matrices of the biased steady state.

Entries are built from the scattering-state mode sum

    <c_j^dag c_m> = int dk/2pi <k|j><m|k>

over left states (occupied up to ``kf_l``) and right states (occupied up
to ``kf_r``).  Two evaluation modes are provided:

``longrange``
    The limit d_i / ell_i -> infinity at fixed d_l - d_r.  Same-side
    entries reduce to a Fermi-sea kernel plus a transmission-weighted
    window integral in j - m; cross entries keep only the t* r window
    integral in j + m.  Same-side blocks are therefore Toeplitz and the
    cross block depends on j + m only.

``full``
    Direct quadrature of the complete mode sum at finite distances,
    including the reflection terms oscillating in j + m that the
    long-range kernel drops.  Bound states are ignored throughout (their
    weight at the subsystems is exponentially small in d_i).

Within each built matrix the Hermitian mirror is stored exactly: the
upper triangle is computed once and conjugated into the lower one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densela import herm_eigvals, toeplitz
from .errors import DomainError
from .model import BiasConfig, ConstantS, Geometry, ImpurityModel
from .quadrature import adaptive_gauss_legendre

ENTRY_TOL = 1e-11
FULL_TOL = 1e-10
SPECTRUM_SLACK = 1e-8


@dataclass
class CorrelationMatrix:
    """Dense Hermitian correlation matrix with its physical site map."""

    sites: np.ndarray
    mat: np.ndarray
    n_left: int  # number of leading indices that live left of the impurity
    _spectra: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.sites = np.asarray(self.sites, dtype=int)
        self.mat = np.asarray(self.mat, dtype=complex)
        n = len(self.sites)
        if self.mat.shape != (n, n):
            raise DomainError(
                f"site map of length {n} does not match matrix {self.mat.shape}")
        diag = np.diag(self.mat)
        if np.max(np.abs(diag.imag)) > 1e-10:
            raise DomainError("diagonal entries must be real occupations")
        if diag.real.min() < -SPECTRUM_SLACK or diag.real.max() > 1 + SPECTRUM_SLACK:
            raise DomainError("diagonal occupations outside [0, 1]")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return herm_eigvals(self.mat)

    def blocks(self) -> tuple[CorrelationMatrix, CorrelationMatrix]:
        """(C_L, C_R): views of the leading ``n_left`` block and the rest."""
        nl = self.n_left
        return (CorrelationMatrix(self.sites[:nl], self.mat[:nl, :nl], nl),
                CorrelationMatrix(self.sites[nl:], self.mat[nl:, nl:], 0))


def _fermi_kernel(kf: float, delta) -> np.ndarray:
    # int_{-kf}^{kf} dk/2pi e^{-i delta k} = sin(kf delta) / (pi delta),
    # kf / pi at delta = 0; elementwise over an array of integer lags
    delta = np.asarray(delta, dtype=float)
    zero = delta == 0
    return np.where(zero, kf / np.pi,
                    np.sin(kf * delta) / (np.pi * np.where(zero, 1.0, delta)))


def _phase_integral(freq: float, k1: float, k2: float) -> complex:
    # oriented int_{k1}^{k2} dk/2pi e^{i freq k}, exact
    if freq == 0.0:
        return (k2 - k1) / (2.0 * np.pi)
    return (np.exp(1j * freq * k2) - np.exp(1j * freq * k1)) / (2j * np.pi * freq)


# window weight w(k) of each kind, from the amplitudes (r_l, t_l, r_r, t_r)
_WEIGHTS = {
    "T": lambda r_l, t_l, r_r, t_r: abs(t_l) ** 2,
    "L": lambda r_l, t_l, r_r, t_r: np.conj(t_l) * r_l,
    "R": lambda r_l, t_l, r_r, t_r: np.conj(t_r) * r_r,
}


class _WindowIntegrals:
    """Oriented window integrals int_{kf_r}^{kf_l} w(k) e^{i f k} dk/2pi.

    ``kind`` names the weight: ``"T"`` = |t_l|^2, ``"L"`` = t_l^* r_l,
    ``"R"`` = t_r^* r_r.  Closed forms for constant amplitudes, adaptive
    quadrature otherwise.  Values are memoized per (kind, frequency); a
    cache may be shared between builds with the same model and bias.
    """

    def __init__(self, model: ImpurityModel, bias: BiasConfig, cache=None):
        self.model = model
        self.bias = bias
        self.cache = cache if cache is not None else {}

    def __call__(self, kind: str, freq: float) -> complex:
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
                def f(k):
                    return (weight(*self.model.amplitudes(k))
                            * np.exp(1j * freq * k) / (2.0 * np.pi))

                value = adaptive_gauss_legendre(f, k1, k2, tol=ENTRY_TOL,
                                                frequency=abs(freq))
            self.cache[key] = value
        return value


def corr_entry_longrange(model: ImpurityModel, bias: BiasConfig,
                         j: int, m: int, m0: int = 0, cache=None) -> complex:
    """Long-range-limit entry <c_j^dag c_m> for sites outside the impurity."""
    if abs(j) <= m0 or abs(m) <= m0:
        raise DomainError(
            f"sites ({j}, {m}) must lie outside the impurity region |m| <= {m0}")
    win = _WindowIntegrals(model, bias, cache)
    if j > 0 and m > 0:
        delta = j - m
        return _fermi_kernel(bias.kf_r, delta) + win("T", -delta)
    if j < 0 and m < 0:
        delta = j - m
        return _fermi_kernel(bias.kf_l, delta) - win("T", delta)
    if j > 0 and m < 0:
        return win("L", -(j + m))
    return -win("R", j + m)


def corr_entry_full(model: ImpurityModel, bias: BiasConfig,
                    j: int, m: int, m0: int = 0) -> complex:
    """Finite-distance entry <c_j^dag c_m> by direct quadrature.

    Integrates the complete scattering-state products over both occupied
    seas, keeping the reflection cross terms the long-range kernel drops.
    """
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


def build_corr_matrix(model: ImpurityModel, bias: BiasConfig, g: Geometry,
                      subsystem: str, mode: str = "longrange",
                      cache=None) -> CorrelationMatrix:
    """Correlation matrix of A_L, A_R or A = A_L union A_R.

    The whole of A is built, its sites in ascending physical order (the
    A_L block precedes the A_R block); ``"A_L"`` and ``"A_R"`` return the
    matching view from :meth:`CorrelationMatrix.blocks`.  ``mode`` selects
    the long-range kernel or the finite-distance quadrature.
    """
    if subsystem not in ("A_L", "A_R", "A"):
        raise DomainError(f"unknown subsystem {subsystem!r}")
    if mode not in ("longrange", "full"):
        raise DomainError(f"unknown mode {mode!r}")
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
        win = _WindowIntegrals(model, bias, cache)
        # sites within each block are consecutive integers, so the site
        # difference equals the position difference: Toeplitz fill by lag
        mat[:nl, :nl] = toeplitz(
            _fermi_kernel(bias.kf_l, np.arange(1 - nl, nl))
            - np.array([win("T", d) for d in range(1 - nl, nl)]))
        mat[nl:, nl:] = toeplitz(
            _fermi_kernel(bias.kf_r, np.arange(1 - nr, nr))
            + np.array([win("T", -d) for d in range(1 - nr, nr)]))
        # cross entries depend on the site sum only (Hankel-like)
        base = int(left[0] + right[0])
        anti = np.array([-win("R", base + s) for s in range(n - 1)])
        mat[:nl, nl:] = anti[np.arange(nl)[:, None] + np.arange(nr)[None, :]]

    # exact Hermitian storage: conjugate the computed triangle downward,
    # diag + upper + upper^dagger summed in place, so that the triangle is
    # the one n x n temporary (a scan holds an earlier C_A during the build)
    upper = np.triu(mat, 1)
    diag = mat.diagonal().real.copy()
    mat[...] = 0.0
    np.fill_diagonal(mat, diag)
    mat += upper
    mat += np.conjugate(upper, out=upper).T
    c_a = CorrelationMatrix(sites=sites, mat=mat, n_left=nl)
    if subsystem == "A":
        return c_a
    c_l, c_r = c_a.blocks()
    return c_l if subsystem == "A_L" else c_r

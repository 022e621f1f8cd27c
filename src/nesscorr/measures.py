"""Spectral evaluation of entropies, mutual information and negativities.

For a Gaussian state every measure is a function of the restricted
correlation matrix C.  Renyi and von Neumann entropies use the occupation
spectrum directly:

    S^(n) = 1/(1-n) sum_lam ln(lam^n + (1-lam)^n),
    S     = sum_lam [-lam ln lam - (1-lam) ln(1-lam)].

The fermionic negativity of a bipartition (first ``size_left`` indices
versus the rest) is built from the partial-time-reversal transform

    Gamma_pm = D_pm (I - 2C) D_pm,   D_pm = diag(pm i, ..., 1, ...),
    C_Xi = [I - (I + Gamma_+ Gamma_-)^(-1) (Gamma_+ + Gamma_-)] / 2,

    E_n = Tr ln[(C_Xi)^(n/2) + (I - C_Xi)^(n/2)]
          + (n/2) Tr ln[C^2 + (I - C)^2]           (n even),

with the fermionic negativity E given by exponent 1/2 and prefactor 1/2.
Since Gamma_+ Gamma_- = D_+ (I - 2C)^2 D_+^*, the occupation term needs
no spectrum of C: with N = dim C,

    Tr ln[C^2 + (I - C)^2] = ln det(I + Gamma_+ Gamma_-) - N ln 2,

which the C_Xi build takes from the matrix its solve already forms.
An equivalent determinant route evaluates E_n as a product over the
angular index gamma = -(n-1)/2, ..., (n-1)/2:

    E_n = sum_gamma ln det(I - C_gamma),
    C_gamma = diag((1 - e^{2 pi i gamma / n}) I_left,
                   (1 + e^{-2 pi i gamma / n}) I_right) C.

Both routes are kept; their agreement is a package-level invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import _xlogx
from .correlation import CorrelationMatrix
from .densela import gen_eigvals, herm_eigvals, lu_logdet
from .errors import BranchError, DimensionError, DomainError, SingularMatrixError, SpectrumError

SPECTRUM_HARD = 1e-6
IMAG_BUDGET = 1e-6


@dataclass
class MeasureResult:
    """A real measure value plus numerical diagnostics."""

    value: float
    imag_residual: float = 0.0
    clamped_count: int = 0


def _clip_to_unit(values: np.ndarray, name: str) -> tuple[np.ndarray, int]:
    """A spectrum that must lie in [0, 1], clipped into it, and the count clipped.

    Rounding pushes edge eigenvalues out by O(eps); a value further out
    than SPECTRUM_HARD is no rounding and raises SpectrumError.
    """
    if values.min() < -SPECTRUM_HARD or values.max() > 1.0 + SPECTRUM_HARD:
        raise SpectrumError(
            f"{name} spectrum [{values.min():.3e}, {values.max():.3e}] "
            f"strays outside [0, 1] beyond {SPECTRUM_HARD}")
    clamped = int(np.sum((values < 0.0) | (values > 1.0)))
    return np.clip(values, 0.0, 1.0), clamped


def _occupation_spectrum(c: CorrelationMatrix) -> tuple[np.ndarray, int]:
    cached = c._spectra.get("occupation")
    if cached is not None:
        return cached
    result = _clip_to_unit(herm_eigvals(c.mat), "correlation")
    c._spectra["occupation"] = result
    return result


def renyi_entropy(c: CorrelationMatrix, n: float) -> MeasureResult:
    """Renyi entropy S^(n) for finite real n > 0, n != 1."""
    if not 0 < n < np.inf or n == 1:  # NaN fails too
        raise DomainError(f"Renyi index n={n} must be positive, finite and != 1")
    lam, clamped = _occupation_spectrum(c)
    value = float(np.sum(np.log(lam ** n + (1.0 - lam) ** n))) / (1.0 - n)
    return MeasureResult(value=value, clamped_count=clamped)


def vn_entropy(c: CorrelationMatrix) -> MeasureResult:
    lam, clamped = _occupation_spectrum(c)
    value = float(np.sum(-_xlogx(lam) - _xlogx(1.0 - lam)))
    return MeasureResult(value=value, clamped_count=clamped)


def mutual_information(c_l: CorrelationMatrix, c_r: CorrelationMatrix,
                       c_a: CorrelationMatrix, n: float | None = None) -> MeasureResult:
    """Mutual information S(A_L) + S(A_R) - S(A); Renyi for n, vN for None."""
    if c_a.dim != c_l.dim + c_r.dim:
        raise DimensionError(
            f"dim(A) = {c_a.dim} != dim(A_L) + dim(A_R) = {c_l.dim + c_r.dim}")
    ent = (lambda c: vn_entropy(c)) if n is None else (lambda c: renyi_entropy(c, n))
    parts = [ent(c_l), ent(c_r), ent(c_a)]
    return MeasureResult(
        value=parts[0].value + parts[1].value - parts[2].value,
        clamped_count=sum(p.clamped_count for p in parts))


def _add_identity(m: np.ndarray) -> np.ndarray:
    """m + I in place, on the diagonal of the C-contiguous square ``m`` only."""
    m.reshape(-1)[::m.shape[0] + 1] += 1.0
    return m


def build_c_xi(c_a: CorrelationMatrix, size_left: int) -> tuple[np.ndarray, float]:
    """Partial-time-reversal transformed correlation matrix C_Xi.

    Returns ``(C_Xi, occupation)`` with the occupation term
    Tr ln[C^2 + (I - C)^2] = ln det(I + Gamma_+ Gamma_-) - n ln 2.
    The first ``size_left`` indices of ``c_a`` must be the left subsystem.
    C_Xi is non-Hermitian in general, but similar to a Hermitian
    matrix, so its spectrum is real and lies in [0, 1].  A spectrum of C
    further than SPECTRUM_HARD outside [0, 1] raises SpectrumError.

    Every step writes into an n x n buffer the call already owns, and no
    dense identity is formed: I - x is computed as 0.0 - x plus 1 on the
    diagonal, which rounds the same, signed zeros included.  Gamma_- is
    dropped before the solve, which runs in two column halves written back
    into the Gamma_+ + Gamma_- buffer.  LU with partial pivoting does not
    depend on the right-hand side and the triangular solves act column by
    column, so each half has the bits of the one full solve.  Counting
    C_A, the solve then holds five complex n x n arrays (C_A, both
    operands, LAPACK's copy of the matrix, and LAPACK's copy and the
    solution of one half); a full solve would hold six.  The ufunc,
    matmul and solve calls are those of the plain expression in
    tests/oracles.py on the same operands, so C_Xi is bit-identical.
    """
    n = c_a.dim
    if not 0 <= size_left <= n:
        raise DimensionError(f"size_left={size_left} outside [0, {n}]")
    d = np.concatenate([1j * np.ones(size_left), np.ones(n - size_left)])
    gamma_p = np.multiply(2.0, c_a.mat)
    _add_identity(np.subtract(0.0, gamma_p, out=gamma_p))
    np.multiply(d[:, None], gamma_p, out=gamma_p)
    np.multiply(gamma_p, d[None, :], out=gamma_p)
    gamma_m = gamma_p.conj().T
    lhs = gamma_p @ gamma_m
    _add_identity(np.add(0.0, lhs, out=lhs))
    x = np.add(gamma_p, gamma_m, out=gamma_p)
    del gamma_m
    half = n // 2
    try:
        for cols in (slice(0, half), slice(half, n)):
            x[:, cols] = np.linalg.solve(lhs, x[:, cols])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"I + Gamma_+ Gamma_- is singular: {exc}") from exc
    occupation = float(lu_logdet(lhs).real - n * np.log(2.0))
    # lhs has eigenvalues 1 + (1 - 2 lam)^2, so with delta = SPECTRUM_HARD every
    # lam lies in [-delta, 1 + delta] iff (1 + (1 + 2 delta)^2) I - lhs is PD
    np.subtract(0.0, lhs, out=lhs)
    lhs.reshape(-1)[::n + 1] += 1.0 + (1.0 + 2.0 * SPECTRUM_HARD) ** 2
    try:
        np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"correlation spectrum strays outside [0, 1] beyond "
                            f"{SPECTRUM_HARD}") from exc
    _add_identity(np.subtract(0.0, x, out=x))
    return np.multiply(0.5, x, out=x), occupation


def xi_spectrum(c_a: CorrelationMatrix, size_left: int) -> tuple[np.ndarray, int, float, float]:
    """Real C_Xi eigenvalues clipped into [0, 1], with diagnostics.

    The C_Xi stage of E and E_n, for the benchmark to pin by name in place
    of ``densela.gen_eigvals``; not in the package's ``__all__``.  Returns
    the eigenvalues, the clipped count, the occupation term
    Tr ln[C^2 + (I - C)^2] of the same build, and max |Im xi| of the
    general eigensolver's output.  The exact spectrum is real in [0, 1]
    (C_Xi is similar to a Hermitian matrix), so the real parts are kept;
    an eigenvalue more than 1e-8 off the real axis is no rounding and
    raises SpectrumError.

    A cut with no correlation across it (the block C_A[:size_left,
    size_left:] is exactly zero, as for a beamsplitter at T = 0, and at
    T = 1 in long-range mode) is taken block by block: with C_A the direct
    sum of C_L and C_R, Gamma_pm, I + Gamma_+ Gamma_- and Gamma_+ + Gamma_-
    are block diagonal, so C_Xi is the direct sum of C_Xi(C_L, all left)
    and C_Xi(C_R, none left), and the log-determinant adds over the blocks.
    """
    cached = c_a._spectra.get(("xi", size_left))
    if cached is not None:
        return cached
    s = size_left
    if 0 < s < c_a.dim and not c_a.mat[:s, s:].any():
        (xi_l, clamped_l, occ_l, imag_l), (xi_r, clamped_r, occ_r, imag_r) = (
            xi_spectrum(CorrelationMatrix(c_a.sites[:s], c_a.mat[:s, :s], s), s),
            xi_spectrum(CorrelationMatrix(c_a.sites[s:], c_a.mat[s:, s:], 0), 0))
        result = (np.concatenate([xi_l, xi_r]), clamped_l + clamped_r,
                  occ_l + occ_r, max(imag_l, imag_r))
    else:
        c_xi, occupation = build_c_xi(c_a, s)
        xi = gen_eigvals(c_xi)
        imag = float(np.max(np.abs(xi.imag)))
        if imag > 1e-8:
            raise SpectrumError(
                f"a C_Xi eigenvalue lies {imag:.3e} off the real axis, beyond 1e-8")
        result = (*_clip_to_unit(xi.real, "C_Xi"), occupation, imag)
    c_a._spectra[("xi", size_left)] = result
    return result


def _xi_negativity(c_a: CorrelationMatrix, size_left: int, n: int) -> MeasureResult:
    """sum_xi ln[xi^(n/2) + (1 - xi)^(n/2)] + (n/2) Tr ln[C^2 + (I - C)^2]."""
    xi, clamped, occupation, imag = xi_spectrum(c_a, size_left)
    half = 0.5 * n  # ** 0.5, 1.0, 2.0 take numpy's sqrt, copy, square
    value = float(np.sum(np.log(xi ** half + (1.0 - xi) ** half))) + half * occupation
    return MeasureResult(value=value, imag_residual=imag, clamped_count=clamped)


def fermionic_negativity(c_a: CorrelationMatrix, size_left: int) -> MeasureResult:
    """Fermionic negativity E (the n -> 1 continuation, exponent 1/2)."""
    return _xi_negativity(c_a, size_left, 1)


def _check_even(n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 2 or n % 2:
        raise DomainError(f"Renyi negativity index n={n} must be an even integer >= 2")
    return int(n)


def renyi_negativity_eig(c_a: CorrelationMatrix, size_left: int, n) -> MeasureResult:
    """Renyi negativity E_n from the spectra of C_Xi and C."""
    return _xi_negativity(c_a, size_left, _check_even(n))


def renyi_negativity_det(c_a: CorrelationMatrix, size_left: int, n) -> MeasureResult:
    """Renyi negativity E_n as a product of gamma-indexed determinants."""
    n = _check_even(n)
    dim = c_a.dim
    if not 0 <= size_left <= dim:
        raise DimensionError(f"size_left={size_left} outside [0, {dim}]")
    gammas = np.arange(n) - (n - 1) / 2.0
    factor = np.empty((dim, dim), dtype=complex)  # I - C_gamma, refilled per gamma
    total = 0j
    for gamma in gammas:
        phase = np.exp(2j * np.pi * gamma / n)
        scale = np.concatenate([
            (1.0 - phase) * np.ones(size_left),
            (1.0 + 1.0 / phase) * np.ones(dim - size_left)])
        np.multiply(scale[:, None], c_a.mat, out=factor)
        _add_identity(np.subtract(0.0, factor, out=factor))
        try:
            total += lu_logdet(factor)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"singular factor I - C_gamma at gamma={gamma}") from exc
    residual = abs(total.imag)
    if residual > IMAG_BUDGET:
        raise BranchError(
            f"determinant-route imaginary residual {residual:.3e} exceeds {IMAG_BUDGET}")
    return MeasureResult(value=float(total.real), imag_residual=residual)

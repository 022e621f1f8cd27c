"""Dense complex linear algebra kernels behind validated contracts.

The heavy lifting (Hermitian eigenvalues, general eigenvalues via
Hessenberg reduction plus shifted QR, LU factorization) is delegated to
LAPACK through numpy/scipy; this module owns the input validation, the
error taxonomy and the log-determinant phase bookkeeping.  Matrices are
plain ``numpy.ndarray`` of complex128, validated by :func:`as_matrix`.
It also owns the one Toeplitz fill (:func:`toeplitz`) that every
scalar and block Toeplitz builder of the package goes through.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DimensionError, SingularMatrixError, SymmetryError

HERMITICITY_TOL = 1e-10
PIVOT_FLOOR = 1e-300


def as_matrix(entries) -> np.ndarray:
    """Validate and return a dense complex matrix.

    Accepts anything array-like; enforces a two-dimensional shape with at
    least one row and column and finite entries.
    """
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DimensionError("matrix entries must be finite")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"square matrix required, got shape {m.shape}")
    return m


def toeplitz(coeffs) -> np.ndarray:
    """Toeplitz matrix of its 2N-1 diagonals, scalar or square blocks.

    ``coeffs[k]`` holds on the lag ``k - (N - 1)`` diagonal: block (p, q)
    is ``coeffs[p - q + N - 1]``.  Blocks of shape (b, b) give an Nb x Nb
    matrix.  The entries are gathered, never recomputed, so they keep the
    dtype and the bits of ``coeffs``.
    """
    coeffs = np.asarray(coeffs)
    size = (len(coeffs) + 1) // 2
    idx = np.arange(size)
    out = coeffs[idx[:, None] - idx[None, :] + size - 1]
    if out.ndim == 2:
        return out
    b = coeffs.shape[1]
    return out.transpose(0, 2, 1, 3).reshape(size * b, size * b)


def herm_eigvals(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    Hermiticity is checked, never silently repaired: an asymmetric
    correlation matrix signals a bug in whatever built it.  The exact
    test allocates nothing; only a matrix that fails it pays for the
    n x n temporaries of max |m - m^dagger|, which may still be within
    ``HERMITICITY_TOL``.
    """
    m = _require_square(m)
    if not scipy.linalg.ishermitian(m):
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_TOL:
            raise SymmetryError(
                f"matrix is not Hermitian: max |m - m^dagger| = {dev:.3e}",
                max_deviation=float(dev))
    return np.linalg.eigvalsh(m)


def gen_eigvals(m) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a general complex matrix.

    Ordering is unspecified.  Computed by Hessenberg reduction followed by
    shifted QR iteration (LAPACK zgeev).
    """
    m = _require_square(m)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR sweep cap exhausted
        raise ConvergenceError(f"eigenvalue QR iteration failed: {exc}") from exc


def lu_logdet(m) -> complex:
    """log(det(m)) from an LU factorization with partial pivoting.

    The real part is exactly ``log |det m|``; the imaginary part carries
    the accumulated pivot phases plus the permutation sign, folded into
    (-pi, pi].
    """
    m = _require_square(m)
    lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    diag = np.diag(lu)
    small = np.abs(diag) <= PIVOT_FLOOR
    if np.any(small):
        idx = int(np.argmax(small))
        raise SingularMatrixError(
            f"singular pivot {diag[idx]!r} at index {idx}", pivot_index=idx)
    log_abs = float(np.sum(np.log(np.abs(diag))))
    swaps = int(np.sum(piv != np.arange(len(piv))))
    phase = float(np.sum(np.angle(diag))) + np.pi * (swaps % 2)
    phase = (phase + np.pi) % (2.0 * np.pi) - np.pi
    if phase == -np.pi:  # keep the principal branch convention (-pi, pi]
        phase = np.pi
    return complex(log_abs, phase)

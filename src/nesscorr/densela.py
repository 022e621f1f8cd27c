"""Dense complex linear algebra kernels behind validated contracts.

The heavy lifting (Hermitian eigenvalues, general eigenvalues via
Hessenberg reduction plus shifted QR, LU factorization) is delegated to
LAPACK through ``numpy.linalg`` alone: the package needs no other
numerical library at run time.  This module owns the input validation,
the error taxonomy and the log-determinant phase bookkeeping.  Matrices
are plain ``numpy.ndarray`` of complex128, validated by :func:`as_matrix`.
It also owns the one Toeplitz view (:func:`toeplitz`) that every
Toeplitz builder of the package goes through.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, DimensionError, SingularMatrixError, SymmetryError

HERMITICITY_TOL = 1e-10
_HERMITICITY_BLOCK = 64


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
    """N x N Toeplitz matrix of its 2N-1 diagonals.

    ``coeffs[k]`` holds on the lag ``k - (N - 1)`` diagonal: entry (p, q)
    is ``coeffs[p - q + N - 1]``.  Row p is ``coeffs[p:p + N]`` reversed,
    so the matrix is a read-only sliding-window view of ``coeffs``: no
    N x N allocation, the entries keep the dtype and the bits of
    ``coeffs``, and a caller that writes must ``.copy()`` it.
    """
    coeffs = np.asarray(coeffs)
    size = (len(coeffs) + 1) // 2
    return sliding_window_view(coeffs, size)[:size, ::-1]


def herm_eigvals(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    Hermiticity is checked, never silently repaired: an asymmetric
    correlation matrix signals a bug in whatever built it.  The exact
    test compares one block of 64 rows with the conjugate of the matching
    columns at a time, so its temporaries are 64 x n, never n x n; only a
    matrix that fails it pays for the n x n temporaries of
    max |m - m^dagger|, which may still be within ``HERMITICITY_TOL``.
    """
    m = _require_square(m)
    b = _HERMITICITY_BLOCK
    if not all(np.array_equal(m[i:i + b], m[:, i:i + b].conj().T)
               for i in range(0, m.shape[0], b)):
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_TOL:
            raise SymmetryError(
                f"matrix is not Hermitian: max |m - m^dagger| = {dev:.3e}")
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

    ``np.linalg.slogdet`` factors ``m`` (LAPACK zgetrf).  The real part is
    its ``log |det m|``.  The imaginary part is the angle of its
    unit-modulus sign (the product of the pivot phases and the permutation
    sign), in (-pi, pi]: an angle of -pi is folded to +pi.

    ``m`` is singular, and ``SingularMatrixError`` is raised, exactly when
    the factorization meets a pivot that is exactly zero.  No pivot floor
    applies: any nonzero pivot, however small (1e-305, say), gives a
    finite log-determinant.
    """
    m = _require_square(m)
    sign, log_abs = np.linalg.slogdet(m)
    if sign == 0 or log_abs == -np.inf:
        raise SingularMatrixError("singular matrix: an exactly zero pivot")
    phase = float(np.angle(sign))
    if phase == -np.pi:  # keep the principal branch convention (-pi, pi]
        phase = np.pi
    return complex(float(log_abs), phase)

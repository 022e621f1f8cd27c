"""Kernels of the dense linear algebra layer against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from oracles import lu_factor_logdet, toeplitz_gather

from nesscorr.densela import (HERMITICITY_TOL, as_matrix, gen_eigvals, herm_eigvals,
                              lu_logdet, toeplitz)
from nesscorr.errors import DimensionError, SingularMatrixError, SymmetryError


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def cofactor_det(m):
    """Recursive cofactor expansion along the first row (oracle, n <= 10)."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def det_via_lu(mat):
    sign, logabs = np.linalg.slogdet(mat)
    return sign * np.exp(logabs)


class TestToeplitz:
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_matches_double_loop(self, size):
        rng = np.random.default_rng(size)
        coeffs = (rng.standard_normal(2 * size - 1)
                  + 1j * rng.standard_normal(2 * size - 1))
        want = np.empty((size, size), dtype=complex)
        for p in range(size):
            for q in range(size):
                want[p, q] = coeffs[p - q + size - 1]
        got = toeplitz(coeffs)
        assert got.dtype == coeffs.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["complex", "real", "int"])
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 257])
    def test_equals_the_index_gather_bit_for_bit(self, kind, size):
        rng = np.random.default_rng(size)
        coeffs = {
            "complex": rng.standard_normal(2 * size - 1)
            + 1j * rng.standard_normal(2 * size - 1),
            "real": rng.standard_normal(2 * size - 1),
            "int": rng.integers(-50, 50, 2 * size - 1),
        }[kind]
        if kind != "int":  # signed zeros keep their bits
            coeffs.real[::3] = -0.0
        if kind == "complex":
            coeffs.imag[1::3] = -0.0
        got, want = toeplitz(coeffs), toeplitz_gather(coeffs)
        assert got.dtype == want.dtype
        # a read-only view of the diagonals, no N x N copy
        assert np.shares_memory(got, coeffs)
        with pytest.raises(ValueError):
            got[0, 0] = 0
        assert got.tobytes() == want.tobytes()

    def test_holds_no_temporary_beyond_the_result(self):
        n = 512
        coeffs = np.random.default_rng(0).standard_normal(2 * n - 1) + 0j
        tracemalloc.start()
        try:
            toeplitz(coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * n * n * coeffs.itemsize


class TestHermEigvals:
    def test_one_by_one(self):
        assert herm_eigvals([[0.5]]) == pytest.approx([0.5])

    def test_pauli_x(self):
        np.testing.assert_allclose(herm_eigvals([[0, 1], [1, 0]]), [-1.0, 1.0])

    def test_matches_charpoly_bisection_oracle(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(8, rng)
        got = herm_eigvals(h)

        def charpoly(lam):
            return np.real(det_via_lu(lam * np.eye(8) - h))

        lo, hi = got.min() - 1.0, got.max() + 1.0
        grid = np.linspace(lo, hi, 4001)
        vals = np.array([charpoly(x) for x in grid])
        roots = []
        for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
            if fa == 0.0:
                roots.append(a)
                continue
            if fa * fb < 0:
                x0, x1 = a, b
                for _ in range(80):
                    mid = 0.5 * (x0 + x1)
                    if charpoly(x0) * charpoly(mid) <= 0:
                        x1 = mid
                    else:
                        x0 = mid
                roots.append(0.5 * (x0 + x1))
        np.testing.assert_allclose(sorted(roots), got, atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            herm_eigvals(np.ones((2, 3)))

    def test_rejects_non_hermitian_with_deviation(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-5j, 0.0]])
        with pytest.raises(SymmetryError) as err:
            herm_eigvals(m)
        assert f"{np.max(np.abs(m - m.conj().T)):.3e}" in str(err.value)

    def test_tolerance_applies_to_a_matrix_that_is_not_exactly_hermitian(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(6, rng)
        near = h.copy()
        near[4, 1] += 5e-11
        np.testing.assert_allclose(herm_eigvals(near), herm_eigvals(h), atol=1e-10)
        far = h.copy()
        far[4, 1] += 1e-9
        with pytest.raises(SymmetryError) as err:
            herm_eigvals(far)
        assert f"{np.max(np.abs(far - far.conj().T)):.3e}" in str(err.value)

    def test_rejects_nan(self):
        with pytest.raises(DimensionError):
            herm_eigvals([[np.nan, 0], [0, 1]])

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("delta", [0.0, 3e-11, 1e-9])
    def test_blockwise_check_matches_full_matrix_formula(self, n, delta):
        # one asymmetric entry in the last row block (the diagonal at n = 1)
        h = random_hermitian(n, np.random.default_rng(n))
        h[n - 1, 0] += 1j * delta if n == 1 else delta
        exact = np.array_equal(h, h.conj().T)
        dev = np.max(np.abs(h - h.conj().T))
        assert exact == (delta == 0.0)
        if dev > HERMITICITY_TOL:
            with pytest.raises(SymmetryError) as err:
                herm_eigvals(h)
            assert f"{dev:.3e}" in str(err.value)
        else:
            assert np.array_equal(herm_eigvals(h), np.linalg.eigvalsh(h))

    def test_exact_check_holds_no_n_by_n_temporary(self, monkeypatch):
        n = 512
        h = random_hermitian(n, np.random.default_rng(0))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: None)
        tracemalloc.start()
        try:
            herm_eigvals(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * n * n * h.itemsize

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_and_frobenius_sums(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(12, rng)
        lam = herm_eigvals(h)
        assert np.sum(lam) == pytest.approx(np.trace(h).real, rel=1e-9)
        assert np.sum(lam ** 2) == pytest.approx(
            np.linalg.norm(h, "fro") ** 2, rel=1e-9)


class TestGenEigvals:
    def test_nilpotent(self):
        np.testing.assert_allclose(gen_eigvals([[0, 1], [0, 0]]), [0, 0])

    def test_rotation_generator(self):
        got = sorted(gen_eigvals([[0, -1], [1, 0]]), key=lambda z: z.imag)
        np.testing.assert_allclose(got, [-1j, 1j], atol=1e-12)

    def test_trace_and_determinant_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lam = gen_eigvals(m)
        assert np.sum(lam) == pytest.approx(np.trace(m), rel=1e-9)
        assert np.prod(lam) == pytest.approx(det_via_lu(m), rel=1e-9)

    def test_agrees_with_herm_eigvals_on_hermitian(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(9, rng)
        general = np.sort_complex(gen_eigvals(h))
        np.testing.assert_allclose(general.imag, 0.0, atol=1e-8)
        np.testing.assert_allclose(np.sort(general.real), herm_eigvals(h),
                                   atol=1e-8)


class TestLuLogdet:
    def test_identity(self):
        assert lu_logdet(np.eye(5)) == pytest.approx(0.0)

    def test_diag_2_3(self):
        assert lu_logdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0))

    def test_negative_determinant_phase(self):
        assert lu_logdet(np.diag([-1.0, 1.0])).imag == pytest.approx(np.pi)

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_cofactor_expansion(self, n):
        rng = np.random.default_rng(5 + n)
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             + 3.0 * np.eye(n))
        expected = cofactor_det(m)
        assert np.exp(lu_logdet(m)) == pytest.approx(expected, rel=1e-8)

    def test_exact_zero_pivot_is_singular(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 1.0
        with pytest.raises(SingularMatrixError):
            lu_logdet(m)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_product_rule_modulo_2pi(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lhs = lu_logdet(a @ b)
        rhs = lu_logdet(a) + lu_logdet(b)
        assert lhs.real == pytest.approx(rhs.real, rel=1e-9, abs=1e-9)
        wrap = (lhs.imag - rhs.imag) / (2 * np.pi)
        assert wrap == pytest.approx(round(wrap), abs=1e-9)

    @pytest.mark.parametrize("n", [5, 17, 64, 300])
    def test_matches_scipy_lu_oracle_with_pivoting(self, n):
        rng = np.random.default_rng(100 + n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want, zero = lu_factor_logdet(m)
        assert zero is None
        got = lu_logdet(m)
        assert got.real == pytest.approx(want.real, rel=1e-12, abs=1e-12)
        wrap = (got.imag - want.imag + np.pi) % (2 * np.pi) - np.pi
        assert abs(wrap) <= 1e-10
        assert -np.pi < got.imag <= np.pi

    @pytest.mark.parametrize("m", [
        np.array([[complex(-1.0, -0.0)]]),
        np.array([[0, complex(0, -1), 0], [0, 0, complex(0, -1)], [1, 0, 0]]),
        np.diag(np.exp(-0.5j * np.pi * np.ones(2))),
    ], ids=["minus_one", "pivoted", "two_quarter_turns"])
    def test_phase_minus_pi_folds_to_pi(self, m):
        want, _ = lu_factor_logdet(m)
        assert want.imag == np.pi
        assert lu_logdet(m).imag == np.pi

    def test_tiny_nonzero_pivot_is_not_singular(self):
        got = lu_logdet(np.diag([1e-305, 1.0]))
        assert got == pytest.approx(complex(np.log(1e-305), 0.0), rel=1e-15)

    @pytest.mark.parametrize("n", [6, 65, 200])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_zero_column_is_singular_like_oracle(self, n, where):
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        rng = np.random.default_rng(n + k)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[:, k] = 0.0
        _, zero = lu_factor_logdet(m)
        assert zero == k
        with pytest.raises(SingularMatrixError):
            lu_logdet(m)

    @pytest.mark.parametrize("n", [6, 65, 200])
    @pytest.mark.parametrize("where", ["second", "middle", "last"])
    def test_duplicate_column_is_singular_like_oracle(self, n, where):
        # m = P L U in dyadic entries, |l| <= 1/2: partial pivoting recovers
        # P, L and U in exact arithmetic, so u_kk = u_{k,k-1} = 0 is an exact
        # zero pivot when column k of U repeats column k - 1.
        k = {"second": 1, "middle": n // 2, "last": n - 1}[where]
        rng = np.random.default_rng(n + k)
        lower = np.tril(rng.choice([0, 0, 0, 0, 0.5, -0.5j], (n, n)), -1)
        upper = np.triu(rng.choice([0, 1, -1, 1j, -1j], (n, n)), 1)
        upper += np.diag(rng.choice([4, -4, 4j, -4j], n))
        upper[:, k] = upper[:, k - 1]
        m = np.eye(n)[rng.permutation(n)] @ (np.eye(n) + lower) @ upper
        assert np.array_equal(m[:, k], m[:, k - 1])
        _, zero = lu_factor_logdet(m)
        assert zero == k
        with pytest.raises(SingularMatrixError):
            lu_logdet(m)


def test_as_matrix_rejects_empty():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 3)))

"""Correlation kernels against brute-force quadrature and structure checks."""

import tracemalloc

import numpy as np
import pytest

import oracles
from nesscorr.correlation import (CorrelationMatrix, _fermi_kernel, _hermitian_fill,
                                  build_corr_matrix, corr_entry_full)
from nesscorr.densela import herm_eigvals
from nesscorr.errors import DimensionError, DomainError
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite

BIAS = BiasConfig(np.pi / 2 + 0.2, np.pi / 2)


def longrange_entry(model, bias, j, m):
    """<c_j^dag c_m> read from the long-range C_A of intervals holding j and m."""
    neg = [s for s in (j, m) if s < 0] or [-1]
    pos = [s for s in (j, m) if s > 0] or [1]
    g = Geometry(d_l=-max(neg) - 1, ell_l=max(neg) - min(neg) + 1,
                 d_r=min(pos) - 1, ell_r=max(pos) - min(pos) + 1)
    c = build_corr_matrix(model, bias, g, "A")
    index = {site: p for p, site in enumerate(c.sites)}
    return c.mat[index[j], index[m]]


def trapezoid_longrange(model, bias, j, m, points=100_001):
    """Dense-trapezoid oracle of the long-range kernel cases."""
    if j > 0 and m > 0:
        ks = np.linspace(-bias.kf_r, bias.kf_r, points)
        sea = np.trapezoid(np.exp(-1j * (j - m) * ks), ks) / (2 * np.pi)
        kw = np.linspace(bias.kf_r, bias.kf_l, points)
        win = np.trapezoid(model.transmission(np.abs(kw))
                           * np.exp(-1j * (j - m) * kw), kw) / (2 * np.pi)
        return sea + win
    if j < 0 and m < 0:
        ks = np.linspace(-bias.kf_l, bias.kf_l, points)
        sea = np.trapezoid(np.exp(-1j * (j - m) * ks), ks) / (2 * np.pi)
        kw = np.linspace(bias.kf_l, bias.kf_r, points)
        win = np.trapezoid(model.transmission(np.abs(kw))
                           * np.exp(1j * (j - m) * kw), kw) / (2 * np.pi)
        return sea + win
    if j > 0 and m < 0:
        kw = np.linspace(bias.kf_r, bias.kf_l, points)
        r_l, t_l, _, _ = model.amplitudes(np.abs(kw))
        return np.trapezoid(np.conj(t_l) * r_l * np.exp(-1j * (j + m) * kw),
                            kw) / (2 * np.pi)
    kw = np.linspace(bias.kf_l, bias.kf_r, points)
    _, _, r_r, t_r = model.amplitudes(np.abs(kw))
    return np.trapezoid(np.conj(t_r) * r_r * np.exp(1j * (j + m) * kw),
                        kw) / (2 * np.pi)


def trapezoid_full(model, bias, j, m, points=100_001):
    """Dense-trapezoid oracle of the complete scattering-state mode sum."""
    def left_bra(k, site):
        r_l, t_l, _, _ = model.amplitudes(k)
        if site < 0:
            return np.exp(1j * k * site) + r_l * np.exp(-1j * k * site)
        return t_l * np.exp(1j * k * site)

    def right_bra(k, site):
        _, _, r_r, t_r = model.amplitudes(k)
        if site < 0:
            return t_r * np.exp(-1j * k * site)
        return np.exp(-1j * k * site) + r_r * np.exp(1j * k * site)

    total = 0j
    if bias.kf_l > 0:
        ks = np.linspace(1e-12, bias.kf_l, points)
        total += np.trapezoid(np.conj(left_bra(ks, j)) * left_bra(ks, m),
                              ks) / (2 * np.pi)
    if bias.kf_r > 0:
        ks = np.linspace(1e-12, bias.kf_r, points)
        total += np.trapezoid(np.conj(right_bra(ks, j)) * right_bra(ks, m),
                              ks) / (2 * np.pi)
    return total


@pytest.mark.parametrize("kf", [0.0, 0.3, np.pi / 2, np.pi / 2 + 0.2, np.pi])
def test_fermi_kernel_array_equals_scalar_formula_bitwise(kf):
    # the scan reference rows pin every bit of C_A, so the array kernel
    # must round exactly as the per-lag scalar formula does
    scalar = np.array([kf / np.pi if d == 0 else np.sin(kf * d) / (np.pi * d)
                       for d in range(-1023, 1024)])
    got = _fermi_kernel(kf, np.arange(-1023, 1024))
    assert got.dtype == np.float64
    assert got.tobytes() == scalar.tobytes()


class TestLongRangeEntries:
    def test_trivial_impurity_kills_cross_block(self):
        model = ConstantS.beamsplitter(1.0)
        assert longrange_entry(model, BIAS, 9, -4) == 0

    def test_diagonal_right_side_two_windows(self):
        model = ConstantS.beamsplitter(0.4)
        want = (2 * BIAS.kf_r + 0.4 * (BIAS.kf_l - BIAS.kf_r)) / (2 * np.pi)
        got = longrange_entry(model, BIAS, 11, 11)
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("j,m", [(8, 5), (-3, -6), (7, -4), (-2, 9)])
    def test_single_site_matches_trapezoid_oracle(self, j, m):
        model = SingleSite(eps0=1.0)
        got = longrange_entry(model, BIAS, j, m)
        want = trapezoid_longrange(model, BIAS, j, m)
        assert got == pytest.approx(want, abs=1e-8)

    def test_reversed_bias_same_side(self):
        flipped = BiasConfig(np.pi / 2, np.pi / 2 + 0.2)
        model = SingleSite(eps0=0.8)
        got = longrange_entry(model, flipped, 6, 3)
        want = trapezoid_longrange(model, flipped, 6, 3)
        assert got == pytest.approx(want, abs=1e-8)


class TestFullEntries:
    def test_homogeneous_unbiased_reduces_to_sine_kernel(self):
        model = ConstantS.beamsplitter(1.0)
        bias = BiasConfig(1.1, 1.1)
        for j, m in ((4, 9), (-3, 7)):
            want = np.sin(1.1 * (j - m)) / (np.pi * (j - m))
            assert corr_entry_full(model, bias, j, m) == pytest.approx(
                want, abs=1e-10)
        assert corr_entry_full(model, bias, 5, 5) == pytest.approx(
            1.1 / np.pi, abs=1e-10)

    @pytest.mark.parametrize("j,m", [(5, -5), (3, 8), (-2, -9), (-4, 6)])
    def test_single_site_matches_trapezoid_oracle(self, j, m):
        model = SingleSite(eps0=1.0)
        got = corr_entry_full(model, BIAS, j, m)
        want = trapezoid_full(model, BIAS, j, m)
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("j, m", [(0, 5), ([-3, 4], [2, 0])])
    def test_site_0_is_the_impurity(self, j, m):
        with pytest.raises(DomainError, match=r"^sites \((0, 5|4, 0)\): site 0 is the impurity$"):
            corr_entry_full(SingleSite(eps0=1.0), BIAS, j, m)

    def test_hermitian_pair(self):
        model = SingleSite(eps0=1.4)
        a = corr_entry_full(model, BIAS, 7, -3)
        b = corr_entry_full(model, BIAS, -3, 7)
        assert a == pytest.approx(np.conj(b), abs=1e-10)

    def test_converges_to_longrange_kernel_at_large_distance(self):
        model = SingleSite(eps0=1.0)
        d = 400
        lr = longrange_entry(model, BIAS, -d, -d)
        full = corr_entry_full(model, BIAS, -d, -d)
        assert abs(full - lr) <= 1e-2


class TestBuildMatrix:
    def test_minimal_union_is_valid(self):
        g = Geometry(d_l=3, ell_l=1, d_r=3, ell_r=1)
        c = build_corr_matrix(ConstantS.beamsplitter(0.5), BIAS, g, "A")
        lam = herm_eigvals(c.mat)
        assert c.dim == 2
        assert lam.min() >= -1e-8 and lam.max() <= 1 + 1e-8

    def test_left_block_is_toeplitz_and_distance_free(self):
        model = SingleSite(eps0=0.9)
        g1 = Geometry(d_l=5, ell_l=6, d_r=2, ell_r=3)
        g2 = Geometry(d_l=500, ell_l=6, d_r=2, ell_r=3)
        c1 = build_corr_matrix(model, BIAS, g1, "A_L")
        c2 = build_corr_matrix(model, BIAS, g2, "A_L")
        np.testing.assert_allclose(c1.mat, c2.mat, atol=1e-12)
        for i in range(c1.dim - 1):
            for j in range(c1.dim - 1):
                assert c1.mat[i, j] == pytest.approx(c1.mat[i + 1, j + 1],
                                                     abs=1e-12)

    def test_cross_block_constant_on_antidiagonals(self):
        model = SingleSite(eps0=1.2)
        g = Geometry(d_l=5, ell_l=5, d_r=3, ell_r=7)
        c = build_corr_matrix(model, BIAS, g, "A")
        cross = c.mat[:g.ell_l, g.ell_l:]
        for s in range(g.ell_l + g.ell_r - 2):
            vals = [cross[q, p] for q in range(g.ell_l)
                    for p in range(g.ell_r) if q + p == s]
            np.testing.assert_allclose(vals, vals[0], atol=1e-12)

    def test_trivial_impurity_block_diagonal(self):
        g = Geometry(d_l=2, ell_l=4, d_r=3, ell_r=5)
        c = build_corr_matrix(ConstantS.beamsplitter(1.0), BIAS, g, "A")
        assert np.max(np.abs(c.mat[:4, 4:])) <= 1e-14

    def test_no_bias_cross_block_vanishes(self):
        bias = BiasConfig(1.3, 1.3)
        g = Geometry(d_l=2, ell_l=4, d_r=2, ell_r=4)
        c = build_corr_matrix(ConstantS.beamsplitter(0.37), bias, g, "A")
        assert np.max(np.abs(c.mat[:4, 4:])) <= 1e-12

    @pytest.mark.parametrize("subsystem,mode", [
        ("A", "longrange"), ("A_L", "longrange"), ("A", "full"),
    ])
    def test_hermiticity_and_spectrum(self, subsystem, mode):
        model = SingleSite(eps0=1.0)
        g = Geometry(d_l=6, ell_l=5, d_r=4, ell_r=6)
        c = build_corr_matrix(model, BIAS, g, subsystem, mode)
        assert np.max(np.abs(c.mat - c.mat.conj().T)) == 0.0
        lam = herm_eigvals(c.mat)
        assert lam.min() >= -1e-8 and lam.max() <= 1 + 1e-8

    def test_full_mode_agrees_with_entry_function(self):
        model = SingleSite(eps0=0.7)
        g = Geometry(d_l=5, ell_l=2, d_r=7, ell_r=2)
        c = build_corr_matrix(model, BIAS, g, "A", "full")
        sites = list(c.sites)
        assert sites == [-7, -6, 8, 9]
        for p, jp in enumerate(sites):
            for q, mq in enumerate(sites):
                if q < p:
                    continue
                want = corr_entry_full(model, BIAS, jp, mq)
                assert c.mat[p, q] == (want.real if p == q else want)

    def test_offset_shift_invariance_longrange(self):
        model = SingleSite(eps0=1.1)
        g1 = Geometry(d_l=9, ell_l=4, d_r=5, ell_r=6)
        g2 = Geometry(d_l=26, ell_l=4, d_r=22, ell_r=6)
        c1 = build_corr_matrix(model, BIAS, g1, "A")
        c2 = build_corr_matrix(model, BIAS, g2, "A")
        np.testing.assert_allclose(c1.mat, c2.mat, atol=1e-12)


class TestHermitianStorage:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 150])
    def test_strip_fill_equals_the_triangle_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # signed zeros in both triangles and on the diagonal, whose imaginary
        # parts are nonzero elsewhere
        mat.real[rng.random((n, n)) < 0.2] = -0.0
        mat.imag[rng.random((n, n)) < 0.2] = -0.0
        mat[rng.random((n, n)) < 0.1] = complex(-0.0, -0.0)
        got, want = mat.copy(), mat.copy()
        _hermitian_fill(got)
        oracles.hermitian_fill_triu(want)
        assert got.tobytes() == want.tobytes()

    def test_longrange_build_across_strips_matches_the_oracle(self):
        # 129 sites: two full strips and a partial one, unequal sides
        model = ConstantS.beamsplitter(0.37)
        g = Geometry(d_l=30, ell_l=70, d_r=25, ell_r=59)
        got = build_corr_matrix(model, BIAS, g, "A").mat
        assert got.tobytes() == oracles.build_corr_matrix(model, BIAS, g).tobytes()

    def test_longrange_build_holds_no_second_matrix(self):
        # C_A itself; the Toeplitz side blocks are views written straight in
        g = Geometry(d_l=512, ell_l=512, d_r=512, ell_r=512)
        n = g.ell_l + g.ell_r
        tracemalloc.start()
        try:
            build_corr_matrix(ConstantS.beamsplitter(0.3), BIAS, g, "A")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * n * n * 16


class TestBlocks:
    GEOMETRY = Geometry(d_l=3, ell_l=3, d_r=5, ell_r=4)

    @pytest.mark.parametrize("mode", ["longrange", "full"])
    def test_blocks_are_views_with_site_maps(self, mode):
        g = self.GEOMETRY
        c_a = build_corr_matrix(SingleSite(eps0=0.7), BIAS, g, "A", mode)
        c_l, c_r = c_a.blocks()
        assert np.shares_memory(c_l.mat, c_a.mat)
        assert np.shares_memory(c_r.mat, c_a.mat)
        assert list(c_l.sites) == list(g.left_sites()) and c_l.n_left == g.ell_l
        assert list(c_r.sites) == list(g.right_sites()) and c_r.n_left == 0
        assert np.array_equal(c_l.mat, c_a.mat[:g.ell_l, :g.ell_l])
        assert np.array_equal(c_r.mat, c_a.mat[g.ell_l:, g.ell_l:])

    @pytest.mark.parametrize("sites, dim, n_left, match", [
        ([1, 2], 2, -1, "n_left = -1 lies outside"),
        ([1, 2], 2, 3, "n_left = 3 lies outside"),
        ([], 0, 0, "site map is empty"),
        ([1], 2, 0, "site map of length 1 does not match"),
    ])
    def test_site_map_is_checked(self, sites, dim, n_left, match):
        with pytest.raises(DimensionError, match=match):
            CorrelationMatrix(sites=sites, mat=np.eye(dim) / 2, n_left=n_left)

    def test_blocks_of_a_side_matrix_raise(self):
        # a side matrix has no second side: one of its blocks is empty
        c_r = build_corr_matrix(SingleSite(eps0=0.7), BIAS, self.GEOMETRY, "A_R")
        with pytest.raises(DimensionError, match="site map is empty"):
            c_r.blocks()

    @pytest.mark.parametrize("mode", ["longrange", "full"])
    @pytest.mark.parametrize("subsystem", ["A_L", "A_R"])
    def test_side_matrix_matches_entry_oracle(self, subsystem, mode):
        model = SingleSite(eps0=0.7)
        g = self.GEOMETRY
        c = build_corr_matrix(model, BIAS, g, subsystem, mode)
        sites = g.left_sites() if subsystem == "A_L" else g.right_sites()
        assert list(c.sites) == list(sites)
        assert c.n_left == (len(sites) if subsystem == "A_L" else 0)
        if mode == "full":
            upper = np.array([[corr_entry_full(model, BIAS, j, m) if q >= p else 0.0
                               for q, m in enumerate(sites)]
                              for p, j in enumerate(sites)])
            # Hermitian storage: real diagonal, lower triangle conjugated
            want = np.triu(upper, 1) + np.triu(upper, 1).conj().T + np.diag(upper.diagonal().real)
        else:
            side = slice(None, g.ell_l) if subsystem == "A_L" else slice(g.ell_l, None)
            want = oracles.build_corr_matrix(model, BIAS, g)[side, side]
        assert c.mat.tobytes() == want.tobytes()

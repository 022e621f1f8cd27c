"""Spectral measures: scalar oracles, route equivalence, vanishing theorems."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nesscorr.correlation import CorrelationMatrix, build_corr_matrix
from nesscorr import measures as measures_module
from nesscorr.densela import gen_eigvals, lu_logdet
from nesscorr.errors import DimensionError, DomainError, SpectrumError
from nesscorr.harness import geometry_at, parse_config
from nesscorr.measures import (
    build_c_xi,
    fermionic_negativity,
    mutual_information,
    renyi_entropy,
    renyi_negativity_det,
    renyi_negativity_eig,
    vn_entropy,
)
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite
from oracles import c_xi_expression, occupation_log_sum_mp, xi_negativity_complex

BIAS = BiasConfig(np.pi / 2 + 0.2, np.pi / 2)
LENGTH_SCAN_CFG = (Path(__file__).resolve().parent.parent / "configs"
                   / "symmetric_length_scan.cfg")


def diag_corr(values, n_left=0):
    values = np.asarray(values, dtype=float)
    sites = np.arange(1, len(values) + 1)
    return CorrelationMatrix(sites=sites, mat=np.diag(values).astype(complex),
                             n_left=n_left)


def built_union(model=None, bias=BIAS, ell_l=6, ell_r=6, d_l=4, d_r=4,
                mode="longrange"):
    model = model or ConstantS.beamsplitter(0.5)
    g = Geometry(d_l=d_l, ell_l=ell_l, d_r=d_r, ell_r=ell_r)
    return build_corr_matrix(model, bias, g, "A", mode)


class TestEntropies:
    def test_renyi_single_eigenvalue_half(self):
        assert renyi_entropy(diag_corr([0.5]), 2).value == pytest.approx(
            np.log(2.0))

    def test_renyi_pure_state_eigenvalues(self):
        assert renyi_entropy(diag_corr([0.0, 1.0]), 3).value == pytest.approx(0.0)

    def test_renyi_scalar_oracle(self):
        # (1/(1-3)) ln(0.3^3 + 0.7^3) computed independently
        want = np.log(0.3 ** 3 + 0.7 ** 3) / (1 - 3)
        assert want == pytest.approx(0.4971, abs=5e-5)
        assert renyi_entropy(diag_corr([0.3]), 3).value == pytest.approx(want)

    def test_vn_half(self):
        assert vn_entropy(diag_corr([0.5])).value == pytest.approx(np.log(2.0))

    def test_vn_pure(self):
        assert vn_entropy(diag_corr([0.0, 1.0])).value == pytest.approx(0.0)

    def test_vn_scalar_oracle(self):
        want = -0.3 * np.log(0.3) - 0.7 * np.log(0.7)
        assert want == pytest.approx(0.61086, abs=5e-6)
        assert vn_entropy(diag_corr([0.3])).value == pytest.approx(want)

    def test_renyi_rejects_bad_index(self):
        with pytest.raises(DomainError):
            renyi_entropy(diag_corr([0.5]), 1)
        with pytest.raises(DomainError):
            renyi_entropy(diag_corr([0.5]), -2)

    def test_spectrum_error_outside_window(self):
        # occupations 0.5 on the diagonal, spectrum {-1e-4, 1 + 1e-4}
        bad = CorrelationMatrix(sites=[1, 2], mat=[[0.5, 0.5 + 1e-4], [0.5 + 1e-4, 0.5]],
                                n_left=0)
        with pytest.raises(SpectrumError):
            renyi_entropy(bad, 2)

    def test_renyi_brackets_vn_near_one(self):
        c = built_union()
        vn = vn_entropy(c).value
        lo = renyi_entropy(c, 1 - 1e-4).value
        hi = renyi_entropy(c, 1 + 1e-4).value
        assert min(lo, hi) <= vn <= max(lo, hi)
        assert 0.5 * (lo + hi) == pytest.approx(vn, abs=1e-3)

    def test_clamp_count_reported(self):
        c = diag_corr([-1e-8])
        r = renyi_entropy(c, 2)
        assert r.clamped_count == 1 and r.value == pytest.approx(0.0, abs=1e-7)

    def test_matrix_is_immutable_so_spectra_stay_current(self):
        c = diag_corr([0.3, 0.6], n_left=1)
        first = renyi_entropy(c, 2).value
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.mat = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            c.mat[0, 0] = 0.5
        for block in c.blocks():
            with pytest.raises(ValueError):
                block.mat[...] = 0.5
        assert renyi_entropy(c, 2).value == first
        # the read-only view is no copy and leaves the caller's array writable
        values = np.diag([0.3, 0.6]).astype(complex)
        given = CorrelationMatrix(sites=[1, 2], mat=values, n_left=0)
        assert np.shares_memory(given.mat, values) and values.flags.writeable
        assert renyi_entropy(diag_corr([0.5, 0.5]), 2).value == pytest.approx(2 * np.log(2))


class TestMutualInformation:
    def test_block_diagonal_is_uncorrelated(self):
        rng = np.random.default_rng(0)
        occ_l, occ_r = rng.uniform(0.1, 0.9, 3), rng.uniform(0.1, 0.9, 4)
        c_l, c_r = diag_corr(occ_l), diag_corr(occ_r)
        c_a = diag_corr(np.concatenate([occ_l, occ_r]), n_left=3)
        for n in (None, 2, 3):
            assert mutual_information(c_l, c_r, c_a, n).value == pytest.approx(
                0.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mutual_information(diag_corr([0.5]), diag_corr([0.5]),
                               diag_corr([0.5, 0.5, 0.5]))

    def test_trivial_impurity_mi_vanishes(self):
        model = ConstantS.beamsplitter(1.0)
        g = Geometry(d_l=3, ell_l=5, d_r=3, ell_r=5)
        c_l = build_corr_matrix(model, BIAS, g, "A_L")
        c_r = build_corr_matrix(model, BIAS, g, "A_R")
        c_a = build_corr_matrix(model, BIAS, g, "A")
        assert mutual_information(c_l, c_r, c_a, 2).value == pytest.approx(
            0.0, abs=1e-10)

    def test_vn_mi_nonnegative_on_built_configurations(self):
        for model in (ConstantS.beamsplitter(0.3), SingleSite(eps0=1.0)):
            for d_l, d_r in ((4, 4), (9, 2), (2, 14)):
                g = Geometry(d_l=d_l, ell_l=5, d_r=d_r, ell_r=7)
                c_l = build_corr_matrix(model, BIAS, g, "A_L")
                c_r = build_corr_matrix(model, BIAS, g, "A_R")
                c_a = build_corr_matrix(model, BIAS, g, "A")
                assert mutual_information(c_l, c_r, c_a).value >= -1e-9


def length_scan_union(ell):
    """C_A of the committed symmetric length scan at ell_l = ell_r = ell."""
    cfg = parse_config(LENGTH_SCAN_CFG.read_text(encoding="utf-8"))
    return build_corr_matrix(cfg.model, cfg.bias, geometry_at(cfg, ell), "A", cfg.mode)


class TestCXi:
    def test_maximally_mixed(self):
        c = diag_corr([0.5, 0.5, 0.5], n_left=1)
        c_xi, _ = build_c_xi(c, 1)
        np.testing.assert_allclose(c_xi, 0.5 * np.eye(3), atol=1e-14)

    def test_spectrum_closed_under_conjugation(self):
        c = built_union(SingleSite(eps0=1.0), ell_l=3, ell_r=3)
        xi = np.linalg.eigvals(build_c_xi(c, c.n_left)[0])
        by_key = sorted(xi, key=lambda z: (round(z.real, 8), z.imag))
        conj = sorted(np.conj(xi), key=lambda z: (round(z.real, 8), z.imag))
        np.testing.assert_allclose(by_key, conj, atol=1e-8)

    def test_spectrum_real_in_unit_interval(self):
        c = built_union(SingleSite(eps0=0.7), ell_l=5, ell_r=5)
        xi = np.linalg.eigvals(build_c_xi(c, c.n_left)[0])
        assert np.max(np.abs(xi.imag)) <= 1e-10
        assert xi.real.min() >= -1e-10 and xi.real.max() <= 1 + 1e-10

    @pytest.mark.parametrize("ell", [6, 40, 256])
    @pytest.mark.parametrize("model", [
        SingleSite(1.0), ConstantS.beamsplitter(0.0),
        ConstantS.beamsplitter(0.5), ConstantS.beamsplitter(1.0),
    ])
    def test_in_place_build_is_bit_identical_to_the_expression(self, model, ell):
        # T = 0 and 1 make the left-right blocks exactly zero; every byte,
        # signs of zero included, must match the plain expression
        c = built_union(model, ell_l=ell, ell_r=ell)
        for size_left in (0, c.n_left, c.dim):
            got, _ = build_c_xi(c, size_left)
            assert got.dtype == np.complex128 and got.flags.c_contiguous
            assert got.tobytes() == c_xi_expression(c.mat, size_left).tobytes()

    def test_working_set_at_dim_512(self):
        c = built_union(ConstantS.beamsplitter(0.5), ell_l=256, ell_r=256,
                        d_l=0, d_r=0)
        assert c.dim == 512
        tracemalloc.start()
        try:
            build_c_xi(c, c.n_left)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the plain expression peaks near 6.5 complex n x n arrays
        assert peak <= 3.25 * c.dim ** 2 * 16


class TestOccupationTerm:
    """Tr ln[C^2 + (I - C)^2] as ln det(I + Gamma_+ Gamma_-) - n ln 2."""

    @pytest.mark.parametrize("ell", [16, 32])
    def test_matches_mpmath_log_det(self, ell):
        c = length_scan_union(ell)
        _, occupation = build_c_xi(c, c.n_left)
        assert abs(occupation - occupation_log_sum_mp(c.mat)) <= 2e-14

    def test_eig_route_meets_det_route_at_dim_1024(self):
        # the occupation term from the spectrum of C_A leaves 2.0e-12 (E_2)
        # and 4.1e-12 (E_4) here; ln det(I + Gamma_+ Gamma_-) does not
        c = length_scan_union(512)
        for n in (2, 4):
            eig = renyi_negativity_eig(c, c.n_left, n).value
            det = renyi_negativity_det(c, c.n_left, n).value
            assert abs(eig - det) <= 1e-12


class TestNegativities:
    @pytest.mark.parametrize("n", [2, 4])
    def test_det_route_is_bit_identical_to_fresh_factors(self, n):
        c_a = built_union(SingleSite(eps0=1.0), ell_l=7, ell_r=9, d_l=6, d_r=2)
        dim, size_left = c_a.dim, c_a.n_left
        total = 0j
        for gamma in np.arange(n) - (n - 1) / 2.0:
            phase = np.exp(2j * np.pi * gamma / n)
            scale = np.concatenate([
                (1.0 - phase) * np.ones(size_left),
                (1.0 + 1.0 / phase) * np.ones(dim - size_left)])
            total += lu_logdet(np.eye(dim) - scale[:, None] * c_a.mat)
        got = renyi_negativity_det(c_a, size_left, n)
        assert (got.value, got.imag_residual) == (total.real, abs(total.imag))

    def test_block_diagonal_negativity_vanishes(self):
        rng = np.random.default_rng(1)
        occ = rng.uniform(0.05, 0.95, 6)
        c_a = diag_corr(occ, n_left=3)
        assert fermionic_negativity(c_a, 3).value == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_trivial_impurity_negativity_vanishes(self):
        c_a = built_union(ConstantS.beamsplitter(1.0))
        assert fermionic_negativity(c_a, c_a.n_left).value == pytest.approx(
            0.0, abs=1e-10)

    def test_separable_renyi_negativity_identity(self):
        rng = np.random.default_rng(2)
        occ = rng.uniform(0.05, 0.95, 6)
        c_a = diag_corr(occ, n_left=3)
        s2 = renyi_entropy(c_a, 2).value
        assert renyi_negativity_eig(c_a, 3, 2).value == pytest.approx(
            (1 - 2) * s2, abs=1e-10)

    def test_half_filled_scalar_value(self):
        # C = I/2 of size 2, n = 4: xi spectrum {1/2, 1/2}
        c = diag_corr([0.5, 0.5], n_left=1)
        want = 2 * np.log(2 * 0.5 ** 2) + 2.0 * 2 * np.log(2 * 0.25)
        assert renyi_negativity_eig(c, 1, 4).value == pytest.approx(want)

    def test_vacuum_det_route(self):
        c = diag_corr([0.0, 0.0], n_left=1)
        assert renyi_negativity_det(c, 1, 2).value == pytest.approx(0.0)

    def test_right_only_scalar_det_route(self):
        # 1x1 right-side C = [c]: E_2 = ln((1-c)^2 + c^2)
        val = 0.37
        c = diag_corr([val], n_left=0)
        want = np.log((1 - val) ** 2 + val ** 2)
        assert renyi_negativity_det(c, 0, 2).value == pytest.approx(want)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("model", [
        ConstantS.beamsplitter(0.5), SingleSite(eps0=1.0),
    ])
    def test_route_equivalence(self, n, model):
        c_a = built_union(model, ell_l=7, ell_r=9, d_l=6, d_r=2)
        a = renyi_negativity_eig(c_a, c_a.n_left, n).value
        b = renyi_negativity_det(c_a, c_a.n_left, n).value
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_odd_index_rejected(self):
        c_a = built_union()
        with pytest.raises(DomainError):
            renyi_negativity_eig(c_a, c_a.n_left, 3)
        with pytest.raises(DomainError):
            renyi_negativity_det(c_a, c_a.n_left, 3)

    def test_no_bias_relations(self):
        bias = BiasConfig(1.4, 1.4)
        c_a = built_union(ConstantS.beamsplitter(0.3), bias=bias)
        n_left = c_a.n_left
        assert fermionic_negativity(c_a, n_left).value == pytest.approx(
            0.0, abs=1e-8)
        for n in (2, 4):
            s_n = renyi_entropy(c_a, n).value
            assert renyi_negativity_eig(c_a, n_left, n).value == pytest.approx(
                (1 - n) * s_n, abs=1e-8)

    def test_negativity_real_via_both_routes(self):
        c_a = built_union(SingleSite(eps0=0.6), ell_l=8, ell_r=8)
        for n in (2, 4):
            assert renyi_negativity_eig(c_a, c_a.n_left, n).imag_residual <= 1e-8
            assert renyi_negativity_det(c_a, c_a.n_left, n).imag_residual <= 1e-8


class TestRealXiSpectrum:
    """E and E_n from the real parts of the C_Xi spectrum."""

    @pytest.mark.parametrize("mode", ["longrange", "full"])
    @pytest.mark.parametrize("ell", [8, 64])
    @pytest.mark.parametrize("model", [SingleSite(1.0), ConstantS.beamsplitter(0.5)])
    def test_matches_the_complex_route(self, model, ell, mode):
        c = built_union(model, ell_l=ell, ell_r=ell, mode=mode)
        c_xi, occupation = build_c_xi(c, c.n_left)
        xi = gen_eigvals(c_xi)
        for n, got in ((1, fermionic_negativity(c, c.n_left)),
                       (2, renyi_negativity_eig(c, c.n_left, 2)),
                       (4, renyi_negativity_eig(c, c.n_left, 4))):
            want = xi_negativity_complex(xi, occupation, n)
            assert abs(got.value - want.real) <= 1e-13 * abs(want.real)

    def test_imag_residual_is_the_largest_imaginary_part_of_the_spectrum(self):
        c = built_union(SingleSite(1.0), ell_l=8, ell_r=8)
        imag = np.max(np.abs(gen_eigvals(build_c_xi(c, c.n_left)[0]).imag))
        assert imag > 0
        assert fermionic_negativity(c, c.n_left).imag_residual == imag
        for n in (2, 4):
            assert renyi_negativity_eig(c, c.n_left, n).imag_residual == imag

    @pytest.mark.parametrize("shift", [1e-6j, -1e-5, 1.0 + 1e-5])
    def test_spectrum_off_the_real_axis_or_outside_the_unit_interval_raises(
            self, monkeypatch, shift):
        def patched(m):
            xi = gen_eigvals(m)
            xi[np.argmin(xi.real)] += shift
            return xi

        monkeypatch.setattr(measures_module, "gen_eigvals", patched)
        c = built_union(SingleSite(1.0))
        with pytest.raises(SpectrumError, match="C_Xi"):
            fermionic_negativity(c, c.n_left)


# beamsplitters whose C_A has an exactly zero block across the cut
DECOUPLED = [(0.0, "longrange"), (1.0, "longrange"), (0.0, "full")]


class TestDecoupledCut:
    """C_Xi of C_L + C_R (direct sum) taken block by block."""

    @pytest.mark.parametrize("ell", [6, 40])
    @pytest.mark.parametrize("transmission, mode", DECOUPLED)
    def test_split_spectrum_matches_the_dense_build(self, transmission, mode, ell):
        c = built_union(ConstantS.beamsplitter(transmission), ell_l=ell, ell_r=ell,
                        mode=mode)
        assert not c.mat[:ell, ell:].any()
        xi, _, occupation, imag = measures_module.xi_spectrum(c, c.n_left)
        dense, dense_occupation = build_c_xi(c, c.n_left)
        np.testing.assert_allclose(np.sort(xi), np.sort(gen_eigvals(dense)),
                                   rtol=0, atol=1e-12)
        assert abs(occupation - dense_occupation) <= 1e-12
        # the residual is the larger of the two blocks' own
        c_l, c_r = c.blocks()
        assert imag == max(np.max(np.abs(gen_eigvals(build_c_xi(c_l, c_l.dim)[0]).imag)),
                           np.max(np.abs(gen_eigvals(build_c_xi(c_r, 0)[0]).imag)))

    @pytest.mark.parametrize("model, mode, dims", [
        (ConstantS.beamsplitter(0.0), "longrange", [5, 7]),
        (ConstantS.beamsplitter(1.0), "longrange", [5, 7]),
        (ConstantS.beamsplitter(0.0), "full", [5, 7]),
        (ConstantS.beamsplitter(0.5), "longrange", [12]),
        (SingleSite(eps0=1.0), "longrange", [12]),
        (ConstantS.beamsplitter(1.0), "full", [12]),
    ])
    def test_eigensolver_sees_one_block_per_side_of_a_decoupled_cut(self, monkeypatch, model, mode, dims):
        seen = []

        def spy(m):
            seen.append(m.shape[0])
            return gen_eigvals(m)

        monkeypatch.setattr(measures_module, "gen_eigvals", spy)
        c = built_union(model, ell_l=5, ell_r=7, mode=mode)
        assert c.mat[:5, 5:].any() == (len(dims) == 1)
        fermionic_negativity(c, c.n_left)
        renyi_negativity_eig(c, c.n_left, 4)
        assert seen == dims

    @pytest.mark.parametrize("transmission", [0.0, 1.0])
    def test_product_state_identity_at_dim_512(self, transmission):
        # a product state has E_n = ln Tr rho_A^n = (1 - n) S_n(A)
        c = built_union(ConstantS.beamsplitter(transmission), ell_l=256, ell_r=256)
        assert c.dim == 512
        for n in (2, 4):
            eig = renyi_negativity_eig(c, c.n_left, n).value
            assert abs(eig - (1 - n) * renyi_entropy(c, n).value) <= 1e-11 * abs(eig)
            det = renyi_negativity_det(c, c.n_left, n).value
            assert abs(eig - det) <= 1e-10 * abs(det)

"""Toeplitz symbols, Fisher-Hartwig asymptotics and the gamma machinery."""

import numpy as np
import pytest

import nesscorr.fisher_hartwig as fh_module
from nesscorr.asymptotics import q_n, renyi_mi_asym
from nesscorr.correlation import build_corr_matrix
from nesscorr.densela import lu_logdet, toeplitz
from nesscorr.errors import BranchError, DomainError, ScopeError
from nesscorr.fisher_hartwig import (
    PiecewiseSymbol,
    fh_logdet_asym,
    gamma_identities,
    gamma_range,
    mi_symbol,
    negativity_symbol,
    symbol_linear_coeff,
    toeplitz_from_symbol,
)
from nesscorr.model import BiasConfig, ConstantS, Geometry
from oracles import (
    BlockSymbol,
    block_fh_logdet_asym,
    block_symbol,
    block_toeplitz_matrix,
    gamma_log_sum_mi,
    negativity_gamma_linear_sum,
    negativity_log_coeff_gamma_sum,
)

BIAS = BiasConfig.from_fermi_momenta(np.pi / 2 + 0.2, np.pi / 2)


class TestPiecewiseSymbol:
    def test_constant_symbol_matrix(self):
        s = PiecewiseSymbol(jumps=(), values=(0.7 + 0.1j,))
        np.testing.assert_allclose(toeplitz_from_symbol(s, 4),
                                   (0.7 + 0.1j) * np.eye(4))

    def test_half_circle_indicator_by_hand(self):
        # phi = 1 on [0, pi), 0 on [-pi, 0): entries worked out by direct
        # integration of the two arcs
        s = PiecewiseSymbol(jumps=(-np.pi, 0.0), values=(0.0, 1.0))
        got = toeplitz_from_symbol(s, 2)
        want = np.array([[0.5, 1j / np.pi], [-1j / np.pi, 0.5]])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_matrix_is_toeplitz(self):
        s = PiecewiseSymbol(jumps=(-1.0, 0.3, 2.0), values=(2.0, 1j, 0.5))
        k = toeplitz_from_symbol(s, 6)
        for i in range(5):
            for j in range(5):
                assert k[i, j] == pytest.approx(k[i + 1, j + 1], abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 257])
    def test_matrix_is_fortran_ordered_with_the_gathered_entries(self, m):
        # the Fortran-ordered matrix is the row-major gather, bit for bit
        s = PiecewiseSymbol(jumps=(-1.0, 0.3, 2.0), values=(2.0, 1j, 0.5))
        k = toeplitz_from_symbol(s, m)
        gathered = toeplitz(fh_module._arc_fourier(s.jumps, s.values,
                                                   np.arange(1 - m, m)))
        assert k.flags.f_contiguous
        assert np.ascontiguousarray(k).tobytes() == gathered.tobytes()

    def test_fourier_reconstruction_oracle(self):
        # entries equal per-arc dense trapezoid Fourier coefficients
        s = PiecewiseSymbol(jumps=(-2.0, -0.4, 1.3), values=(0.3, 1.0, 2j))
        k = toeplitz_from_symbol(s, 3)
        arcs = [(-2.0, -0.4, 0.3), (-0.4, 1.3, 1.0), (1.3, -2.0 + 2 * np.pi, 2j)]
        for lag in (-2, -1, 0, 1, 2):
            want = 0j
            for lo, hi, value in arcs:
                th = np.linspace(lo, hi, 100001)
                want += value * np.trapezoid(np.exp(-1j * lag * th),
                                             th) / (2 * np.pi)
            assert k[max(lag, 0), max(-lag, 0)] == pytest.approx(want,
                                                                 abs=1e-9)

    def test_rejects_null_jump(self):
        with pytest.raises(DomainError):
            PiecewiseSymbol(jumps=(-1.0, 1.0), values=(0.5, 0.5))

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            PiecewiseSymbol(jumps=(1.0, -1.0), values=(1.0, 2.0))


class TestFhAsymptotics:
    def test_constant_symbol_exact(self):
        s = PiecewiseSymbol(jumps=(), values=(0.5,))
        assert fh_logdet_asym(s, 64) == pytest.approx(64 * np.log(0.5))

    def test_two_jump_linear_term(self):
        # value a on an arc of width w: linear term (M w / 2 pi) ln a
        a, lo, hi = 2.5, -0.7, 1.1
        s = PiecewiseSymbol(jumps=(lo, hi), values=(a, 1.0))
        m = 128
        got = fh_logdet_asym(s, m)
        want_linear = m * (hi - lo) / (2 * np.pi) * np.log(a)
        beta = s.beta_exponents()
        correction = -np.sum(beta ** 2) * np.log(m) + 2 * beta[0] * beta[1] \
            * np.log(abs(np.exp(1j * hi) - np.exp(1j * lo)))
        assert got == pytest.approx(want_linear + correction)

    @pytest.mark.parametrize("m_values", [(128, 256, 512)])
    def test_difference_approaches_constant(self, m_values):
        s = PiecewiseSymbol(jumps=(-0.9, 0.8), values=(2.0, 1.0))
        diffs = [lu_logdet(toeplitz_from_symbol(s, m)).real
                 - fh_logdet_asym(s, m).real for m in m_values]
        assert abs(diffs[2] - diffs[1]) < abs(diffs[1] - diffs[0])

    def test_rotation_invariance_when_betas_balance(self):
        base = PiecewiseSymbol(jumps=(-1.2, 0.5), values=(3.0, 1.0))
        rot = PiecewiseSymbol(jumps=(-0.9, 0.8), values=(3.0, 1.0))
        assert np.sum(base.beta_exponents()) == pytest.approx(0.0, abs=1e-14)
        # same arc width and jump ratios, rotated: asymptotics agree because
        # the angle gap between the two jumps is preserved
        gap_base = abs(np.exp(1.2j * -1) - np.exp(0.5j))
        gap_rot = abs(np.exp(-0.9j) - np.exp(0.8j))
        got = (fh_logdet_asym(base, 256)
               - fh_logdet_asym(rot, 256))
        want = 2 * base.beta_exponents()[0] * base.beta_exponents()[1] * (
            np.log(gap_base) - np.log(gap_rot))
        assert got == pytest.approx(want, abs=1e-12)

    def test_branch_error_on_negative_ratio(self):
        s = PiecewiseSymbol(jumps=(-1.0, 1.0), values=(-1.0, 1.0))
        with pytest.raises(BranchError):
            fh_logdet_asym(s, 32)

    def test_zero_value_rejected(self):
        s = PiecewiseSymbol(jumps=(-1.0, 1.0), values=(0.0, 1.0))
        with pytest.raises(DomainError):
            fh_logdet_asym(s, 32)


class TestMeasureSymbols:
    def test_gamma_zero_gives_constant_one(self):
        s = mi_symbol("A", 0.0, 3, (0.2, 0.5), (0.3, 0.9), 0.4)
        assert s.jumps == ()
        assert s.values == (1.0,)

    def test_jump_counts(self):
        theta_l, theta_r = (0.2, 0.5), (0.7, 1.1)
        assert len(mi_symbol("A_L", 0.5, 2, theta_l, theta_r, 0.3).jumps) == 4
        assert len(mi_symbol("A_R", 0.5, 2, theta_l, theta_r, 0.3).jumps) == 2
        assert len(mi_symbol("A", 0.5, 2, theta_l, theta_r, 0.3).jumps) == 6
        merged = mi_symbol("A", 0.5, 2, theta_l, theta_l, 0.3)
        assert len(merged.jumps) == 4

    def test_trivial_transmission_values_unmixed(self):
        s = mi_symbol("A", 1.0, 4, (0.2, 0.5), (0.7, 1.1), 1.0)
        phase = np.exp(2j * np.pi / 4)
        assert set(np.round(s.values, 12)) <= {
            complex(1.0), np.round(phase, 12)}

    def test_negativity_right_window_value(self):
        for gamma, want in ((0.5, 1j), (-0.5, -1j)):
            s = negativity_symbol(gamma, 2, (0.2, 0.5), (0.7, 1.1), 1.0)
            assert s.value_at(0.9) == pytest.approx(want)

    def test_negativity_full_reflection_takes_mirrored_values(self):
        s = negativity_symbol(0.5, 2, (0.2, 0.5), (0.7, 1.1), 0.0)
        phase = np.exp(1j * np.pi / 2)
        assert s.value_at(0.3) == pytest.approx(phase)  # mirrored left window
        assert s.value_at(0.9) == pytest.approx(1.0)    # right window unmixed

    def test_negativity_symmetric_windows_four_jumps(self):
        s = negativity_symbol(0.5, 2, (0.3, 0.8), (0.3, 0.8), 0.6)
        assert len(s.jumps) == 4

    def test_negativity_branch_edge_never_hit_on_grid(self):
        for n, gamma in ((2, 0.5), (4, 0.5), (4, 1.5), (6, 2.5)):
            for t in np.linspace(0.0, 1.0, 11):
                s = negativity_symbol(gamma, n, (0.2, 0.5), (0.7, 1.1),
                                      float(t))
                if s.jumps:
                    ratios = s.jump_ratios()
                    assert np.all((ratios.imag != 0.0) | (ratios.real > 0.0))


def root_factors(n):
    """1/z_gamma = 1 - e^{2 pi i gamma / n} over gamma_range(n), as renyi_negativity_det scales C_L."""
    return 1.0 - np.exp(2j * np.pi * gamma_range(n) / n)


def twin_root_factors(n):
    """1/zt_gamma = 1 + e^{-4 pi i gamma / n} over the positive gamma of even n."""
    gammas = gamma_range(n)
    return 1.0 + np.exp(-4j * np.pi * gammas[gammas > 0] / n)


class TestGammaSet:
    """The gamma set of gamma_range(n) and the root factorisation built on it."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_roots_reproduce_polynomial(self, n):
        z_inv = root_factors(n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            z = complex(*rng.uniform(-2, 2, 2))
            want = z ** n + (1 - z) ** n
            assert complex(np.prod(1.0 - z * z_inv)) == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_tilde_roots_reproduce_half_polynomial(self, n):
        zt_inv = twin_root_factors(n)
        rng = np.random.default_rng(n + 100)
        for _ in range(20):
            z = complex(*rng.uniform(-2, 2, 2))
            want = z ** (n // 2) + (1 - z) ** (n // 2)
            assert complex(np.prod(1.0 - z * zt_inv)) == pytest.approx(want, rel=1e-9,
                                                                       abs=1e-9)

    def test_odd_n_has_missing_root(self):
        assert np.min(np.abs(root_factors(5))) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_square_sum(self):
        for n in range(2, 9):
            got = np.sum(gamma_range(n) ** 2)
            assert got == pytest.approx((n ** 3 - n) / 12)


class TestGammaIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_identity_suite(self, n, t):
        res = gamma_identities(t, n)
        for name, value in res.items():
            assert value <= 1e-7, f"{name} residual {value}"

    def test_even_identity_present_only_for_even_n(self):
        assert "negativity_log" in gamma_identities(0.3, 4)
        assert "negativity_log" not in gamma_identities(0.3, 3)

    def test_trivial_transmission_square_sum(self):
        # identity (i) at T = 1 collapses to the index square sum
        for n in (2, 4, 5):
            res = gamma_identities(1.0, n)
            assert res["square_log"] <= 1e-9

    def test_n2_half_transmission_explicit(self):
        # the n = 2 sum is 2 Re[ln^2(0.5 + 0.5i)] / (4 pi^2)
        want = 2 * (np.log(0.5 + 0.5j) ** 2).real / (4 * np.pi ** 2)
        assert want == pytest.approx(q_n(0.5, 2.0), abs=1e-10)


def closed_mi_log_term(t, n, lengths):
    """(1 - n) times the production Renyi-MI log part of a beamsplitter.

    Both Fermi points carry the same T, so this is the gamma-summed MI log
    term in the closed form of :mod:`nesscorr.asymptotics`.
    """
    d_l, ell_l, d_r, ell_r = lengths
    g = Geometry(m0=0, d_l=d_l, ell_l=ell_l, d_r=d_r, ell_r=ell_r)
    return (1 - n) * renyi_mi_asym(ConstantS.beamsplitter(t), BIAS, g, n).log_part


class TestGammaLogSums:
    CASES = {
        "containment": (30, 10, 20, 40),
        "disjoint": (50, 10, 10, 20),
        "partial": (15, 30, 30, 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_direct_sum_equals_unified_closed_form(self, case, n, t):
        lengths = self.CASES[case]
        got = gamma_log_sum_mi(t, n, case, lengths)
        want = closed_mi_log_term(t, n, lengths)
        assert got == pytest.approx(want, abs=1e-8)

    def test_independent_of_momentum_scale(self):
        lengths = self.CASES["partial"]
        a = gamma_log_sum_mi(0.4, 3, "partial", lengths, delta_k=0.2)
        b = gamma_log_sum_mi(0.4, 3, "partial", lengths, delta_k=1.7)
        assert a == pytest.approx(b, abs=1e-10)

    def test_case_validation(self):
        with pytest.raises(DomainError):
            gamma_log_sum_mi(0.4, 2, "containment", self.CASES["disjoint"])
        with pytest.raises(DomainError):
            gamma_log_sum_mi(0.4, 2, "disjoint", (10, 10, 20, 5))

    def test_containment_trivial_transmission_boundary(self):
        # T = 1: the coefficient collapses to Q_n(0) + Q_n(1) - (1/n - n)/12
        lengths = self.CASES["containment"]
        for n in (2, 3):
            got = gamma_log_sum_mi(1.0, n, "containment", lengths)
            want = closed_mi_log_term(1.0, n, lengths)
            assert got == pytest.approx(want, abs=1e-9)
            assert want == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_renyi_mi_log_part(self, n):
        # end to end: the gamma machinery equals the prediction's log part
        # for a constant-transmission model, scaled by (1 - n)
        t = 0.35
        model = ConstantS.beamsplitter(t)
        g = Geometry(m0=0, d_l=15, ell_l=30, d_r=30, ell_r=40)
        lengths = (g.d_l, g.ell_l, g.d_r, g.ell_r)
        pred = renyi_mi_asym(model, BIAS, g, n)
        got = gamma_log_sum_mi(t, n, "partial", lengths)
        assert pred.log_part == pytest.approx(got / (1 - n), rel=1e-9)


class TestMiLinearGammaSum:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.8])
    def test_combination_reproduces_volume_coefficient(self, n, t):
        # sum over gamma of the MI combination of symbol linear terms
        # equals ell_mirror (delta_k / pi) ln(T^n + R^n)
        d_l, ell_l, d_r, ell_r = 15, 30, 25, 40
        mirror = max(min(d_l + ell_l, d_r + ell_r) - max(d_l, d_r), 0)
        delta_k, m = 0.2, 4000
        theta_l = (d_l * delta_k / m, (d_l + ell_l) * delta_k / m)
        theta_r = (d_r * delta_k / m, (d_r + ell_r) * delta_k / m)
        total = 0j
        for gamma in gamma_range(n):
            parts = []
            for sub in ("A_L", "A_R", "A"):
                s = mi_symbol(sub, gamma, n, theta_l, theta_r, t)
                parts.append(symbol_linear_coeff(s) * m)
            total += parts[0] + parts[1] - parts[2]
        want = mirror * BIAS.delta_k / np.pi * np.log(t ** n + (1 - t) ** n)
        assert total.imag == pytest.approx(0.0, abs=1e-9)
        assert total.real == pytest.approx(want, abs=1e-9)


class TestNegativityGammaSums:
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_linear_sum_closed_form(self, n, t):
        lengths = (12, 30, 20, 45)
        delta_k = 0.2
        mirror = max(min(12 + 30, 20 + 45) - max(12, 20), 0)
        dl_l, dl_r = 30 - mirror, 45 - mirror
        r = 1 - t
        want = delta_k / (2 * np.pi) * (
            (dl_l + dl_r) * np.log(t ** n + r ** n)
            + 2 * mirror * np.log(t ** (n / 2) + r ** (n / 2)))
        got = negativity_gamma_linear_sum(t, n, lengths, delta_k)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("t", [0.25, 0.6])
    def test_symmetric_log_coefficient(self, n, t):
        got = negativity_log_coeff_gamma_sum(t, n)
        want = 2 * q_n(t, n / 2) + 2 * q_n(1 - t, n / 2) - n / 4
        assert got == pytest.approx(want, abs=1e-9)


class TestBlockMachinery:
    def test_identity_symbol_gives_identity_matrix(self):
        b = BlockSymbol(breaks=(-np.pi,), blocks=(np.eye(2),))
        np.testing.assert_allclose(block_toeplitz_matrix(b, 3), np.eye(6),
                                   atol=1e-15)

    def test_trivial_impurity_decouples_into_scalar_toeplitz(self):
        model = ConstantS.beamsplitter(1.0)
        b = block_symbol(model, BIAS)
        m = block_toeplitz_matrix(b, 5)
        # odd/even interleaving separates the two species exactly
        right = m[0::2, 0::2]
        left = m[1::2, 1::2]
        assert np.max(np.abs(m[0::2, 1::2])) <= 1e-14
        for blockm in (right, left):
            for i in range(4):
                for j in range(4):
                    assert blockm[i, j] == pytest.approx(blockm[i + 1, j + 1])

    def test_reindexing_matches_correlation_builder(self):
        model = ConstantS.beamsplitter(0.5)
        ell = 8
        g = Geometry(m0=0, d_l=4, ell_l=ell, d_r=4, ell_r=ell)
        c = build_corr_matrix(model, BIAS, g, "A")
        blk = block_toeplitz_matrix(block_symbol(model, BIAS), ell)
        # block row 2(j-1)+sigma: sigma=0 is right site j, sigma=1 is left
        # site j (impurity-outward); builder lists left sites ascending
        perm = np.empty(2 * ell, dtype=int)
        for j in range(1, ell + 1):
            perm[2 * (j - 1)] = ell + (j - 1)        # right block position
            perm[2 * (j - 1) + 1] = ell - j          # left block position
        reordered = c.mat[np.ix_(perm, perm)]
        np.testing.assert_allclose(blk, reordered, atol=1e-12)

    def test_block_symbol_requires_constant_model(self):
        from nesscorr.model import SingleSite
        with pytest.raises(ScopeError):
            block_symbol(SingleSite(eps0=1.0), BIAS)

    def test_lambda_on_segment_rejected(self):
        with pytest.raises(BranchError):
            block_fh_logdet_asym(0.5, BIAS, (0.5, 0.5), "sym", 16)

    def test_sym_regime_log_coefficient_is_transmission_free(self):
        lam = 2.0 + 0.3j
        vals = [block_fh_logdet_asym(lam, BIAS, (t, t), "sym", 64)
                for t in (0.2, 0.5, 0.9)]
        np.testing.assert_allclose(vals, vals[0], atol=1e-12)

    def test_far_regime_trivial_transmission_collapses_to_sym_log(self):
        # at T = 1 the four Fermi-jump squared logarithms pair up into the
        # sym-regime ln(ell) coefficient; extract both coefficients from
        # two lengths via C = (2 F(32) - F(64)) / (4 ln 2)
        lam = 2.0 + 0.4j

        def log_coeff(regime):
            def f(ell):
                return block_fh_logdet_asym(lam, BIAS, (1.0, 1.0), regime,
                                            ell, transmission=1.0)
            return (2 * f(32) - f(64)) / (4 * np.log(2))

        assert log_coeff("far") == pytest.approx(log_coeff("sym"), rel=1e-12)

    def test_renyi_mi_cross_route_via_gamma_determinants(self):
        # MI from correlation spectra against the independent product of
        # gamma-indexed determinants of symbol-built Toeplitz matrices
        t, ell = 0.5, 40
        model = ConstantS.beamsplitter(t)
        g = Geometry(m0=0, d_l=7, ell_l=ell, d_r=7, ell_r=ell)
        c_l = build_corr_matrix(model, BIAS, g, "A_L")
        c_r = build_corr_matrix(model, BIAS, g, "A_R")
        c_a = build_corr_matrix(model, BIAS, g, "A")
        from nesscorr.measures import mutual_information
        mi_eig = mutual_information(c_l, c_r, c_a, 2).value

        kf_l, kf_r = BIAS.kf_l, BIAS.kf_r
        phi_r = PiecewiseSymbol(jumps=(-kf_r, kf_r, kf_l),
                                values=(1.0, t, 0.0))
        phi_l = PiecewiseSymbol(jumps=(-kf_l, kf_r, kf_l),
                                values=(1.0, 1.0 - t, 0.0))
        k_r = toeplitz_from_symbol(phi_r, ell)
        k_l = toeplitz_from_symbol(phi_l, ell)
        k_a = block_toeplitz_matrix(block_symbol(model, BIAS), ell)
        total = 0j
        for z_inv in 1 - np.exp(1j * np.pi * gamma_range(2)):
            total += (lu_logdet(np.eye(ell) - z_inv * k_l)
                      + lu_logdet(np.eye(ell) - z_inv * k_r)
                      - lu_logdet(np.eye(2 * ell) - z_inv * k_a))
        mi_det = total.real / (1 - 2)
        assert abs(total.imag) <= 1e-9
        assert mi_eig == pytest.approx(mi_det, abs=1e-10)

    def test_reindexing_equivalence_with_reversed_bias(self):
        flipped = BiasConfig.from_fermi_momenta(np.pi / 2, np.pi / 2 + 0.2)
        model = ConstantS.beamsplitter(0.4)
        ell = 6
        g = Geometry(m0=0, d_l=3, ell_l=ell, d_r=3, ell_r=ell)
        c = build_corr_matrix(model, flipped, g, "A")
        blk = block_toeplitz_matrix(block_symbol(model, flipped), ell)
        perm = np.empty(2 * ell, dtype=int)
        for j in range(1, ell + 1):
            perm[2 * (j - 1)] = ell + (j - 1)
            perm[2 * (j - 1) + 1] = ell - j
        np.testing.assert_allclose(blk, c.mat[np.ix_(perm, perm)], atol=1e-12)

    def test_sym_regime_against_exact_block_determinant(self):
        model = ConstantS.beamsplitter(0.5)
        lam = 2.0
        diffs = []
        for ell in (64, 128, 256):
            exact = lu_logdet(lam * np.eye(2 * ell)
                              - block_toeplitz_matrix(block_symbol(model, BIAS),
                                                      ell)).real
            asym = block_fh_logdet_asym(lam, BIAS, (0.5, 0.5), "sym", ell).real
            diffs.append(exact - asym)
        assert abs(diffs[2] - diffs[1]) < abs(diffs[1] - diffs[0])

    def test_far_regime_against_exact_cross_free_determinant(self):
        model = ConstantS.beamsplitter(0.35)
        lam = 1.8
        diffs = []
        for ell in (64, 128, 256):
            blk = block_toeplitz_matrix(
                block_symbol(model, BIAS, include_cross=False), ell)
            exact = lu_logdet(lam * np.eye(2 * ell) - blk).real
            asym = block_fh_logdet_asym(lam, BIAS, (0.35, 0.35), "far", ell,
                                        transmission=0.35).real
            diffs.append(exact - asym)
        assert abs(diffs[2] - diffs[1]) < abs(diffs[1] - diffs[0])

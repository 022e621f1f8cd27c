"""Special functions and closed-form scaling predictions."""

import re

import mpmath
import numpy as np
import pytest

from nesscorr.asymptotics import (
    Q_INDEX_MAX,
    AsymptoticPrediction,
    _four_point_ratios,
    edge_differences,
    negativity_asym_symmetric,
    q_fun,
    q_n,
    q_tilde_fun,
    q_tilde_n,
    renyi_mi_asym,
    single_interval_entropy_asym,
    vn_mi_asym,
)
from nesscorr.correlation import build_corr_matrix
from nesscorr.errors import BiasError, DomainError, ScopeError
from nesscorr.measures import renyi_entropy
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite, fermi_momentum
from oracles import q_n_mp, q_n_singular_form, q_tilde_n_mp, q_tilde_n_singular_form

BIAS = BiasConfig(np.pi / 2 + 0.2, np.pi / 2)
NO_BIAS = BiasConfig(1.3, 1.3)


class TestSpecialFunctions:
    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0])
    def test_q_n_at_one_vanishes(self, n):
        assert q_n(1.0, n) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [0.5, 2.0, 3.0, 4.0])
    def test_q_n_at_zero_closed_form(self, n):
        assert q_n(0.0, n) == pytest.approx((1 / n - n) / 12, abs=1e-9)

    def test_q_2_at_zero_value(self):
        assert q_n(0.0, 2.0) == pytest.approx(-0.125, abs=1e-10)

    @pytest.mark.parametrize("n", [0.5, 2.0, 3.0])
    def test_q_tilde_endpoints_vanish(self, n):
        assert q_tilde_n(0.0, 1.0, n) == pytest.approx(0.0, abs=1e-8)
        assert q_tilde_n(1.0, 0.0, n) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.15, 0.4, 0.75])
    @pytest.mark.parametrize("n", [0.5, 2.0, 5.0])
    def test_q_tilde_symmetric(self, t, n):
        assert q_tilde_n(t, 1 - t, n) == pytest.approx(q_tilde_n(1 - t, t, n), abs=1e-10)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_dual_representation_agreement(self, n):
        for p in np.linspace(0.0, 1.0, 21):
            assert q_n(float(p), n) == pytest.approx(
                q_n_singular_form(float(p), n), abs=1e-7)
            assert q_tilde_n(float(p), 1.0 - float(p), n) == pytest.approx(
                q_tilde_n_singular_form(float(p), n), abs=1e-7)

    def test_q_functions_endpoint_zeros_and_signs(self):
        assert q_fun(0.0, 1.0) == pytest.approx(0.0, abs=1e-10)
        assert q_fun(1.0, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert q_tilde_fun(0.0, 1.0) == pytest.approx(0.0, abs=1e-10)
        assert q_tilde_fun(1.0, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert q_fun(0.5, 0.5) < 0
        assert q_tilde_fun(0.5, 0.5) > 0

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.8])
    def test_q_fun_is_limit_of_q_n_combination(self, t):
        h = 1e-3

        def g(n):
            return q_n(t, n) + q_n(1 - t, n) - (1 / n - n) / 12

        limit = (g(1 - h) - g(1 + h)) / (2 * h)
        assert q_fun(t, 1 - t) == pytest.approx(limit, abs=1e-4)

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.8])
    def test_q_tilde_fun_is_limit_of_q_tilde_n(self, t):
        h = 1e-3
        limit = (q_tilde_n(t, 1 - t, 1 - h) - q_tilde_n(t, 1 - t, 1 + h)) / (2 * h)
        assert q_tilde_fun(t, 1 - t) == pytest.approx(limit, abs=1e-4)

    @pytest.mark.parametrize("p", [0.0, 1e-17, 1e-16, 3e-16, 1e-15, 1e-12, 1e-8,
                                   1e-4, 0.01, 0.1, 0.3])
    def test_half_index_kernels_near_the_edges_against_mpmath(self, p):
        # each logarithm's rise above 1 is O(x) and is divided by x: formed
        # as a difference of powers, its rounding left an eps / x error
        # that no panel count could integrate
        assert abs(q_n(p, 0.5) - q_n_mp(p, 0.5)) <= 1e-12
        assert abs(q_tilde_n(p, 1.0 - p, 0.5) - q_tilde_n_mp(p, 1.0 - p, 0.5)) <= 1e-12
        assert abs(q_tilde_n(1.0 - p, p, 0.5) - q_tilde_n_mp(1.0 - p, p, 0.5)) <= 1e-12

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_q_tilde_n_takes_the_models_reflection(self, n):
        # T rounds by one unit here, so 1 - T would be off R by 6.6e-5 relative
        model = SingleSite(eps0=1e-6)
        t, r = float(model.transmission(0.3)), float(model.reflection(0.3))
        assert abs(q_tilde_n(t, r, n) - q_tilde_n_mp(t, r, n)) <= 1e-12

    @pytest.mark.parametrize("case, n", [
        ("model", 133.0), ("model", 140.0), ("model", 300.0),
        ("T=0.1", 226.0), ("T=0.9", 226.0)])
    def test_q_tilde_n_at_large_index_against_mpmath(self, case, n):
        # a jump term's rise cancels toward -1 here (exactly -1 at n = 300
        # for the model's T = 0.7935); log1p of it stopped the quadrature
        # from n = 133 and divided by zero at n = 300.  Within 1e-12 of
        # 30 digits, under the suite's RuntimeWarning-as-error filter.
        if case == "model":
            model, kf = SingleSite(eps0=1.0), np.pi / 2 + 0.2
            t, r = float(model.transmission(kf)), float(model.reflection(kf))
        else:
            t = float(case[2:])
            r = 1.0 - t
        assert abs(q_tilde_n(t, r, n) - q_tilde_n_mp(t, r, n)) <= 1e-12

    @pytest.mark.parametrize("t", [0.001, 0.1, 0.3, 0.5, 0.7935, 0.9, 0.999])
    def test_q_functions_at_the_largest_configurable_index(self, t):
        # ExperimentConfig caps every Q index at Q_INDEX_MAX; q_n overflows from
        # n = 648 at T = 1/2.  Within 2.2e-14 of 30 digits here, under the
        # suite's RuntimeWarning-as-error filter.
        n = float(Q_INDEX_MAX)
        assert abs(q_n(t, n) - q_n_mp(t, n)) <= 1e-13
        assert abs(q_tilde_n(t, 1.0 - t, n) - q_tilde_n_mp(t, 1.0 - t, n)) <= 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_n(1.2, 2.0)
        with pytest.raises(DomainError):
            q_n(0.5, 0.0)
        with pytest.raises(DomainError):
            q_tilde_n(0.5, 0.6, 2.0)
        with pytest.raises(DomainError):
            q_fun(1.0, -1e-3)


class TestVolumeCoefficients:
    # each closed form's per-site volume coefficient, on a symmetric geometry
    G = Geometry(d_l=4, ell_l=16, d_r=4, ell_r=16)

    def test_mi_vn_trivial_impurity(self):
        assert vn_mi_asym(ConstantS.beamsplitter(1.0), BIAS,
                          self.G).linear_coeff == pytest.approx(0.0, abs=1e-12)

    def test_mi_vn_half_transmission(self):
        want = 0.2 / np.pi * np.log(2.0)
        got = vn_mi_asym(ConstantS.beamsplitter(0.5), BIAS, self.G).linear_coeff
        assert want == pytest.approx(0.044127, abs=5e-7)
        assert got == pytest.approx(want, abs=1e-10)

    def test_neg_vn_half_transmission(self):
        want = 0.2 / np.pi * 0.5 * np.log(2.0)
        got = negativity_asym_symmetric(ConstantS.beamsplitter(0.5), BIAS,
                                        self.G).linear_coeff
        assert want == pytest.approx(0.022064, abs=5e-7)
        assert got == pytest.approx(want, abs=1e-10)

    def test_renyi_relations_for_constant_model(self):
        t = 0.3
        model = ConstantS.beamsplitter(t)
        for n in (2, 3):
            want = BIAS.delta_k / (2 * np.pi * (1 - n)) * np.log(
                t ** n + (1 - t) ** n)
            entropy = single_interval_entropy_asym(model, BIAS, self.G, "L", n)
            assert entropy.linear_coeff == pytest.approx(want, abs=1e-12)
            assert renyi_mi_asym(model, BIAS, self.G, n).linear_coeff == \
                pytest.approx(2 * want, abs=1e-12)

    def test_single_site_quadrature_against_trapezoid(self):
        model = SingleSite(eps0=1.0)
        ks = np.linspace(BIAS.k_minus, BIAS.k_plus, 200001)
        t = model.transmission(ks)
        want = np.trapezoid(np.log(t ** 2 + (1 - t) ** 2), ks) / (np.pi * (1 - 2))
        assert renyi_mi_asym(model, BIAS, self.G, 2).linear_coeff == \
            pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("eps0", [0.0, 1e-12, 1e-8, 1e-6])
    def test_neg_vn_near_trivial_impurity_against_mpmath(self, eps0):
        # T rounds to just below 1 at many nodes here, so R must not be 1 - T
        got = negativity_asym_symmetric(SingleSite(eps0=eps0), BIAS,
                                        self.G).linear_coeff
        with mpmath.workdps(40):
            a2 = mpmath.mpf(eps0 / 2.0) ** 2

            def f(k):
                s2 = mpmath.sin(k) ** 2
                return mpmath.log(mpmath.sqrt(s2) + mpmath.sqrt(a2)) \
                    - mpmath.log(s2 + a2) / 2

            want = float(mpmath.quad(f, [BIAS.k_minus, BIAS.k_plus]) / mpmath.pi)
        if eps0 == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-10)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            negativity_asym_symmetric(ConstantS.beamsplitter(0.5), BIAS, self.G, 3)

    @pytest.mark.parametrize("n", [1.0, 0.0, -2.0])
    def test_single_interval_entropy_rejects_index_before_dividing(self, n):
        # checked before (1 + n) / (12 n) and (1 - n) divide
        with pytest.raises(DomainError):
            single_interval_entropy_asym(ConstantS.beamsplitter(0.5), BIAS,
                                         self.G, "L", n)


class TestPredictionStructure:
    def test_prediction_evaluates_linear_plus_logs(self):
        p = AsymptoticPrediction(linear_coeff=0.25, linear_length=8.0,
                                 log_terms=((2.0, np.e),))
        assert p.total() == pytest.approx(0.25 * 8 + 2.0)

    def test_rejects_nonpositive_log_argument(self):
        with pytest.raises(DomainError):
            AsymptoticPrediction(0.0, 1.0, ((1.0, 0.0),))

    def test_edge_differences_and_four_point_ratios(self):
        # sorted edges (2, 7, 9, 13): numerators 9 - 2 = 7 and 13 - 7 = 6
        g = Geometry(d_l=9, ell_l=4, d_r=2, ell_r=5)
        assert edge_differences(g) == (6, 7, -2, 11)
        ratio1, ratio2 = _four_point_ratios(g)
        assert ratio1 == pytest.approx(7 * 6 / (6 * 7))
        assert ratio2 == pytest.approx(7 * 6 / (2 * 11))


class TestSingleIntervalEntropy:
    def test_trivial_impurity_log_coefficient(self):
        model = ConstantS.beamsplitter(1.0)
        g = Geometry(d_l=9, ell_l=50, d_r=9, ell_r=50)
        for n in (2, 3):
            p = single_interval_entropy_asym(model, BIAS, g, "L", n)
            # Q_n(1) = 0 and Q_n(0)/(1-n) = (1+n)/(12n): doubled base coefficient
            assert p.log_terms[0][0] == pytest.approx((1 + n) / (6 * n),
                                                      abs=1e-9)

    def test_side_swap_symmetry_for_constant_model(self):
        model = ConstantS.beamsplitter(0.4)
        g = Geometry(d_l=3, ell_l=30, d_r=5, ell_r=30)
        left = single_interval_entropy_asym(model, BIAS, g, "L", 2)
        right = single_interval_entropy_asym(model, BIAS, g, "R", 2)
        assert left.total() == pytest.approx(right.total(), rel=1e-12)

    def test_zero_bias_refused(self):
        with pytest.raises(BiasError):
            single_interval_entropy_asym(SingleSite(eps0=1.0), NO_BIAS,
                                         Geometry(2, 8, 2, 8), "L", 2)

    def test_log_coefficient_fit_against_numerics(self):
        # two-parameter (constant + log coefficient) fit of the numeric
        # total entropy minus the volume term, over dyadic lengths
        model = SingleSite(eps0=1.0)
        n = 2
        cache = {}
        xs, ys = [], []
        for ell in (64, 128, 256, 512):
            g = Geometry(d_l=0, ell_l=ell, d_r=0, ell_r=ell)
            c_l, c_r = build_corr_matrix(model, BIAS, g, "A", cache=cache).blocks()
            total = renyi_entropy(c_l, n).value + renyi_entropy(c_r, n).value
            p_l = single_interval_entropy_asym(model, BIAS, g, "L", n)
            p_r = single_interval_entropy_asym(model, BIAS, g, "R", n)
            xs.append(np.log(ell))
            ys.append(total - p_l.linear_part - p_r.linear_part)
        slope = np.polyfit(xs, ys, 1)[0]
        want = (single_interval_entropy_asym(
            model, BIAS, Geometry(0, 64, 0, 64), "L", n).log_terms[0][0]
            + single_interval_entropy_asym(
            model, BIAS, Geometry(0, 64, 0, 64), "R", n).log_terms[0][0])
        assert slope == pytest.approx(want, rel=0.03)


class TestMiAsymptotics:
    def test_touching_case_reduces_to_q_tilde_form(self):
        model = ConstantS.beamsplitter(0.35)
        ell_l, ell_r, d_r = 40, 30, 10
        g = Geometry(d_l=d_r + ell_r, ell_l=ell_l, d_r=d_r, ell_r=ell_r)
        for n in (2, 3):
            p = renyi_mi_asym(model, BIAS, g, n)
            want = (q_tilde_n(0.35, 0.65, float(n)) / (1 - n)) * np.log(
                ell_l * ell_r / (ell_l + ell_r))
            assert p.linear_part == 0.0
            assert p.log_part == pytest.approx(want, rel=1e-9)

    def test_symmetric_case_matches_equal_length_formula(self):
        t = 0.45
        model = ConstantS.beamsplitter(t)
        ell = 60
        g = Geometry(d_l=7, ell_l=ell, d_r=7, ell_r=ell)
        for n in (2, 4):
            p = renyi_mi_asym(model, BIAS, g, n)
            coeff = (-(1 + n) / (6 * n)
                     + 2 * (q_n(t, float(n)) + q_n(1 - t, float(n))) / (1 - n))
            assert p.log_part == pytest.approx(coeff * np.log(ell), rel=1e-9)

    def test_trivial_impurity_prediction_vanishes(self):
        model = ConstantS.beamsplitter(1.0)
        g = Geometry(d_l=4, ell_l=12, d_r=9, ell_r=17)
        p = renyi_mi_asym(model, BIAS, g, 2)
        assert p.total() == pytest.approx(0.0, abs=1e-9)
        assert vn_mi_asym(model, BIAS, g).total() == pytest.approx(0.0,
                                                                   abs=1e-9)

    def test_disjoint_mirror_first_term_drops(self):
        # ell_mirror = 0 with separated mirror images: the ratio of the
        # first logarithm is exactly one
        model = ConstantS.beamsplitter(0.5)
        g = Geometry(d_l=40, ell_l=10, d_r=5, ell_r=12)
        p = vn_mi_asym(model, BIAS, g)
        assert p.log_terms[0][1] == pytest.approx(1.0)
        assert p.log_terms[2][1] == pytest.approx(1.0)

    def test_maximal_overlap_second_term_drops(self):
        model = ConstantS.beamsplitter(0.5)
        g = Geometry(d_l=10, ell_l=8, d_r=4, ell_r=30)
        p = vn_mi_asym(model, BIAS, g)
        assert p.log_terms[1][1] == pytest.approx(1.0)

    def test_renyi_limit_matches_vn(self):
        model = SingleSite(eps0=1.0)
        g = Geometry(d_l=13, ell_l=21, d_r=6, ell_r=34)
        h = 1e-3
        lo = renyi_mi_asym(model, BIAS, g, 1 - h)
        hi = renyi_mi_asym(model, BIAS, g, 1 + h)
        vn = vn_mi_asym(model, BIAS, g)
        assert 0.5 * (lo.linear_coeff + hi.linear_coeff) == pytest.approx(
            vn.linear_coeff, abs=1e-3)
        assert 0.5 * (lo.log_part + hi.log_part) == pytest.approx(
            vn.log_part, abs=1e-3)

    def test_distance_shift_invariance(self):
        model = SingleSite(eps0=0.8)
        g1 = Geometry(d_l=11, ell_l=9, d_r=3, ell_r=20)
        g2 = Geometry(d_l=61, ell_l=9, d_r=53, ell_r=20)
        for build in (lambda g: renyi_mi_asym(model, BIAS, g, 2),
                      lambda g: vn_mi_asym(model, BIAS, g)):
            assert build(g1).total() == pytest.approx(build(g2).total(),
                                                      rel=1e-12)

    def test_degenerate_offsets_stay_finite(self):
        model = ConstantS.beamsplitter(0.5)
        for shift in (-2, -1, 0, 1, 2):
            g = Geometry(d_l=25 + shift, ell_l=10, d_r=15, ell_r=10)
            value = vn_mi_asym(model, BIAS, g).total()
            assert np.isfinite(value)

    def test_zero_bias_refused(self):
        with pytest.raises(BiasError):
            renyi_mi_asym(SingleSite(eps0=1.0), NO_BIAS,
                          Geometry(2, 8, 2, 8), 2)
        with pytest.raises(BiasError):
            vn_mi_asym(SingleSite(eps0=1.0), NO_BIAS, Geometry(2, 8, 2, 8))

    def test_fig3_profile_peaks_on_containment_plateau(self):
        model = SingleSite(eps0=1.0)
        values = {}
        for offset in range(-150, 151, 25):
            d_r = 200
            g = Geometry(d_l=d_r + offset, ell_l=100, d_r=d_r, ell_r=200)
            values[offset] = vn_mi_asym(model, BIAS, g).total()
        best = max(values, key=values.get)
        assert 0 <= best <= 100


class TestReflectionFromModel:
    """The Q_n(R) terms take R from the model, not from 1 - T.

    At eps0 = 1e-6, R is about 2.6e-13 and 1 - T keeps only its first
    three or four digits; Q_{1/2} near 0 moves like sqrt(R), so the
    coefficients moved by up to 1e-10.
    """

    MODEL = SingleSite(eps0=1e-6)
    G = Geometry(d_l=100, ell_l=16, d_r=100, ell_r=16)

    def exact(self, kf):
        with mpmath.workdps(40):
            s2 = mpmath.sin(mpmath.mpf(kf)) ** 2
            a2 = (mpmath.mpf(self.MODEL.eps0) / 2) ** 2
            return float(s2 / (s2 + a2)), float(a2 / (s2 + a2))

    def test_negativity_log_coefficient(self):
        want = -0.25 + sum(q_n_mp(t, 0.5) + q_n_mp(r, 0.5)
                           for t, r in map(self.exact, (BIAS.kf_l, BIAS.kf_r)))
        got = negativity_asym_symmetric(self.MODEL, BIAS, self.G).log_terms[0][0]
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_single_interval_log_coefficient(self, side):
        own, other = (BIAS.kf_l, BIAS.kf_r) if side == "L" else (BIAS.kf_r, BIAS.kf_l)
        n = 0.5
        want = (1 + n) / (12 * n) + (q_n_mp(self.exact(own)[0], n)
                                     + q_n_mp(self.exact(other)[1], n)) / (1 - n)
        got = single_interval_entropy_asym(self.MODEL, BIAS, self.G, side, n)
        assert abs(got.log_terms[0][0] - want) <= 1e-12


class TestNegativityAsymptotics:
    def test_symmetric_log_coefficient_trivial_impurity(self):
        model = ConstantS.beamsplitter(1.0)
        for n in (2, 4):
            p = negativity_asym_symmetric(model, BIAS, Geometry(0, 64, 0, 64), n)
            want = (-n / 4 + 2 * q_n(1.0, n / 2) + 2 * q_n(0.0, n / 2))
            assert p.log_terms[0][0] == pytest.approx(want, abs=1e-10)
            # the separable identity fixes the same coefficient
            assert want == pytest.approx((1 - n) * (1 + n) / (3 * n), abs=1e-9)

    def test_vn_flavor_trivial_impurity_vanishes(self):
        p = negativity_asym_symmetric(ConstantS.beamsplitter(1.0), BIAS,
                                      Geometry(0, 64, 0, 64))
        assert p.total() == pytest.approx(0.0, abs=1e-9)

    def test_vn_flavor_linear_coefficient(self):
        p = negativity_asym_symmetric(ConstantS.beamsplitter(0.5), BIAS,
                                      Geometry(0, 64, 0, 64))
        assert p.linear_coeff == pytest.approx(0.2 / np.pi * 0.5 * np.log(2),
                                               abs=1e-10)

    def test_geometry_scope_check(self):
        g = Geometry(d_l=3, ell_l=8, d_r=3, ell_r=9)
        with pytest.raises(ScopeError):
            negativity_asym_symmetric(SingleSite(eps0=1.0), BIAS, g, 2)

    def test_accepts_symmetric_geometry(self):
        g = Geometry(d_l=3, ell_l=8, d_r=3, ell_r=8)
        p = negativity_asym_symmetric(SingleSite(eps0=1.0), BIAS, g, 2)
        assert p.linear_length == 8.0

    def test_zero_bias_refused(self):
        with pytest.raises(BiasError):
            negativity_asym_symmetric(SingleSite(eps0=1.0), NO_BIAS,
                                      Geometry(0, 16, 0, 16), 2)


_GEOMETRY = Geometry(2, 8, 2, 8)
# each entry point with one parameter set to x, and the name its error gives;
# ConstantS and the chemical potential take no inf here, which T + R = 1
# and the band edge already reject
NON_FINITE_CASES = [
    ("SingleSite(eps0)", lambda x: SingleSite(x), "eps0=", (np.nan, np.inf)),
    ("ConstantS", lambda x: ConstantS(x, x, x, x), "scattering matrix", (np.nan,)),
    ("fermi_momentum(eta)", lambda x: fermi_momentum(x, 0.5), "eta=", (np.nan, np.inf)),
    ("fermi_momentum(mu)", lambda x: fermi_momentum(1.0, x), "mu=", (np.nan,)),
    ("renyi_entropy",
     lambda x: renyi_entropy(build_corr_matrix(SingleSite(1.0), BIAS, _GEOMETRY, "A"), x),
     "n=", (np.nan, np.inf)),
    ("q_n", lambda x: q_n(0.5, x), "n=", (np.nan, np.inf)),
    ("q_tilde_n", lambda x: q_tilde_n(0.5, 0.5, x), "n=", (np.nan, np.inf)),
    ("single_interval_entropy_asym",
     lambda x: single_interval_entropy_asym(SingleSite(1.0), BIAS, _GEOMETRY, "L", x),
     "n=", (np.nan, np.inf)),
    ("renyi_mi_asym", lambda x: renyi_mi_asym(SingleSite(1.0), BIAS, _GEOMETRY, x),
     "n=", (np.nan, np.inf)),
]


@pytest.mark.parametrize("call, named, value", [
    pytest.param(call, named, value, id=f"{label}-{value}")
    for label, call, named, values in NON_FINITE_CASES for value in values])
def test_non_finite_parameter_is_a_domain_error_naming_it(call, named, value):
    # at once, not after a quadrature budget or as a NaN result
    with pytest.raises(DomainError, match=re.escape(named)):
        call(value)

"""Scattering models, bias configuration and geometry arithmetic."""

import dataclasses

import numpy as np
import pytest

from nesscorr.errors import BandEdgeError, DomainError
from nesscorr.model import (
    BiasConfig,
    ConstantS,
    Geometry,
    SingleSite,
    fermi_momentum,
    mirror_overlap,
)


def _s_matrix(model, k):
    """The 2x2 S-matrices [[r_l, t_r], [t_l, r_r]] of ``model`` at the momenta ``k``."""
    r_l, t_l, r_r, t_r = model.amplitudes(k)
    return np.stack([np.stack([r_l, t_r], -1), np.stack([t_l, r_r], -1)], -2)


class TestScattering:
    def test_single_site_transparent(self):
        assert SingleSite(eps0=0.0).transmission(np.pi / 2) == pytest.approx(1.0)

    def test_single_site_half_transmission(self):
        # eps0 = 2 hoppings at k = pi/2: T = 1 / (1 + 1) = 1/2
        model = SingleSite(eps0=2.0)
        assert model.transmission(np.pi / 2) == pytest.approx(0.5)

    def test_constant_model_returns_stored_amplitudes(self):
        model = ConstantS.beamsplitter(0.3)
        k = np.array([0.3, 1.1, 2.9])
        np.testing.assert_allclose(model.amplitudes(k)[1], np.sqrt(0.3))
        s = _s_matrix(model, k)
        residual = np.max(np.abs(s.conj().swapaxes(-1, -2) @ s - np.eye(2)))
        assert residual <= 1e-12

    @pytest.mark.parametrize("model", [
        SingleSite(eps0=0.7),
        SingleSite(eps0=1.5),
        ConstantS.beamsplitter(0.42),
    ])
    def test_unitarity_over_momentum_grid(self, model):
        k = np.linspace(0.01, np.pi - 0.01, 200)
        s = _s_matrix(model, k)
        assert np.max(np.abs(s.conj().swapaxes(-1, -2) @ s - np.eye(2))) <= 1e-10
        np.testing.assert_allclose(model.transmission(k) + model.reflection(k), 1.0,
                                   rtol=0, atol=1e-12)

    def test_single_site_transmission_symmetric_about_half_filling(self):
        model = SingleSite(eps0=1.3)
        for dk in (0.1, 0.5, 1.2):
            left = model.transmission(np.pi / 2 - dk)
            right = model.transmission(np.pi / 2 + dk)
            assert left == pytest.approx(right, rel=1e-12)

    def test_constant_s_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            ConstantS(0.5, 0.5, 0.5, 0.5)


class TestFermiMomentum:
    def test_half_filling(self):
        assert fermi_momentum(1.0, 0.0) == pytest.approx(np.pi / 2)

    def test_empty_band_edge(self):
        assert fermi_momentum(1.0, -2.0) == pytest.approx(0.0)

    def test_inverse_relation(self):
        assert fermi_momentum(1.0, -2.0 * np.cos(1.0)) == pytest.approx(1.0)

    def test_band_edge_error(self):
        with pytest.raises(BandEdgeError):
            fermi_momentum(1.0, 2.5)

    def test_bias_derived_quantities(self):
        b = BiasConfig(1.7, 1.5)
        assert b.k_plus == pytest.approx(1.7)
        assert b.k_minus == pytest.approx(1.5)
        assert b.delta_k == pytest.approx(0.2)
        assert b.kf_l == pytest.approx(1.7)

    def test_bias_holds_exactly_its_two_fermi_momenta(self):
        assert tuple(f.name for f in dataclasses.fields(BiasConfig)) == ("kf_l", "kf_r")
        # a detour through mu = -2 cos k_F would give 0.0: no bias at all
        assert BiasConfig(1e-8, 0.0).delta_k == 1e-8

    @pytest.mark.parametrize("kf", [-0.1, 4.0, np.nan])
    def test_bias_rejects_fermi_momentum_outside_zero_pi(self, kf):
        with pytest.raises(DomainError):
            BiasConfig(kf, 1.0)
        with pytest.raises(DomainError):
            BiasConfig(1.0, kf)


class TestGeometry:
    def test_mirror_overlap_arithmetic(self):
        g = Geometry(d_l=5, ell_l=10, d_r=7, ell_r=10)
        assert mirror_overlap(g) == (8, 2, 2)

    def test_disjoint_mirror_images(self):
        g = Geometry(d_l=0, ell_l=3, d_r=10, ell_r=3)
        assert mirror_overlap(g) == (0, 3, 3)

    def test_symmetric_configuration(self):
        g = Geometry(d_l=4, ell_l=9, d_r=4, ell_r=9)
        assert mirror_overlap(g) == (9, 0, 0)

    @pytest.mark.parametrize("d_l,ell_l,d_r,ell_r", [
        (5, 10, 7, 10), (0, 3, 10, 3), (2, 8, 11, 40), (30, 6, 1, 50),
    ])
    def test_overlap_depends_on_distance_difference_only(self, d_l, ell_l,
                                                         d_r, ell_r):
        base = mirror_overlap(Geometry(d_l, ell_l, d_r, ell_r))
        shifted = mirror_overlap(Geometry(d_l + 17, ell_l, d_r + 17, ell_r))
        assert base == shifted

    def test_overlap_bounded_by_lengths(self):
        g = Geometry(d_l=5, ell_l=4, d_r=7, ell_r=20)
        ell_mirror, dl_l, dl_r = mirror_overlap(g)
        assert 0 <= ell_mirror <= min(g.ell_l, g.ell_r)
        assert dl_l >= 0 and dl_r >= 0

    def test_rejects_zero_length(self):
        with pytest.raises(DomainError):
            Geometry(d_l=1, ell_l=0, d_r=1, ell_r=5)

    def test_outermost_site_must_fit_int64(self):
        top = np.iinfo(np.int64).max
        assert Geometry(d_l=top - 2, ell_l=2, d_r=1, ell_r=1).left_sites()[0] == -top
        for d_l, d_r in ((top - 1, 1), (1, top - 1)):
            with pytest.raises(DomainError, match="64-bit"):
                Geometry(d_l=d_l, ell_l=2, d_r=d_r, ell_r=2)

    def test_no_site_is_the_impurity(self):
        g = Geometry(d_l=0, ell_l=4, d_r=0, ell_r=4)
        assert 0 not in g.left_sites() and 0 not in g.right_sites()
        assert list(g.left_sites()) == [-4, -3, -2, -1]
        assert list(g.right_sites()) == [1, 2, 3, 4]
        g = Geometry(d_l=3, ell_l=4, d_r=3, ell_r=4)
        assert list(g.left_sites()) == [-7, -6, -5, -4]
        assert list(g.right_sites()) == [4, 5, 6, 7]

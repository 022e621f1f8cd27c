"""Error floors of the measures against 30-digit evaluations of the same C_A.

MI, MI_2 and S_n(A) (n = 2, 3, 4) take their values from ``eigvalsh``
spectra of C_A, C_L and C_R.  Each case here recomputes them from ``mpmath.eighe``
spectra of the same float matrices at 30 digits, so the difference is
the rounding of the float eigensolver and of the sums alone, not the
error of the build.  The Renyi negativities E_2 and E_4, by the C_Xi
route and by the determinant route, are compared in the same way with
sum_gamma ln|det(I - C_gamma)| from ``mpmath.det`` at 30 digits.  The
cases are long-range builds at the acceptance bias (pi/2 + 0.2, pi/2)
with ell_l = ell_r = ell and d_l = d_r = 0.

The Hermitian bounds are about 14 times the largest differences
measured (7.0e-14 for MI, 8.2e-15 for MI_2 and 6.7e-15 for S_2) and
about 11 times those of S_3 (4.7e-15) and S_4 (4.2e-15); the negativity
bound is 12 times the largest of the C_Xi route (8.0e-15; 2.7e-15 for
the determinant route).

Two cases at ell = 512 need no 30-digit reference.  At T = 0 and T = 1
no amplitude links the two sides, so C_A = C_L + C_R (a direct sum) and
MI = MI_2 = 0 exactly; the values measured (1.0e-12 for MI, 6.4e-14 for
MI_2, both at T = 1) are the rounding of three spectra and their sums,
bounded at about 10 times.  Moving every entry of a ``SingleSite(1)``
C_A by one ulp, kept Hermitian, moves MI by up to 3.5e-12 and MI_2 by up
to 2.0e-13 over three draws, bounded at about 11 and 10 times: no float
evaluation of these C_A resolves MI more finely.  All the bounds sit
below the 1e-10 row tolerance of the benchmark's reference check.

Two exact symmetries of the chain give a second, independently built C_A
at any size.  The particle-hole map c_j -> (-1)^j c_j^dag flips eps0 and
sends each Fermi momentum k to pi - k:
C_A(eps0; k_l, k_r) = I - S conj(C_A(-eps0; pi - k_l, pi - k_r)) S with
S = diag((-1)^j).  In full mode it holds only with the bound state that
eps0 < 0 binds below the band filled; the entries agree to 3.4e-16,
bounded at 1e-14.  In long range the measures of the two builds differ
by 1.7e-12 (MI), 8.2e-14 (MI_2) and 1.1e-13 (S_2) at ell = 512, and at
ell = 256 by 5.7e-14 (E_2) and 7.1e-14 (E_4) on the C_Xi route and by
2.7e-15 (E_2) and 8.9e-15 (E_4) on the determinant route; each bound is
about 10 times that.  E itself moves by 3e-7 there and is left out until
its C_Xi route is mended.  The mirror map j -> -j swaps k_l with k_r and
(d_l, ell_l) with (d_r, ell_r); the mirrored build, its sites reversed,
gives C_A back to 3.1e-18 in long range and 2.8e-17 in full mode, bounded
at about 10 times.  The README lists every bound with E's floor, which is
still open.
"""

import mpmath
import numpy as np
import pytest

from nesscorr.correlation import CorrelationMatrix, build_corr_matrix
from nesscorr.measures import (mutual_information, renyi_entropy, renyi_negativity_det,
                               renyi_negativity_eig)
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite

BIAS = BiasConfig(np.pi / 2 + 0.2, np.pi / 2)
DPS = 30
BOUNDS = {"MI": 1e-12, "MI_2": 1e-13, "S_2": 1e-13, "S_3": 5e-14, "S_4": 5e-14}
NEGATIVITY_BOUND = 1e-13
DECOUPLED_BOUNDS = {"MI": 1e-11, "MI_2": 6e-13}
ONE_ULP_BOUNDS = {"MI": 4e-11, "MI_2": 2e-12}
LARGE = Geometry(0, 512, 0, 512)
PARTICLE_HOLE_BOUNDS = {"MI": 2e-11, "MI_2": 1e-12, "S_2": 1e-12}
PARTICLE_HOLE_NEGATIVITY_BOUNDS = {(renyi_negativity_eig, 2): 6e-13,
                                   (renyi_negativity_eig, 4): 7e-13,
                                   (renyi_negativity_det, 2): 3e-14,
                                   (renyi_negativity_det, 4): 9e-14}
MIRROR_BOUNDS = {"longrange": 3e-17, "full": 3e-16}
MODELS = {"single_site": SingleSite(1.0), "beamsplitter": ConstantS.beamsplitter(0.4)}


def _spectrum_mp(mat: np.ndarray) -> list:
    """Eigenvalues of the Hermitian ``mat`` at DPS digits, clipped into [0, 1]."""
    m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in mat])
    return [min(max(mpmath.re(x), 0), 1) for x in mpmath.eighe(m, eigvals_only=True)]


def _vn_mp(spectrum) -> mpmath.mpf:
    return -mpmath.fsum(x * mpmath.log(x) for x in spectrum + [1 - y for y in spectrum]
                        if x > 0)


def _renyi_mp(spectrum, n: int) -> mpmath.mpf:
    return mpmath.fsum(mpmath.log(x ** n + (1 - x) ** n) for x in spectrum) / (1 - n)


@pytest.mark.parametrize("ell", [8, 16])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_hermitian_measures_sit_on_their_floor(name, ell):
    c_a = build_corr_matrix(MODELS[name], BIAS, Geometry(0, ell, 0, ell), "A",
                            "longrange")
    c_l, c_r = c_a.blocks()
    with mpmath.workdps(DPS):
        spectra = [_spectrum_mp(c.mat) for c in (c_l, c_r, c_a)]
        want = {
            "MI": float(_vn_mp(spectra[0]) + _vn_mp(spectra[1]) - _vn_mp(spectra[2])),
            "MI_2": float(_renyi_mp(spectra[0], 2) + _renyi_mp(spectra[1], 2)
                          - _renyi_mp(spectra[2], 2)),
            **{f"S_{n}": float(_renyi_mp(spectra[2], n)) for n in (2, 3, 4)},
        }
    got = {**_mutual_informations(c_a, c_l, c_r),
           **{f"S_{n}": renyi_entropy(c_a, n).value for n in (2, 3, 4)}}
    for key, bound in BOUNDS.items():
        assert abs(got[key] - want[key]) <= bound, (key, got[key], want[key])


def _mutual_informations(c_a, c_l, c_r) -> dict[str, float]:
    return {"MI": mutual_information(c_l, c_r, c_a).value,
            "MI_2": mutual_information(c_l, c_r, c_a, 2).value}


@pytest.mark.parametrize("transmission", [0.0, 1.0])
def test_decoupled_mutual_informations_sit_on_their_floor(transmission):
    c_a = build_corr_matrix(ConstantS.beamsplitter(transmission), BIAS, LARGE, "A",
                            "longrange")
    assert not np.any(c_a.mat[:c_a.n_left, c_a.n_left:])  # C_A = C_L + C_R
    got = _mutual_informations(c_a, *c_a.blocks())
    for key, bound in DECOUPLED_BOUNDS.items():
        assert abs(got[key]) <= bound, (key, got[key])


def _one_ulp_move(mat: np.ndarray, rng) -> np.ndarray:
    """``mat`` with each real and imaginary part moved one ulp up or down, kept Hermitian."""
    way = rng.choice([-np.inf, np.inf], size=(2,) + mat.shape)
    moved = np.nextafter(mat.real, way[0]) + 1j * np.nextafter(mat.imag, way[1])
    upper = np.triu(moved, 1)
    return upper + upper.conj().T + np.diag(moved.diagonal().real)


def test_one_ulp_perturbation_moves_mutual_informations_within_their_floor():
    c_a = build_corr_matrix(SingleSite(1.0), BIAS, LARGE, "A", "longrange")
    want = _mutual_informations(c_a, *c_a.blocks())
    for seed in range(3):
        moved = CorrelationMatrix(c_a.sites, _one_ulp_move(c_a.mat, np.random.default_rng(seed)),
                                  c_a.n_left)
        got = _mutual_informations(moved, *moved.blocks())
        for key, bound in ONE_ULP_BOUNDS.items():
            assert abs(got[key] - want[key]) <= bound, (key, seed, got[key], want[key])


def _negativity_mp(mat: np.ndarray, size_left: int, n: int) -> mpmath.mpf:
    """sum_gamma ln|det(I - C_gamma)| of the float ``mat`` at DPS digits."""
    dim = len(mat)
    total = mpmath.mpf(0)
    for j in range(n):
        phase = mpmath.expjpi(mpmath.mpf(2 * j - n + 1) / n)  # e^{2 pi i gamma / n}
        scale = [1 - phase] * size_left + [1 + 1 / phase] * (dim - size_left)
        factor = mpmath.matrix(dim, dim)
        for p in range(dim):
            for q in range(dim):
                factor[p, q] = (p == q) - scale[p] * mpmath.mpc(complex(mat[p, q]))
        total += mpmath.log(abs(mpmath.det(factor)))
    return total


@pytest.mark.parametrize("ell", [8, 16])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_renyi_negativities_sit_on_their_floor(name, ell):
    c_a = build_corr_matrix(MODELS[name], BIAS, Geometry(0, ell, 0, ell), "A",
                            "longrange")
    for n in (2, 4):
        with mpmath.workdps(DPS):
            want = float(_negativity_mp(c_a.mat, c_a.n_left, n))
        for route in (renyi_negativity_eig, renyi_negativity_det):
            got = route(c_a, c_a.n_left, n).value
            assert abs(got - want) <= NEGATIVITY_BOUND, (route.__name__, n, got, want)


def _particle_hole_pair(eps0: float, g: Geometry, mode: str):
    """C_A at eps0, and I - S conj(C_A') S from the partner build C_A' at -eps0."""
    c_a = build_corr_matrix(SingleSite(eps0), BIAS, g, "A", mode)
    flipped = BiasConfig(np.pi - BIAS.kf_l, np.pi - BIAS.kf_r)
    partner = build_corr_matrix(SingleSite(-eps0), flipped, g, "A", mode)
    sign = (-1.0) ** partner.sites
    mapped = np.eye(len(sign)) - sign[:, None] * partner.mat.conj() * sign[None, :]
    return c_a, CorrelationMatrix(partner.sites, mapped, partner.n_left)


@pytest.mark.parametrize("d", [1, 4, 20])
@pytest.mark.parametrize("eps0", [0.05, 0.3, 1.0])
def test_full_mode_particle_hole_map_fills_the_bound_state(eps0, d):
    # the build at -eps0 < 0 holds the occupied bound state; at d = 20 its
    # weight at A is still 9.3e-2 for eps0 = 0.05
    c_a, mapped = _particle_hole_pair(-eps0, Geometry(d, 6, d, 6), "full")
    assert np.max(np.abs(c_a.mat - mapped.mat)) <= 1e-14


def test_particle_hole_map_moves_hermitian_measures_within_their_floor():
    pair = _particle_hole_pair(1.0, LARGE, "longrange")
    got = [{**_mutual_informations(c, *c.blocks()), "S_2": renyi_entropy(c, 2).value}
           for c in pair]
    for key, bound in PARTICLE_HOLE_BOUNDS.items():
        assert abs(got[0][key] - got[1][key]) <= bound, (key, got[0][key], got[1][key])


def test_particle_hole_map_moves_renyi_negativities_within_their_floor():
    pair = _particle_hole_pair(1.0, Geometry(0, 256, 0, 256), "longrange")
    for (route, n), bound in PARTICLE_HOLE_NEGATIVITY_BOUNDS.items():
        got = [route(c, c.n_left, n).value for c in pair]
        assert abs(got[0] - got[1]) <= bound, (route.__name__, n, got)


@pytest.mark.parametrize("mode, g", [("longrange", Geometry(3, 96, 7, 128)),
                                     ("full", Geometry(20, 6, 25, 9))])
@pytest.mark.parametrize("eps0", [1.0, -0.3])
def test_mirror_map_gives_the_matrix_back(mode, g, eps0):
    c_a = build_corr_matrix(SingleSite(eps0), BIAS, g, "A", mode)
    mirrored = build_corr_matrix(SingleSite(eps0), BiasConfig(BIAS.kf_r, BIAS.kf_l),
                                 Geometry(g.d_r, g.ell_r, g.d_l, g.ell_l), "A", mode)
    assert np.array_equal(mirrored.sites[::-1], -c_a.sites)
    assert np.max(np.abs(c_a.mat - mirrored.mat[::-1, ::-1])) <= MIRROR_BOUNDS[mode]

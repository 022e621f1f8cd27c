"""Error floors of the Hermitian-spectrum measures against 30-digit spectra.

MI, MI_2 and S_2(A) take their values from ``eigvalsh`` spectra of C_A,
C_L and C_R.  Each case here recomputes them from ``mpmath.eighe``
spectra of the same float matrices at 30 digits, so the difference is
the rounding of the float eigensolver and of the sums alone, not the
error of the build.  The cases are long-range builds at the acceptance
bias (pi/2 + 0.2, pi/2) with ell_l = ell_r = ell and d_l = d_r = 0.

The bounds are about 14 times the largest differences measured (7.0e-14
for MI, 8.2e-15 for MI_2 and 6.7e-15 for S_2) and below the 1e-10 row
tolerance of the benchmark's reference check.  The README lists them
with E's floor, which is still open.
"""

import mpmath
import numpy as np
import pytest

from nesscorr.correlation import build_corr_matrix
from nesscorr.measures import mutual_information, renyi_entropy
from nesscorr.model import BiasConfig, ConstantS, Geometry, SingleSite

BIAS = BiasConfig.from_fermi_momenta(np.pi / 2 + 0.2, np.pi / 2)
DPS = 30
BOUNDS = {"MI": 1e-12, "MI_2": 1e-13, "S_2": 1e-13}
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
    c_a = build_corr_matrix(MODELS[name], BIAS, Geometry(0, 0, ell, 0, ell), "A",
                            "longrange")
    c_l, c_r = c_a.blocks()
    with mpmath.workdps(DPS):
        spectra = [_spectrum_mp(c.mat) for c in (c_l, c_r, c_a)]
        want = {
            "MI": float(_vn_mp(spectra[0]) + _vn_mp(spectra[1]) - _vn_mp(spectra[2])),
            "MI_2": float(_renyi_mp(spectra[0], 2) + _renyi_mp(spectra[1], 2)
                          - _renyi_mp(spectra[2], 2)),
            "S_2": float(_renyi_mp(spectra[2], 2)),
        }
    got = {"MI": mutual_information(c_l, c_r, c_a).value,
           "MI_2": mutual_information(c_l, c_r, c_a, 2).value,
           "S_2": renyi_entropy(c_a, 2).value}
    for key, bound in BOUNDS.items():
        assert abs(got[key] - want[key]) <= bound, (key, got[key], want[key])

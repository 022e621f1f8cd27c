"""Impurity models, bias configuration and subsystem geometry.

The chain is an infinite tight-binding lattice whose hopping sets the energy
unit, with a current-conserving impurity at site 0.  Extended
single-particle eigenstates come in two families labeled by the incoming
direction, with reflection/transmission amplitudes collected in a 2x2
unitary scattering matrix

    S(k) = [[r_l, t_r],
            [t_l, r_r]],      0 < k < pi.

An :class:`ImpurityModel` gives the four amplitudes on an array of
momenta (:meth:`~ImpurityModel.amplitudes`), which the finite-distance
kernels read, and the probabilities T(k) = |t_l|^2 and R(k) = |r_l|^2,
which are all that the closed forms read.

Two reservoirs fill left-moving and right-moving states up to the Fermi
momenta ``kf_l`` and ``kf_r``, which is all that :class:`BiasConfig`
holds; a chemical potential converts to one through :func:`fermi_momentum`.

The impurity sits at site 0 and has no half-width.  Two subsystems are
considered: the sites -(d_l + b), b = 1..ell_l, to its left and the sites
d_r + a, a = 1..ell_r, to its right.  The mirror-image overlap

    ell_mirror = max(min(d_l + ell_l, d_r + ell_r) - max(d_l, d_r), 0)

counts site pairs (-m, m) with one member in each interval; it controls
every volume-law term downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandEdgeError, DomainError

UNITARITY_TOL = 1e-10
PROBABILITY_TOL = 1e-12


class ImpurityModel:
    """Base class; concrete impurities provide amplitudes at any momentum."""

    def amplitudes(self, k):
        """Vectorized (r_l, t_l, r_r, t_r) over an array of momenta."""
        raise NotImplementedError

    def transmission(self, k):
        _, t_l, _, _ = self.amplitudes(k)
        return np.abs(t_l) ** 2

    def reflection(self, k):
        """R(k) = |r_l|^2, never formed as 1 - T(k)."""
        r_l, _, _, _ = self.amplitudes(k)
        return np.abs(r_l) ** 2


@dataclass(frozen=True)
class ConstantS(ImpurityModel):
    """Impurity with momentum-independent scattering amplitudes."""

    r_l: complex
    t_l: complex
    r_r: complex
    t_r: complex

    def __post_init__(self):
        s = np.array([[self.r_l, self.t_r], [self.t_l, self.r_r]], dtype=complex)
        residual = np.max(np.abs(s.conj().T @ s - np.eye(2)))
        if not residual <= UNITARITY_TOL:  # NaN fails too
            raise DomainError(
                f"scattering matrix not unitary: residual {residual:.3e}")
        transmission = abs(self.t_l) ** 2
        if not abs(transmission - abs(self.t_r) ** 2) <= PROBABILITY_TOL:
            raise DomainError("left/right transmission probabilities differ")
        if not abs(transmission + abs(self.r_l) ** 2 - 1.0) <= PROBABILITY_TOL:
            raise DomainError("T + R deviates from 1 beyond tolerance")

    @classmethod
    def beamsplitter(cls, transmission: float) -> "ConstantS":
        """Symmetric beamsplitter with the given transmission probability."""
        if not 0.0 <= transmission <= 1.0:
            raise DomainError(f"transmission {transmission} outside [0, 1]")
        t = np.sqrt(transmission)
        r = 1j * np.sqrt(1.0 - transmission)
        return cls(r_l=r, t_l=t, r_r=r, t_r=t)

    def amplitudes(self, k):
        k = np.asarray(k, dtype=float)
        shape = k.shape
        return (np.full(shape, self.r_l, dtype=complex),
                np.full(shape, self.t_l, dtype=complex),
                np.full(shape, self.r_r, dtype=complex),
                np.full(shape, self.t_r, dtype=complex))


@dataclass(frozen=True)
class SingleSite(ImpurityModel):
    """Single-site impurity: on-site energy eps0 at m = 0, in hopping units.

    The transmission probability is

        T(k) = sin^2 k / (sin^2 k + (eps0 / 2)^2).

    Only T, R and the combination t* r enter any measured quantity; the
    individual phases below are one fixed unitary-consistent convention,
    recorded for reproducibility:

        t = sin k / (sin k + i eps0 / 2),    r = t - 1.
    """

    eps0: float

    def __post_init__(self):
        if not np.isfinite(self.eps0):
            raise DomainError(f"on-site energy eps0={self.eps0} must be finite")

    def amplitudes(self, k):
        k = np.asarray(k, dtype=float)
        s = np.sin(k)
        a = self.eps0 / 2.0
        t = s / (s + 1j * a)
        r = t - 1.0
        return r, t, r, t

    def reflection(self, k):
        """R(k) = a^2 / (sin^2 k + a^2), a = eps0 / 2: exactly 0 at eps0 = 0."""
        s = np.sin(np.asarray(k, dtype=float))
        a = self.eps0 / 2.0
        return a * a / (s * s + a * a)

    def bound_state(self, j) -> np.ndarray:
        """Amplitudes psi_j = sqrt((1 - z^2) / (1 + z^2)) z^|j| of the bound state.

        Defined for eps0 < 0 only, where it lies below the band, at energy
        -sqrt(eps0^2 + 4), with z = 2 / (sqrt(eps0^2 + 4) - eps0) in (0, 1);
        every sign is positive.
        """
        z = 2.0 / (np.hypot(self.eps0, 2.0) - self.eps0)
        return np.sqrt((1.0 - z * z) / (1.0 + z * z)) * z ** np.abs(j)


def fermi_momentum(eta: float, mu: float) -> float:
    """Fermi momentum arccos(-mu / 2 eta) in [0, pi]."""
    if not 0 < eta < np.inf:  # NaN fails too
        raise DomainError(f"hopping amplitude eta={eta} must be finite and > 0")
    x = -mu / (2.0 * eta)
    if not abs(x) <= 1.0:
        raise BandEdgeError(f"mu={mu} lies outside the band |mu| <= 2*eta={2 * eta}")
    return float(np.arccos(x))


@dataclass(frozen=True)
class BiasConfig:
    """The two reservoirs' Fermi momenta, each in [0, pi]."""

    kf_l: float
    kf_r: float

    def __post_init__(self):
        for kf in (self.kf_l, self.kf_r):
            if not 0.0 <= kf <= np.pi:  # NaN fails too
                raise DomainError(f"Fermi momentum {kf} outside [0, pi]")

    @property
    def k_plus(self) -> float:
        return max(self.kf_l, self.kf_r)

    @property
    def k_minus(self) -> float:
        return min(self.kf_l, self.kf_r)

    @property
    def delta_k(self) -> float:
        return self.k_plus - self.k_minus


@dataclass(frozen=True)
class Geometry:
    """The two subsystem intervals, in sites from the impurity at site 0."""

    d_l: int
    ell_l: int
    d_r: int
    ell_r: int

    def __post_init__(self):
        for name in ("d_l", "ell_l", "d_r", "ell_r"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise DomainError(f"{name}={value!r} must be a nonnegative integer")
        if self.ell_l < 1 or self.ell_r < 1:
            raise DomainError("subsystem lengths must be at least 1 site")
        reach = max(int(self.d_l) + int(self.ell_l), int(self.d_r) + int(self.ell_r))
        if reach > np.iinfo(np.int64).max:
            raise DomainError(f"the outermost site, {reach} from the impurity, "
                              "does not fit a 64-bit integer")

    def left_sites(self) -> np.ndarray:
        """A_L site indices, ascending (leftmost first)."""
        b = np.arange(self.ell_l, 0, -1)
        return -(self.d_l + b)

    def right_sites(self) -> np.ndarray:
        """A_R site indices, ascending."""
        a = np.arange(1, self.ell_r + 1)
        return self.d_r + a


def mirror_overlap(g: Geometry) -> tuple[int, int, int]:
    """(ell_mirror, delta_ell_l, delta_ell_r) for a geometry."""
    ell_mirror = max(min(g.d_l + g.ell_l, g.d_r + g.ell_r)
                     - max(g.d_l, g.d_r), 0)
    return ell_mirror, g.ell_l - ell_mirror, g.ell_r - ell_mirror

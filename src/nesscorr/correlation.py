"""Two-point correlation matrices of the biased steady state.

Entries are built from the scattering-state mode sum

    <c_j^dag c_m> = int dk/2pi <k|j><m|k>

over left states (occupied up to ``kf_l``) and right states (occupied up
to ``kf_r``).  Two evaluation modes are provided:

``longrange``
    The limit d_i / ell_i -> infinity at fixed d_l - d_r.  Same-side
    entries reduce to a Fermi-sea kernel plus a transmission-weighted
    window integral in j - m; cross entries keep only the t* r window
    integral in j + m.  Same-side blocks are therefore Toeplitz and the
    cross block depends on j + m only.

``full``
    Direct quadrature of the complete mode sum at finite distances,
    including the reflection terms oscillating in j + m that the
    long-range kernel drops.  A single-site impurity with eps0 < 0 binds a
    state below the band, below both chemical potentials: both reservoirs
    fill it, and full mode adds it.  For eps0 > 0 the bound state lies above
    the band and stays empty.  Its weight at d_i is not small for weak
    impurities (0.09 at eps0 = -0.05, d = 20, ell = 6); long range drops it.

Within each built matrix the Hermitian mirror is stored exactly: the
upper triangle is computed once and conjugated into the lower one.

Quadratures are batched by panel class.  Two integrals on the same
interval with the same initial panel count are evaluated at the same
nodes, so each class evaluates its nodes and amplitudes once, the
factors shared by several entries once, and each distinct lag's phase
e^{-iky} once, whether entries share it or own it; every entry then gets
exactly the value of its own adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .densela import toeplitz
from .errors import DimensionError, DomainError
from .model import BiasConfig, ConstantS, Geometry, ImpurityModel, SingleSite
from .quadrature import InitialPanels

ENTRY_TOL = 1e-11
FULL_TOL = 1e-10
SPECTRUM_SLACK = 1e-8
# cache key of the last full-mode build's (sites, mat); window keys are tuples
_LAST_FULL = "last full build"
_HERMITIAN_STRIP = 64


@dataclass(frozen=True)
class CorrelationMatrix:
    """Dense Hermitian correlation matrix with its physical site map.

    Immutable: ``mat`` is a read-only view (no copy) of the given array,
    so the spectra memoized in ``_spectra`` stay those of ``mat``.
    """

    sites: np.ndarray
    mat: np.ndarray
    n_left: int  # number of leading indices that live left of the impurity
    _spectra: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", np.asarray(self.sites, dtype=int))
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=complex).view())
        self.mat.flags.writeable = False
        n = len(self.sites)
        if self.mat.shape != (n, n):
            raise DimensionError(
                f"site map of length {n} does not match matrix {self.mat.shape}")
        if n == 0:
            raise DimensionError("the site map is empty")
        if not 0 <= self.n_left <= n:
            raise DimensionError(f"n_left = {self.n_left} lies outside [0, {n}]")
        diag = np.diag(self.mat)
        if np.max(np.abs(diag.imag)) > 1e-10:
            raise DomainError("diagonal entries must be real occupations")
        if diag.real.min() < -SPECTRUM_SLACK or diag.real.max() > 1 + SPECTRUM_SLACK:
            raise DomainError("diagonal occupations outside [0, 1]")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def blocks(self) -> tuple[CorrelationMatrix, CorrelationMatrix]:
        """(C_L, C_R): views of the leading ``n_left`` block and the rest."""
        nl = self.n_left
        return (CorrelationMatrix(self.sites[:nl], self.mat[:nl, :nl], nl),
                CorrelationMatrix(self.sites[nl:], self.mat[nl:, nl:], 0))


def _fermi_kernel(kf: float, delta) -> np.ndarray:
    # int_{-kf}^{kf} dk/2pi e^{-i delta k} = sin(kf delta) / (pi delta),
    # kf / pi at delta = 0; elementwise over an array of integer lags
    delta = np.asarray(delta, dtype=float)
    zero = delta == 0
    return np.where(zero, kf / np.pi,
                    np.sin(kf * delta) / (np.pi * np.where(zero, 1.0, delta)))


def _phase_integral(freq: float, k1: float, k2: float) -> complex:
    # oriented int_{k1}^{k2} dk/2pi e^{i freq k}, exact
    if freq == 0.0:
        return (k2 - k1) / (2.0 * np.pi)
    return (np.exp(1j * freq * k2) - np.exp(1j * freq * k1)) / (2j * np.pi * freq)


# window weight w(k) of each kind, from the amplitudes (r_l, t_l, r_r, t_r)
_WEIGHTS = {
    "T": lambda r_l, t_l, r_r, t_r: abs(t_l) ** 2,
    "R": lambda r_l, t_l, r_r, t_r: np.conj(t_r) * r_r,
}

# Bit identity with the entry-by-entry quadrature.  Complex products round
# differently with their operands swapped (the SIMD loop fuses a multiply
# into an add), and numpy evaluates ``a * b`` as ``b *= a`` when ``b`` is a
# temporary of at least 256 KiB and ``a`` is not.  So where a per-entry
# integrand multiplied a fresh factor (a phase, a weight) from the right
# of an array it kept, the batched code multiplies a fresh array too, even
# when its values are shared.


def _window_values(weight: np.ndarray, k: np.ndarray, freq) -> np.ndarray:
    # w(k) e^{i freq k} / 2pi with the weight as a fresh operand
    return np.copy(weight) * np.exp(1j * freq * k) / (2.0 * np.pi)


def _window_integrals(model: ImpurityModel, bias: BiasConfig, kind: str, freqs,
                      cache: dict) -> np.ndarray:
    """Oriented window integrals int_{kf_r}^{kf_l} w(k) e^{i f k} dk/2pi at each f.

    ``kind`` names the weight: ``"T"`` = |t_l|^2, ``"R"`` = t_r^* r_r.  The
    weight T is real, so its integral at f > 0 is the conjugate of the one
    at -f, bit for bit (cos is even, sin odd, and every 0 * x term an exact
    zero): only -|f| is integrated.  Closed forms for constant amplitudes,
    adaptive quadrature otherwise.  Values are memoized in ``cache`` per
    (kind, integrated frequency); a cache may be shared between builds with
    the same model and bias.
    """
    weight = _WEIGHTS[kind]
    keys = [-abs(f) for f in freqs] if kind == "T" else list(freqs)
    misses = [f for f in dict.fromkeys(keys) if (kind, f) not in cache]
    k1, k2 = bias.kf_r, bias.kf_l
    if isinstance(model, ConstantS):
        amps = (model.r_l, model.t_l, model.r_r, model.t_r)
        for freq in misses:
            cache[(kind, freq)] = weight(*amps) * _phase_integral(freq, k1, k2)
    elif k1 == k2:
        cache.update(((kind, freq), 0.0) for freq in misses)
    else:
        # frequencies with the same initial panel count share the nodes
        classes: dict = {}
        for freq, n0 in zip(misses, InitialPanels.count(abs(k2 - k1), misses).tolist()):
            classes.setdefault(n0, []).append(freq)
        for n0, members in classes.items():
            panels = InitialPanels(k1, k2, n0, tol=ENTRY_TOL)
            w = weight(*model.amplitudes(panels.nodes))
            for freq in members:
                def f(k, freq=freq):
                    return _window_values(weight(*model.amplitudes(k)), k, freq)

                cache[(kind, freq)] = panels.integrate(
                    f, _window_values(w, panels.nodes, freq))
    values = np.array([cache[(kind, f)] for f in keys])
    if kind == "T":
        flip = np.asarray(freqs) > 0
        values[flip] = values[flip].conj()
    return values


# The integrand of one occupied sea takes one of four forms.  With the
# sea's phase E(y) = e^{-iky} (left sea) or e^{+iky} (right sea), its
# conjugate E*(y), the sea's amplitudes r, t, D = j - m and S = j + m:
_NEAR = 0      # j, m on the sea's side:  (E(D) + |r|^2 E*(D) + r E(S) + r* E*(S)) / 2pi
_FAR = 1       # j, m on the other side:  |t|^2 E(D) / 2pi
_CROSS_M = 2   # only m on the sea's side: t* (E(D) + r E(S)) / 2pi
_CROSS_J = 3   # only j on the sea's side: t (E(D) + r* E*(S)) / 2pi
_TWO_PI = 2.0 * np.pi


class _SeaNodes:
    """The k-dependent factors of one sea's integrands at a node array."""

    def __init__(self, model: ImpurityModel, left: bool, k: np.ndarray):
        r_l, t_l, r_r, t_r = model.amplitudes(k)
        self.r, self.t = (r_l, t_l) if left else (r_r, t_r)
        self.left = left
        self.mik = -1j * k

    @cached_property
    def r_abs2(self) -> np.ndarray:
        return np.abs(self.r) ** 2

    @cached_property
    def t_abs2(self) -> np.ndarray:
        return np.abs(self.t) ** 2

    def lag_phase(self, y) -> np.ndarray:
        """x = e^{-iky} at the nodes, the one exponential of lag y."""
        return np.exp(self.mik * y)

    def phase(self, x: np.ndarray) -> np.ndarray:
        """E(y) as a fresh array, from x = e^{-iky}; conj(x) is e^{+iky}."""
        return np.copy(x) if self.left else np.conj(x)

    def phase_conj(self, x: np.ndarray) -> np.ndarray:
        """E*(y), from x = e^{-iky}; it multiplies only fresh or real factors."""
        return np.conj(x) if self.left else x

    def shared(self, form: int, x: np.ndarray | None) -> tuple:
        """The factors common to every entry of ``form`` with shared lag y.

        y is S on the same side and D across, and x its phase (none for
        ``_FAR``, whose entries share no factor).
        """
        if form == _FAR:
            return ()
        if form == _NEAR:
            return self.r * self.phase(x), np.conj(self.r) * self.phase_conj(x)
        return (self.phase(x),)

    def entry(self, form: int, shared: tuple, x: np.ndarray) -> np.ndarray:
        """One entry's integrand at the nodes; x is its own lag's phase (D or S)."""
        if form == _NEAR:
            r_e, r_conj_e = shared
            return (self.phase(x) + self.r_abs2 * self.phase_conj(x)
                    + r_e + r_conj_e) / _TWO_PI
        if form == _FAR:
            return self.t_abs2 * self.phase(x) / _TWO_PI
        (e,) = shared
        if form == _CROSS_M:
            return np.conj(self.t) * (e + self.r * self.phase(x)) / _TWO_PI
        return self.t * (e + np.conj(self.r) * self.phase_conj(x)) / _TWO_PI

    def integrand(self, form: int, y_shared, y_own) -> np.ndarray:
        """One entry's integrand from its two lags, each phase evaluated here."""
        x = None if form == _FAR else self.lag_phase(y_shared)
        return self.entry(form, self.shared(form, x), self.lag_phase(y_own))


def _full_sea(model: ImpurityModel, kf: float, left: bool,
              j: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One occupied sea's term of every entry (j, m), class by class.

    Entries with the same initial panel count share the nodes and the
    amplitudes; entries that also share their form and lag (S on the same
    side, D across) share its factors, and every lag's phase is evaluated
    once per class.
    """
    out = np.zeros(j.shape, dtype=complex)
    if kf == 0.0:
        return out
    diff, total = j - m, j + m
    same = (j < 0) == (m < 0)
    form = np.where(same, np.where((j < 0) == left, _NEAR, _FAR),
                    np.where((j < 0) == left, _CROSS_J, _CROSS_M))
    shared, own = np.where(same, total, diff), np.where(same, diff, total)
    # |shared| = |j| + |m| = max(|D|, |S|) is the entry's frequency
    n0 = InitialPanels.count(kf, np.abs(shared))
    classes: dict = {}
    for i, (n, kind, y, y_own) in enumerate(zip(n0.tolist(), form.tolist(),
                                               shared.tolist(), own.tolist())):
        classes.setdefault(n, {}).setdefault(y_own, []).append((i, kind, y))
    for n, lags in classes.items():
        _full_sea_class(model, kf, left, n, lags, out)
    return out


def _full_sea_class(model, kf, left, n0, lags, out):
    """Fill ``out[i]`` for the entries of one class; its arrays die on return.

    ``lags`` maps each own lag to its entries ``(i, form, shared lag)``.
    The shared lags' phases come first: each forms its groups' shared
    factors, which the class keeps, and is dropped unless it is also an
    own lag.  The walk then holds one own lag's phase at a time, so each
    distinct lag's exponential is evaluated once per class.
    """
    panels = InitialPanels(0.0, kf, n0, tol=FULL_TOL)
    sea = _SeaNodes(model, left, panels.nodes)
    forms_at: dict = {}
    for members in lags.values():
        for _, form, y in members:
            forms_at.setdefault(y, set()).add(form)
    shared, held = {}, {}
    for y, forms in forms_at.items():
        x = None if forms == {_FAR} else sea.lag_phase(y)
        for form in forms:
            shared[form, y] = sea.shared(form, x)
        if x is not None and y in lags:
            held[y] = x
    for y_own, members in lags.items():
        x = held.pop(y_own) if y_own in held else sea.lag_phase(y_own)
        for i, form, y in members:
            def f(k, form=form, y=y, y_own=y_own):
                return _SeaNodes(model, left, k).integrand(form, y, y_own)

            out[i] = panels.integrate(f, sea.entry(form, shared[form, y], x))


def corr_entry_full(model: ImpurityModel, bias: BiasConfig, j, m):
    """Finite-distance entries <c_j^dag c_m> by direct quadrature.

    Integrates the complete scattering-state products over both occupied
    seas, keeping the reflection cross terms the long-range kernel drops,
    and adds the bound state below the band when there is one.
    ``j`` and ``m`` are sites or arrays of sites (broadcast together), none
    of them the impurity at site 0; the result has their shape.
    """
    j, m = np.broadcast_arrays(np.asarray(j, dtype=int), np.asarray(m, dtype=int))
    inside = (j == 0) | (m == 0)
    if inside.any():
        p = np.flatnonzero(inside)[0]
        raise DomainError(
            f"sites ({j.flat[p]}, {m.flat[p]}): site 0 is the impurity")
    jf, mf = j.ravel(), m.ravel()
    values = (_full_sea(model, bias.kf_l, True, jf, mf)
              + _full_sea(model, bias.kf_r, False, jf, mf))
    if isinstance(model, SingleSite) and model.eps0 < 0:
        values += model.bound_state(jf) * model.bound_state(mf)
    values = values.reshape(j.shape)
    return values[()] if values.ndim == 0 else values


def _hermitian_fill(mat: np.ndarray) -> None:
    """Store the Hermitian matrix of ``mat``'s upper triangle, in place.

    The diagonal becomes ``0.0 + Re``, an entry u above it ``0.0 + u`` and
    its mirror ``0.0 + conj(u)``: the bits of diag + triu + triu^dagger
    summed into zeros, signed zeros included.  Strips of
    ``_HERMITIAN_STRIP`` rows are filled from the bottom up, so each strip
    reads the upper triangle above it before that is rewritten, and no
    temporary is larger than a strip (a scan holds an earlier C_A during
    the build).
    """
    n = mat.shape[0]
    b = _HERMITIAN_STRIP
    for i in reversed(range(0, n, b)):
        j = min(i + b, n)
        np.conjugate(mat[:i, i:j].T, out=mat[i:j, :i])
        mat[i:j, :i] += 0.0
        upper = np.triu(mat[i:j, i:j], 1)
        block = np.zeros_like(upper)
        np.fill_diagonal(block, mat[i:j, i:j].diagonal().real)
        block += upper
        block += np.conjugate(upper, out=upper).T
        mat[i:j, i:j] = block
        mat[i:j, j:] += 0.0


def build_corr_matrix(model: ImpurityModel, bias: BiasConfig, g: Geometry,
                      subsystem: str, mode: str = "longrange",
                      cache=None) -> CorrelationMatrix:
    """Correlation matrix of A_L, A_R or A = A_L union A_R.

    The whole of A is built, its sites in ascending physical order (the
    A_L block precedes the A_R block); ``"A_L"`` and ``"A_R"`` return the
    matching view from :meth:`CorrelationMatrix.blocks`.  ``mode`` selects
    the long-range kernel or the finite-distance quadrature.

    ``cache`` is a dict shared only between builds with the same model
    and bias.  It memoizes the long-range window integrals per
    (kind, frequency) and holds the last successful full-mode build's
    site map and matrix: a full-mode entry depends on its two sites
    alone, so the next full-mode build copies every pair of sites that
    build held and integrates only the others, bit for bit as if fresh.
    """
    if subsystem not in ("A_L", "A_R", "A"):
        raise DomainError(f"unknown subsystem {subsystem!r}")
    if mode not in ("longrange", "full"):
        raise DomainError(f"unknown mode {mode!r}")
    left, right = g.left_sites(), g.right_sites()
    sites = np.concatenate([left, right])
    nl, nr = len(left), len(right)
    n = nl + nr
    mat = np.zeros((n, n), dtype=complex)

    if mode == "full":
        held = np.zeros(n, dtype=bool)
        if cache is not None and _LAST_FULL in cache:
            # both site maps ascend, so the upper triangle maps to the upper
            # triangle; the lower one is discarded by the Hermitian fill
            old_sites, old_mat = cache[_LAST_FULL]
            pos = np.minimum(np.searchsorted(old_sites, sites), len(old_sites) - 1)
            held = old_sites[pos] == sites
            mat[np.ix_(held, held)] = old_mat[np.ix_(pos[held], pos[held])]
        row, col = np.triu_indices(n)
        fresh = ~(held[row] & held[col])
        row, col = row[fresh], col[fresh]
        mat[row, col] = corr_entry_full(model, bias, sites[row], sites[col])
    else:
        cache = {} if cache is None else cache
        # sites within each block are consecutive integers, so the site
        # difference equals the position difference: Toeplitz fill by lag;
        # at lag d the left block takes T's integral at d, the right one at -d
        m = max(nl, nr)
        t = _window_integrals(model, bias, "T", range(1 - m, m), cache)
        mat[:nl, :nl] = toeplitz(_fermi_kernel(bias.kf_l, np.arange(1 - nl, nl))
                                 - t[m - nl:m + nl - 1])
        mat[nl:, nl:] = toeplitz(_fermi_kernel(bias.kf_r, np.arange(1 - nr, nr))
                                 + t[m - nr:m + nr - 1].conj())
        # cross entries depend on the site sum only (Hankel-like)
        base = int(left[0] + right[0])
        anti = -_window_integrals(model, bias, "R", range(base, base + n - 1), cache)
        mat[:nl, nl:] = sliding_window_view(anti, nr)[:nl]

    _hermitian_fill(mat)
    c_a = CorrelationMatrix(sites=sites, mat=mat, n_left=nl)
    if mode == "full" and cache is not None:
        cache[_LAST_FULL] = (c_a.sites, c_a.mat)
    if subsystem == "A":
        return c_a
    c_l, c_r = c_a.blocks()
    return c_l if subsystem == "A_L" else c_r

"""Adaptive Gauss-Legendre quadrature tuned for oscillatory spectral integrals.

The production rule is a panel-adaptive Gauss-Legendre scheme.  For an
integrand carrying a phase factor ``exp(i*f*k)`` the initial panels are
sized so that ``|f| * width <= pi/2``, which keeps a fixed-order rule well
inside its super-algebraic convergence regime; panels failing the local
error test are bisected.

The panel tree is processed one bisection level at a time.  Each level
makes a single call to the integrand with one flat array: every pending
panel's ``ORDER`` coarse nodes followed by its ``2*ORDER`` fine nodes.  The
integrand must therefore be elementwise in ``k`` (the value at a node may
not depend on the other nodes in the array); a scalar return is broadcast
to every node.  The accepted panels' fine sums are added to the total one
at a time in descending order of their left edges, the order in which a
depth-first, right-first traversal of the same tree meets them, so the
rounding of the result does not depend on how the work is batched.

:class:`InitialPanels` is the rule's first level on its own: integrands
that share an interval and an initial panel count share its nodes, and
each one's values there start its own bisection loop.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

from .errors import ConvergenceError

ORDER = 16  # Gauss-Legendre order of the base rule; the error estimate doubles it
MAX_PANELS = 40000  # ConvergenceError iff n0 initial panels + 2 per bisection exceed it
_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = legendre.leggauss(order)
        _GL_CACHE[order] = rule
    return rule


def _level(plo: np.ndarray, phi: np.ndarray, x: np.ndarray):
    """Midpoints, half-widths and the flat node array of one panel level."""
    mid = 0.5 * (plo + phi)
    half = 0.5 * (phi - plo)
    return mid, half, (mid[:, None] + half[:, None] * x).ravel()


class InitialPanels:
    """The first level of the panel tree on the oriented interval [a, b].

    ``n0`` equal panels (:meth:`count` gives the rule's choice); ``nodes``
    holds each panel's ``ORDER`` coarse then ``2*ORDER`` fine nodes.
    Integrands that share the interval and ``n0`` share these nodes, so a
    caller may evaluate several integrands here once and pass each one's
    values to :meth:`integrate`.
    """

    def __init__(self, a: float, b: float, n0: int, tol: float):
        if n0 > MAX_PANELS:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] needs {n0} initial panels, "
                f"over the budget of {MAX_PANELS}")
        self.a, self.b, self.n0, self.tol = a, b, n0, tol
        self.sign = 1.0
        lo, hi = a, b
        if hi < lo:
            lo, hi = hi, lo
            self.sign = -1.0
        self.width = hi - lo
        self.x = np.concatenate([_gl_rule(ORDER)[0], _gl_rule(2 * ORDER)[0]])
        edges = np.linspace(lo, hi, n0 + 1)
        self.plo, self.phi = edges[:-1], edges[1:]
        self.mid, self.half, self.nodes = _level(self.plo, self.phi, self.x)

    @staticmethod
    def count(width, frequency):
        """n0 = max(1, ceil(width * |frequency| / (pi/2))), elementwise."""
        return np.maximum(1, np.ceil(width * np.abs(frequency) / (0.5 * math.pi))
                          ).astype(int)

    def integrate(self, f, values):
        """The integral of ``f``, given its ``values`` at :attr:`nodes`.

        Panels failing the error test are bisected level by level, calling
        ``f`` once per level with the nodes of the pending panels.
        """
        width, tol = self.width, self.tol
        w_c, w_f = _gl_rule(ORDER)[1], _gl_rule(2 * ORDER)[1]
        plo, phi, mid, half, nodes = self.plo, self.phi, self.mid, self.half, self.nodes
        done_lo, done_fine = [], []
        spent = self.n0
        while True:
            vals = np.broadcast_to(values, nodes.shape).reshape(plo.size, -1)
            coarse = half * np.sum(w_c * vals[:, :ORDER], axis=1)
            fine = half * np.sum(w_f * vals[:, ORDER:], axis=1)
            err = np.abs(fine - coarse)
            ok = (err <= tol * (phi - plo) / width) | ((phi - plo) < width * 2.0 ** -52)
            done_lo.append(plo[ok])
            done_fine.append(fine[ok])
            split = ~ok
            if not split.any():
                break
            spent += 2 * np.count_nonzero(split)
            if spent > MAX_PANELS:
                raise ConvergenceError(
                    f"quadrature on [{self.a}, {self.b}] exceeded {MAX_PANELS} "
                    f"panels (largest rejected panel error {np.max(err[split]):.3e})")
            plo, phi, pm = plo[split], phi[split], mid[split]
            plo, phi = np.concatenate([plo, pm]), np.concatenate([pm, phi])
            mid, half, nodes = _level(plo, phi, self.x)
            values = f(nodes)
        fines = np.concatenate(done_fine)[np.argsort(np.concatenate(done_lo))[::-1]]
        total = 0.0
        for value in fines:
            total = total + value
        return self.sign * total


def adaptive_gauss_legendre(f, a: float, b: float, tol: float = 1e-10):
    """Integrate ``f`` over the oriented interval [a, b], from one panel.

    Parameters
    ----------
    f : callable
        Elementwise vectorized integrand, called once per bisection level
        with the nodes of every pending panel; may return complex values
        or a scalar.
    a, b : float
        Integration limits.  ``b < a`` yields the negated integral.
    tol : float
        Absolute tolerance for the whole interval.

    An oscillatory integrand should size its first level with
    :meth:`InitialPanels.count` instead.
    """
    if a == b:
        return 0.0
    panels = InitialPanels(a, b, 1, tol)
    return panels.integrate(f, f(panels.nodes))

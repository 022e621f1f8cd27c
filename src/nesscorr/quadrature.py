"""Adaptive Gauss-Legendre quadrature tuned for oscillatory spectral integrals.

The production rule is a panel-adaptive Gauss-Legendre scheme.  For an
integrand carrying a phase factor ``exp(i*f*k)`` the initial panels are
sized so that ``|f| * width <= pi/2``, which keeps a fixed-order rule well
inside its super-algebraic convergence regime; panels failing the local
error test are bisected.

The panel tree is processed one bisection level at a time.  Each level
makes a single call to the integrand with one flat array: every pending
panel's ``order`` coarse nodes followed by its ``2*order`` fine nodes.  The
integrand must therefore be elementwise in ``k`` (the value at a node may
not depend on the other nodes in the array); a scalar return is broadcast
to every node.  The accepted panels' fine sums are added to the total one
at a time in descending order of their left edges, the order in which a
depth-first, right-first traversal of the same tree meets them, so the
rounding of the result does not depend on how the work is batched.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

from .errors import ConvergenceError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = legendre.leggauss(order)
        _GL_CACHE[order] = rule
    return rule


def adaptive_gauss_legendre(f, a: float, b: float, tol: float = 1e-10,
                            frequency: float = 0.0, order: int = 16,
                            max_panels: int = 40000):
    """Integrate ``f`` over the oriented interval [a, b].

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
    frequency : float
        Dominant oscillation rate of the integrand (rad per unit k).  Used
        only to size the initial panels.
    order : int
        Gauss-Legendre order of the base rule; the error estimate compares
        against the doubled order.
    max_panels : int
        Panel budget.  With n0 initial panels and S bisections in the whole
        tree, ``ConvergenceError`` is raised iff ``n0 + 2*S > max_panels``.
    """
    if a == b:
        return 0.0
    sign = 1.0
    lo, hi = a, b
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    width = hi - lo
    n0 = max(1, math.ceil(width * abs(frequency) / (0.5 * math.pi)))
    if n0 > max_panels:
        raise ConvergenceError(
            f"quadrature on [{a}, {b}] needs {n0} initial panels, "
            f"over the budget of {max_panels}")
    x_c, w_c = _gl_rule(order)
    x_f, w_f = _gl_rule(2 * order)
    x = np.concatenate([x_c, x_f])
    edges = np.linspace(lo, hi, n0 + 1)
    plo, phi = edges[:-1], edges[1:]
    done_lo, done_fine = [], []
    spent = n0
    while plo.size:
        mid = 0.5 * (plo + phi)
        half = 0.5 * (phi - plo)
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        vals = np.broadcast_to(f(nodes), nodes.shape).reshape(plo.size, -1)
        coarse = half * np.sum(w_c * vals[:, :order], axis=1)
        fine = half * np.sum(w_f * vals[:, order:], axis=1)
        err = np.abs(fine - coarse)
        ok = (err <= tol * (phi - plo) / width) | ((phi - plo) < width * 2.0 ** -52)
        done_lo.append(plo[ok])
        done_fine.append(fine[ok])
        split = ~ok
        spent += 2 * np.count_nonzero(split)
        if spent > max_panels:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] exceeded {max_panels} panels "
                f"(largest rejected panel error {np.max(err[split]):.3e})")
        plo, phi, pm = plo[split], phi[split], mid[split]
        plo, phi = np.concatenate([plo, pm]), np.concatenate([pm, phi])
    fines = np.concatenate(done_fine)[np.argsort(np.concatenate(done_lo))[::-1]]
    total = 0.0
    for value in fines:
        total = total + value
    return sign * total

"""The kernel table's construction and its paired recurrence, kept as
bit-for-bit references.

``rebuild_kernel_table`` makes the Chebyshev coefficients of K and M the
way ``pathcert.mollifier`` once made them on first use: per panel, the
degree-18 interpolants (``chebinterpolate``) of rho and u rho, integrated
with ``chebint`` from the panel's lower end and the previous panel's
values.  ``pair_table_eval`` runs the Clenshaw recurrence for K and M
together on ``(n, 2)`` arrays.  The program stores the coefficients as
literals and runs the recurrence on K and M apart; both must give the
same bits.
"""

from __future__ import annotations

import numpy as np

from pathcert.mollifier import _TABLE_EDGES, bump_kernel

TABLE_DEGREE = 18


def rebuild_kernel_table() -> np.ndarray:
    """The (20, 6, 2) coefficients of K and M, built from the kernel."""
    cheb = np.polynomial.chebyshev
    panels = []
    start = (0.0, 0.0)
    for a, b in zip(_TABLE_EDGES[:-1], _TABLE_EDGES[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        density = cheb.chebinterpolate(lambda y: bump_kernel(mid + half * y), TABLE_DEGREE)
        moment = cheb.chebinterpolate(
            lambda y: (mid + half * y) * bump_kernel(mid + half * y), TABLE_DEGREE
        )
        pair = [
            cheb.chebint(series, lbnd=-1.0, k=k, scl=half)
            for series, k in zip((density, moment), start)
        ]
        start = tuple(float(cheb.chebval(1.0, s)) for s in pair)
        panels.append(np.stack(pair, axis=1))
    return np.ascontiguousarray(np.stack(panels, axis=1))


def pair_table_eval(coefs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(x) and M(x), the recurrence running on both at once."""
    z = -np.abs(x)
    idx = np.clip(
        np.searchsorted(_TABLE_EDGES, z, side="right") - 1, 0, _TABLE_EDGES.size - 2
    )
    a = _TABLE_EDGES[idx]
    b = _TABLE_EDGES[idx + 1]
    y = ((z - a) - (b - z)) / (b - a)
    y2 = (2.0 * y)[:, None]
    b1 = np.zeros(z.shape + (2,))
    b2 = b1
    for c in coefs[:0:-1]:
        b1, b2 = c[idx] + y2 * b1 - b2, b1
    km = coefs[0][idx] + y[:, None] * b1 - b2
    km[z < _TABLE_EDGES[0]] = 0.0
    return np.where(x > 0.0, 1.0 - km[:, 0], km[:, 0]), km[:, 1]

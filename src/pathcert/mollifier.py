"""Bump kernel and windowed mollification of the skeleton.

The kernel is the classical bump (Friedrichs, Trans. AMS 55, 1944)

    rho(u) = c * exp(-1 / (1 - u^2))   for |u| < 1,   0 otherwise,

with the stored constant c = KERNEL_C giving unit mass over (-1, 1);
every average below uses the one ``make_kernel()``.  The smooth path
``SmoothPath(skeleton, lo, hi, h)`` is defined on the skeleton's domain and
agrees with the skeleton outside a family of disjoint windows, one per
pair of consecutive anchors, held once as the three arrays of their edges
and half-widths that validation and evaluation read whole; inside window
k the path is the local average

    s(t) = integral rho(u) * skeleton(t - u * h_k) du over (-1, 1)

with half-width h_k equal to a quarter of the anchor spacing d_k.  The
window interval [lo_k, hi_k] has

    lo_k = (t_{k+1,0} + t_{k,2}) / 2,    hi_k = (t_{k,1} + t_{k,0}) / 2,

so both slope changes of pair k fall strictly inside while all anchor
times stay outside even after widening by h_k.  Because the kernel is
even with unit mass, the average reproduces affine stretches exactly;
the smooth path is therefore still affine near the window edges and
interpolates the anchors exactly.

Since the skeleton is piecewise affine, the average has a closed form
in two functions of the kernel, its mass K(x) = integral rho over
(-1, x) and first moment M(x) = integral u rho over (-1, x).  Start
from the affine piece that holds t - h, continued to t; every
breakpoint kappa in (t - h, t + h) with slope jump delta then adds

    delta * h * (x K(x) - M(x))  to s(t),    delta * K(x)  to s'(t),

with x = (t - kappa) / h.  K and M come from piecewise Chebyshev
series, built on first use from the kernel and checked against their
closed forms at x = 0, so nothing here computes a quadrature.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InputError
from .geometry import require_rows, row_norms
from .skeleton import (
    AnchorSequence,
    PiecewiseAffinePath,
    build_skeleton,
    eval_affine_derivative_many,
    eval_affine_many,
)

# 1 / integral of exp(-1 / (1 - u^2)) over (-1, 1); path files carry it as kernel_c
KERNEL_C = 2.2522836210435817  # 0x1.204ad466d96d1p+1
# the exponential integral E1(1) = 0.2193839343955202736..., rounded to nearest
E1_AT_ONE = 0.21938393439552029


@dataclass(frozen=True, eq=False)
class BumpKernel:
    """Normalized bump kernel with compact support (-1, 1)."""

    c: float

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        flat = np.atleast_1d(arr)
        bare = np.zeros_like(flat)
        inside = np.abs(flat) < 1.0
        ui = flat[inside]
        bare[inside] = np.exp(-1.0 / (1.0 - ui * ui))
        values = self.c * bare
        return float(values[0]) if arr.ndim == 0 else values


@lru_cache(maxsize=1)
def make_kernel() -> BumpKernel:
    """The normalized kernel; ``_kernel_table`` checks its unit mass."""
    return BumpKernel(KERNEL_C)


# ---- smooth path --------------------------------------------------------


_WindowRecord = namedtuple("_WindowRecord", "lo hi")


@dataclass(frozen=True, eq=False)
class SmoothPath:
    """Windowed mollification of a piecewise-affine skeleton.

    Window i is the closed interval [lo[i], hi[i]], averaged with half-width
    h[i]; the three read-only arrays ascend in t.  Valid parameters are
    lo < t <= hi for (lo, hi) = skeleton.domain.  Outside every window the
    path coincides with the skeleton.
    """

    skeleton: PiecewiseAffinePath
    lo: np.ndarray
    hi: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        lo, hi, h = (np.array(v, dtype=float) for v in (self.lo, self.hi, self.h))
        if lo.ndim != 1 or hi.shape != lo.shape or h.shape != lo.shape:
            raise InputError("window edges and half-widths must be 1-d arrays of one length")
        require_rows(lo < hi, "window {}: lo must stay below hi")
        require_rows(h > 0.0, "window {}: half-width must be positive")
        if np.any(np.diff(lo) <= 0.0) or np.any(lo[1:] <= hi[:-1]):
            raise InputError("windows must be ascending and disjoint")
        skel_lo, skel_hi = self.skeleton.domain
        inside = (lo - h > skel_lo) & (hi + h <= skel_hi + 1e-12)
        require_rows(inside, "window {} widened by h leaves the skeleton range")
        # no breakpoint may lie within h of an edge, on either side of it
        bp = self.skeleton.breakpoints
        lo_clear, hi_clear = (
            np.searchsorted(bp, e + h) == np.searchsorted(bp, e - h, "right") for e in (lo, hi)
        )
        require_rows(lo_clear & hi_clear, "window {} has a slope change too close to its edge")
        for name, arr in (("lo", lo), ("hi", hi), ("h", h)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return self.skeleton.dimension

    @property
    def domain(self) -> tuple[float, float]:
        return self.skeleton.domain

    @property
    def windows(self) -> tuple[_WindowRecord, ...]:
        """Per-window (lo, hi) records, built on access.  A view kept only for
        the benchmark's row counts in perfbench; the program reads ``lo``,
        ``hi`` and ``h``."""
        return tuple(map(_WindowRecord, self.lo.tolist(), self.hi.tolist()))

    def window_indices(self, ts: np.ndarray) -> np.ndarray:
        """Per parameter, the index of the window holding it, else -1."""
        idx = np.searchsorted(self.lo, ts, side="right") - 1
        if self.hi.size:
            idx[~(ts <= self.hi[np.clip(idx, 0, None)])] = -1
        return idx

    def window_index(self, t: float) -> int:
        """Index of the window holding t, else -1."""
        return int(self.window_indices(np.array([float(t)]))[0])


def build_smooth_path(
    anchors: AnchorSequence, skeleton: PiecewiseAffinePath | None = None
) -> SmoothPath:
    """Mollify the skeleton of an anchor sequence on its windows, one per
    consecutive anchor pair, ascending in t."""
    if skeleton is None:
        skeleton = build_skeleton(anchors)
    times = anchors.times[::-1]
    lower_t0, t0, t1, t2 = times[:-1, 0], times[1:, 0], times[1:, 1], times[1:, 2]
    return SmoothPath(
        skeleton=skeleton,
        lo=0.5 * (lower_t0 + t2),
        hi=0.5 * (t1 + t0),
        h=0.25 * (t0 - t1),
    )


# ---- kernel mass and moment -------------------------------------------

# Chebyshev panels on [-1, 0], graded toward the kernel's flat end; below
# the first edge K and M are under 1e-17 and are taken as zero
_TABLE_EDGES = np.array(
    [-1.0 + 2.0**-6, -1.0 + 2.0**-5, -1.0 + 2.0**-4, -0.875, -0.75, -0.5, 0.0]
)
_TABLE_DEGREE = 18
KERNEL_TABLE_TOL = 1e-14


def _table_eval(coefs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(x) and M(x) from the half-range coefficients; elementwise in x.

    Outside (-1, 1) the result is K = 0 or 1 and M = 0, as for the
    kernel itself, because every |x| >= 1 falls below the first edge.
    """
    z = -np.abs(x)
    idx = np.clip(
        np.searchsorted(_TABLE_EDGES, z, side="right") - 1, 0, _TABLE_EDGES.size - 2
    )
    a = _TABLE_EDGES[idx]
    b = _TABLE_EDGES[idx + 1]
    y = ((z - a) - (b - z)) / (b - a)
    # Clenshaw recurrence for K and M together
    y2 = (2.0 * y)[:, None]
    b1 = np.zeros(z.shape + (2,))
    b2 = b1
    for c in coefs[:0:-1]:
        b1, b2 = c[idx] + y2 * b1 - b2, b1
    km = coefs[0][idx] + y[:, None] * b1 - b2
    km[z < _TABLE_EDGES[0]] = 0.0
    # rho is even: K(x) = 1 - K(-x) and M(x) = M(-x)
    return np.where(x > 0.0, 1.0 - km[:, 0], km[:, 0]), km[:, 1]


@lru_cache(maxsize=1)
def _kernel_table() -> np.ndarray:
    """Chebyshev coefficients of K and M on each panel, checked to 1e-14."""
    kernel = make_kernel()
    cheb = np.polynomial.chebyshev
    panels = []
    start = (0.0, 0.0)
    for a, b in zip(_TABLE_EDGES[:-1], _TABLE_EDGES[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        density = cheb.chebinterpolate(lambda y: kernel(mid + half * y), _TABLE_DEGREE)
        moment = cheb.chebinterpolate(
            lambda y: (mid + half * y) * kernel(mid + half * y), _TABLE_DEGREE
        )
        pair = [
            cheb.chebint(series, lbnd=-1.0, k=k, scl=half)
            for series, k in zip((density, moment), start)
        ]
        start = tuple(float(cheb.chebval(1.0, s)) for s in pair)
        panels.append(np.stack(pair, axis=1))
    coefs = np.ascontiguousarray(np.stack(panels, axis=1))
    coefs.setflags(write=False)
    # K(0) = 1/2 because rho is even with unit mass, and v = u^2 turns M(0)
    # into -(c/2) * integral of exp(-1/w) over (0, 1) = -(c/2) (1/e - E1(1))
    mass, moment = _table_eval(coefs, np.zeros(1))
    exact = (0.5, -0.5 * kernel.c * (math.exp(-1.0) - E1_AT_ONE))
    if max(abs(mass[0] - exact[0]), abs(moment[0] - exact[1])) > KERNEL_TABLE_TOL:
        raise RuntimeError("kernel tables drifted from their closed forms at x = 0")
    return coefs


def kernel_mass_moment(x) -> tuple[np.ndarray, np.ndarray]:
    """K(x) = integral rho over (-1, x) and M(x) = integral u rho over (-1, x)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return _table_eval(_kernel_table(), arr)


# ---- evaluation ---------------------------------------------------------


def _mollified_rows(
    skeleton: PiecewiseAffinePath,
    ts: np.ndarray,
    hs: np.ndarray,
    derivative: bool,
) -> np.ndarray:
    """Kernel averages of the skeleton (or its slopes), one row per t.

    Starts from the affine piece holding t - h, continued to t.  Every
    breakpoint kappa inside (t - h, t + h) with slope jump delta then
    adds delta h (x K(x) - M(x)) to the value and delta K(x) to the
    slope, where x = (t - kappa) / h.  All arithmetic is elementwise,
    so a row never depends on the batch around it.
    """
    lo, hi = skeleton.domain
    if float((ts - hs).min()) < lo - 1e-12 or float((ts + hs).max()) > hi + 1e-12:
        raise DomainError("an averaging range leaves the skeleton domain")
    bp = skeleton.breakpoints
    slopes = skeleton.slopes
    last = bp.size - 2
    first = np.clip(np.searchsorted(bp, ts - hs, side="right") - 1, 0, last)
    stop = np.minimum(np.searchsorted(bp, ts + hs, side="left"), last + 1)
    count = np.maximum(stop - first - 1, 0)
    if derivative:
        out = slopes[first]
    else:
        out = slopes[first] * ts[:, None] + skeleton.offsets[first]
    if not np.any(count):
        return out
    row = np.repeat(np.arange(ts.size), count)
    offset = np.cumsum(count) - count
    kink = first[row] + 1 + (np.arange(row.size) - offset[row])
    x = (ts[row] - bp[kink]) / hs[row]
    mass, moment = kernel_mass_moment(x)
    weight = mass if derivative else hs[row] * (x * mass - moment)
    terms = (slopes[kink] - slopes[kink - 1]) * weight[:, None]
    # each row adds its own terms in breakpoint order
    for j in range(int(count.max())):
        has = count > j
        out[has] += terms[offset[has] + j]
    return out


def _eval_batch(path: SmoothPath, ts, derivative: bool) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if arr.size == 0:
        raise InputError("at least one parameter value is required")
    lo, hi = path.domain
    if float(arr.min()) <= lo or float(arr.max()) > hi:
        bad = float(arr.min()) if float(arr.min()) <= lo else float(arr.max())
        raise DomainError(f"t = {bad!r} outside the path domain ({lo!r}, {hi!r}]")
    idx = path.window_indices(arr)
    out = np.empty((arr.size, path.dimension))
    plain = idx < 0
    if np.any(plain):
        evaluate = eval_affine_derivative_many if derivative else eval_affine_many
        out[plain] = evaluate(path.skeleton, arr[plain])
    windowed = np.nonzero(idx >= 0)[0]
    if windowed.size:
        out[windowed] = _mollified_rows(
            path.skeleton, arr[windowed], path.h[idx[windowed]], derivative
        )
    return out


def eval_smooth_many(path: SmoothPath, ts) -> np.ndarray:
    """Path values at an array of parameters, shape (m, dimension)."""
    return _eval_batch(path, ts, derivative=False)


def eval_smooth_derivative_many(path: SmoothPath, ts) -> np.ndarray:
    """Path derivatives at an array of parameters, shape (m, dimension)."""
    return _eval_batch(path, ts, derivative=True)


def eval_smooth(path: SmoothPath, t: float) -> np.ndarray:
    return eval_smooth_many(path, [float(t)])[0]


def eval_smooth_derivative(path: SmoothPath, t: float) -> np.ndarray:
    return eval_smooth_derivative_many(path, [float(t)])[0]


# ---- sampling -----------------------------------------------------------


def sample_path(path: SmoothPath, ts) -> np.ndarray:
    """Evaluate the path and its derivative on a parameter grid.

    Returns one float64 table of shape (m, 2 * dimension + 4) whose
    columns are t, s1..sd, d1..dd, norm_s, norm_ds and product.
    """
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if arr.size == 0:
        raise InputError("sampling grid is empty")
    values = eval_smooth_many(path, arr)
    derivs = eval_smooth_derivative_many(path, arr)
    norm_s = row_norms(values)
    norm_ds = row_norms(derivs)
    return np.column_stack([arr, values, derivs, norm_s, norm_ds, norm_s * norm_ds])


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Logarithmically spaced grid on [lo, hi]; endpoints included."""
    if not (0.0 < lo < hi):
        raise InputError("log grid needs 0 < lo < hi")
    if count < 2:
        raise InputError("grid needs at least two points")
    return np.geomspace(lo, hi, count)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a NaN-free 1-d array in increasing order, as
    np.unique returns them, without the numpy.ma import np.unique makes."""
    ordered = np.sort(values)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def dense_grid(
    path: SmoothPath, per_decade: int = 2048, per_window: int = 64
) -> np.ndarray:
    """Logarithmic grid over the domain, refined inside every window."""
    if per_decade < 1 or per_window < 1:
        raise InputError("grid densities must be at least 1")
    lo, hi = path.domain
    start = np.nextafter(lo, hi)
    decades = math.log10(hi / start)
    count = max(int(math.ceil(per_decade * decades)), 2)
    windows = np.linspace(path.lo, path.hi, per_window, axis=1).ravel()
    grid = sorted_unique(np.concatenate([np.geomspace(start, hi, count), windows]))
    return grid[(grid > lo) & (grid <= hi)]

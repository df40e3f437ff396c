"""Bump kernel and windowed mollification of the skeleton.

The kernel is the classical bump (Friedrichs, Trans. AMS 55, 1944)

    rho(u) = c * exp(-1 / (1 - u^2))   for |u| < 1,   0 otherwise,

with the stored constant c = KERNEL_C giving unit mass over (-1, 1),
evaluated by ``bump_kernel``.  The smooth path
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

with x = (t - kappa) / h, and delta rho(x) / h to s''(t), which only the
smoothness check evaluates.  The same rule evaluates every row: off the
windows it runs with h = 0, meets no breakpoint and gives the skeleton's
affine piece, and one pass gives both the value and the slope.  K and M
come from piecewise Chebyshev series whose coefficients are stored, and
are checked against their closed forms at x = 0 on first use, so nothing
here computes a quadrature or an interpolant.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InputError
from .geometry import require_rows, row_norms
from .skeleton import AnchorSequence, PiecewiseAffinePath, build_skeleton

# 1 / integral of exp(-1 / (1 - u^2)) over (-1, 1); path files carry it as kernel_c
KERNEL_C = 2.2522836210435817  # 0x1.204ad466d96d1p+1
# max |rho'| and max |rho''| over (-1, 1), rounded up from their maxima on a
# grid of 2e6 points, 1.79829025 at u = -0.7598 and 17.4545335 at u = 0.8951
KERNEL_D1_MAX = 1.7982903
KERNEL_D2_MAX = 17.454534
# the exponential integral E1(1) = 0.2193839343955202736..., rounded to nearest
E1_AT_ONE = 0.21938393439552029
# the dense grid's default density: points per decade of t and per window
DEFAULT_PER_DECADE = 2048
DEFAULT_PER_WINDOW = 64
# the most rows a dense grid may hold: a 5-D product check on a grid this
# size (K = 10,001, 399 points per window) peaked at 0.69 GB (2-vCPU VM)
MAX_GRID_ROWS = 4_000_000


def bump_kernel(u):
    """The normalized bump kernel rho(u), supported on (-1, 1), elementwise;
    ``_kernel_table`` checks its unit mass."""
    arr = np.asarray(u, dtype=float)
    flat = np.atleast_1d(arr)
    bare = np.zeros_like(flat)
    inside = np.abs(flat) < 1.0
    ui = flat[inside]
    bare[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    values = KERNEL_C * bare
    return float(values[0]) if arr.ndim == 0 else values


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
KERNEL_TABLE_TOL = 1e-14
# The Chebyshev coefficients of K and M on each panel, row-major in the shape
# (20, 6, 2) of (degree, panel, K or M).  On each panel they integrate, with
# chebint from the panel's lower end and the previous panel's values, the
# degree-18 interpolants (chebinterpolate) of rho and u rho; the tests
# rebuild them that way and compare every bit.
_KERNEL_COEFS = (
    6.410106524082581e-11, -6.224605403802451e-11, 9.330080760989076e-07, -8.819624446163872e-07,
    0.0002283700895483425, -0.00020537747826890153, 0.006772401439878323, -0.00554900517516337,
    0.06376946363077549, -0.0433383777488478, 0.3043132501680733, -0.13218331437309624,
    1.1510669217148447e-10, -1.11758868721621e-10, 1.5352522977721057e-06, -1.449960732508362e-06,
    0.00032356515992978436, -0.00028952842691060083, 0.00759714565917199, -0.006073493164847597,
    0.05374427650495777, -0.032874866256279084, 0.18984560578375054, -0.04568289013499092,
    8.320132506807745e-11, -8.074407190393755e-11, 8.52903283563289e-07, -8.03246385105774e-07,
    0.00011847997682451918, -0.00010436625530724039, 0.0015870029316743268, -0.0011679603103380257,
    0.005722452474556176, -0.0019219734769702313, 0.0071140452437868824, 0.009838778182515355,
    4.8197009017067396e-11, -4.6735256272454275e-11, 3.1402476819742177e-07,
    -2.941134228135013e-07, 2.041049079588951e-05, -1.724916490527691e-05, 5.918230875312149e-05,
    -1.548810347510878e-05, -0.0002661260922938846, 0.00040433335550714433, -0.0013229912961191072,
    0.0009329612884571003,
    2.2169323854876894e-11, -2.146966980672624e-11, 7.192605818631819e-08, -6.663430716349772e-08,
    6.564457556426185e-07, -3.592723811991319e-07, -1.116092855390266e-05, 1.0481075627769585e-05,
    -5.171663396490696e-06, -9.023121782605655e-06, 5.625816467049782e-05, -0.0001390770150227531,
    7.958189147605411e-12, -7.692276917924859e-12, 8.215364524037903e-09, -7.381772518518733e-09,
    -1.8195733311171315e-07, 1.7319122521518417e-07, 6.5883689785317e-07, -8.131100827664192e-07,
    2.8063893870598654e-06, -2.04795551411871e-06, -6.285055001359926e-06, 7.2119138006027965e-06,
    2.157447357239963e-12, -2.079098889544399e-12, -1.1104748902249715e-10, 1.583461769830143e-10,
    4.63040731524728e-09, -6.529426421961663e-09, 3.248294898205693e-08, -9.772926231979117e-09,
    -4.7171969842360267e-07, 4.4531929777975684e-07, 9.889055475533777e-08, -6.755025746273891e-07,
    4.120279688179188e-13, -3.9494447118372716e-13, -1.0767438024138947e-10,
    1.0191443418810394e-10, 1.9812378900925156e-09, -1.7394854872818127e-09,
    -1.474946922905157e-08, 1.2938682741948096e-08, 5.9360535158537005e-08, -6.280184774813695e-08,
    2.6834011680816103e-08, 2.3911427422788684e-09,
    4.5471115835285144e-14, -4.299684074360426e-14, 3.4621550660867745e-12, -4.022202887251757e-12,
    -3.3616985199504114e-10, 3.32082539923119e-10, 2.37048007778268e-09, -2.33812850586901e-09,
    -6.0314120197698195e-09, 7.0459900216086674e-09, -1.0470396430994753e-08,
    5.839266472426945e-09,
    5.622732674217253e-17, 9.98886397220741e-17, 1.56091662641465e-12, -1.4652940776909405e-12,
    1.942043171825505e-11, -2.2222926937752903e-11, -2.5052852454208006e-10,
    2.6986002186219327e-10, 4.277794567568235e-10, -6.02216310688304e-10, 2.038736620395138e-09,
    -1.7216450396723945e-09,
    -7.114015591906956e-16, 6.947414502565953e-16, -1.8295622193647362e-13, 1.8526802227899967e-13,
    2.6418256040488978e-12, -2.1360326644794784e-12, 1.321709227809556e-11,
    -1.7727157096049166e-11, 3.229851985279902e-12, 2.1422298766764724e-11, -3.49801222709889e-10,
    3.243436946652102e-10,
    -4.289375079494489e-17, 3.941108385109914e-17, -1.0161079865298221e-14, 8.426011771535152e-15,
    -8.714492319246867e-13, 8.294020237335032e-13, 1.6827672607794249e-12, -1.0147832306154045e-12,
    -9.042010553041205e-12, 5.993804124776857e-12, 5.4803772730719256e-11, -5.4551562623718233e-11,
    1.1484419093793382e-17, -1.136522850582026e-17, 4.768134342960755e-15, -4.621235813272539e-15,
    1.2467988922518467e-13, -1.256215475813881e-13, -6.752655066217985e-13, 6.014446396487666e-13,
    2.332488057170815e-12, -2.0059872702528566e-12, -8.070190486270406e-12, 8.450743622788105e-12,
    8.543515455636114e-19, -7.939290612546223e-19, -4.53666400483751e-16, 4.665356060999631e-16,
    -8.784893943119187e-15, 9.748214925755711e-15, 1.3549692428283415e-13, -1.3026642398319754e-13,
    -4.4529905656904705e-13, 4.1781669287771244e-13, 1.1342569090444466e-12,
    -1.235037979346474e-12,
    -2.404589579973608e-19, 2.378883284335938e-19, -2.980629969895056e-17, 2.524015524637225e-17,
    -6.752453418200397e-16, 4.902828967628227e-16, -2.0691849282188436e-14, 2.0828232540806674e-14,
    7.336727951358567e-14, -7.24267121188352e-14, -1.5078512530054353e-13, 1.7188115292479052e-13,
    -8.07687756759627e-21, 7.033661686544848e-21, 1.459014846054618e-17, -1.4139549222947613e-17,
    3.465148185445163e-16, -3.250019649115144e-16, 2.5171933251250403e-15, -2.6559712032031853e-15,
    -1.0884738529607343e-14, 1.1180292802670522e-14, 1.8890055212058577e-14,
    -2.2601391092490036e-14,
    5.462412680604951e-21, -5.36488529737137e-21, -1.916625194545963e-18, 1.9338974223092173e-18,
    -6.757575356377086e-17, 6.646034491428126e-17, -2.1739680140140265e-16, 2.5045640817137515e-16,
    1.464197914960003e-15, -1.5645950361321607e-15, -2.1544809065454054e-15, 2.780213924577355e-15,
    -2.2141678690720893e-22, 2.3589804966276915e-22, 3.107601295108443e-20, -4.339404859037317e-20,
    8.686372699560335e-18, -8.876359829475753e-18, 2.4758746824312944e-18, -8.23322318474441e-18,
    -1.7448203184995202e-16, 1.9642118169318812e-16, 2.099498765414407e-16, -3.075555967023323e-16,
    -9.949250406107247e-23, 9.646706678409215e-23, 3.841616387386389e-20, -3.6521484912900327e-20,
    -5.918729403597768e-19, 6.633605397444205e-19, 4.722302795714642e-18, -3.837188039697236e-18,
    1.7590704721308673e-17, -2.1242754144417743e-17, -1.0915569942403768e-17,
    2.767188281634933e-17,
    1.4850297922316267e-23, -1.4869917684075227e-23, -8.256224884074984e-21, 8.15474517502028e-21,
    -3.934362454171775e-20, 2.748047057684866e-20, -1.194124054792899e-18, 1.0884068346502682e-18,
    -4.0364756781731804e-19, 1.2541906571466666e-18, 8.265164483878416e-19,
    -1.3821325201601916e-18,
)


def _clenshaw(coefs: np.ndarray, idx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Chebyshev series coefs[:, idx] at y (Clenshaw, MTAC 9, 1955)."""
    y2 = 2.0 * y
    b1 = np.zeros(y.shape)
    b2 = b1
    for c in coefs[:0:-1]:
        b1, b2 = c.take(idx) + y2 * b1 - b2, b1
    return coefs[0].take(idx) + y * b1 - b2


def _table_eval(coefs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(x) and M(x) from the half-range coefficients; elementwise in x.

    The recurrence runs on K and on M as two 1-d arrays, each coefficient
    gathered per row, so each row does the operations of a call on it alone.
    Outside (-1, 1) the result is K = 0 or 1 and M = 0, as for the
    kernel itself, because every |x| >= 1 falls below the first edge.
    """
    z = -np.abs(x)
    below = z < _TABLE_EDGES[0]
    # below the first edge the recurrence runs at the edge, so no x overflows
    z = np.maximum(z, _TABLE_EDGES[0])
    idx = np.minimum(np.searchsorted(_TABLE_EDGES, z, side="right") - 1, _TABLE_EDGES.size - 2)
    a = _TABLE_EDGES.take(idx)
    b = _TABLE_EDGES.take(idx + 1)
    y = ((z - a) - (b - z)) / (b - a)
    mass = _clenshaw(coefs[:, :, 0], idx, y)
    moment = _clenshaw(coefs[:, :, 1], idx, y)
    mass[below] = 0.0
    moment[below] = 0.0
    # rho is even: K(x) = 1 - K(-x) and M(x) = M(-x)
    return np.where(x > 0.0, 1.0 - mass, mass), moment


@lru_cache(maxsize=1)
def _kernel_table() -> np.ndarray:
    """The stored Chebyshev coefficients of K and M, checked to 1e-14."""
    coefs = np.array(_KERNEL_COEFS).reshape(-1, _TABLE_EDGES.size - 1, 2)
    coefs.setflags(write=False)
    # K(0) = 1/2 because rho is even with unit mass, and v = u^2 turns M(0)
    # into -(c/2) * integral of exp(-1/w) over (0, 1) = -(c/2) (1/e - E1(1))
    mass, moment = _table_eval(coefs, np.zeros(1))
    exact = (0.5, -0.5 * KERNEL_C * (math.exp(-1.0) - E1_AT_ONE))
    if max(abs(mass[0] - exact[0]), abs(moment[0] - exact[1])) > KERNEL_TABLE_TOL:
        raise RuntimeError("kernel tables drifted from their closed forms at x = 0")
    return coefs


def kernel_mass_moment(x) -> tuple[np.ndarray, np.ndarray]:
    """K(x) = integral rho over (-1, x) and M(x) = integral u rho over (-1, x)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return _table_eval(_kernel_table(), arr)


# ---- evaluation ---------------------------------------------------------


def _kinks(skeleton: PiecewiseAffinePath, ts: np.ndarray, hs: np.ndarray) -> tuple:
    """The piece holding t - h for each t and, per breakpoint kappa in
    (t - h, t + h), in breakpoint order: its row, its slope jump delta and
    x = (t - kappa) / h.  At h = 0 no breakpoint is met."""
    lo, hi = skeleton.domain
    if float((ts - hs).min()) < lo - 1e-12 or float((ts + hs).max()) > hi + 1e-12:
        raise DomainError("an averaging range leaves the skeleton domain")
    bp, slopes = skeleton.breakpoints, skeleton.slopes
    last = bp.size - 2
    first = np.clip(np.searchsorted(bp, ts - hs, side="right") - 1, 0, last)
    stop = np.minimum(np.searchsorted(bp, ts + hs, side="left"), last + 1)
    count = np.maximum(stop - first - 1, 0)
    row = np.repeat(np.arange(ts.size), count)
    offset = np.cumsum(count) - count
    kink = first[row] + 1 + (np.arange(row.size) - offset[row])
    x = (ts[row] - bp[kink]) / hs[row]
    return first, row, slopes[kink] - slopes[kink - 1], x


def _mollified_batch(items) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kernel averages of skeletons and of their slopes, one (values,
    slopes) pair per (skeleton, ts, hs) item, one row per t.

    Starts from the affine piece holding t - h, continued to t.  Every
    breakpoint kappa inside (t - h, t + h) with slope jump delta then
    adds delta h (x K(x) - M(x)) to the value and delta K(x) to the
    slope, where x = (t - kappa) / h; K and M serve both.  At h = 0 no
    breakpoint is met and the row is an affine piece holding t.  K and M
    come from one kernel evaluation for the kinks of all items; each item
    keeps its own kink list and its own sums.  All arithmetic is
    elementwise, so a row never depends on the batch or the items around it.
    """
    kinks = [_kinks(*item) for item in items]
    xs = np.concatenate([k[3] for k in kinks])
    mass, moment = kernel_mass_moment(xs) if xs.size else (xs, xs)
    results = []
    stop = 0
    for (skeleton, ts, hs), (first, row, jump, x) in zip(items, kinks):
        start, stop = stop, stop + row.size
        k, m = mass[start:stop], moment[start:stop]
        slope = skeleton.slopes[first]
        value = slope * ts[:, None] + skeleton.offsets[first]
        # add.at adds term by term in index order: each row in breakpoint order
        np.add.at(value, row, jump * (hs[row] * (x * k - m))[:, None])
        np.add.at(slope, row, jump * k[:, None])
        results.append((value, slope))
    return results


def _mollified_rows(
    skeleton: PiecewiseAffinePath, ts: np.ndarray, hs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel averages of the skeleton and of its slopes, one row per t: the
    one-item call of ``_mollified_batch``."""
    return _mollified_batch([(skeleton, ts, hs)])[0]


def _second_derivative_rows(
    skeleton: PiecewiseAffinePath, ts: np.ndarray, hs: np.ndarray
) -> np.ndarray:
    """The kernel average's second derivative, one row per t: the sum of
    delta rho(x) / h over the breakpoints ``_mollified_rows`` meets."""
    _, row, jump, x = _kinks(skeleton, ts, hs)
    second = np.zeros((ts.size, skeleton.dimension))
    np.add.at(second, row, jump * (bump_kernel(x) / hs[row])[:, None])
    return second


def _eval_batch(path: SmoothPath, ts) -> tuple[np.ndarray, np.ndarray]:
    """Values and slopes at an array of parameters, from one kink sum.

    Rows off the windows take h = 0.  The only breakpoints there are the
    anchor times t_{k,0}, where the 'right' search picks the piece above
    and the skeleton the one below; both carry slope b_k and offset
    a_k - b_k t_{k,0}, bit for bit, so every such row is the skeleton's.
    """
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if arr.size == 0:
        raise InputError("at least one parameter value is required")
    lo, hi = path.domain
    if float(arr.min()) <= lo or float(arr.max()) > hi:
        bad = float(arr.min()) if float(arr.min()) <= lo else float(arr.max())
        raise DomainError(f"t = {bad!r} outside the path domain ({lo!r}, {hi!r}]")
    # window index -1 (no window) reads the appended 0
    hs = np.append(path.h, 0.0)[path.window_indices(arr)]
    return _mollified_rows(path.skeleton, arr, hs)


def eval_smooth_many(path: SmoothPath, ts) -> np.ndarray:
    """Path values at an array of parameters, shape (m, dimension)."""
    return _eval_batch(path, ts)[0]


def eval_smooth_derivative_many(path: SmoothPath, ts) -> np.ndarray:
    """Path derivatives at an array of parameters, shape (m, dimension)."""
    return _eval_batch(path, ts)[1]


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
    values, derivs = _eval_batch(path, arr)
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
    path: SmoothPath, per_decade: int = DEFAULT_PER_DECADE, per_window: int = DEFAULT_PER_WINDOW
) -> np.ndarray:
    """Logarithmic grid over the domain, refined inside every window; its
    row count is checked against MAX_GRID_ROWS before anything is allocated."""
    if per_decade < 1 or per_window < 1:
        raise InputError("grid densities must be at least 1")
    lo, hi = path.domain
    start = np.nextafter(lo, hi)
    decades = math.log10(hi / start)
    count = max(int(math.ceil(per_decade * decades)), 2)
    rows = count + per_window * path.lo.size
    if rows > MAX_GRID_ROWS:
        raise InputError(
            f"a dense grid of {per_decade} points per decade and {per_window} per window "
            f"holds {rows} rows, above the cap of {MAX_GRID_ROWS}"
        )
    windows = np.linspace(path.lo, path.hi, per_window, axis=1).ravel()
    grid = sorted_unique(np.concatenate([np.geomspace(start, hi, count), windows]))
    return grid[(grid > lo) & (grid <= hi)]

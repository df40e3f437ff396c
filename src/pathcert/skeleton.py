"""Witness sequences, anchor selection, and the piecewise-affine skeleton.

A witness sequence holds pairs (x_k, y_k), nonzero points x_k in the closed
unit ball and unit vectors y_k with x_k . y_k >= 0, as the rows of two
(m, n) arrays; its checks, ``ingest`` and anchor selection take whole arrays
through ``vector_norms``, ``shell_indices`` and ``cone_contains_many``.
Anchors are stored the same way, as rows of the arrays a, b and times of an
``AnchorSequence``, which selection fills, validation checks and the
skeleton reads without a per-anchor object.
Anchors are picked one per shell of a fixed parity:
anchor k of 'even' parity lives in shell 2k (1/(2k+1) < ||a_k|| <= 1/(2k)),
of 'odd' parity in shell 2k-1.  A witness point in the right shell and
inside the chosen cone becomes the anchor (lowest witness index wins);
otherwise a filler anchor sits on the cone axis at the shell's midpoint
radius, with derivative direction equal to the axis.

Each anchor k carries three times

    t_{k,0} = ||a_k||,  t_{k,1} = t_{k,0} - d_k,  t_{k,2} = t_{k,0} - 2 d_k,

with d_k one third of the shell gap, d_k = (1/3) (1/(s+1) - 1/(s+2)) for
shell s.  Consecutive anchors interleave strictly, t_{k+1,0} < t_{k,2},
which leaves room between anchor blocks for the connecting segment.

The skeleton is the continuous piecewise-affine path through this data:
slope b_{k+1} on (t_{k+1,0}, t_{k,2}], a connecting slope on
(t_{k,2}, t_{k,1}], and slope b_k on (t_{k,1}, t_{k,0}], chosen so the
path passes through a_{k+1} and a_k with derivatives b_{k+1} and b_k at
the anchor times.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InputError
from .geometry import UNIT_TOL, ConeSpec, cone_contains_many, require_rows, shell_indices
from .geometry import _rescale_extreme_points, row_norms, stack_rows, vector_norms

_TIME_TOL = 1e-12
_CONTINUITY_TOL = 1e-12
# a slope jump above this times ||s|| / (shorter adjacent piece) is a kink
_KINK_ROUNDING = 64.0 * float(np.finfo(float).eps)

PARITIES = ("even", "odd")


def anchor_shell(k, parity: str):
    """Shell index assigned to anchor k under the given parity; elementwise
    over an integer array k."""
    if np.any(np.asarray(k) < 1):
        raise InputError(f"anchor index must be >= 1, got {k}")
    if parity not in PARITIES:
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 2 * k - (parity == "odd")


def shell_bounds(shell):
    """Open-below, closed-above radial bounds of a shell; elementwise over an
    integer array."""
    if np.any(np.asarray(shell) < 1):
        raise InputError(f"shell index must be >= 1, got {shell}")
    return 1.0 / (shell + 1), 1.0 / shell


def anchor_spacing(k, parity: str):
    """Time step d_k between the three anchor times of anchor k."""
    s = anchor_shell(k, parity)
    return (1.0 / (s + 1) - 1.0 / (s + 2)) / 3.0


def breakpoints_for(k, parity: str, radius):
    """The three anchor times (t_{k,0}, t_{k,1}, t_{k,2}) for ||a_k|| = radius;
    elementwise when k and radius are arrays."""
    d = anchor_spacing(k, parity)
    return radius, radius - d, radius - 2.0 * d


# ---- witness data -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WitnessSequence:
    """The paper's x_k and y_k as the rows of two read-only (m, n) arrays.

    All rows are checked at once, and an error names the first bad index.
    ``scale`` is the factor the raw points were multiplied by (1 when no
    rescaling was needed).
    """

    x: np.ndarray
    y: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2 or 0 in x.shape:
            raise InputError(f"witness points must form a nonempty (m, n) array, got {x.shape}")
        if y.shape != x.shape:
            raise InputError(f"directions of shape {y.shape} do not pair with points {x.shape}")
        finite = np.all(np.isfinite(x) & np.isfinite(y), axis=1)
        require_rows(finite, "pair {} has non-finite entries")
        norms = vector_norms(x, "pair {}: point")
        require_rows((0.0 < norms) & (norms <= 1.0), "pair {}: point norm must lie in (0, 1]")
        unit = np.abs(vector_norms(y, "pair {}: derivative direction") - 1.0) <= UNIT_TOL
        require_rows(unit, "pair {}: derivative direction is not unit")
        dot_ok = np.vecdot(x, y) >= -1e-12
        require_rows(dot_ok, "pair {}: point and direction must satisfy x . y >= 0")
        if not (0.0 < self.scale <= 1.0 + 1e-12):
            raise InputError(f"scale must lie in (0, 1], got {self.scale!r}")
        for name, arr in (("x", x), ("y", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return int(self.x.shape[1])

    @property
    def pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(zip(self.x, self.y))

    @classmethod
    def ingest(cls, points: Iterable, directions: Iterable | None = None) -> "WitnessSequence":
        """Build a sequence from raw points, rescaling into the unit ball.

        When ``directions`` is omitted every y_k defaults to the radial
        direction x_k / ||x_k|| (computed after rescaling; the direction
        is scale invariant).
        """
        x = stack_rows(points, "point")
        norms = vector_norms(x, "point {}")
        require_rows(norms != 0.0, "point {} is the origin")
        top = float(np.max(norms))
        scale = 1.0 if top <= 1.0 else 1.0 / top
        # rounding can leave the longest scaled norm an ulp above 1
        while np.max(norms := vector_norms(x * scale, "point {}")) > 1.0:
            scale = float(np.nextafter(scale, 0.0))
        require_rows(norms != 0.0, "point {} is too small to rescale with the others: it becomes 0")
        x = x * scale
        if directions is None:
            y = x / norms[:, None]
            # a subnormal norm has lost bits: scale those rows exactly first
            low = norms < np.finfo(float).tiny
            scaled = _rescale_extreme_points(x[low])
            y[low] = scaled / vector_norms(scaled, "point {}")[:, None]
        else:
            y = stack_rows(directions, "direction")
            if len(y) != len(x):
                raise InputError("points and directions must have equal length")
        return cls(x, y, scale)

    def points(self) -> np.ndarray:
        return self.x


# ---- anchors ------------------------------------------------------------


_AnchorRecord = namedtuple("_AnchorRecord", "a t0 t1 t2")


@dataclass(frozen=True, eq=False)
class AnchorSequence:
    """Anchors k = 1..K as rows k - 1 of read-only arrays, with parity and cone.

    ``a`` and ``b`` are (K, n) arrays of positions and unit derivative
    directions, and ``times`` is (K, 3) with rows (t_{k,0}, t_{k,1}, t_{k,2}).
    ``matched`` lists (k, witness_index) pairs for anchors taken from the
    witness sequence; all other anchors are fillers on the cone axis.  All
    rows are checked at once, and an error names the first bad anchor.

    The times obey one rule: every row of ``times`` lies within
    ``_TIME_TOL / 8`` of ``breakpoints_for(k, parity, ||a||)``, and stays
    stored, so a reloaded path evaluates the file's own bits.  The margin
    makes the rule imply t0 = ||a||, equal spacing and spacing d_k (each to
    _TIME_TOL = 1e-12; a sum of at most four times moves by 5e-13), and
    decreasing positive times that interleave, t_{k+1,0} < t_{k,2} (these
    hold for exact times with slack d_k >= 8.3e-10 for K <= MAX_K_MAX + 1).
    """

    parity: str
    cone: ConeSpec
    a: np.ndarray
    b: np.ndarray
    times: np.ndarray
    matched: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.parity not in PARITIES:
            raise InputError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        a, b, times = (np.array(v, dtype=float) for v in (self.a, self.b, self.times))
        if a.ndim != 2 or len(a) < 2:
            raise InputError("an anchor sequence needs at least two anchors")
        if b.shape != a.shape or times.shape != (len(a), 3):
            raise InputError(f"anchor arrays of shapes {a.shape}, {b.shape}, {times.shape}")
        for name, arr in (("a", a), ("b", b), ("times", times)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        matched_ks = [k for k, _ in self.matched]
        if len(matched_ks) != len(set(matched_ks)):
            raise InputError("matched anchors must be unique")
        if any(not (1 <= k <= len(a)) for k in matched_ks):
            raise InputError("matched refers to an anchor index outside 1..K")
        finite = np.all(np.isfinite(np.hstack([a, b, times])), axis=1)
        require_rows(finite, "anchor {} has non-finite entries", 1)
        radius = vector_norms(a, "anchor {} position", 1)
        unit = np.abs(vector_norms(b, "anchor {} direction", 1) - 1.0) <= UNIT_TOL
        require_rows(unit, "anchor {}: direction is not unit", 1)
        k = np.arange(1, len(a) + 1)
        lo, hi = shell_bounds(anchor_shell(k, self.parity))
        require_rows((lo < radius) & (radius <= hi), "anchor {} radius lies outside its shell", 1)
        rule = np.stack(breakpoints_for(k, self.parity, radius), axis=1)
        off = np.argwhere(np.abs(times - rule) > _TIME_TOL / 8.0)
        if off.size:
            j, i = off[0].tolist()
            raise InputError(f"anchor {j + 1} t{i} must lie within {_TIME_TOL / 8.0!r} of "
                             f"||a|| - {i} d_k = {rule[j, i].item()!r}, got {times[j, i].item()!r}")
        in_cone = cone_contains_many(self.cone.axis.coords[None, :], a)[0]
        require_rows(in_cone, "anchor {} lies outside the selected cone", 1)
        radial = np.max(np.abs(b - a / radius[:, None]), axis=1) <= 1e-12
        require_rows(radial | self.given, "filler anchor {} must point radially", 1)

    @property
    def dimension(self) -> int:
        return self.cone.dimension

    @property
    def given(self) -> np.ndarray:
        """Per anchor, whether a witness pair supplied it: its k is in ``matched``."""
        mask = np.zeros(len(self.a), dtype=bool)
        mask[[k - 1 for k, _ in self.matched]] = True
        return mask

    @property
    def entries(self) -> tuple[_AnchorRecord, ...]:
        """Per-anchor (a, t0, t1, t2) records, built on access.  A view kept
        only for the benchmark's replay in perfbench; the program reads ``a``,
        ``b`` and ``times``."""
        return tuple(_AnchorRecord(a, *t) for a, t in zip(self.a, self.times.tolist()))


def build_anchor_sequence(
    witness: WitnessSequence, cone: ConeSpec, parity: str, count: int
) -> AnchorSequence:
    """Select anchors k = 1..count from the witness sequence.

    A witness pair is eligible for anchor k when its point lies in the
    cone and in shell(k, parity); the lowest witness index wins.  Empty
    shells receive fillers on the cone axis at the shell midpoint radius.
    The cone test rejects a witness of another dimension than the cone.
    """
    if count < 2:
        raise InputError("at least two anchors are required")
    k = np.arange(1, count + 1)
    shells = anchor_shell(k, parity)
    inside = np.flatnonzero(cone_contains_many(cone.axis.coords[None, :], witness.x)[0])
    # shells past the deepest anchor's match nothing; capping keeps them in int64
    cap = int(shells[-1]) + 1
    held = np.array([min(s, cap) for s in shell_indices(witness.x[inside])], dtype=np.int64)
    # a stable sort keeps the lowest witness index first among a shell's points
    order = np.argsort(held, kind="stable")
    at = np.searchsorted(held[order], shells)
    has = at < held.size
    has[has] = held[order[at[has]]] == shells[has]
    pick = inside[order[at[has]]]
    lo, hi = shell_bounds(shells)
    a = (0.5 * (lo + hi))[:, None] * cone.axis.coords
    b = np.tile(cone.axis.coords, (count, 1))
    a[has] = witness.x[pick]
    b[has] = witness.y[pick]
    times = np.stack(breakpoints_for(k, parity, vector_norms(a, "anchor {} position", 1)), axis=1)
    matched = tuple(zip(k[has].tolist(), pick.tolist()))
    return AnchorSequence(parity=parity, cone=cone, a=a, b=b, times=times, matched=matched)


# ---- piecewise-affine paths --------------------------------------------


@dataclass(frozen=True, eq=False)
class PiecewiseAffinePath:
    """Continuous piecewise-affine map on (breakpoints[0], breakpoints[-1]].

    Segment i covers (breakpoints[i], breakpoints[i+1]] with value
    slopes[i] * t + offsets[i]; adjacent segments agree at the shared
    breakpoint to within 1e-12.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        sl = np.array(self.slopes, dtype=float)
        of = np.array(self.offsets, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise InputError("a path needs at least two breakpoints")
        if np.any(np.diff(bp) <= 0.0):
            raise InputError("breakpoints must be strictly increasing")
        m = bp.size
        if sl.ndim != 2 or len(sl) != m - 1 or of.shape != sl.shape:
            raise InputError("slopes and offsets must have shape (segments, dimension)")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl)) and np.all(np.isfinite(of))):
            raise InputError("path data has non-finite entries")
        left = sl[:-1] * bp[1:-1, None] + of[:-1]
        right = sl[1:] * bp[1:-1, None] + of[1:]
        gap = float(np.max(np.abs(left - right))) if m > 2 else 0.0
        if gap > _CONTINUITY_TOL:
            raise InputError(f"segments disagree at a breakpoint by {gap!r}")
        for arr in (bp, sl, of):
            arr.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "offsets", of)

    @property
    def dimension(self) -> int:
        return int(self.slopes.shape[1])

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def segment_count(self) -> int:
        return int(self.breakpoints.size - 1)


def _segment_indices(path: PiecewiseAffinePath, ts: np.ndarray) -> np.ndarray:
    lo, hi = path.domain
    if ts.size and (float(ts.min()) <= lo or float(ts.max()) > hi):
        bad = float(ts.min()) if float(ts.min()) <= lo else float(ts.max())
        raise DomainError(f"t = {bad!r} outside the path domain ({lo!r}, {hi!r}]")
    # segment i owns (breakpoints[i], breakpoints[i+1]]
    idx = np.searchsorted(path.breakpoints, ts, side="left") - 1
    return np.clip(idx, 0, path.segment_count() - 1)


def eval_affine_many(path: PiecewiseAffinePath, ts) -> np.ndarray:
    """Values of the path at an array of parameters, shape (m, dimension)."""
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    idx = _segment_indices(path, arr)
    return path.slopes[idx] * arr[:, None] + path.offsets[idx]


def eval_affine_derivative_many(path: PiecewiseAffinePath, ts) -> np.ndarray:
    """Segment slopes at an array of parameters, shape (m, dimension)."""
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    idx = _segment_indices(path, arr)
    return path.slopes[idx].copy()


def eval_affine(path: PiecewiseAffinePath, t: float) -> np.ndarray:
    return eval_affine_many(path, [float(t)])[0]


def eval_affine_derivative(path: PiecewiseAffinePath, t: float) -> np.ndarray:
    return eval_affine_derivative_many(path, [float(t)])[0]


def build_skeleton(anchors: AnchorSequence) -> PiecewiseAffinePath:
    """Piecewise-affine path through the anchor data.

    Between anchors k+1 and k the path runs with slope b_{k+1} on
    (t_{k+1,0}, t_{k,2}], a connecting slope on (t_{k,2}, t_{k,1}], and
    slope b_k on (t_{k,1}, t_{k,0}]; it takes value a_{k+1} at t_{k+1,0}
    and a_k at t_{k,0}.  Each pair gives three rows, ascending in t.
    """
    # pair j joins the lower anchor (row j of the reversed arrays) to the upper (row j + 1)
    a, b, times = anchors.a[::-1], anchors.b[::-1], anchors.times[::-1]
    lower_a, lower_b, lower_t0 = a[:-1], b[:-1], times[:-1, :1]
    upper_a, upper_b = a[1:], b[1:]
    t0, t1, t2 = times[1:, :1], times[1:, 1:2], times[1:, 2:]
    # the connecting segment reaches the point where the upper anchor's
    # incoming segment must start
    at_t2 = lower_a + (t2 - lower_t0) * lower_b
    target = upper_a + (t1 - t0) * upper_b
    v = (target - at_t2) / (t1 - t2)
    n = anchors.dimension
    return PiecewiseAffinePath(
        breakpoints=np.concatenate([times[:1, 0], times[1:, ::-1].ravel()]),
        slopes=np.stack([lower_b, v, upper_b], axis=1).reshape(-1, n),
        offsets=np.stack(
            [lower_a - lower_b * lower_t0, at_t2 - v * t2, upper_a - upper_b * t0], axis=1
        ).reshape(-1, n),
    )


def kink_times(path: PiecewiseAffinePath) -> np.ndarray:
    """Interior breakpoints kappa whose slope jump exceeds 64 eps ||s(kappa)||
    over the shorter piece next to kappa.  A slope is a difference of values
    over a piece's length, so rounding moves it by a few such units: collinear
    anchors (jumps of ~1e-14) give no kink."""
    interior = path.breakpoints[1:-1]
    jump = row_norms(np.diff(path.slopes, axis=0))
    value = row_norms(path.slopes[:-1] * interior[:, None] + path.offsets[:-1])
    gaps = np.diff(path.breakpoints)
    shorter = np.minimum(gaps[:-1], gaps[1:])
    return interior[jump > _KINK_ROUNDING * value / shorter]

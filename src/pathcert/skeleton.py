"""Witness sequences, anchor selection, and the piecewise-affine skeleton.

A witness sequence holds pairs (x_k, y_k), nonzero points x_k in the closed
unit ball and unit vectors y_k with x_k . y_k >= 0, as the rows of two
(m, n) arrays; its checks, ``ingest`` and anchor selection take whole arrays
through ``vector_norms``, ``shell_indices`` and ``cone_contains_many``.
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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InputError
from .geometry import ConeSpec, UnitDirection, cone_contains_many, require_rows, shell_indices
from .geometry import stack_rows, vector_norm, vector_norms

_TIME_TOL = 1e-12
_CONTINUITY_TOL = 1e-12

PARITIES = ("even", "odd")


def anchor_shell(k: int, parity: str) -> int:
    """Shell index assigned to anchor k under the given parity."""
    if k < 1:
        raise InputError(f"anchor index must be >= 1, got {k}")
    if parity not in PARITIES:
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 2 * k if parity == "even" else 2 * k - 1


def shell_bounds(shell: int) -> tuple[float, float]:
    """Open-below, closed-above radial bounds of a shell."""
    if shell < 1:
        raise InputError(f"shell index must be >= 1, got {shell}")
    return 1.0 / (shell + 1), 1.0 / shell


def anchor_spacing(k: int, parity: str) -> float:
    """Time step d_k between the three anchor times of anchor k."""
    s = anchor_shell(k, parity)
    return (1.0 / (s + 1) - 1.0 / (s + 2)) / 3.0


def breakpoints_for(k: int, parity: str, radius: float) -> tuple[float, float, float]:
    """The three anchor times (t_{k,0}, t_{k,1}, t_{k,2}) for ||a_k|| = radius."""
    lo, hi = shell_bounds(anchor_shell(k, parity))
    if not (lo < radius <= hi):
        raise InputError(
            f"anchor {k} ({parity}) needs radius in ({lo}, {hi}], got {radius!r}"
        )
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
        unit = np.abs(vector_norms(y, "pair {}: derivative direction") - 1.0) <= 1e-12
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
        x = x * scale
        if directions is None:
            y = x / norms[:, None]
        else:
            y = stack_rows(directions, "direction")
            if len(y) != len(x):
                raise InputError("points and directions must have equal length")
        return cls(x, y, scale)

    def points(self) -> np.ndarray:
        return self.x


# ---- anchors ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnchorEntry:
    """One anchor: position a, unit derivative direction b, three times."""

    k: int
    a: np.ndarray
    b: UnitDirection
    source: str  # 'given' or 'filler'
    t0: float
    t1: float
    t2: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("anchor index must be >= 1")
        if self.source not in ("given", "filler"):
            raise InputError(f"anchor source must be 'given' or 'filler', got {self.source!r}")
        a = np.array(self.a, dtype=float)
        if a.ndim != 1 or a.size != self.b.dimension:
            raise InputError(f"anchor {self.k}: position and direction dimensions differ")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        radius = vector_norm(a, f"anchor {self.k} position")
        if abs(self.t0 - radius) > _TIME_TOL:
            raise InputError(f"anchor {self.k}: t0 must equal ||a||")
        if not (self.t2 > 0.0 and self.t2 < self.t1 < self.t0):
            raise InputError(f"anchor {self.k}: times must decrease and stay positive")
        if abs((self.t0 - self.t1) - (self.t1 - self.t2)) > _TIME_TOL:
            raise InputError(f"anchor {self.k}: times must be equally spaced")

    @property
    def spacing(self) -> float:
        return self.t0 - self.t1


@dataclass(frozen=True, eq=False)
class AnchorSequence:
    """Anchors k = 1..K with parity, cone, and witness matches.

    ``matched`` lists (k, witness_index) pairs for anchors taken from the
    witness sequence; all other anchors are fillers on the cone axis.
    """

    parity: str
    cone: ConeSpec
    entries: tuple[AnchorEntry, ...]
    matched: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.parity not in PARITIES:
            raise InputError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if len(self.entries) < 2:
            raise InputError("an anchor sequence needs at least two anchors")
        matched_ks = [k for k, _ in self.matched]
        if len(matched_ks) != len(set(matched_ks)):
            raise InputError("matched anchors must be unique")
        if any(not (1 <= k <= len(self.entries)) for k in matched_ks):
            raise InputError("matched refers to an anchor index outside 1..K")
        matched_ks = set(matched_ks)
        positions = stack_rows([entry.a for entry in self.entries], "anchor position")
        in_cone = cone_contains_many(self.cone.axis.coords[None, :], positions)[0]
        radii = vector_norms(positions, "row {} of the anchor positions").tolist()
        for pos, entry in enumerate(self.entries, start=1):
            if entry.k != pos:
                raise InputError("anchor indices must run 1..K without gaps")
            lo, hi = shell_bounds(anchor_shell(entry.k, self.parity))
            radius = radii[pos - 1]
            if not (lo < radius <= hi):
                raise InputError(
                    f"anchor {entry.k} radius {radius!r} outside its shell ({lo}, {hi}]"
                )
            d = anchor_spacing(entry.k, self.parity)
            if abs(entry.spacing - d) > _TIME_TOL:
                raise InputError(f"anchor {entry.k} spacing deviates from d_k")
            if not in_cone[pos - 1]:
                raise InputError(f"anchor {entry.k} lies outside the selected cone")
            if entry.source == "filler":
                radial = entry.a / radius
                if float(np.max(np.abs(entry.b.coords - radial))) > 1e-12:
                    raise InputError(f"filler anchor {entry.k} must point radially")
                if entry.k in matched_ks:
                    raise InputError(f"anchor {entry.k} is a filler but appears in matched")
            elif entry.k not in matched_ks:
                raise InputError(f"anchor {entry.k} is given but missing from matched")
        for prev, nxt in zip(self.entries[:-1], self.entries[1:]):
            if not (nxt.t0 < prev.t2):
                raise InputError(
                    f"anchors {prev.k} and {nxt.k} do not interleave: "
                    f"t_{{{nxt.k},0}} must stay below t_{{{prev.k},2}}"
                )

    @property
    def dimension(self) -> int:
        return self.cone.dimension

    def entry(self, k: int) -> AnchorEntry:
        return self.entries[k - 1]


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
    if parity not in PARITIES:
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    inside = np.flatnonzero(cone_contains_many(cone.axis.coords[None, :], witness.x)[0])
    first_in_shell: dict[int, int] = {}
    for i, shell in zip(inside.tolist(), shell_indices(witness.x[inside])):
        first_in_shell.setdefault(shell, i)
    entries = []
    matched = []
    for k in range(1, count + 1):
        s = anchor_shell(k, parity)
        pick = first_in_shell.get(s)
        if pick is not None:
            a, b, source = witness.x[pick], UnitDirection(witness.y[pick]), "given"
            matched.append((k, pick))
        else:
            lo, hi = shell_bounds(s)
            a, b, source = (0.5 * (lo + hi)) * cone.axis.coords, cone.axis, "filler"
        t0, t1, t2 = breakpoints_for(k, parity, float(np.linalg.norm(a)))
        entries.append(AnchorEntry(k=k, a=a, b=b, source=source, t0=t0, t1=t1, t2=t2))
    return AnchorSequence(
        parity=parity, cone=cone, entries=tuple(entries), matched=tuple(matched)
    )


# ---- piecewise-affine paths --------------------------------------------


@dataclass(frozen=True, eq=False)
class PiecewiseAffinePath:
    """Continuous piecewise-affine map on (breakpoints[0], breakpoints[-1]].

    Segment i covers (breakpoints[i], breakpoints[i+1]] with value
    slopes[i] * t + offsets[i]; adjacent segments agree at the shared
    breakpoint to within 1e-12.
    """

    dimension: int
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
        if sl.shape != (m - 1, self.dimension) or of.shape != (m - 1, self.dimension):
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


def affine_path_from_slopes(breakpoints, start_value, slopes) -> PiecewiseAffinePath:
    """Continuous path from breakpoints, a start value, and segment slopes.

    Offsets are chained so each segment starts where the previous ended.
    """
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    value = np.asarray(start_value, dtype=float)
    if sl.ndim != 2 or sl.shape[0] != bp.size - 1:
        raise InputError("need one slope row per segment")
    dimension = sl.shape[1]
    if value.shape != (dimension,):
        raise InputError("start value dimension does not match slopes")
    offsets = np.empty_like(sl)
    for i in range(sl.shape[0]):
        offsets[i] = value - sl[i] * bp[i]
        value = value + sl[i] * (bp[i + 1] - bp[i])
    return PiecewiseAffinePath(
        dimension=dimension, breakpoints=bp, slopes=sl, offsets=offsets
    )


def build_skeleton(anchors: AnchorSequence) -> PiecewiseAffinePath:
    """Piecewise-affine path through the anchor data.

    Between anchors k+1 and k the path runs with slope b_{k+1} on
    (t_{k+1,0}, t_{k,2}], a connecting slope on (t_{k,2}, t_{k,1}], and
    slope b_k on (t_{k,1}, t_{k,0}]; it takes value a_{k+1} at t_{k+1,0}
    and a_k at t_{k,0}.
    """
    entries = anchors.entries
    n = anchors.dimension
    breakpoints = [entries[-1].t0]
    slopes: list[np.ndarray] = []
    offsets: list[np.ndarray] = []

    def push(slope: np.ndarray, value_at: float, value: np.ndarray, upper: float) -> None:
        slopes.append(slope)
        offsets.append(value - slope * value_at)
        breakpoints.append(upper)

    for k in range(len(entries) - 1, 0, -1):
        upper = entries[k - 1]  # anchor k
        lower = entries[k]      # anchor k+1
        b_lo = lower.b.coords
        b_hi = upper.b.coords
        # outgoing segment from the lower anchor
        push(b_lo, lower.t0, lower.a, upper.t2)
        # connecting segment: reaches the point where the incoming segment
        # of the upper anchor must start
        at_t2 = lower.a + (upper.t2 - lower.t0) * b_lo
        target = upper.a + (upper.t1 - upper.t0) * b_hi
        v = (target - at_t2) / (upper.t1 - upper.t2)
        push(v, upper.t2, at_t2, upper.t1)
        # incoming segment of the upper anchor
        push(b_hi, upper.t0, upper.a, upper.t0)
    return PiecewiseAffinePath(
        dimension=n,
        breakpoints=np.asarray(breakpoints, dtype=float),
        slopes=np.stack(slopes, axis=0),
        offsets=np.stack(offsets, axis=0),
    )


def kink_times(path: PiecewiseAffinePath) -> np.ndarray:
    """Interior breakpoints where the slope actually changes."""
    interior = path.breakpoints[1:-1]
    changes = np.max(np.abs(np.diff(path.slopes, axis=0)), axis=1) > 0.0
    return interior[changes]

"""Cones, sphere covers, and dyadic shells.

The central object is the solid cone about a unit axis z,

    C(z) = { x : there is r >= 0 with ||x - r z|| <= r / sqrt(3) },

whose membership test reduces to the closed form

    x in C(z)  <=>  x = 0, or ( x.z >= 0 and (x.z)^2 >= (2/3) ||x||^2 ),

obtained by minimizing ||x - r z||^2 - r^2/3 over r (the minimum sits at
r = (3/2) x.z).  The angular radius is arccos(sqrt(2/3)).

``cone_contains_many`` is the one implementation of that test.  It sums
each dot product and each ||x||^2 over the coordinates in index order with
elementwise multiply-adds (no BLAS matrix product), so an entry has the
same bits whether it is computed alone or inside any batch.  A point
whose largest entry lies outside [2^-256, 2^256], where squares could
underflow or overflow, is first scaled by an exact power of two that
only its own entries decide.  Each predicate has one batched form over
the rows of an array, and its scalar form is a one-row call of it:
``cone_contains_many`` and ``cone_contains``, ``vector_norms`` and
``vector_norm`` (input-vector norms), ``shell_indices`` and ``shell_index``.

Sphere covers supply candidate axes: a finite set of unit directions such
that every unit vector lies within a prescribed angle of some direction.
Covers are proved through dimension 6.  In dimension 1, {+1, -1} is the
whole sphere, and in dimension 2 the spacing proves the cover: count >=
2 pi / half_angle equally spaced directions put every unit vector within
pi / count <= half_angle / 2 of one.  In dimensions 3 to 6,
``_grid_cover`` takes the cell centres of an equiangular grid on each
face of the cube, proved by construction (Conway & Sloane, *Sphere
Packings, Lattices and Groups*, ch. 2): central projection maps a cell
onto the spherical hull of its corners, a cap under 90 degrees is
convex, so a cell whose corners lie within half_angle of its centre lies
within it whole.  No proved cover draws a sample, and ``seed`` changes
none of them.

From dimension 7 on (a grid needs 1,647,086 directions there at the
default angle, against 131,072 sampled, and from 8-D on more than
_MAX_COVER_SIZE), ``build_sphere_cover(dimension,
half_angle, *, seed)`` doubles a set of Halton points (Halton, Numer.
Math. 2, 1960) mapped through the inverse normal CDF and normalized,
until ``_uncovered`` leaves none of COVER_SAMPLE_COUNT unit samples drawn
from ``seed``.  That map is ``statistics.NormalDist().inv_cdf`` (Wichura,
AS 241, Appl. Statist. 37, 1988), imported only when Halton directions
are made; it agrees with scipy.special.ndtri to about 1e-15, not bit for
bit.  Halton candidates nest, so a doubling computes only the new points,
and only the samples still uncovered meet them.  ``_uncovered`` is a fast filter with an exact
fallback (Shewchuk, Discrete Comput. Geom. 18, 1997): it takes each
sample's best cosine in float32, whose error for unit vectors in R^n is
at most (n + 2) 2^-24, and recomputes in float64 only the samples whose
float32 value lies within a band of _FILTER_MARGIN times that bound about
cos(half_angle).  Outside the band the two signs agree, so every
verdict, and so every sampled cover, is the float64 test's.

Dyadic shells partition the punctured unit ball by 1/(k+1) < ||x|| <= 1/k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError

TWO_THIRDS = 2.0 / 3.0
# half-opening angle of C(z): arccos(sqrt(2/3)), about 35.26 degrees
CONE_HALF_ANGLE = math.acos(math.sqrt(TWO_THIRDS))
# default cover resolution: half the cone angle, so that recentring any
# covered direction onto its nearest cover direction keeps it inside the cone
DEFAULT_COVER_HALF_ANGLE = 0.5 * CONE_HALF_ANGLE
COVER_SAMPLE_COUNT = 100_000
_COVER_CHUNK = 4096
_MAX_COVER_SIZE = 1 << 21
# the most float64 entries a sampled cover's draw of COVER_SAMPLE_COUNT x dimension may
# hold: d <= 167, whose 89.9-degree cover peaked at 173 MB in 0.7 s (2-vCPU VM)
_MAX_SAMPLE_ENTRIES = 1 << 24
# how far from 1 the norm of a unit vector (a direction, a cover direction, a
# witness or anchor derivative direction) may lie
UNIT_TOL = 1e-12
# entries of one (directions x samples) block of float32 cosines in the
# cover check: 256 directions per full chunk, a 4 MB product
_COVER_BLOCK_ENTRIES = 1 << 20
# entries of one (directions x points) block of cone selection, whose
# elementwise test makes several float64 temporaries of this size: small
# enough to stay in cache (2^20 took 2.2 times as long on 8192 x 200)
_CONE_BLOCK_ENTRIES = 1 << 16
# the float32 cover filter decides a sample only when its best float32
# cosine lies farther than this many times the float32 error bound from
# cos(half_angle); see _uncovered
_FILTER_MARGIN = 24
# the slack the grid covers' corner test keeps over its rounding error
# (a few ulps of 1)
_PROOF_MARGIN = 1e-12
# below this norm a row's sum of squares is subnormal or 0
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def require_rows(ok: np.ndarray, message: str, first: int = 0) -> None:
    """Raise InputError(message) at the first False entry of ``ok``, ``{}`` its
    index counted from ``first``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise InputError(message.format(int(bad[0]) + first))


def require_seed(seed, what: str = "seed") -> int:
    """A seed is a non-negative integer; anything else is an InputError naming ``what``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"{what} must be a non-negative integer, got {seed!r}")
    return int(seed)


def stack_rows(values, what: str) -> np.ndarray:
    """``values`` as one (m, n) float array, n the size of the first row; a
    row of another shape is an InputError naming it (``what`` names a row)."""
    rows = values if isinstance(values, np.ndarray) else list(values)
    if len(rows) == 0:
        raise InputError(f"at least one {what} is required")
    n = np.size(rows[0])
    try:
        arr = np.array(rows, dtype=float)
    except ValueError:  # ragged rows, or entries that are not numbers
        arr = None
    if arr is None or arr.shape != (len(rows), n):
        bad = next((i for i, row in enumerate(rows) if np.shape(row) != (n,)), 0)
        raise InputError(f"{what} {bad} is not a vector of {n} numbers")
    return arr


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to np.linalg.norm(row)."""
    v = np.ascontiguousarray(v)  # strided rows would miss the dot product norm uses
    return np.sqrt(np.vecdot(v, v))


def vector_norms(rows, what: str, first: int = 0) -> np.ndarray:
    """Norm of each row of an (m, n) array of input vectors, with the bits
    np.linalg.norm gives that row alone and no overflow or underflow warning.

    A nonzero row whose norm lies below sqrt(tiny), where the sum of squares
    is subnormal or 0 and has lost bits, is recomputed on the row over its
    largest magnitude, so a tiny vector keeps its true norm.  The first
    finite row whose norm overflows raises an InputError, as every later dot
    product on it would overflow too; ``what`` names it, ``{}`` its index
    counted from ``first``.
    """
    rows = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        norms = row_norms(rows)
        tiny = (norms < _SQRT_TINY) & np.any(rows, axis=1)
        if np.any(tiny):
            top = np.max(np.abs(rows[tiny]), axis=1)
            norms[tiny] = top * row_norms(rows[tiny] / top[:, None])
    require_rows(
        (norms != math.inf) | ~np.all(np.isfinite(rows), axis=1),
        f"{what} is too large: its norm overflows float64",
        first,
    )
    return norms


def vector_norm(v, what: str) -> float:
    """Norm of one input vector: a one-row call of ``vector_norms``."""
    return float(vector_norms(np.reshape(v, (1, -1)), what)[0])


def _as_unit_vector(coords) -> np.ndarray:
    arr = np.array(coords, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError("a direction must be a 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InputError("direction has non-finite entries")
    norm = vector_norm(arr, "direction")
    if abs(norm - 1.0) > UNIT_TOL:
        raise InputError(f"direction norm {norm!r} deviates from 1 by more than {UNIT_TOL}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class UnitDirection:
    """A unit vector; norm is validated to within UNIT_TOL on construction."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _as_unit_vector(self.coords))

    @property
    def dimension(self) -> int:
        return int(self.coords.size)


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Solid cone C(axis); the aperture ratio 1/sqrt(3) is fixed."""

    axis: UnitDirection

    @property
    def dimension(self) -> int:
        return self.axis.dimension


@dataclass(frozen=True, eq=False)
class SphereCover:
    """Finite set of unit directions covering the sphere to half_angle.

    ``directions`` has shape (m, n), m >= 1; rows are finite unit vectors,
    and half_angle lies in (0, pi/2).
    """

    half_angle: float
    directions: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.half_angle < math.pi / 2.0):
            raise InputError(f"half_angle must lie in (0, pi/2), got {self.half_angle!r}")
        dirs = np.array(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] == 0:
            raise InputError("directions must have shape (m, dimension) with m >= 1")
        if not np.all(np.isfinite(dirs)):
            raise InputError("cover directions have non-finite entries")
        if np.max(np.abs(row_norms(dirs) - 1.0)) > UNIT_TOL:
            raise InputError("cover directions must be unit vectors")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

    @property
    def dimension(self) -> int:
        return int(self.directions.shape[1])

    @property
    def size(self) -> int:
        return int(self.directions.shape[0])


# points whose largest entry lies outside this range are rescaled before
# the cone test, so that no square the verdict rests on underflows or
# overflows
_SAFE_TOP = (2.0**-256, 2.0**256)


def _rescale_extreme_points(x: np.ndarray) -> np.ndarray:
    """``x`` with each nonzero finite row whose largest |entry| lies outside
    _SAFE_TOP multiplied by the power of two that brings that entry into
    [1/2, 1).  The scaling is exact unless an entry falls far below its
    row's largest, and other rows keep their bits."""
    top = np.max(np.abs(x), axis=1)
    extreme = ((top > 0.0) & (top < _SAFE_TOP[0])) | (
        (top > _SAFE_TOP[1]) & (top < math.inf)
    )
    if not np.any(extreme):
        return x
    x = x.copy()
    x[extreme] = np.ldexp(x[extreme], -np.frexp(top[extreme])[1][:, None])
    return x


def cone_contains_many(axes, points) -> np.ndarray:
    """Membership of every point in the cone about every axis, as bool[m, p].

    ``axes`` has shape (m, n) and holds unit axes; ``points`` has shape
    (p, n).  Sums run over the coordinates in index order, one elementwise
    multiply-add at a time, so entry (i, j) does not depend on the other
    rows or columns of the batch.  Points too small or too large for
    their squares are first rescaled by an exact power of two.
    """
    z = np.asarray(axes, dtype=float)
    x = np.asarray(points, dtype=float)
    if z.ndim != 2 or x.ndim != 2 or z.shape[1] != x.shape[1] or z.shape[1] < 1:
        raise InputError(
            f"axes of shape {z.shape} and points of shape {x.shape} do not pair up"
        )
    x = _rescale_extreme_points(x)
    dot = z[:, :1] * x[:, 0]
    norm_sq = x[:, 0] * x[:, 0]
    for i in range(1, x.shape[1]):
        dot += z[:, i : i + 1] * x[:, i]
        norm_sq += x[:, i] * x[:, i]
    return (norm_sq == 0.0) | ((dot >= 0.0) & (dot * dot >= TWO_THIRDS * norm_sq))


def cone_contains(cone: ConeSpec, x) -> bool:
    """Exact closed-form membership test for the solid cone."""
    vec = np.asarray(x, dtype=float)
    if vec.ndim != 1 or vec.size != cone.dimension:
        raise InputError(
            f"point of dimension {vec.size} tested against cone of dimension {cone.dimension}"
        )
    return bool(cone_contains_many(cone.axis.coords[None, :], vec[None, :])[0, 0])


# ---- direction families -------------------------------------------------


def _circle_directions(count: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _fibonacci_sphere(count: int) -> np.ndarray:
    golden = math.pi * (3.0 - math.sqrt(5.0))
    idx = np.arange(count)
    z = 1.0 - (2.0 * idx + 1.0) / count
    radial = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = golden * idx
    return np.stack([radial * np.cos(theta), radial * np.sin(theta), z], axis=1)


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of each index in ``base``.

    Digits are added least significant first with weights 1/base,
    1/base^2, ..., the order in which scipy.stats.qmc.Halton adds them, so
    unscrambled Halton points agree with it bit for bit.
    """
    result = np.zeros(index.shape)
    scale = 1.0 / base
    while index.any():
        index, digit = np.divmod(index, base)
        result += digit * scale
        scale /= base
    return result


def _halton_points(count: int, dimension: int, start: int = 0) -> np.ndarray:
    """Unscrambled Halton points ``start`` to ``count - 1`` in [0, 1)^dimension,
    the sequence starting from the origin; coordinate i uses the (i+1)-th prime."""
    index = np.arange(start, count)
    return np.stack([_radical_inverse(index, base) for base in _primes(dimension)], axis=1)


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """The rows of ``g`` long enough to normalize, each divided by its norm."""
    norms = np.linalg.norm(g, axis=1)
    keep = norms > 1e-12
    if not keep.all():  # nearly always every row is kept: skip the copies
        g, norms = g[keep], norms[keep]
    return g / norms[:, None]


def _halton_sphere(count: int, dimension: int, start: int = 0) -> np.ndarray:
    """Directions from Halton points ``start`` to ``count - 1``, pushed through
    the standard library's inverse normal CDF and normalized.  Each point maps on its own, so
    the directions for [0, 2n) are those for [0, n) followed by those for
    [n, 2n)."""
    from statistics import NormalDist  # only the Halton routes need it

    u = np.clip(_halton_points(count, dimension, start), 1e-12, 1.0 - 1e-12)
    g = np.fromiter(map(NormalDist().inv_cdf, u.ravel().tolist()), float, count=u.size)
    return _unit_rows(g.reshape(u.shape))


def _uncovered(chunks: list[np.ndarray], directions: np.ndarray, half_angle: float):
    """Yield, for each chunk of unit samples in turn, the samples farther
    than half_angle from every direction: those whose best cosine,
    ``(g @ directions[block].T).max(axis=1)`` in float64 over each block of
    directions, stays below cos(half_angle).  A sample one block covers
    meets no later block.

    Each block is first tested in float32, as a (directions x samples)
    product against the chunk converted once.  For unit vectors in R^n the
    float32 cosine differs from the exact one by at most about
    (n + 2) 2^-24 (each factor rounded once, n products summed in any
    order), the float64 one by about n 2^-53, and a block's best cosine
    by no more than its worst entry.  So a sample whose float32 best
    cosine lies more than _FILTER_MARGIN (n + 2) 2^-24 (1.0e-5 in 5-D)
    from cos(half_angle) lies on the same side of it in float64, even with
    the band's ends rounded to float32; only the samples inside the band
    are tested again in float64.  Every verdict is the float64 test's, at
    about half its cost.
    """
    cos_threshold = math.cos(half_angle)
    band = _FILTER_MARGIN * (directions.shape[1] + 2) * 2.0**-24
    low, high = np.float32(cos_threshold - band), np.float32(cos_threshold + band)
    directions32 = directions.astype(np.float32)
    block = max(1, _COVER_BLOCK_ENTRIES // _COVER_CHUNK)
    for g in chunks:
        g32 = g.astype(np.float32)
        for lo in range(0, directions.shape[0], block):
            if g.shape[0] == 0:
                break
            best32 = (directions32[lo : lo + block] @ g32.T).max(axis=0)
            keep = best32 < low
            near = np.flatnonzero(~keep & (best32 < high))
            if near.size:
                best = (g[near] @ directions[lo : lo + block].T).max(axis=1)
                keep[near] = best < cos_threshold
            g, g32 = g[keep], g32[keep]
        yield g


def _grid_tangents(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell edges (steps + 1) and centres (steps) of ``steps`` equal
    angular steps across [-45, 45] degrees, as the tangents a cube face
    gives them.  Each is sin / cos of its angle's magnitude with the sign
    put back, so the values are exactly symmetric about 0, and the ends are
    set to exactly -1 and 1, so the cells tile the face.  ``np.tan`` is not
    used: ``np.sin`` and ``np.cos`` give the same bits under every SIMD
    kernel, and the directions become path bytes through the cone axis."""
    multiple = np.arange(-steps, steps + 1)  # of pi / (4 steps)
    angle = np.abs(multiple) * (math.pi / (4 * steps))
    tangent = np.copysign(np.sin(angle) / np.cos(angle), multiple)
    tangent[0], tangent[-1] = -1.0, 1.0
    return tangent[::2], tangent[1::2]


def _grid_min_cosine(dimension: int, steps: int, cells=None) -> float:
    """The smallest cosine from a cell's centre to one of its corners over
    the cells of the equiangular grid with ``steps`` cells per edge on a
    face of the cube [-1, 1]^dimension, or over ``cells`` alone: rows of
    cell indices along the other dimension - 1 axes.

    Reflecting a cell's index along one axis (k to steps - 1 - k) or
    permuting the axes maps it onto another cell by a signed permutation,
    which keeps angles, since edges and centres are symmetric and the same
    on every axis; the other faces are signed permutations of this one.
    So the cells whose indices ascend and lie in the upper half, one per
    class, C(ceil(steps / 2) + dimension - 2, dimension - 1) of them, are
    enough, and are the default.  Sums run over the coordinates in index
    order, elementwise, so a cell's cosines have the same bits in any set
    of cells.
    """
    n = dimension - 1
    edges, centres = _grid_tangents(steps)
    if cells is None:
        cells = np.array(list(itertools.combinations_with_replacement(range(steps // 2, steps), n)))
    bits = np.array(list(itertools.product((0, 1), repeat=n)))
    centre = centres[cells][:, None, :]  # (cell, 1, axis)
    corner = edges[cells[:, None, :] + bits]  # (cell, corner, axis)
    dot, centre_sq, corner_sq = 1.0, 1.0, 1.0
    for i in range(n):
        dot = dot + centre[..., i] * corner[..., i]
        centre_sq = centre_sq + centre[..., i] * centre[..., i]
        corner_sq = corner_sq + corner[..., i] * corner[..., i]
    return float(np.min(dot / np.sqrt(centre_sq * corner_sq)))


@lru_cache(maxsize=32)
def _grid_steps(dimension: int, half_angle: float) -> int:
    """The fewest cells per face edge, m, for which every cell of the
    equiangular grid has each corner within half_angle of its centre: the
    smallest cosine from centre to corner is at least cos(half_angle) +
    _PROOF_MARGIN.  The search starts at the m whose 2 dimension m^(dimension
    - 1) directions reach the area bound ``_log_fewest_caps``, as no fewer
    can cover, and raises the cover's InputError once a grid would hold more
    than _MAX_COVER_SIZE directions, before any direction is made.

    Each m is tried first on two cells: the one at the axis, index m // 2
    on every axis (centred on it for odd m, with it as a corner for even),
    and the one at the cube's vertex, index m - 1.  Both are among the
    cells ``_grid_min_cosine`` takes by default, with the same bits, so
    their worst corner angle is a lower bound on the grid's: an m they
    fail, the whole grid fails, and only an m they pass is tested whole.
    Under the size cap the pair's smallest cosine is the grid's, or an ulp
    or two above it: the axis cell is the worst in 4-D to 6-D, the vertex
    cell in 3-D, where the axis cell's angle atan(sqrt(2) tan(pi / 4m))
    falls 13% short for large m.  So the search from the area bound's 267
    cells per edge to the 591 of 0.1242 degrees tests one grid whole, not
    325.
    """
    n = dimension - 1
    fewest = math.exp(_log_fewest_caps(dimension, half_angle)) / (2 * dimension)
    steps = max(1, math.ceil(fewest ** (1.0 / n) * (1.0 - 1e-9)))
    cos_needed = math.cos(half_angle) + _PROOF_MARGIN
    while 2 * dimension * steps**n <= _MAX_COVER_SIZE:
        named = np.array([[steps // 2] * n, [steps - 1] * n])
        if (
            _grid_min_cosine(dimension, steps, named) >= cos_needed
            and _grid_min_cosine(dimension, steps) >= cos_needed
        ):
            return steps
        steps += 1
    raise _cover_too_large(dimension, half_angle)


def _grid_directions(dimension: int, steps: int) -> np.ndarray:
    """The unit centres of the equiangular grid with ``steps`` cells per edge
    on each face of the cube [-1, 1]^dimension, 2 dimension steps^(dimension
    - 1) of them.  Faces come in the order axis 0 +, axis 0 -, axis 1 +, ...;
    within a face, cells come in lexicographic order of their indices along
    the other axes, taken in increasing order, each index counted from the
    -45 degree end.  Every face is a signed permutation of the first, bit
    for bit."""
    n = dimension - 1
    _, centres = _grid_tangents(steps)
    face = np.ones((steps**n, dimension))
    face[:, 1:] = np.stack(np.meshgrid(*[centres] * n, indexing="ij"), axis=-1).reshape(-1, n)
    norm_sq = face[:, 0] * face[:, 0]
    for i in range(1, dimension):
        norm_sq += face[:, i] * face[:, i]
    face /= np.sqrt(norm_sq)[:, None]
    directions = np.empty((dimension, 2, steps**n, dimension))
    for axis in range(dimension):
        for side, sign in enumerate((1.0, -1.0)):
            rows = directions[axis, side]
            rows[:, axis] = sign * face[:, 0]
            rows[:, :axis] = face[:, 1 : axis + 1]
            rows[:, axis + 1 :] = face[:, axis + 1 :]
    return directions.reshape(-1, dimension)


def _grid_cover(dimension: int, half_angle: float) -> np.ndarray:
    """The equiangular cube-face grid cover of dimension 3 to 6, proved by
    construction: see ``_grid_steps`` for its size, ``_grid_directions``
    for its order.  Cone selection breaks ties to the lowest index, so the
    order is part of the result."""
    return _grid_directions(dimension, _grid_steps(dimension, half_angle))


# the dimensions whose cover is the cube-face grid.  In 6-D it is larger
# than the sampled cover (93,312 directions against 32,768 at the default
# angle) but proved and quicker to build, though cone selection over it is
# about 3x slower once the cover is cached; in 7-D its 1,647,086 directions
# take over three times as long as the 131,072 sampled
_GRID_DIMENSIONS = (3, 4, 5, 6)


@lru_cache(maxsize=32)
def _cached_cover(dimension: int, half_angle: float, seed: int) -> SphereCover:
    if dimension == 1:
        # {+1, -1} is the whole 0-sphere
        directions = np.array([[1.0], [-1.0]])
    elif dimension == 2:
        # count >= 2 pi / half_angle directions, 2 pi / count apart, put every
        # unit vector within pi / count <= half_angle / 2 of one: a proof
        directions = _circle_directions(max(int(math.ceil(2.0 * math.pi / half_angle)), 4))
    elif dimension in _GRID_DIMENSIONS:
        directions = _grid_cover(dimension, half_angle)
    else:
        directions = _sampled_cover(dimension, half_angle, seed)
    return SphereCover(half_angle=half_angle, directions=directions)


def require_cover_fits(dimension: int, half_angle: float) -> None:
    """Raise the InputError ``build_sphere_cover`` raises for these
    arguments before it draws a sample or makes a direction: a dimension or
    half angle out of range, a cover that would need more than
    _MAX_COVER_SIZE directions (in 2-D by its spacing, from 3-D on by the
    area bound ``_log_fewest_caps``, in 3-D to 6-D also by the grid
    ``_grid_steps`` proves), or a sampled cover (dimension 7 on) whose
    sample draw would hold more than _MAX_SAMPLE_ENTRIES floats."""
    if not isinstance(dimension, int) or dimension < 1:
        raise InputError(f"dimension must be a positive integer, got {dimension!r}")
    if not (0.0 < half_angle < math.pi / 2.0):
        raise InputError(f"half_angle must lie in (0, pi/2), got {half_angle!r}")
    if dimension == 2:
        too_large = 2.0 * math.pi / half_angle > _MAX_COVER_SIZE
    else:
        too_large = dimension >= 3 and (
            _log_fewest_caps(dimension, half_angle) > math.log(_MAX_COVER_SIZE)
        )
    if too_large:
        raise _cover_too_large(dimension, half_angle)
    if dimension in _GRID_DIMENSIONS:
        _grid_steps(dimension, float(half_angle))  # raises for a grid too large
    elif dimension > _GRID_DIMENSIONS[-1] and COVER_SAMPLE_COUNT * dimension > _MAX_SAMPLE_ENTRIES:
        raise InputError(
            f"a sampled cover in dimension {dimension} draws {COVER_SAMPLE_COUNT} x {dimension} "
            f"samples, above the cap of {_MAX_SAMPLE_ENTRIES} entries"
        )


def _log_fewest_caps(dimension: int, half_angle: float) -> float:
    """The log of a lower bound on how many caps of angular radius half_angle
    it takes to cover the unit sphere in R^dimension, dimension >= 3.

    No fewer than the sphere's area over a cap's.  With n = dimension - 2,
    that ratio is the integral of sin^n over (0, pi) over its integral over
    (0, half_angle); sin rises on (0, pi/2), so the second is at most
    half_angle sin^n(half_angle), and the first is twice the Wallis integral,
    sqrt(pi) Gamma((n + 1)/2) / Gamma(n/2 + 1).
    """
    n = dimension - 2
    log_sphere = 0.5 * math.log(math.pi) + math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 1)
    return log_sphere - math.log(half_angle) - n * math.log(math.sin(half_angle))


def _sampled_cover(dimension: int, half_angle: float, seed: int) -> np.ndarray:
    """Halton directions, doubled from 256 until each of COVER_SAMPLE_COUNT
    unit samples drawn from ``seed`` is covered: the cover from dimension 7
    on.  The candidates nest, so the samples one size leaves meet only the
    points the next adds."""
    rng = np.random.default_rng(seed)
    chunks = [
        _unit_rows(rng.standard_normal((min(_COVER_CHUNK, COVER_SAMPLE_COUNT - lo), dimension)))
        for lo in range(0, COVER_SAMPLE_COUNT, _COVER_CHUNK)
    ]
    count, start = 256, 0
    directions = np.empty((0, dimension))
    while count <= _MAX_COVER_SIZE:
        added = _halton_sphere(count, dimension, start)
        directions = np.concatenate([directions, added])
        chunks = [g for g in _uncovered(chunks, added, half_angle) if g.shape[0]]
        if not chunks:
            return directions
        start, count = count, 2 * count
    raise _cover_too_large(dimension, half_angle)


def _cover_too_large(dimension: int, half_angle: float) -> InputError:
    return InputError(
        f"could not cover the sphere in dimension {dimension} at half angle {half_angle} "
        f"with at most {_MAX_COVER_SIZE} directions"
    )


def build_sphere_cover(
    dimension: int, half_angle: float = DEFAULT_COVER_HALF_ANGLE, *, seed: int = 0
) -> SphereCover:
    """Deterministic sphere cover at the requested angular resolution.

    Dimension 1 uses {+1, -1}; dimension 2 ``ceil(2 pi / half_angle)``
    (at least 4) equally spaced circle points, about twice the count the
    spacing bound needs; dimensions 3 to 6 the centres of the smallest
    equiangular grid on the cube's faces whose every cell lies within
    half_angle of its centre (96, 1,000, 6,250 and 93,312 directions at the
    default angle).  These covers are
    proved and ``seed`` is unused.  From dimension 7 on, a low-discrepancy
    Gaussian construction is doubled until every one of COVER_SAMPLE_COUNT
    unit samples drawn from ``seed`` lies within half_angle of a direction.
    """
    require_cover_fits(dimension, half_angle)
    return _cached_cover(dimension, float(half_angle), require_seed(seed))


# ---- dominant cone selection -------------------------------------------


def select_dominant_cone(points, cover: SphereCover) -> tuple[ConeSpec, list[int]]:
    """Pick the cover direction whose cone captures the most points.

    Ties break to the lowest direction index.  Returns the winning cone
    and the indices of the captured points, in input order.
    """
    points_arr = stack_rows(points, "point")  # cone_contains_many checks the dimension
    require_rows(np.all(np.isfinite(points_arr), axis=1), "point {} has non-finite entries")
    require_rows(np.any(points_arr, axis=1), "point {} is the origin")
    # one block of directions at a time, so memory does not grow with the
    # cover; the strict > keeps the lowest index among tied counts
    block = max(1, _CONE_BLOCK_ENTRIES // len(points_arr))
    best_count, winner, captured = -1, 0, None
    for start in range(0, cover.size, block):
        inside = cone_contains_many(cover.directions[start : start + block], points_arr)
        counts = np.count_nonzero(inside, axis=1)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count, winner, captured = int(counts[top]), start + top, inside[top]
    cone = ConeSpec(UnitDirection(cover.directions[winner]))
    return cone, np.flatnonzero(captured).tolist()


# ---- dyadic shells ------------------------------------------------------


def _shell_of_radius(radius: float) -> int:
    if not (0.0 < radius <= 1.0):
        raise InputError(f"shell index needs 0 < ||x|| <= 1, got norm {radius!r}")
    if radius < 2.0**-50:
        # shells here are narrower than the spacing of floats near 1/radius,
        # where the rounding guards below would never end: floor exactly
        numerator, denominator = radius.as_integer_ratio()
        return denominator // numerator
    k = int(math.floor(1.0 / radius))
    # guard the floor against rounding at shell boundaries (k stays >= 1)
    while radius > 1.0 / k:
        k -= 1
    while radius <= 1.0 / (k + 1):
        k += 1
    return k


def shell_indices(points) -> list[int]:
    """Index k of the shell 1/(k+1) < ||x|| <= 1/k containing each row x of
    an (m, n) array, which needs 0 < ||x|| <= 1; one batched norm."""
    return [_shell_of_radius(r) for r in vector_norms(points, "point {}").tolist()]


def shell_index(x) -> int:
    """Shell index of one point: a one-row call of ``shell_indices``."""
    return shell_indices(np.reshape(x, (1, -1)))[0]


def select_parity(points) -> tuple[str, dict[int, list[int]]]:
    """Choose the parity ('even' or 'odd') with more occupied shells.

    The count is over distinct shell indices, not points.  Ties break to
    'even'.  Also returns the shell -> point indices map.
    """
    if len(points) == 0:
        raise InputError("at least one point is required")
    shells: dict[int, list[int]] = {}
    for i, k in enumerate(shell_indices(points)):
        shells.setdefault(k, []).append(i)
    even = sum(1 for k in shells if k % 2 == 0)
    return ("even" if 2 * even >= len(shells) else "odd"), shells

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
Dimension 3 uses a Fibonacci lattice (Gonzalez, Math. Geosci. 42, 2010),
higher dimensions Halton points (Halton, Numer. Math. 2, 1960) mapped
through the inverse normal CDF and normalized.  That map is an in-module
port of Cephes ``ndtri`` (Moshier, 1989) with libm ``log``, so it returns
scipy.special.ndtri's bits and the module imports nothing from scipy.
In dimension 1, {+1, -1} is the whole sphere, and in dimension 2 the
spacing of the circle points proves the cover: every unit vector lies
within pi / count of one of ``count`` equally spaced directions.  From
dimension 3 on, ``build_sphere_cover(dimension, half_angle, *, seed)``
doubles the candidate set until a randomized check passes.  The check
draws its COVER_SAMPLE_COUNT unit samples from ``seed`` once per cover
and tests them against blocks of directions, dropping the samples a
block already covers.  Halton candidates nest, each the first half of
the next, so a doubling computes only the new points and the check
resumes where the failed candidate stopped: chunks it covered are
skipped, and the samples it left uncovered meet only the added
directions.
Dyadic shells partition the punctured unit ball by 1/(k+1) < ||x|| <= 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
# entries of one (directions x points) block; bounds the temporaries of
# cone selection and cover verification independently of the cover size
_BLOCK_ENTRIES = 1 << 20
# below this norm a row's sum of squares is subnormal or 0
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def require_rows(ok: np.ndarray, message: str, first: int = 0) -> None:
    """Raise InputError(message) at the first False entry of ``ok``, ``{}`` its
    index counted from ``first``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise InputError(message.format(int(bad[0]) + first))


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


def _as_unit_vector(coords, tol: float = 1e-12) -> np.ndarray:
    arr = np.array(coords, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError("a direction must be a 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InputError("direction has non-finite entries")
    norm = vector_norm(arr, "direction")
    if abs(norm - 1.0) > tol:
        raise InputError(f"direction norm {norm!r} deviates from 1 by more than {tol}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class UnitDirection:
    """A unit vector; norm is validated to within 1e-12 on construction."""

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

    ``directions`` has shape (m, n); rows are unit vectors.
    """

    dimension: int
    half_angle: float
    directions: np.ndarray

    def __post_init__(self) -> None:
        dirs = np.array(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != self.dimension:
            raise InputError("directions must have shape (m, dimension)")
        if np.max(np.abs(row_norms(dirs) - 1.0)) > 1e-12:
            raise InputError("cover directions must be unit vectors")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

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
    index = index.copy()
    while np.any(index > 0):
        result += (index % base) * scale
        index //= base
        scale /= base
    return result


def _halton_points(count: int, dimension: int, start: int = 0) -> np.ndarray:
    """Unscrambled Halton points ``start`` to ``count - 1`` in [0, 1)^dimension,
    the sequence starting from the origin; coordinate i uses the (i+1)-th prime."""
    index = np.arange(start, count)
    return np.stack([_radical_inverse(index, base) for base in _primes(dimension)], axis=1)


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the coefficients scipy.special.ndtri uses; leading 1 of Q omitted
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2), the branch point
# |u - 1/2| <= 1/2 - exp(-2)
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# tails with 2 <= sqrt(-2 log y) < 8
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# tails with sqrt(-2 log y) >= 8
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes polevl: Horner's rule from the highest coefficient down."""
    result = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        result = result * x + c
    return result


def _p1evl(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes p1evl: polevl with a leading coefficient 1 left out of the table."""
    return _polevl(x, (1.0, *coefficients))


def _log(values: np.ndarray) -> np.ndarray:
    # libm log per element, as Cephes calls it; numpy's vectorised log can
    # round differently in the last bit
    return np.fromiter(map(math.log, values.tolist()), float, count=values.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each entry of ``u`` in (0, 1).

    The operations of Cephes ndtri in the same order, so the result equals
    scipy.special.ndtri bit for bit on a platform whose libm log matches.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    ratio = y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0)
    out[central] = (yc + yc * ratio) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0,
        z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
        z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2),
    )
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """The rows of ``g`` long enough to normalize, each divided by its norm."""
    norms = np.linalg.norm(g, axis=1)
    keep = norms > 1e-12
    return g[keep] / norms[keep, None]


def _halton_sphere(count: int, dimension: int, start: int = 0) -> np.ndarray:
    """Directions from Halton points ``start`` to ``count - 1``, pushed through
    the inverse normal CDF and normalized.  Each point maps on its own, so
    the directions for [0, 2n) are those for [0, n) followed by those for
    [n, 2n)."""
    u = np.clip(_halton_points(count, dimension, start), 1e-12, 1.0 - 1e-12)
    return _unit_rows(_ndtri(u))


def _cover_samples(dimension: int, seed: int, samples: int) -> list[np.ndarray]:
    """Unit samples for the covering check, in chunks of _COVER_CHUNK draws.

    Deterministic for a fixed seed; rows whose Gaussian draw is too short
    to normalize are dropped.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    remaining = samples
    while remaining > 0:
        chunk = min(_COVER_CHUNK, remaining)
        remaining -= chunk
        chunks.append(_unit_rows(rng.standard_normal((chunk, dimension))))
    return chunks


class _CoverProgress(NamedTuple):
    """Where a failed covering check stopped: chunks before ``chunk`` are
    covered by the first ``tested`` directions, and ``uncovered`` holds the
    samples of ``chunk`` that none of them covers."""

    chunk: int
    uncovered: np.ndarray
    tested: int


def _verify_cover(
    directions: np.ndarray,
    half_angle: float,
    chunks: list[np.ndarray],
    resume: _CoverProgress | None = None,
) -> tuple[bool, _CoverProgress | None]:
    """Randomized covering check: every sample must lie within half_angle
    of some direction.

    Directions are tested a block at a time, and samples a block covers are
    not tested again; a sample is covered exactly when its best cosine over
    all directions reaches cos(half_angle).  The check stops at the first
    chunk left with an uncovered sample and returns where it stopped.
    Passing that back as ``resume`` with directions that begin with the
    ones tested continues from there: covered chunks are skipped and the
    uncovered samples meet only the added directions.
    """
    cos_threshold = math.cos(half_angle)
    block = max(1, _BLOCK_ENTRIES // _COVER_CHUNK)
    first = 0 if resume is None else resume.chunk
    for index in range(first, len(chunks)):
        g, start = chunks[index], 0
        if resume is not None and index == resume.chunk:
            g, start = resume.uncovered, resume.tested
        for lo in range(start, directions.shape[0], block):
            if g.shape[0] == 0:
                break
            best = (g @ directions[lo : lo + block].T).max(axis=1)
            g = g[best < cos_threshold]
        if g.shape[0]:
            return False, _CoverProgress(index, g, directions.shape[0])
    return True, None


@lru_cache(maxsize=32)
def _cached_cover(dimension: int, half_angle: float, seed: int) -> SphereCover:
    if dimension == 1:
        # {+1, -1} is the whole 0-sphere
        directions = np.array([[1.0], [-1.0]])
    elif dimension == 2:
        # every unit vector lies within half the spacing 2 pi / count of
        # a circle direction, so this bound proves the cover
        count = max(int(math.ceil(2.0 * math.pi / half_angle)), 4)
        if math.pi / count > half_angle:
            raise InputError(f"cover construction failed in dimension {dimension}")
        directions = _circle_directions(count)
    else:
        directions = _sampled_cover(dimension, half_angle, seed)
    return SphereCover(dimension=dimension, half_angle=half_angle, directions=directions)


def _sampled_cover(dimension: int, half_angle: float, seed: int) -> np.ndarray:
    """Directions in dimension >= 3, doubled until the sampled check passes."""
    chunks = _cover_samples(dimension, seed, COVER_SAMPLE_COUNT)
    count, start, progress = (32 if dimension == 3 else 256), 0, None
    directions = np.empty((0, dimension))
    while True:
        if dimension == 3:
            # Fibonacci lattices of different sizes do not nest
            directions, progress = _fibonacci_sphere(count), None
        else:
            # the Halton candidates nest: add the new points, resume the check
            directions = np.concatenate([directions, _halton_sphere(count, dimension, start)])
        covered, progress = _verify_cover(directions, half_angle, chunks, progress)
        if covered:
            return directions
        start, count = count, 2 * count
        if count > _MAX_COVER_SIZE:
            raise InputError(
                f"could not cover the sphere in dimension {dimension} "
                f"at half angle {half_angle}"
            )


def build_sphere_cover(
    dimension: int, half_angle: float = DEFAULT_COVER_HALF_ANGLE, *, seed: int = 0
) -> SphereCover:
    """Deterministic sphere cover at the requested angular resolution.

    Dimension 1 uses {+1, -1}; dimension 2 the fewest equally spaced
    circle points whose spacing proves the cover (``seed`` is unused in
    both); dimension 3 a Fibonacci lattice; higher dimensions a
    low-discrepancy Gaussian construction.  From dimension 3 on, the
    candidate set is doubled until the randomized covering check on
    COVER_SAMPLE_COUNT samples drawn from ``seed`` passes.
    """
    if not isinstance(dimension, int) or dimension < 1:
        raise InputError(f"dimension must be a positive integer, got {dimension!r}")
    if not (0.0 < half_angle < math.pi / 2.0):
        raise InputError(f"half_angle must lie in (0, pi/2), got {half_angle!r}")
    return _cached_cover(dimension, float(half_angle), int(seed))


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
    block = max(1, _BLOCK_ENTRIES // len(points_arr))
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

"""Sphere covers, cone membership, and dyadic shell selection."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcert import geometry
from pathcert.errors import InputError
from pathcert.geometry import (
    CONE_HALF_ANGLE,
    DEFAULT_COVER_HALF_ANGLE,
    TWO_THIRDS,
    ConeSpec,
    UnitDirection,
    build_sphere_cover,
    cone_contains,
    cone_contains_many,
    select_dominant_cone,
    select_parity,
    shell_index,
    shell_indices,
    vector_norm,
    vector_norms,
)
from pathcert.skeleton import shell_bounds


def _cone(axis) -> ConeSpec:
    arr = np.asarray(axis, dtype=float)
    return ConeSpec(UnitDirection(arr / np.linalg.norm(arr)))


# ---- unit directions and cones ------------------------------------------


def test_unit_direction_rejects_non_unit():
    with pytest.raises(InputError):
        UnitDirection(np.array([0.0, 0.0]))
    with pytest.raises(InputError):
        UnitDirection(np.array([1.0, 1.0]))
    with pytest.raises(InputError):
        UnitDirection(np.array([[1.0], [0.0]]))


def test_unit_direction_is_frozen():
    d = UnitDirection(np.array([0.6, 0.8]))
    assert d.dimension == 2
    with pytest.raises(ValueError):
        d.coords[0] = 0.0


def test_cone_contains_origin_and_axis():
    cone = _cone([1.0, 0.0])
    assert cone_contains(cone, [0.0, 0.0])
    assert cone_contains(cone, [0.5, 0.0])
    assert not cone_contains(cone, [-0.5, 0.0])
    assert not cone_contains(cone, [0.0, 0.3])


def test_cone_boundary_angle():
    """Membership flips exactly at the angular radius arccos(sqrt(2/3))."""
    cone = _cone([1.0, 0.0])
    inside = CONE_HALF_ANGLE - 1e-9
    outside = CONE_HALF_ANGLE + 1e-9
    assert cone_contains(cone, [math.cos(inside), math.sin(inside)])
    assert not cone_contains(cone, [math.cos(outside), math.sin(outside)])


def test_cone_contains_matches_distance_definition():
    """Compare the closed form against the set definition.

    x belongs to the cone iff some r >= 0 gives ||x - r z|| <= r/sqrt(3);
    a dense r grid decides that within a small resolution margin, so only
    points comfortably away from the boundary are classified.
    """
    rng = np.random.default_rng(7)
    cone = _cone([2.0, -1.0, 0.5])
    z = cone.axis.coords
    checked = 0
    for _ in range(400):
        x = rng.uniform(-1.0, 1.0, size=3)
        nsq = float(x @ x)
        if nsq < 1e-4:
            continue
        dot = float(x @ z)
        # skip points too close to the boundary for the grid to resolve
        if abs(dot * dot - (2.0 / 3.0) * nsq) < 1e-3 * nsq:
            continue
        r = np.linspace(0.0, 4.0 * math.sqrt(nsq), 2001)
        dist = np.linalg.norm(x[None, :] - r[:, None] * z[None, :], axis=1)
        oracle = bool(np.any(dist <= r / math.sqrt(3.0) + 1e-9))
        assert cone_contains(cone, x) == oracle
        checked += 1
    assert checked > 300


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(
        st.floats(-8.0, 8.0, allow_nan=False), min_size=3, max_size=3
    ),
    factor=st.floats(1e-3, 1e3, allow_nan=False),
)
def test_cone_contains_scale_invariant(coords, factor):
    """Positive scaling never changes membership away from the boundary."""
    x = np.asarray(coords, dtype=float)
    nsq = float(x @ x)
    if nsq < 1e-6:
        return
    cone = _cone([1.0, 1.0, 1.0])
    dot = float(x @ cone.axis.coords)
    if abs(dot * dot - (2.0 / 3.0) * nsq) < 1e-6 * nsq:
        return
    assert cone_contains(cone, x) == cone_contains(cone, factor * x)


def test_cone_dimension_mismatch():
    cone = _cone([1.0, 0.0])
    with pytest.raises(InputError):
        cone_contains(cone, [1.0, 0.0, 0.0])


def _reference_contains(axis, x) -> bool:
    """The closed form with the sums written out in Python floats, in
    coordinate order: the arithmetic cone_contains_many must reproduce.
    A point whose largest entry lies outside [2^-256, 2^256] is first
    brought to a largest entry in [1/2, 1) by an exact power of two."""
    top = max(abs(v) for v in x)
    if 0.0 < top < 2.0**-256 or 2.0**256 < top < math.inf:
        shift = math.frexp(top)[1]
        x = [math.ldexp(v, -shift) for v in x]
    dot = axis[0] * x[0]
    norm_sq = x[0] * x[0]
    for i in range(1, len(x)):
        dot = dot + axis[i] * x[i]
        norm_sq = norm_sq + x[i] * x[i]
    return norm_sq == 0.0 or (dot >= 0.0 and dot * dot >= TWO_THIRDS * norm_sq)


def _boundary_point(axis, across, ulps: int, radius: float):
    """A point at CONE_HALF_ANGLE stepped by ``ulps`` from the axis, in the
    plane of the axis and ``across``; None where that plane degenerates."""
    w = across - (across @ axis) * axis
    if float(np.linalg.norm(w)) < 1e-3:
        return None
    w = w / np.linalg.norm(w)
    angle = CONE_HALF_ANGLE
    toward = math.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        angle = float(np.nextafter(angle, toward))
    return radius * (math.cos(angle) * axis + math.sin(angle) * w)


@settings(max_examples=150)
@given(data=st.data())
def test_cone_contains_many_is_the_scalar_predicate(data):
    """Every entry equals the scalar test and the written-out reference,
    and a row computed alone has the bits it has inside the batch."""
    dimension = data.draw(st.integers(1, 5))
    vector = st.lists(
        st.floats(-4.0, 4.0, allow_nan=False), min_size=dimension, max_size=dimension
    ).map(np.array)
    axes = [
        v / np.linalg.norm(v)
        for v in data.draw(st.lists(vector, min_size=1, max_size=4))
        if float(np.linalg.norm(v)) > 1e-3
    ]
    if not axes:
        axes = [np.eye(dimension)[0]]
    points = data.draw(st.lists(vector, max_size=6)) + [np.zeros(dimension)]
    for axis in axes:
        for _ in range(data.draw(st.integers(0, 3))):
            p = _boundary_point(
                axis, data.draw(vector), data.draw(st.integers(-4, 4)),
                data.draw(st.floats(1e-3, 10.0)),
            )
            if p is not None:
                points.append(p)
    axes_arr, points_arr = np.stack(axes), np.stack(points)
    inside = cone_contains_many(axes_arr, points_arr)
    assert inside.shape == (len(axes), len(points)) and inside.dtype == bool
    for i, axis in enumerate(axes):
        cone = ConeSpec(UnitDirection(axis))
        for j, x in enumerate(points):
            expected = _reference_contains(axis.tolist(), x.tolist())
            assert inside[i, j] == cone_contains(cone, x) == expected
        assert np.array_equal(cone_contains_many(axes_arr[i : i + 1], points_arr), inside[i : i + 1])


def test_cone_contains_many_flips_within_ulps_of_the_boundary():
    """Stepping a few ulp of angle across CONE_HALF_ANGLE flips membership."""
    axis = np.array([1.0, 0.0])
    inner = _boundary_point(axis, np.array([0.0, 1.0]), -4, 1.0)
    outer = _boundary_point(axis, np.array([0.0, 1.0]), 4, 1.0)
    assert cone_contains_many(axis[None, :], np.stack([inner, outer])).tolist() == [[True, False]]


def test_cone_contains_many_judges_a_tiny_point_by_its_direction():
    """(x.z)^2 and ||x||^2 of this point both underflow to 0; it lies 79
    degrees off the axis and must not count as the origin."""
    axis = np.array([[1.0, 0.0]])
    assert cone_contains_many(axis, [[1e-200, 5e-200]]).tolist() == [[False]]
    assert cone_contains_many(axis, [[5e-200, 1e-200]]).tolist() == [[True]]
    assert cone_contains_many(axis, [[1e200, 5e200]]).tolist() == [[False]]
    assert cone_contains_many(axis, [[0.0, 0.0], [-0.0, 0.0]]).tolist() == [[True, True]]


_SCALABLE_ENTRY = st.one_of(
    st.just(0.0),
    st.tuples(st.booleans(), st.floats(2.0**-20, 1.0)).map(lambda t: -t[1] if t[0] else t[1]),
)


@settings(max_examples=60)
@given(data=st.data())
def test_cone_verdict_survives_power_of_two_scaling(data):
    """Scaling a point by 2^-k for |k| <= 1000 never changes its verdict,
    alone or in a batch; entries within 2^20 of the largest scale exactly."""
    dimension = data.draw(st.integers(1, 5))
    vector = st.lists(_SCALABLE_ENTRY, min_size=dimension, max_size=dimension).map(np.array)
    axes = [
        v / np.linalg.norm(v)
        for v in data.draw(st.lists(vector, min_size=1, max_size=3))
        if float(np.linalg.norm(v)) > 1e-3
    ] or [np.eye(dimension)[0]]
    points = np.stack(data.draw(st.lists(vector, min_size=1, max_size=4)))
    shifts = data.draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=4))
    axes_arr = np.stack(axes)
    verdict = cone_contains_many(axes_arr, points)
    for k in shifts:
        scaled = np.ldexp(points, -k)
        assert np.array_equal(cone_contains_many(axes_arr, scaled), verdict), k
        for j in range(len(points)):
            assert np.array_equal(
                cone_contains_many(axes_arr, scaled[j : j + 1])[:, 0], verdict[:, j]
            )


def test_cone_contains_many_rejects_mismatched_shapes():
    with pytest.raises(InputError):
        cone_contains_many(np.eye(3), np.ones((2, 2)))
    with pytest.raises(InputError):
        cone_contains_many(np.ones(3), np.ones((2, 3)))


# ---- sphere covers ------------------------------------------------------


def test_cover_dimension_one():
    cover = build_sphere_cover(1)
    assert cover.size == 2
    assert sorted(float(d[0]) for d in cover.directions) == [-1.0, 1.0]


def test_cover_dimension_two_count():
    """The circle needs ceil(2 pi / half_angle) equally spaced directions."""
    cover = build_sphere_cover(2)
    expected = int(math.ceil(2.0 * math.pi / DEFAULT_COVER_HALF_ANGLE))
    assert cover.size == expected
    norms = np.linalg.norm(cover.directions, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) <= 1e-12


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("half_angle", [DEFAULT_COVER_HALF_ANGLE, 0.05, 0.3, 1.5])
def test_circle_cover_passes_the_sampled_check(half_angle, seed):
    """The 2-D cover, proved by its spacing, also passes the randomized
    check that higher dimensions rely on."""
    cover = build_sphere_cover(2, half_angle, seed=seed)
    assert math.pi / cover.size <= half_angle
    chunks = geometry._cover_samples(2, seed, geometry.COVER_SAMPLE_COUNT)
    assert geometry._verify_cover(cover.directions, half_angle, chunks) == (True, None)


def test_low_dimensional_covers_draw_no_samples(monkeypatch):
    """Covers in dimensions 1 and 2 need no random samples."""

    def no_samples(*args):
        raise AssertionError("sampled a cover that its spacing proves")

    monkeypatch.setattr(geometry, "_cover_samples", no_samples)
    build = geometry._cached_cover.__wrapped__  # past the cache
    assert build(1, 0.7, 91).size == 2
    assert build(2, 0.7, 91).size == math.ceil(2.0 * math.pi / 0.7)
    with pytest.raises(AssertionError, match="sampled"):
        build(3, 0.7, 91)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_cover_property_against_grid_oracle(dimension):
    """Every unit vector is within half_angle of some cover direction.

    Checked against sample sets generated independently of the cover's
    own randomized verification.
    """
    cover = build_sphere_cover(dimension)
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        samples = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        rng = np.random.default_rng(1234)
        g = rng.standard_normal((20000, dimension))
        samples = g / np.linalg.norm(g, axis=1)[:, None]
    best = (samples @ cover.directions.T).max(axis=1)
    worst_angle = float(np.max(np.arccos(np.clip(best, -1.0, 1.0))))
    assert worst_angle <= cover.half_angle + 1e-9


def test_cover_deterministic():
    a = build_sphere_cover(3)
    b = build_sphere_cover(3)
    assert np.array_equal(a.directions, b.directions)


@pytest.mark.parametrize("dimension", range(2, 9))
def test_halton_points_match_scipy(dimension):
    """The in-module radical inverse reproduces scipy's unscrambled Halton
    sequence bit for bit, so covers built from it keep their directions."""
    from scipy.stats import qmc

    for count in (1, 7, 256, 4097):
        expected = qmc.Halton(d=dimension, scramble=False).random(count)
        assert np.array_equal(geometry._halton_points(count, dimension), expected)


@pytest.mark.parametrize("dimension,size", [(3, 128), (4, 2048), (5, 8192)])
def test_cover_sizes_at_seed_zero(dimension, size):
    assert build_sphere_cover(dimension).size == size


def _brute_force_covered(directions, half_angle, chunks) -> bool:
    """Every sample's best cosine over all directions, taken 1024 directions
    at a time so that the products stay small."""
    for g in chunks:
        slices = range(0, len(directions), 1024)
        best = np.max([(g @ directions[lo : lo + 1024].T).max(axis=1) for lo in slices], axis=0)
        if np.any(best < math.cos(half_angle)):
            return False
    return True


@pytest.mark.parametrize("block_entries", [geometry._COVER_CHUNK * 8, geometry._BLOCK_ENTRIES])
@pytest.mark.parametrize(
    "dimension,counts",
    [
        (2, (8, 10, 11, 21)),
        (3, (32, 64, 128, 256)),
        (4, (256, 512, 1024)),
        (5, (256, 512, 1024, 2048, 4096)),
    ],
)
def test_pruned_cover_check_matches_brute_force(monkeypatch, block_entries, dimension, counts):
    """Dropping covered samples block by block gives the verdict of the full
    max over all directions, on covers that pass and covers that fail.  In
    dimension >= 4 the candidates nest as in the cover build, and each check
    resumes where the failed one before it stopped."""
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", block_entries)
    chunks = geometry._cover_samples(dimension, 3, 20_000)
    half_angle = DEFAULT_COVER_HALF_ANGLE
    verdicts, progress, start = [], None, 0
    directions = np.empty((0, dimension))
    for count in counts:
        if dimension == 2:
            directions = geometry._circle_directions(count)
        elif dimension == 3:
            directions = geometry._fibonacci_sphere(count)
        else:
            halton = geometry._halton_sphere(count, dimension, start)
            directions, start = np.concatenate([directions, halton]), count
        verdict, resumed = geometry._verify_cover(
            directions, half_angle, chunks, progress if dimension >= 4 else None
        )
        assert verdict == _brute_force_covered(directions, half_angle, chunks)
        assert (resumed is None) == verdict
        verdicts.append(verdict)
        progress = resumed
    if dimension >= 4:
        assert verdicts == [False] * (len(counts) - 1) + [True]
    assert verdicts[0] is False and verdicts[-1] is True


def test_resumed_cover_check_retests_the_failed_chunk():
    """On resume, the samples the failed candidate left uncovered must meet
    an added direction; the chunks after them meet all directions."""
    half_angle = DEFAULT_COVER_HALF_ANGLE
    circle = geometry._circle_directions(24)

    def on_circle(lo, hi):
        angles = np.linspace(lo, hi, 50)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)

    # the first 12 directions span 0..165 degrees: they cover ``upper`` only
    upper, lower = on_circle(0.1, 3.0), on_circle(3.4, 5.9)
    chunks = [np.concatenate([upper, lower]), upper, upper]
    candidates = [
        circle[:12],
        np.concatenate([circle[:12], circle[5:6]]),  # adds a direction inside the span
        np.concatenate([circle[:12], circle[5:6], circle[12:]]),
    ]
    verdicts, progress = [], None
    for directions in candidates:
        verdict, progress = geometry._verify_cover(directions, half_angle, chunks, progress)
        assert verdict == _brute_force_covered(directions, half_angle, chunks)
        verdicts.append(verdict)
    assert verdicts == [False, False, True]


@pytest.mark.parametrize("dimension", [4, 5, 8])
@pytest.mark.parametrize("count", [1, 256, 1000])
def test_halton_sphere_nests(dimension, count):
    """The first n directions of a 2n-point set are the n-point set, and the
    set is the concatenation of its ``start``-sliced parts."""
    whole = geometry._halton_sphere(2 * count, dimension)
    assert np.array_equal(whole[:count], geometry._halton_sphere(count, dimension))
    parts = [
        geometry._halton_sphere(stop, dimension, begin)
        for begin, stop in ((0, count // 2), (count // 2, count), (count, 2 * count))
    ]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_cover_samples_normalize_with_one_norm_pass(dimension, seed):
    """Samples equal the two-pass form that normalized the kept rows by
    recomputed norms."""
    rng = np.random.default_rng(seed)
    expected = []
    for size in (4096,) * 24 + (1696,):
        g = rng.standard_normal((size, dimension))
        g = g[np.linalg.norm(g, axis=1) > 1e-12]
        g /= np.linalg.norm(g, axis=1)[:, None]
        expected.append(g)
    chunks = geometry._cover_samples(dimension, seed, geometry.COVER_SAMPLE_COUNT)
    assert len(chunks) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(chunks, expected))


def test_ndtri_matches_scipy_bit_for_bit():
    """The in-module Cephes port returns scipy's bits on Halton coordinates,
    uniform draws, both deep tails and the branch points."""
    from scipy.special import ndtri

    rng = np.random.default_rng(11)
    edges = (1e-12, 1.0 - 1e-12, 0.5, math.exp(-2.0), 1.0 - math.exp(-2.0))
    inputs = [
        # the leading d columns of the 8-D Halton set are the d-D set
        np.clip(geometry._halton_points(65_536, 8), 1e-12, 1.0 - 1e-12).ravel(),
        rng.uniform(size=1_000_000),
        10.0 ** rng.uniform(-300.0, -1.0, size=100_000),
        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, size=100_000),
        np.array([w for v in edges for w in (np.nextafter(v, 0.0), v, np.nextafter(v, 1.0))]),
    ]
    for u in inputs:
        assert u.min() > 0.0 and u.max() < 1.0
        assert np.array_equal(geometry._ndtri(u).view(np.int64), ndtri(u).view(np.int64))


def test_cover_memory_is_bounded():
    """Verification holds one block of directions against one chunk of
    samples, not the whole cover at once."""
    tracemalloc.start()
    try:
        cover = build_sphere_cover(5, seed=918_273)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cover.size >= 8192
    assert peak < 64 * 2**20


def test_cover_validation():
    with pytest.raises(InputError):
        build_sphere_cover(0)
    with pytest.raises(InputError):
        build_sphere_cover(2, half_angle=0.0)
    with pytest.raises(InputError):
        build_sphere_cover(2, half_angle=math.pi)


# ---- dominant cone ------------------------------------------------------


def test_select_dominant_cone_recount():
    """The winner maximizes the capture count with lowest-index ties.

    Counts are recomputed here through the public membership predicate,
    so selection and membership cannot drift apart.
    """
    rng = np.random.default_rng(99)
    g = rng.standard_normal((150, 2))
    points = [0.5 * p / np.linalg.norm(p) for p in g]
    cover = build_sphere_cover(2)
    cone, captured = select_dominant_cone(points, cover)
    counts = []
    for d in cover.directions:
        c = ConeSpec(UnitDirection(d))
        counts.append(sum(1 for p in points if cone_contains(c, p)))
    winner = int(np.argmax(counts))
    assert np.array_equal(cone.axis.coords, cover.directions[winner])
    assert captured == [i for i, p in enumerate(points) if cone_contains(cone, p)]
    assert len(captured) == counts[winner]


def test_select_dominant_cone_tie_breaks_low():
    """All points on one ray are captured by several nearby directions;
    the lowest direction index must win."""
    cover = build_sphere_cover(2)
    axis = cover.directions[5]
    points = [0.3 * axis, 0.2 * axis, 0.1 * axis]
    cone, captured = select_dominant_cone(points, cover)
    counts = []
    for d in cover.directions:
        c = ConeSpec(UnitDirection(d))
        counts.append(sum(1 for p in points if cone_contains(c, p)))
    top = max(counts)
    lowest = min(i for i, c in enumerate(counts) if c == top)
    assert np.array_equal(cone.axis.coords, cover.directions[lowest])
    assert captured == [0, 1, 2]


@pytest.mark.parametrize("block_entries", [1, 5 * 40, 1 << 20])
def test_select_dominant_cone_blocks_keep_the_winner(monkeypatch, block_entries):
    """Splitting the cover into blocks of directions changes neither the
    winner (lowest index among the top counts) nor the captured indices."""
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(5)
    cover = build_sphere_cover(3)
    # two equally heavy tight clusters, so the top count is tied across
    # directions far apart in the cover's order
    centers = cover.directions[[17, 90]]
    points = [
        (0.1 + 0.8 * rng.uniform()) * (c + 0.02 * rng.standard_normal(3))
        for c in centers
        for _ in range(20)
    ]
    counts = cone_contains_many(cover.directions, np.stack(points)).sum(axis=1)
    winner = int(np.argmax(counts))
    assert np.count_nonzero(counts == counts[winner]) > 1
    cone, captured = select_dominant_cone(points, cover)
    assert np.array_equal(cone.axis.coords, cover.directions[winner])
    assert captured == [i for i, p in enumerate(points) if cone_contains(cone, p)]


def test_select_dominant_cone_rejects_origin():
    cover = build_sphere_cover(2)
    with pytest.raises(InputError):
        select_dominant_cone([np.zeros(2)], cover)


# ---- shells and parity --------------------------------------------------


def test_shell_index_boundaries():
    """Norm 1/k lands in shell k; the shell is open below, closed above."""
    for k in range(1, 60):
        assert shell_index(np.array([1.0 / k, 0.0])) == k
        lo, hi = shell_bounds(k)
        mid = 0.5 * (lo + hi)
        assert shell_index(np.array([0.0, mid])) == k


def test_shell_index_brackets_norm():
    rng = np.random.default_rng(3)
    for _ in range(300):
        r = float(rng.uniform(0.01, 1.0))
        x = np.array([r, 0.0])
        k = shell_index(x)
        lo, hi = shell_bounds(k)
        assert lo < r <= hi


@pytest.mark.parametrize("scale", [1e-17, 1e-200, 5e-324])
def test_shell_index_of_a_tiny_point(scale):
    """Shells narrower than a float's spacing are indexed exactly, not looped over."""
    x = np.array([scale, 0.0])
    k = shell_index(x)
    assert Fraction(1, k + 1) < Fraction(scale) <= Fraction(1, k)


def test_vector_norm_keeps_bits_and_survives_extremes():
    rng = np.random.default_rng(5)
    for v in rng.normal(size=(200, 4)) * np.exp(rng.uniform(-30.0, 30.0, size=(200, 1))):
        assert vector_norm(v, "v") == np.linalg.norm(v)
    assert math.isclose(
        vector_norm(np.array([1e-200, -1e-200]), "v"), math.sqrt(2.0) * 1e-200, rel_tol=1e-15
    )
    assert vector_norm(np.array([5e-324, 0.0]), "v") == 5e-324
    assert vector_norm(np.zeros(3), "v") == 0.0
    with pytest.raises(InputError, match="v is too large: its norm overflows float64"):
        vector_norm(np.array([1e308, 1e308]), "v")


def _norm_of_one_row(row: np.ndarray) -> float:
    """The per-row formula: np.linalg.norm, recomputed on row / max|row|
    where the sum of squares is subnormal or 0 (the norm lies below
    sqrt(tiny))."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(row))
        if norm < math.sqrt(np.finfo(float).tiny) and np.any(row):
            top = float(np.max(np.abs(row)))
            norm = top * float(np.linalg.norm(row / top))
    return norm


@pytest.mark.parametrize("dimension", [1, 2, 3, 5, 17])
def test_vector_norms_keep_the_bits_of_the_per_row_formula(dimension):
    """Each batched norm has the bits of the formula on its row alone, tiny,
    zero, infinite and strided rows included; the first overflowing row is named."""
    rng = np.random.default_rng(dimension)
    special = np.zeros((7, dimension))
    special[1, 0] = 5e-324
    special[2] = 1e-200
    special[3, -1] = -1e-200
    special[4, 0] = 3e-162  # squares subnormal, not 0
    special[5, 0] = -1e154  # its square still fits in a float
    special[6, -1] = math.inf
    scales = np.exp(rng.uniform(-420.0, 340.0, size=(300, 1)))
    rows = np.concatenate([special, rng.standard_normal((300, dimension)) * scales])
    expected = np.array([_norm_of_one_row(row) for row in rows])
    for batch in (rows, np.asfortranarray(rows)):
        got = vector_norms(batch, "row {}")
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert [vector_norm(row, "row") for row in rows] == expected.tolist()
    rows[[40, 90]] = 1e308
    rows[90, 0] = -1e308
    with pytest.raises(InputError, match=r"^row 40 is too large: its norm overflows float64$"):
        vector_norms(rows, "row {}")


def test_shell_indices_match_shell_index():
    """The batched shell indices equal one-row calls on shell boundaries,
    their neighbouring floats and tiny radii."""
    radii = [2.0**-50, 2.0**-51, 1e-17, 1e-200, 5e-324]
    for k in range(1, 80):
        radii += [1.0 / k, np.nextafter(1.0 / k, 0.0), np.nextafter(1.0 / (k + 1), 1.0)]
    rows = np.array(radii)[:, None] * np.array([0.6, 0.8])
    rows = np.concatenate([rows, [[3e-162, 1e-162], [1.0, 0.0]]])
    assert shell_indices(rows) == [shell_index(row) for row in rows]
    assert shell_indices(np.empty((0, 2))) == []


def test_shell_index_range_errors():
    with pytest.raises(InputError):
        shell_index(np.array([0.0, 0.0]))
    with pytest.raises(InputError):
        shell_index(np.array([1.5, 0.0]))


def _point_in_shell(s: int) -> np.ndarray:
    lo, hi = shell_bounds(s)
    return np.array([0.5 * (lo + hi), 0.0])


def test_select_parity_counts_distinct_shells():
    even_heavy = [_point_in_shell(s) for s in (2, 4, 6)] + [_point_in_shell(3)]
    parity, shells = select_parity(even_heavy)
    assert parity == "even"
    assert set(shells) == {2, 3, 4, 6}
    odd_heavy = [_point_in_shell(s) for s in (3, 5, 7)] + [_point_in_shell(2)]
    parity, _ = select_parity(odd_heavy)
    assert parity == "odd"


def test_select_parity_duplicates_do_not_count():
    """Three points in one odd shell still lose to two distinct even shells."""
    points = [
        _point_in_shell(3),
        _point_in_shell(3),
        _point_in_shell(3),
        _point_in_shell(2),
        _point_in_shell(4),
    ]
    parity, shells = select_parity(points)
    assert parity == "even"
    assert shells[3] == [0, 1, 2]


def test_select_parity_tie_is_even():
    parity, _ = select_parity([_point_in_shell(2), _point_in_shell(3)])
    assert parity == "even"

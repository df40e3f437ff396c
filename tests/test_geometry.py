"""Sphere covers, cone membership, and dyadic shell selection."""

import itertools
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
    SphereCover,
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


def _samples(dimension, seed, count):
    """Unit samples as the cover build draws them: chunks of up to 4096
    standard normal rows from ``seed``, each kept row divided by its norm,
    computed in two passes (short rows dropped, norms taken again)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for lo in range(0, count, 4096):
        g = rng.standard_normal((min(4096, count - lo), dimension))
        g = g[np.linalg.norm(g, axis=1) > 1e-12]
        chunks.append(g / np.linalg.norm(g, axis=1)[:, None])
    return chunks


def _brute_force_uncovered(directions, half_angle, chunks):
    """Per chunk, the samples whose best cosine over all directions, taken
    1024 directions at a time so that the products stay small, falls below
    cos(half_angle)."""
    uncovered = []
    for g in chunks:
        slices = range(0, len(directions), 1024)
        best = np.max([(g @ directions[lo : lo + 1024].T).max(axis=1) for lo in slices], axis=0)
        uncovered.append(g[best < math.cos(half_angle)])
    return uncovered


def _brute_force_covered(directions, half_angle, chunks) -> bool:
    return not any(len(g) for g in _brute_force_uncovered(directions, half_angle, chunks))


def _same_chunks(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("half_angle", [DEFAULT_COVER_HALF_ANGLE, 0.05, 0.3, 1.5])
def test_circle_cover_passes_the_sampled_check(half_angle, seed):
    """The 2-D cover, proved by its spacing, also leaves none of the
    samples that higher dimensions rely on uncovered."""
    cover = build_sphere_cover(2, half_angle, seed=seed)
    assert math.pi / cover.size <= half_angle / 2.0
    chunks = _samples(2, seed, geometry.COVER_SAMPLE_COUNT)
    uncovered = list(geometry._uncovered(chunks, cover.directions, half_angle))
    assert _same_chunks(uncovered, [g[:0] for g in chunks])
    assert _brute_force_covered(cover.directions, half_angle, chunks)


def test_low_dimensional_covers_draw_no_samples(monkeypatch):
    """Covers in dimensions 1 to 5 are proved: they draw no random samples
    and test none, and the seed changes none of them.  Dimension 6 still
    samples."""

    def no_samples(*args):
        raise AssertionError("sampled a cover that is proved")

    monkeypatch.setattr(np.random, "default_rng", no_samples)
    monkeypatch.setattr(geometry, "_uncovered", no_samples)
    build = geometry._cached_cover.__wrapped__  # past the cache
    assert build(1, 0.7, 91).size == 2
    assert build(2, 0.7, 91).size == math.ceil(2.0 * math.pi / 0.7)
    assert build(3, 0.7, 91).size == 6 * 2**2  # two cells per face edge
    assert build(4, 0.7, 91).size == 8 * 2**3  # two cells per face edge
    assert build(5, 0.7, 91).size == 10 * 2**4
    for dimension in (3, 4, 5):
        assert np.array_equal(
            build(dimension, 0.2, 91).directions, build(dimension, 0.2, 0).directions
        )
    with pytest.raises(AssertionError, match="sampled"):
        build(6, 0.7, 91)


@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_cover_property_against_grid_oracle(dimension):
    """Every unit vector is within half_angle of some cover direction.

    Checked on points the cover never sees: an even circle in 2-D, seeded
    Gaussian samples from 3-D on.  These covers are proved by construction
    and draw no samples of their own.
    """
    cover = build_sphere_cover(dimension)
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        samples = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        rng = np.random.default_rng(1234)
        g = rng.standard_normal((20000, dimension))
        samples = g / np.linalg.norm(g, axis=1)[:, None]
    # 1,000 samples at a time: the whole 20,000 x 6,250 product in 5-D takes 1 GB
    blocks = [samples[lo : lo + 1000] for lo in range(0, len(samples), 1000)]
    best = np.concatenate([(block @ cover.directions.T).max(axis=1) for block in blocks])
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


def _sampled_size(dimension, seed):
    return len(geometry._sampled_cover(dimension, DEFAULT_COVER_HALF_ANGLE, seed))


def _built_size(dimension, seed):
    return build_sphere_cover(dimension, seed=seed).size


@pytest.mark.parametrize(
    "dimension,size,seed,cover_size",
    [
        (3, 96, 0, _built_size), (4, 1000, 0, _built_size), (5, 6250, 0, _built_size),
        (3, 96, 7, _built_size), (4, 1000, 7, _built_size), (5, 6250, 7, _built_size),
        (4, 2048, 0, _sampled_size), (5, 8192, 0, _sampled_size),
        (4, 2048, 7, _sampled_size), (5, 8192, 7, _sampled_size),
    ],
    ids=[
        "3-96", "4-1000", "5-6250", "3-96-seed7", "4-1000-seed7", "5-6250-seed7",
        "4-2048", "5-8192", "4-2048-seed7", "5-8192-seed7",
    ],
)
def test_cover_sizes_at_seed_zero(dimension, size, seed, cover_size):
    """The default cover sizes, at seed 0 and at a second seed: the grid's
    6 x 4^2, 8 x 5^3 and 10 x 5^4.  In 4-D and 5-D the sampled route,
    which covers dimension 6 on and covered these before the grid, keeps
    its sizes too, called directly."""
    assert cover_size(dimension, seed) == size


@pytest.mark.parametrize(
    "block_entries", [geometry._COVER_CHUNK * 8, geometry._COVER_BLOCK_ENTRIES]
)
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
    """Dropping covered samples block by block leaves, per chunk, exactly
    the samples the full max over all directions leaves, on covers that
    pass and covers that fail.  Circle and Fibonacci candidates do not nest
    and meet all samples; Halton candidates nest as in the cover build, and
    only the samples the smaller set left uncovered meet the added points."""
    monkeypatch.setattr(geometry, "_COVER_BLOCK_ENTRIES", block_entries)
    chunks = _samples(dimension, 3, 20_000)
    half_angle = DEFAULT_COVER_HALF_ANGLE
    verdicts, carried, start = [], chunks, 0
    directions = np.empty((0, dimension))
    for count in counts:
        if dimension <= 3:
            family = geometry._circle_directions if dimension == 2 else geometry._fibonacci_sphere
            directions = family(count)
            uncovered = list(geometry._uncovered(chunks, directions, half_angle))
        else:
            added = geometry._halton_sphere(count, dimension, start)
            directions, start = np.concatenate([directions, added]), count
            uncovered = carried = list(geometry._uncovered(carried, added, half_angle))
        assert _same_chunks(uncovered, _brute_force_uncovered(directions, half_angle, chunks))
        verdicts.append(not any(len(g) for g in uncovered))
    if dimension >= 4:
        assert verdicts == [False] * (len(counts) - 1) + [True]
    assert verdicts[0] is False and verdicts[-1] is True


def _floats_around(x, steps):
    """x and the ``steps`` floats on either side of it."""
    values, below, above = [x], x, x
    for _ in range(steps):
        below, above = np.nextafter(below, -2.0), np.nextafter(above, 2.0)
        values += [float(below), float(above)]
    return values


@pytest.mark.parametrize("block_entries", [geometry._COVER_CHUNK, geometry._COVER_BLOCK_ENTRIES])
@pytest.mark.parametrize("dimension", [3, 5])
def test_float32_filter_decides_threshold_samples_as_float64(
    monkeypatch, block_entries, dimension
):
    """Samples planted at cos(half_angle), at its float32 rounding, and a few
    ulps either side of each, off the first axis, leave exactly the samples
    the float64 oracle leaves, in full chunks and among carried survivors.
    The directions are the axes, so every cosine is a coordinate and exact
    in any summation order."""
    monkeypatch.setattr(geometry, "_COVER_BLOCK_ENTRIES", block_entries)
    half_angle = DEFAULT_COVER_HALF_ANGLE
    threshold = math.cos(half_angle)
    cosines = sorted(
        set(_floats_around(threshold, 3) + _floats_around(float(np.float32(threshold)), 3))
    )
    # float32 alone would call some of these covered, and only float64 tells
    assert any(c < threshold and np.float32(c) >= np.float32(threshold) for c in cosines)
    planted = np.zeros((len(cosines), dimension))
    planted[:, 0] = cosines
    planted[:, 1] = np.sqrt(1.0 - planted[:, 0] ** 2)
    chunks = _samples(dimension, 5, 3 * 4096)
    chunks[1] = np.concatenate([chunks[1][:1000], planted, chunks[1][1000:]])
    axes = np.concatenate([np.eye(dimension), -np.eye(dimension)])

    def mismatch(got, expected) -> str:
        """Each sample ``got`` and ``expected`` disagree on, by chunk and
        index, with its float32 and float64 best cosines over the axes."""
        lines = [f"block entries {block_entries}, threshold {threshold!r}"]
        for k, (g, a, b) in enumerate(zip(chunks, got, expected)):
            in_a, in_b = {r.tobytes() for r in a}, {r.tobytes() for r in b}
            for i, row in enumerate(g):
                if (row.tobytes() in in_a) != (row.tobytes() in in_b):
                    best32 = np.max(axes.astype(np.float32) @ row.astype(np.float32))
                    lines.append(
                        f"chunk {k} sample {i}: float32 best {float(best32)!r}, "
                        f"float64 best {float(np.max(axes @ row))!r}, "
                        f"left uncovered {row.tobytes() in in_a} (expected {row.tobytes() in in_b})"
                    )
        return "\n".join(lines)

    whole = list(geometry._uncovered(chunks, axes, half_angle))
    oracle = _brute_force_uncovered(axes, half_angle, chunks)
    assert _same_chunks(whole, oracle), mismatch(whole, oracle)
    carried = list(geometry._uncovered(chunks, axes[1:], half_angle))
    carried = list(geometry._uncovered(carried, axes[:1], half_angle))
    assert _same_chunks(carried, whole), mismatch(carried, whole)
    left = {tuple(row) for row in whole[1]}
    for i, (row, c) in enumerate(zip(planted, cosines)):
        best32 = np.max(axes.astype(np.float32) @ row.astype(np.float32))
        assert (tuple(row) in left) == (c < threshold), (
            f"planted sample {i} (chunk 1 sample {1000 + i}): float32 best {float(best32)!r}, "
            f"float64 best {c!r}, threshold {threshold!r}, block entries {block_entries}"
        )


def test_resumed_cover_check_retests_the_failed_chunk():
    """The samples a candidate left uncovered meet each added direction,
    also after an addition that covers none of them, and the chunks are
    tested only as far as the caller reads."""
    half_angle = DEFAULT_COVER_HALF_ANGLE
    circle = geometry._circle_directions(24)

    def on_circle(lo, hi):
        angles = np.linspace(lo, hi, 50)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)

    # the first 12 directions span 0..165 degrees: they cover ``upper`` only
    upper, lower = on_circle(0.1, 3.0), on_circle(3.4, 5.9)
    chunks = [np.concatenate([upper, lower]), upper, upper]
    additions = [circle[:12], circle[5:6], circle[12:]]  # the second covers nothing new
    directions, carried, verdicts = np.empty((0, 2)), chunks, []
    for added in additions:
        directions = np.concatenate([directions, added])
        carried = list(geometry._uncovered(carried, added, half_angle))
        assert _same_chunks(carried, _brute_force_uncovered(directions, half_angle, chunks))
        verdicts.append(not any(len(g) for g in carried))
        if not verdicts[-1]:
            assert _same_chunks(carried, [lower, upper[:0], upper[:0]])
    assert verdicts == [False, False, True]
    # a caller that stops at the first uncovered chunk never reaches the next
    first = next(geometry._uncovered([lower, None], circle[:12], half_angle))
    assert np.array_equal(first, lower)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dimension", [4, 5])
def test_sampled_cover_is_the_smallest_candidate_that_covers_every_sample(
    monkeypatch, dimension, seed
):
    """Against a brute-force oracle on 20,000 samples: the cover is the first
    doubling candidate, built whole, under which every sample reaches
    cos(half_angle).  Halton doublings test each direction once."""
    monkeypatch.setattr(geometry, "COVER_SAMPLE_COUNT", 20_000)
    tested = []
    uncovered = geometry._uncovered

    def counted(chunks, directions, half_angle):
        tested.append(len(directions))
        return uncovered(chunks, directions, half_angle)

    monkeypatch.setattr(geometry, "_uncovered", counted)
    half_angle = DEFAULT_COVER_HALF_ANGLE
    cover = geometry._sampled_cover(dimension, half_angle, seed)
    chunks = _samples(dimension, seed, 20_000)
    count = 256
    while not _brute_force_covered(geometry._halton_sphere(count, dimension), half_angle, chunks):
        count *= 2
    assert np.array_equal(cover, geometry._halton_sphere(count, dimension))
    assert sum(tested) == count and tested[0] == 256


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "degrees",
    [10.0, 15.0, math.degrees(DEFAULT_COVER_HALF_ANGLE), 25.0],
    ids=["10deg", "15deg", "default", "25deg"],
)
def test_proved_cover_is_the_smallest_candidate_the_oracle_accepts(degrees, seed):
    """Against the brute-force oracle on 20,000 samples from ``seed``: the 3-D
    cover is the grid with the fewest cells per face edge under which every
    sample reaches cos(half_angle), whatever the seed.  Each coarser grid
    leaves samples the oracle finds farther than half_angle from every
    direction, and fails the corner test."""
    half_angle = math.radians(degrees)
    cover = geometry._cached_cover.__wrapped__(3, half_angle, seed)  # past the cache
    chunks = _samples(3, seed, 20_000)
    steps = 1
    while not _brute_force_covered(geometry._grid_directions(3, steps), half_angle, chunks):
        assert geometry._grid_min_cosine(3, steps) < math.cos(half_angle), (degrees, steps)
        steps += 1
    assert np.array_equal(cover.directions, geometry._grid_directions(3, steps))


def test_a_cover_missing_one_direction_has_a_named_hole():
    """The 3-D grid covers at 10 degrees and at the default angle have no
    direction to spare: with any one removed, that direction itself lies
    farther than half_angle from every remaining one.  (Not so at 15
    degrees, where the corner test is looser and some directions of the
    150 can go.)"""
    for half_angle, size in ((math.radians(10.0), 294), (DEFAULT_COVER_HALF_ANGLE, 96)):
        whole = build_sphere_cover(3, half_angle).directions
        assert len(whole) == size
        for removed, hole in enumerate(whole):
            rest = np.delete(whole, removed, axis=0)
            assert not _brute_force_covered(rest, half_angle, [hole[None, :]]), (size, removed)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _own_cell_directions(directions, steps, points) -> np.ndarray:
    """For each unit point, the grid direction at the documented index of
    the cell that holds it: the face of its largest |coordinate| (axis 0 +,
    axis 0 -, axis 1 +, ...), then, lexicographically over the other axes in
    increasing order, which of ``steps`` equal angular steps across [-45,
    45] degrees the arctan of each coordinate over the largest falls in."""
    p, dimension = points.shape
    n = dimension - 1
    rows = np.arange(p)
    axis = np.argmax(np.abs(points), axis=1)
    top = points[rows, axis]
    others = np.array([[j for j in range(dimension) if j != i] for i in range(dimension)])
    angles = np.arctan(points[rows[:, None], others[axis]] / np.abs(top)[:, None])
    cells = np.clip(np.floor((angles / (math.pi / 2) + 0.5) * steps).astype(int), 0, steps - 1)
    index = (2 * axis + (top < 0)) * steps**n
    for j in range(n):
        index += cells[:, j] * steps ** (n - 1 - j)
    return directions[index]


WHOLE_DEGREES = range(5, 81)


@pytest.mark.parametrize("dimension", [3, 4, 5])
def test_grid_cover_against_an_own_cell_oracle(dimension):
    """At every whole degree from 5 to 80, every one of 100,000 seeded
    Gaussian samples and every cell corner of every face, made here with
    math.tan, lies within half_angle of the direction of its own cell,
    found from its coordinates and the documented order.

    That is a stronger claim than lying within half_angle of some direction,
    which it implies, and it costs one lookup per point instead of a search
    over every direction.  A corner belongs to several cells; any of them
    will do.  Angles whose grids have the same m cells per face edge share
    one direction set, tested at the smallest of them."""
    g = np.random.default_rng(2026 + dimension).standard_normal((100_000, dimension))
    samples = g / np.linalg.norm(g, axis=1)[:, None]
    n = dimension - 1
    smallest: dict[int, int] = {}
    for degrees in WHOLE_DEGREES:
        smallest.setdefault(geometry._grid_steps(dimension, math.radians(degrees)), degrees)
    assert min(smallest) == 1 and len(smallest) > 10
    for steps, degrees in smallest.items():
        half_angle = math.radians(degrees)
        directions = geometry._grid_cover(dimension, half_angle)
        assert directions.shape == (2 * dimension * steps**n, dimension)
        edges = [math.tan(math.pi / 4 * (2 * k / steps - 1)) for k in range(steps + 1)]
        grid = np.array(list(itertools.product(edges, repeat=n)))
        points = [("sample", samples)]
        for axis in range(dimension):
            for sign in (1.0, -1.0):
                face = np.insert(grid, axis, sign, axis=1)
                unit = face / np.linalg.norm(face, axis=1)[:, None]
                points.append((f"corner of face {axis} {sign:+}", unit))
        for what, unit in points:
            own = _own_cell_directions(directions, steps, unit)
            cosines = np.einsum("ij,ij->i", unit, own)
            worst = int(np.argmin(cosines))
            assert cosines[worst] >= math.cos(half_angle), (
                f"{degrees} degrees, {steps} steps: {what} {unit[worst]} lies "
                f"{math.degrees(math.acos(cosines[worst]))} degrees from its cell's direction"
            )


def _worst_corner(dimension, steps):
    """The centre and corner, as unit vectors made with math.tan, of the
    cell of face axis 0 + and the corner of it where ``_grid_min_cosine``
    attains its minimum: over the cells it takes, whose indices ascend and
    lie in the upper half of each axis, the first of the smallest cosines
    in cell order, then corner order."""
    n = dimension - 1
    edges = np.array([math.tan(math.pi / 4 * (2 * k / steps - 1)) for k in range(steps + 1)])
    centres = np.array([math.tan(math.pi / 4 * ((2 * k + 1) / steps - 1)) for k in range(steps)])
    cells = np.array(list(itertools.combinations_with_replacement(range(steps // 2, steps), n)))
    bits = np.array(list(itertools.product((0, 1), repeat=n)))
    centre = np.insert(centres[cells], 0, 1.0, axis=1)
    corner = np.insert(edges[cells[:, None, :] + bits], 0, 1.0, axis=2)
    centre /= np.linalg.norm(centre, axis=-1, keepdims=True)
    corner /= np.linalg.norm(corner, axis=-1, keepdims=True)
    cosines = np.einsum("ij,ikj->ik", centre, corner)
    cell, bit = np.unravel_index(np.argmin(cosines), cosines.shape)
    return centre[cell], corner[cell, bit]


@pytest.mark.parametrize("dimension", [3, 4, 5])
def test_the_next_coarser_grid_fails_the_corner_test_at_a_named_corner(dimension):
    """At every whole degree from 5 to 80 and at the default angle, where the
    cover has m > 1 cells per face edge, the grid with M = m - 1 has a
    named corner farther than half_angle from its cell's centre, so the
    corner test rejects it (at 60 degrees in 4-D the one-step grid's
    corners lie exactly half_angle from the axis, and its margin does).
    The corner is the one where ``_grid_min_cosine`` attains its minimum.
    In 4-D and 5-D the cell at the axis attains it, to within an ulp: with
    t = tan(pi / 4M), for even M its corner e_0 lies atan(sqrt(d - 1) t)
    from its centre (1, t, ..., t), and for odd M its corner (1, t, ..., t)
    as far from its centre e_0.  In 3-D the cell at the cube's vertex
    attains it, and the axis cell may pass: at 5 degrees, M = 14, e_0 lies
    4.54 degrees from its cell's centre.

    Where the named corner is also farther than half_angle from every
    direction of that grid (at 36 of the 77 angles in 3-D, 49 in 4-D and
    5-D), no coarser grid covers.  In 4-D and 5-D that holds at every angle
    where M is even, for the axis e_0 itself (19 angles in 4-D, 22 in 5-D),
    so there m is the smallest grid that covers.  Elsewhere a neighbouring
    cell's centre can be nearer, and the coarser grid may cover without
    the corner test proving it: at 26 degrees in 5-D, 400,000 samples put
    the 3-step grid's covering radius near 24.6 degrees, against the 28.2
    degrees its corner test finds."""
    axis = _unit([1.0] + [0.0] * (dimension - 1))
    holes = axis_holes = 0
    for degrees in [*WHOLE_DEGREES, math.degrees(DEFAULT_COVER_HALF_ANGLE)]:
        half_angle = math.radians(degrees)
        coarse = geometry._grid_steps(dimension, half_angle) - 1
        if coarse == 0:
            # the one-step grid's corners are the cube's vertices, at cosine
            # 1 / sqrt(d) from the axes; it is accepted only where they lie
            # strictly within half_angle, not at 60 degrees in 4-D
            assert 1.0 / math.sqrt(dimension) > math.cos(half_angle), degrees
            continue
        centre, corner = _worst_corner(dimension, coarse)
        directions = geometry._grid_directions(dimension, coarse)
        assert float(np.max(directions @ centre)) > 1.0 - 1e-15, (degrees, coarse)
        cosine = float(corner @ centre)
        assert abs(cosine - geometry._grid_min_cosine(dimension, coarse)) < 1e-15, (degrees, coarse)
        assert cosine < math.cos(half_angle) + geometry._PROOF_MARGIN, (degrees, coarse)
        holes += float(np.max(directions @ corner)) < math.cos(half_angle)
        if dimension > 3 and coarse % 2 == 0:
            assert float(np.max(directions @ axis)) < math.cos(half_angle), (degrees, coarse)
            axis_holes += 1
    assert holes == {3: 36, 4: 49, 5: 49}[dimension]
    assert axis_holes == {3: 0, 4: 19, 5: 22}[dimension]
    if dimension == 3:
        t = math.tan(math.pi / 56)
        assert geometry._grid_steps(3, math.radians(5.0)) == 15
        assert math.degrees(math.acos(_unit([1.0, t, t])[0])) == pytest.approx(4.54, abs=0.005)


@pytest.mark.parametrize("dimension,steps", [(3, 591), (4, 64), (5, 21)])
def test_a_grid_above_the_size_cap_allocates_no_direction(monkeypatch, dimension, steps):
    """The finest grid under _MAX_COVER_SIZE has ``steps`` cells per face edge
    (6 x 591^2 directions in 3-D, 8 x 64^3 = 2^21 in 4-D, 10 x 21^4 in
    5-D), and its corner test needs half_angle >= acos(c - _PROOF_MARGIN),
    c its ``_grid_min_cosine``: 0.12423, 1.2177 and 4.2797 degrees.  In 4-D
    and 5-D that is atan(sqrt(d - 1) tan(pi / (4 steps))), the axis cell's
    angle; in 3-D the vertex cell's angle is wider, and the axis cell's is
    0.10768 degrees.  Just above the limit the grid is accepted; just below
    it the area bound still lets the cover through, and the InputError of a
    cover too large comes from the corner tests alone, before any direction
    exists and with a small part of the 50-80 MB its directions would take."""
    worst = geometry._grid_min_cosine(dimension, steps)
    limit = math.acos(worst - geometry._PROOF_MARGIN)
    axis_cell = math.atan(math.sqrt(dimension - 1) * math.tan(math.pi / (4 * steps)))
    expected = {3: 0.12423, 4: 1.2177, 5: 4.2797}[dimension]
    assert math.degrees(limit) == pytest.approx(expected, abs=5e-5)
    if dimension == 3:
        assert math.degrees(axis_cell) == pytest.approx(0.10768, abs=5e-6)
    else:
        assert axis_cell == pytest.approx(math.acos(worst), rel=1e-12)
    above, below = limit * (1.0 + 1e-6), limit * (1.0 - 1e-6)
    assert geometry._grid_steps(dimension, above) == steps
    assert geometry._log_fewest_caps(dimension, below) < math.log(geometry._MAX_COVER_SIZE)

    def no_directions(*args):
        raise AssertionError(f"made the directions of {args}")

    monkeypatch.setattr(geometry, "_grid_directions", no_directions)
    tracemalloc.start()
    try:
        refused = f"could not cover the sphere in dimension {dimension} "
        with pytest.raises(InputError, match=refused):
            build_sphere_cover(dimension, below)
        with pytest.raises(InputError, match=refused):
            geometry.require_cover_fits(dimension, below)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("dimension,top", [(3, 120), (4, 40), (5, 16)])
def test_every_grid_the_axis_and_vertex_cells_fail_fails_the_corner_test(
    monkeypatch, dimension, top
):
    """For every grid of up to ``top`` cells per face edge, the smallest
    cosine of the axis and vertex cells is at least the whole grid's, and
    at most two ulps above it.  So each m below the first the pair passes
    fails the corner test, and ``_grid_steps``, which tests whole only the
    grids the pair passes, returns the smallest m whose whole grid passes
    and tests one grid whole: checked at 1 to 80 degrees, where that m is
    at most ``top``, and in 3-D at the finest grid under the size cap."""
    full = [math.nan]  # full[m]: the whole grid's smallest cosine
    for steps in range(1, top + 1):
        full.append(geometry._grid_min_cosine(dimension, steps))
        cells = np.array([[steps // 2] * (dimension - 1), [steps - 1] * (dimension - 1)])
        named = geometry._grid_min_cosine(dimension, steps, cells)
        assert full[steps] <= named <= full[steps] + 4.5e-16, steps
    whole = []
    min_cosine = geometry._grid_min_cosine

    def counted(dimension, steps, cells=None):
        if cells is None:
            whole.append(steps)
        return min_cosine(dimension, steps, cells)

    monkeypatch.setattr(geometry, "_grid_min_cosine", counted)
    search = geometry._grid_steps.__wrapped__  # past the cache
    tested = 0
    for degrees in range(1, 81):
        half_angle = math.radians(degrees)
        passing = [m for m in range(1, top + 1) if full[m] >= math.cos(half_angle) + 1e-12]
        if passing:
            whole.clear()
            assert search(dimension, half_angle) == passing[0], degrees
            assert whole == passing[:1], degrees
            tested += 1
    assert tested >= 70
    if dimension == 3:  # from the area bound's 267 cells per edge to 591
        whole.clear()
        assert search(3, math.acos(min_cosine(3, 591) - 1e-12) * (1.0 + 1e-6)) == 591
        assert whole == [591]


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
@pytest.mark.parametrize("dimension", [4, 5])
def test_cover_samples_normalize_with_one_norm_pass(monkeypatch, dimension, seed):
    """The samples a cover build tests equal the two-pass form that
    normalized the kept rows by recomputed norms."""
    drawn = []

    class Drawn(Exception):
        pass

    def first_call(chunks, directions, half_angle):
        drawn.extend(chunks)
        raise Drawn  # the samples are all this test needs

    monkeypatch.setattr(geometry, "_uncovered", first_call)
    with pytest.raises(Drawn):
        geometry._sampled_cover(dimension, DEFAULT_COVER_HALF_ANGLE, seed)
    expected = _samples(dimension, seed, geometry.COVER_SAMPLE_COUNT)
    assert [len(g) for g in expected] == [4096] * 24 + [1696]
    assert _same_chunks(drawn, expected)


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
    samples, not the whole cover at once.  (The 5-D cover is the grid;
    the sampled route is called directly.)"""
    tracemalloc.start()
    try:
        directions = geometry._sampled_cover(5, DEFAULT_COVER_HALF_ANGLE, 918_273)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(directions) >= 8192
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "half_angle",
    [2.0 * math.pi / geometry._MAX_COVER_SIZE * (1.0 - 1e-9), 1e-300, 5e-324],
    ids=["just-below-the-cap", "1e-300", "smallest-subnormal"],
)
def test_2d_cover_above_the_size_cap_allocates_nothing(monkeypatch, half_angle):
    """A circle cover that would need more than _MAX_COVER_SIZE directions is
    the InputError of dimensions >= 3, raised before any direction exists,
    also when 2 pi / half_angle overflows to inf."""

    def no_directions(count):
        raise AssertionError(f"built {count} circle directions")

    monkeypatch.setattr(geometry, "_circle_directions", no_directions)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="could not cover the sphere in dimension 2"):
            build_sphere_cover(2, half_angle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_cover_validation():
    with pytest.raises(InputError):
        build_sphere_cover(0)
    with pytest.raises(InputError):
        build_sphere_cover(2, half_angle=0.0)
    with pytest.raises(InputError):
        build_sphere_cover(2, half_angle=math.pi)


def test_sphere_cover_rejects_non_finite_directions():
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="non-finite"):
            SphereCover(0.5, np.array([[1.0, 0.0], [bad, 0.0]]))


def test_sphere_cover_rejects_an_empty_direction_set():
    """An empty cover would leave cone selection no direction to pick."""
    with pytest.raises(InputError, match="m >= 1"):
        SphereCover(0.5, np.empty((0, 3)))


@pytest.mark.parametrize("half_angle", [0.0, -0.1, math.pi / 2.0, 2.0, math.nan])
def test_sphere_cover_rejects_a_half_angle_outside_the_open_quarter_turn(half_angle):
    with pytest.raises(InputError, match="half_angle must lie in"):
        SphereCover(half_angle, np.array([[1.0, 0.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_cover_rejects_a_seed_that_is_not_a_non_negative_integer(monkeypatch, seed):
    """A seed is a non-negative integer, checked before the cache is looked up."""

    def no_cover(*args):
        raise AssertionError("looked up a cover")

    monkeypatch.setattr(geometry, "_cached_cover", no_cover)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        build_sphere_cover(3, seed=seed)


def test_cover_dimension_is_read_from_its_directions():
    cover = build_sphere_cover(3)
    assert cover.dimension == cover.directions.shape[1] == 3
    assert SphereCover(0.5, np.array([[1.0, 0.0], [-1.0, 0.0]])).dimension == 2


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
    monkeypatch.setattr(geometry, "_CONE_BLOCK_ENTRIES", block_entries)
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


@pytest.mark.parametrize("dimension", [3, 5, 12])
@pytest.mark.parametrize("half_angle", [0.05, DEFAULT_COVER_HALF_ANGLE, 1.0, 1.5])
def test_fewest_caps_bound_lies_below_the_area_ratio(dimension, half_angle):
    """No cover has fewer caps than the sphere's area over a cap's; the bound
    used to reject covers stays below that ratio, computed by quadrature."""
    from scipy.integrate import quad

    n = dimension - 2
    sphere = quad(lambda phi: math.sin(phi) ** n, 0.0, math.pi, epsabs=0.0, epsrel=1e-13)[0]
    cap = quad(lambda phi: math.sin(phi) ** n, 0.0, half_angle, epsabs=0.0, epsrel=1e-13)[0]
    bound = math.exp(geometry._log_fewest_caps(dimension, half_angle))
    assert 0.0 < bound <= sphere / cap * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "dimension,size", [(3, 96), (4, 1000), (5, 6250), (4, 2048), (5, 8192)]
)
def test_default_covers_are_not_smaller_than_the_area_bound(dimension, size):
    """The default covers, and the sampled route's sizes in 4-D and 5-D."""
    assert math.exp(geometry._log_fewest_caps(dimension, DEFAULT_COVER_HALF_ANGLE)) < size


@pytest.mark.parametrize("dimension", [14, 40, 100_000])
def test_a_cover_that_cannot_fit_is_rejected_before_any_work(monkeypatch, dimension):
    """At the default angle the area bound exceeds _MAX_COVER_SIZE from
    dimension 14 on: the cover is refused before a sample or a candidate is
    drawn, and dimension 13 still goes on to the sampled search."""

    def no_search(dimension, half_angle, seed):
        raise LookupError(f"searched dimension {dimension}")

    monkeypatch.setattr(geometry, "_sampled_cover", no_search)
    tracemalloc.start()
    try:
        refused = f"could not cover the sphere in dimension {dimension} "
        with pytest.raises(InputError, match=refused):
            build_sphere_cover(dimension)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(LookupError, match="searched dimension 13"):
        geometry._cached_cover.__wrapped__(13, DEFAULT_COVER_HALF_ANGLE, 0)


def test_a_sampled_cover_whose_draw_cannot_fit_is_refused():
    """At 89.9 degrees the area bound lets any dimension through; the sample
    draw, COVER_SAMPLE_COUNT x dimension floats, is capped instead."""
    wide = math.radians(89.9)
    top = geometry._MAX_SAMPLE_ENTRIES // geometry.COVER_SAMPLE_COUNT
    geometry.require_cover_fits(top, wide)
    for dimension in (top + 1, 100_000):
        with pytest.raises(InputError, match=f"sampled cover in dimension {dimension} draws"):
            geometry.require_cover_fits(dimension, wide)

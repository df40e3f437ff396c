"""Witness data, anchors, shell timing, and piecewise-affine paths."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import FIXTURE_CASES, FIXTURE_DIMENSIONS, FIXTURE_KINDS, witness_fixture

import pathcert
from pathcert.errors import DomainError, InputError
from pathcert.geometry import ConeSpec, UnitDirection, cone_contains
from pathcert.mollifier import build_smooth_path
from pathcert.pathfile import build_from_dict, build_to_dict
from pathcert.pipeline import PathBuild
from pathcert.skeleton import (
    AnchorSequence,
    PiecewiseAffinePath,
    WitnessSequence,
    affine_path_from_slopes,
    anchor_shell,
    anchor_spacing,
    breakpoints_for,
    build_skeleton,
    eval_affine,
    eval_affine_derivative,
    eval_affine_derivative_many,
    eval_affine_many,
    kink_times,
    shell_bounds,
)

E1 = np.array([1.0, 0.0])


# ---- shell timing helpers -----------------------------------------------


def test_anchor_shell_by_parity():
    assert [anchor_shell(k, "even") for k in (1, 2, 3)] == [2, 4, 6]
    assert [anchor_shell(k, "odd") for k in (1, 2, 3)] == [1, 3, 5]


def test_shell_bounds_values():
    lo, hi = shell_bounds(2)
    assert math.isclose(lo, 1.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(hi, 0.5, rel_tol=1e-15)


def test_anchor_spacing_values():
    """Spacing is one third of the next-lower shell's width."""
    assert math.isclose(anchor_spacing(1, "even"), 1.0 / 36.0, rel_tol=1e-14)
    assert math.isclose(anchor_spacing(1, "odd"), 1.0 / 18.0, rel_tol=1e-14)
    assert math.isclose(anchor_spacing(2, "even"), (1.0 / 3.0) * (1.0 / 5.0 - 1.0 / 6.0), rel_tol=1e-14)


def test_breakpoints_for_ordering():
    t0, t1, t2 = breakpoints_for(3, "even", 0.145)
    d = anchor_spacing(3, "even")
    assert t0 == 0.145
    assert math.isclose(t1, t0 - d, rel_tol=1e-15)
    assert math.isclose(t2, t0 - 2.0 * d, rel_tol=1e-15)
    assert t2 > 0.0


# ---- witness sequences --------------------------------------------------


def test_witness_rejects_bad_pairs():
    with pytest.raises(InputError):
        WitnessSequence(np.array([[0.3, 0.0]]), np.array([[1.0, 1.0]]))
    with pytest.raises(InputError):
        WitnessSequence(np.array([[0.3, 0.0]]), np.array([[-1.0, 0.0]]))
    with pytest.raises(InputError):
        WitnessSequence(np.array([[0.0, 0.0]]), np.array([E1]))
    with pytest.raises(InputError):
        WitnessSequence(np.empty((0, 2)), np.empty((0, 2)))


def test_witness_ingest_rescales_into_unit_ball():
    points = [np.array([2.0, 0.0]), np.array([0.5, 0.0])]
    w = WitnessSequence.ingest(points)
    assert w.scale == 0.5
    norms = [float(np.linalg.norm(x)) for x, _ in w.pairs]
    assert math.isclose(max(norms), 1.0, rel_tol=1e-15)


def test_witness_ingest_names_an_overflowing_point():
    """Finite coordinates whose norm overflows are named as such, with no
    numpy overflow warning (pytest turns RuntimeWarning into an error)."""
    points = [np.array([0.4, 0.0]), np.array([1e308, 1e308])]
    with pytest.raises(InputError, match="point 1 is too large: its norm overflows"):
        WitnessSequence.ingest(points)


def test_witness_ingest_keeps_small_points():
    w = WitnessSequence.ingest([np.array([0.4, 0.0]), np.array([0.2, 0.0])])
    assert w.scale == 1.0
    assert float(w.pairs[0][0][0]) == 0.4


def test_witness_ingest_default_directions_are_radial():
    w = WitnessSequence.ingest([np.array([0.3, 0.4])])
    x, y = w.pairs[0]
    assert np.allclose(y, x / np.linalg.norm(x), atol=1e-15)


def test_witness_explicit_directions_checked():
    points = [np.array([0.3, 0.0])]
    with pytest.raises(InputError):
        WitnessSequence.ingest(points, [np.array([0.0, -2.0])])
    w = WitnessSequence.ingest(points, [np.array([0.0, 1.0])])
    assert float(w.pairs[0][1][1]) == 1.0


def _ingest_one_row_at_a_time(points, directions):
    """The per-point arithmetic ``ingest`` batches: each norm by np.linalg.norm
    (over max|x| where the norm lies below sqrt(tiny)), one scale for all, taken
    an ulp lower while a scaled norm exceeds 1, and each radial y as the
    scaled point over its own norm."""

    def norm(x):
        top = float(np.max(np.abs(x)))
        n = float(np.linalg.norm(x))
        tiny = n < math.sqrt(np.finfo(float).tiny) and top > 0.0
        return top * float(np.linalg.norm(x / top)) if tiny else n

    xs = [np.asarray(p, dtype=float) for p in points]
    top = max(norm(x) for x in xs)
    scale = 1.0 if top <= 1.0 else 1.0 / top
    while max(norm(x * scale) for x in xs) > 1.0:
        scale = float(np.nextafter(scale, 0.0))
    xs = [x * scale for x in xs]
    if directions is None:
        ys = [x / norm(x) for x in xs]
    else:
        ys = [np.asarray(d, dtype=float) for d in directions]
    return np.stack(xs), np.stack(ys), scale


@pytest.mark.parametrize("dimension", FIXTURE_DIMENSIONS)
@pytest.mark.parametrize("kind", [*FIXTURE_KINDS, "scaled"])
def test_ingest_keeps_the_bits_of_the_per_row_reference(monkeypatch, kind, dimension):
    """``ingest`` of every conftest witness, and of raw points that need
    rescaling and hold a tiny point, equals the per-row arithmetic bit for bit."""
    seen = []
    ingest = WitnessSequence.ingest.__func__

    def recording(cls, points, directions=None):
        seen.append((points, directions))
        return ingest(cls, points, directions)

    monkeypatch.setattr(WitnessSequence, "ingest", classmethod(recording))
    if kind == "scaled":
        rng = np.random.default_rng(dimension)
        raw = [rng.standard_normal(dimension) * 10.0**e for e in (3.0, 0.0, -1.0, -150.0, -200.0)]
        witness = WitnessSequence.ingest(raw)
    else:
        witness = witness_fixture(kind, dimension)
    [(points, directions)] = seen
    x, y, scale = _ingest_one_row_at_a_time(points, directions)
    assert witness.scale == scale
    assert np.array_equal(witness.x.view(np.int64), x.view(np.int64))
    assert np.array_equal(witness.y.view(np.int64), y.view(np.int64))
    assert not witness.x.flags.writeable and not witness.y.flags.writeable
    assert witness.points() is witness.x
    pairs = [(a.tolist(), b.tolist()) for a, b in witness.pairs]
    assert pairs == list(zip(x.tolist(), y.tolist()))


def test_ingest_keeps_a_rescaled_point_inside_the_unit_ball():
    """1 / ||x|| can scale the longest point to a norm an ulp above 1; the
    scale is then taken an ulp lower instead of rejecting the data."""
    longest = np.array([189.05338179353308, -522.7484414807474])
    top = float(np.linalg.norm(longest))
    assert float(np.linalg.norm(longest * (1.0 / top))) > 1.0
    w = WitnessSequence.ingest([longest, np.array([0.1, 0.1])])
    assert w.scale == np.nextafter(1.0 / top, 0.0)
    assert float(np.linalg.norm(w.x[0])) == 1.0


def test_ingest_keeps_the_norm_of_a_point_with_subnormal_squares():
    """The squares of [3e-160, 4e-160] sum to a subnormal number, so the
    plain norm loses bits; the rescued one keeps the radial y unit."""
    w = WitnessSequence.ingest([[3e-160, 4e-160]])
    assert np.allclose(w.y, [[0.6, 0.8]], rtol=0.0, atol=1e-15)
    assert float(np.linalg.norm(w.y[0])) == pytest.approx(1.0, abs=1e-15)


def test_ingest_names_a_point_the_rescale_sends_to_zero():
    """Scaled by 1 / ||(1e150, 2e150)||, the point (3e-300, 4e-300) becomes 0;
    it is named as too small to rescale, with no divide warning."""
    with pytest.raises(InputError, match="point 1 is too small to rescale"):
        WitnessSequence.ingest([[1e150, 2e150], [3e-300, 4e-300]])


# ---- anchor sequences ---------------------------------------------------


def _tiny_arrays():
    """Two filler anchors on the first axis, even parity: a, b and times."""
    radii = np.array([0.42, 0.22])
    times = np.array([breakpoints_for(k, "even", r) for k, r in ((1, 0.42), (2, 0.22))])
    return radii[:, None] * E1, np.tile(E1, (2, 1)), times


def _axis_cone():
    return ConeSpec(UnitDirection(E1))


def _tiny_sequence(parity="even", cone=None, matched=(), **changes):
    """The two tiny anchors, with any of a, b and times replaced."""
    arrays = dict(zip(("a", "b", "times"), _tiny_arrays()))
    arrays.update(changes)
    return AnchorSequence(parity=parity, cone=cone or _axis_cone(), matched=matched, **arrays)


def test_anchor_sequence_accepts_valid_fillers():
    seq = _tiny_sequence()
    assert seq.dimension == 2
    assert seq.times[1].tolist() == list(breakpoints_for(2, "even", 0.22))
    assert seq.given.tolist() == [False, False]
    assert not (seq.a.flags.writeable or seq.b.flags.writeable or seq.times.flags.writeable)
    # the per-anchor records are a view of the arrays, built on access
    assert [(e.a.tolist(), e.t0, e.t1, e.t2) for e in seq.entries] == [
        (a, *t) for a, t in zip(seq.a.tolist(), seq.times.tolist())
    ]


def test_no_module_reads_the_perfbench_views():
    """``AnchorSequence.entries`` and ``SmoothPath.windows`` exist for the
    benchmark's replay alone: no pathcert module reads either attribute."""
    readers = []
    for path in Path(pathcert.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "windows"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_anchor_sequence_rejects_bad_parity():
    with pytest.raises(InputError):
        _tiny_sequence(parity="both")


def test_anchor_sequence_rejects_matched_filler():
    """A path file may not call an anchor a filler while ``matched`` lists
    it, nor list an anchor twice or one outside 1..K."""
    seq = _tiny_sequence()
    build = PathBuild(
        half_angle=0.3, seed=0, cover_size=0, anchors=seq, path=build_smooth_path(seq)
    )
    data = build_to_dict(build)
    assert build_from_dict(data).anchors.given.tolist() == [False, False]
    data["matched"] = [[1, 0]]
    with pytest.raises(InputError, match="anchor 1 source must be 'given', got 'filler'"):
        build_from_dict(data)
    with pytest.raises(InputError, match="unique"):
        _tiny_sequence(matched=((1, 0), (1, 3)))
    with pytest.raises(InputError, match="outside 1..K"):
        _tiny_sequence(matched=((3, 0),))


def test_anchor_sequence_rejects_radius_outside_shell():
    # a self-consistent anchor whose radius overshoots shell 2's ceiling of
    # 1/2; only the sequence knows the parity, so the shell check lives there
    a, _, times = _tiny_arrays()
    d = anchor_spacing(1, "even")
    a[0] = 0.6 * E1
    times[0] = (0.6, 0.6 - d, 0.6 - 2.0 * d)
    with pytest.raises(InputError, match="anchor 1 radius lies outside its shell"):
        _tiny_sequence(a=a, times=times)


def test_anchor_sequence_rejects_off_cone_anchor():
    cone = ConeSpec(UnitDirection(np.array([0.0, 1.0])))
    with pytest.raises(InputError, match="anchor 1 lies outside the selected cone"):
        _tiny_sequence(cone=cone)


def test_anchor_sequence_rejects_cone_of_other_dimension():
    cone = ConeSpec(UnitDirection(np.array([1.0, 0.0, 0.0])))
    with pytest.raises(InputError):
        _tiny_sequence(cone=cone)


def test_anchor_entry_validates_times():
    """Anchor 1's times start at 0.40, but its position has norm 0.42."""
    _, _, times = _tiny_arrays()
    times[0] = (0.40, 0.40 - 1.0 / 36.0, 0.40 - 2.0 / 36.0)
    with pytest.raises(InputError, match=r"anchor 1 t0 must lie within 1.25e-13 of \|\|a\|\|"):
        _tiny_sequence(times=times)


def _second_anchor_changed(name, row):
    arrays = dict(zip(("a", "b", "times"), _tiny_arrays()))
    arrays[name][1] = row
    return arrays


# the times cases keep ids that name the fault; the one time rule names the time
_T1_OFF = "anchor 2 t1 must lie within 1.25e-13 of"


@pytest.mark.parametrize(
    "name, row, message",
    [
        ("a", [math.nan, 0.0], "anchor 2 has non-finite entries"),
        ("b", [1e308, 1e308], "anchor 2 direction is too large"),
        ("b", [1.0, 1e-5], "anchor 2: direction is not unit"),
        pytest.param("times", [0.22, 0.22 - 1.0 / 60.0, 0.22 - 1.0 / 30.0], _T1_OFF,
                     id="times-row3-anchor 2 spacing deviates"),
        pytest.param("times", [0.22, 0.23, 0.21], _T1_OFF,
                     id="times-row4-anchor 2: times must decrease"),
        pytest.param("times", [0.22, 0.21, 0.19], _T1_OFF,
                     id="times-row5-anchor 2: times must be equally spaced"),
        ("b", [0.6, 0.8], "filler anchor 2 must point radially"),
    ],
)
def test_anchor_sequence_names_the_first_bad_anchor(name, row, message):
    """Every row is checked at once, and the error names the anchor, counted from 1."""
    with pytest.raises(InputError, match=message):
        _tiny_sequence(**_second_anchor_changed(name, row))


def _anchors_one_shell_at_a_time(witness, cone, parity, count):
    """The per-anchor selection ``build_anchor_sequence`` batches: per k,
    the first captured witness point in shell(k), else a mid-shell filler."""
    captured = [
        i for i, x in enumerate(witness.x) if cone_contains(cone, x)
    ]
    rows, matched = [], []
    for k in range(1, count + 1):
        lo, hi = shell_bounds(anchor_shell(k, parity))
        pick = next((i for i in captured if lo < np.linalg.norm(witness.x[i]) <= hi), None)
        if pick is None:
            a, b = (0.5 * (lo + hi)) * cone.axis.coords, cone.axis.coords
        else:
            a, b = witness.x[pick], witness.y[pick]
            matched.append((k, pick))
        rows.append((a, b, breakpoints_for(k, parity, float(np.linalg.norm(a)))))
    a, b, times = (np.array(column) for column in zip(*rows))
    return a, b, times, tuple(matched)


@pytest.mark.parametrize("case", FIXTURE_CASES, ids=lambda c: f"{c[0]}-d{c[1]}-k{c[2]}")
def test_anchor_arrays_keep_the_bits_of_the_per_anchor_reference(builds, case):
    """Batched anchor selection equals the per-anchor loop bit for bit."""
    anchors = builds[case].anchors
    witness = witness_fixture(case[0], case[1])
    a, b, times, matched = _anchors_one_shell_at_a_time(
        witness, anchors.cone, anchors.parity, len(anchors.a)
    )
    assert anchors.matched == matched
    for got, want in ((anchors.a, a), (anchors.b, b), (anchors.times, times)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_build_anchor_sequence_prefers_lowest_witness_index(diagonal_build):
    """Each matched shell holds the first captured witness point in it."""
    anchors = diagonal_build.anchors
    witness = witness_fixture("diagonal", 2)
    assert len(anchors.matched) >= 2
    for k, i in anchors.matched:
        assert anchors.given[k - 1]
        assert np.array_equal(anchors.a[k - 1], witness.x[i])
        assert np.array_equal(anchors.b[k - 1], witness.y[i])
        shell = anchor_shell(k, anchors.parity)
        lo, hi = shell_bounds(shell)
        same_shell = [
            j
            for j, (x, _) in enumerate(witness.pairs)
            if lo < float(np.linalg.norm(x)) <= hi
        ]
        assert i == min(same_shell)


def test_build_anchor_sequence_fillers_sit_mid_shell(diagonal_build):
    anchors = diagonal_build.anchors
    axis = anchors.cone.axis.coords
    fillers = np.flatnonzero(~anchors.given) + 1
    assert fillers.size
    for k in fillers.tolist():
        lo, hi = shell_bounds(anchor_shell(k, anchors.parity))
        radius = float(np.linalg.norm(anchors.a[k - 1]))
        assert math.isclose(radius, 0.5 * (lo + hi), rel_tol=1e-12)
        assert np.allclose(anchors.a[k - 1], radius * axis, atol=1e-15)
        assert np.array_equal(anchors.b[k - 1], axis)


# ---- piecewise-affine paths ---------------------------------------------


def test_affine_path_from_slopes_matches_manual():
    bp = np.array([0.0, 1.0, 3.0])
    slopes = np.array([[1.0, 0.0], [0.0, 2.0]])
    path = affine_path_from_slopes(bp, np.array([5.0, -1.0]), slopes)
    assert np.allclose(eval_affine(path, 0.5), [5.5, -1.0])
    assert np.allclose(eval_affine(path, 1.0), [6.0, -1.0])
    assert np.allclose(eval_affine(path, 2.0), [6.0, 1.0])
    assert np.allclose(eval_affine(path, 3.0), [6.0, 3.0])


def test_affine_segment_ownership():
    """Segment i owns (bp[i], bp[i+1]]; the derivative at a shared
    breakpoint comes from the lower segment."""
    bp = np.array([0.0, 1.0, 2.0])
    slopes = np.array([[1.0], [-1.0]])
    path = affine_path_from_slopes(bp, np.array([0.0]), slopes)
    assert float(eval_affine_derivative(path, 1.0)[0]) == 1.0
    assert float(eval_affine_derivative(path, 1.0 + 1e-12)[0]) == -1.0
    assert float(eval_affine_derivative(path, 2.0)[0]) == -1.0


def test_affine_eval_outside_domain_raises():
    bp = np.array([0.0, 1.0])
    path = affine_path_from_slopes(bp, np.array([0.0]), np.array([[1.0]]))
    with pytest.raises(DomainError):
        eval_affine(path, 0.0)
    with pytest.raises(DomainError):
        eval_affine(path, 1.5)


def test_affine_path_requires_continuity():
    with pytest.raises(InputError):
        PiecewiseAffinePath(
            breakpoints=np.array([0.0, 1.0, 2.0]),
            slopes=np.array([[1.0], [1.0]]),
            offsets=np.array([[0.0], [0.5]]),
        )


def test_affine_path_dimension_is_read_from_its_slopes():
    path = affine_path_from_slopes([0.0, 1.0, 2.0], np.zeros(3), np.ones((2, 3)))
    assert path.dimension == path.slopes.shape[1] == 3
    with pytest.raises(InputError, match="shape"):
        PiecewiseAffinePath(np.array([0.0, 1.0]), np.ones((1, 2)), np.ones((1, 3)))


def test_affine_many_matches_scalar():
    rng = np.random.default_rng(5)
    bp = np.array([0.0, 0.5, 1.25, 2.0])
    slopes = rng.normal(size=(3, 2))
    path = affine_path_from_slopes(bp, rng.normal(size=2), slopes)
    ts = rng.uniform(1e-9, 2.0, size=40)
    batch = eval_affine_many(path, ts)
    for i, t in enumerate(ts):
        assert np.array_equal(batch[i], eval_affine(path, float(t)))
    dbatch = eval_affine_derivative_many(path, ts)
    for i, t in enumerate(ts):
        assert np.array_equal(dbatch[i], eval_affine_derivative(path, float(t)))


def test_kink_times_skips_straight_joins():
    bp = np.array([0.0, 1.0, 2.0, 3.0])
    slopes = np.array([[1.0], [1.0], [2.0]])
    path = affine_path_from_slopes(bp, np.array([0.0]), slopes)
    kinks = kink_times(path)
    assert kinks.tolist() == [2.0]


@pytest.mark.parametrize("relative_jump, kink", [(1e-6, True), (1e-15, False)])
def test_kink_times_keeps_a_small_jump_above_rounding(relative_jump, kink):
    """A slope change of 1e-6 of the slope is a kink; one of 1e-15, a few
    eps, is rounding (the bound here is 64 eps ||s(0.2)|| / 0.1 ~ 2.8e-14)."""
    slope = np.array([0.6, 0.8])
    slopes = np.stack([slope, slope * (1.0 + relative_jump)])
    path = affine_path_from_slopes(np.array([0.1, 0.2, 0.3]), 0.1 * slope, slopes)
    assert kink_times(path).tolist() == ([0.2] if kink else [])


def test_kink_times_drops_the_rounding_of_collinear_slopes(builds):
    """All but two of the diagonal fixture's slope changes are below 2e-14,
    the rounding of collinear slopes: none of them is a kink, and the two
    order-one changes are."""
    skeleton = builds[("diagonal", 2, 20)].path.skeleton
    jump = np.linalg.norm(np.diff(skeleton.slopes, axis=0), axis=1)
    interior = skeleton.breakpoints[1:-1]
    rounding = (jump > 0.0) & (jump < 1e-12)
    assert np.count_nonzero(rounding) >= 30
    assert kink_times(skeleton).tolist() == interior[jump > 1e-9].tolist()


# ---- skeletons ----------------------------------------------------------


def test_build_skeleton_two_anchor_geometry():
    """Hand-checkable two-anchor skeleton: values, slopes, and the
    connecting slope all follow from the anchor data."""
    seq = _tiny_sequence()
    skel = build_skeleton(seq)
    (upper_a, lower_a), (upper_b, lower_b) = seq.a, seq.b
    (t0, t1, t2), lower_t0 = seq.times[0], seq.times[1, 0]
    assert skel.segment_count() == 3
    assert np.allclose(eval_affine(skel, t0), upper_a, atol=1e-14)
    assert np.allclose(eval_affine(skel, lower_t0 + 1e-13), lower_a, atol=1e-12)
    assert np.allclose(eval_affine_derivative(skel, t0), upper_b)
    at_t2 = lower_a + (t2 - lower_t0) * lower_b
    target = upper_a + (t1 - t0) * upper_b
    v = (target - at_t2) / (t1 - t2)
    assert np.allclose(eval_affine_derivative(skel, 0.5 * (t1 + t2)), v, atol=1e-14)


def _skeleton_one_pair_at_a_time(anchors):
    """The per-pair construction ``build_skeleton`` batches: for k = K-1..1,
    the outgoing, connecting and incoming segments of anchors k+1 and k."""
    a, b, times = anchors.a, anchors.b, anchors.times.tolist()
    breakpoints, slopes, offsets = [times[-1][0]], [], []
    for k in range(len(times) - 1, 0, -1):
        (u0, u1, u2), lower_t0 = times[k - 1], times[k][0]
        at_t2 = a[k] + (u2 - lower_t0) * b[k]
        target = a[k - 1] + (u1 - u0) * b[k - 1]
        v = (target - at_t2) / (u1 - u2)
        for slope, value_at, value, upper in (
            (b[k], lower_t0, a[k], u2), (v, u2, at_t2, u1), (b[k - 1], u0, a[k - 1], u0)
        ):
            slopes.append(slope)
            offsets.append(value - slope * value_at)
            breakpoints.append(upper)
    return np.array(breakpoints), np.array(slopes), np.array(offsets)


@pytest.mark.parametrize("case", FIXTURE_CASES, ids=lambda c: f"{c[0]}-d{c[1]}-k{c[2]}")
def test_skeleton_keeps_the_bits_of_the_per_pair_reference(builds, case):
    """The batched skeleton equals the per-pair construction bit for bit."""
    build = builds[case]
    skel = build_skeleton(build.anchors)
    for got, want in zip(
        (skel.breakpoints, skel.slopes, skel.offsets), _skeleton_one_pair_at_a_time(build.anchors)
    ):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_skeleton_hits_every_anchor(diagonal_build):
    anchors = diagonal_build.anchors
    skel = diagonal_build.path.skeleton
    for a, t0 in zip(anchors.a[:-1], anchors.times[:-1, 0]):
        dev = float(np.linalg.norm(eval_affine(skel, t0) - a))
        assert dev <= 1e-12


def test_skeleton_slope_near_anchors(diagonal_build):
    """Immediately around each interior anchor time the slope is the
    anchor's prescribed direction."""
    anchors = diagonal_build.anchors
    skel = diagonal_build.path.skeleton
    for k in range(2, len(anchors.a)):
        t0, b = anchors.times[k - 1, 0], anchors.b[k - 1]
        eps = 0.05 * anchor_spacing(k, anchors.parity)
        below = eval_affine_derivative(skel, t0 - eps)
        above = eval_affine_derivative(skel, t0 + eps)
        assert np.allclose(below, b, atol=1e-13)
        assert np.allclose(above, b, atol=1e-13)


def test_skeleton_breakpoints_are_anchor_times(diagonal_build):
    times = diagonal_build.anchors.times
    skel = diagonal_build.path.skeleton
    expected = {float(times[-1, 0]), *times[:-1].ravel().tolist()}
    assert set(skel.breakpoints.tolist()) == expected


@pytest.mark.parametrize("dimension", [2, 3])
def test_fixtures_with_non_radial_directions(dimension):
    """The tangent fixture's y is orthogonal to its x; the half-space
    fixture's y keeps x.y >= 0 and is mostly far from radial."""
    for x, y in witness_fixture("tangent", dimension).pairs:
        assert abs(float(x @ y)) <= 1e-12 * float(np.linalg.norm(x))
        assert float(np.linalg.norm(y)) == pytest.approx(1.0, abs=1e-12)
    cosines = [
        float(x @ y) / float(np.linalg.norm(x))
        for x, y in witness_fixture("halfspace", dimension).pairs
    ]
    assert min(cosines) >= 0.0
    assert float(np.median(cosines)) < 0.9

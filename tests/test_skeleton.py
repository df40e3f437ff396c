"""Witness data, anchors, shell timing, and piecewise-affine paths."""

import math

import numpy as np
import pytest

from pathcert.errors import DomainError, InputError
from pathcert.geometry import ConeSpec, UnitDirection
from pathcert.skeleton import (
    AnchorEntry,
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
        WitnessSequence(dimension=2, pairs=((np.array([0.3, 0.0]), np.array([1.0, 1.0])),))
    with pytest.raises(InputError):
        WitnessSequence(dimension=2, pairs=((np.array([0.3, 0.0]), np.array([-1.0, 0.0])),))
    with pytest.raises(InputError):
        WitnessSequence(dimension=2, pairs=((np.array([0.0, 0.0]), E1),))
    with pytest.raises(InputError):
        WitnessSequence(dimension=2, pairs=())


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


# ---- anchor sequences ---------------------------------------------------


def _tiny_entries():
    """Two filler anchors on the first axis, even parity."""
    entries = []
    for k, radius in ((1, 0.42), (2, 0.22)):
        t0, t1, t2 = breakpoints_for(k, "even", radius)
        entries.append(
            AnchorEntry(
                k=k,
                a=radius * E1,
                b=UnitDirection(E1),
                source="filler",
                t0=t0,
                t1=t1,
                t2=t2,
            )
        )
    return tuple(entries)


def _axis_cone():
    return ConeSpec(UnitDirection(E1))


def test_anchor_sequence_accepts_valid_fillers():
    seq = AnchorSequence(parity="even", cone=_axis_cone(), entries=_tiny_entries(), matched=())
    assert seq.dimension == 2
    assert seq.entry(2).k == 2


def test_anchor_sequence_rejects_bad_parity():
    with pytest.raises(InputError):
        AnchorSequence(parity="both", cone=_axis_cone(), entries=_tiny_entries(), matched=())


def test_anchor_sequence_rejects_matched_filler():
    with pytest.raises(InputError):
        AnchorSequence(
            parity="even", cone=_axis_cone(), entries=_tiny_entries(), matched=((1, 0),)
        )


def test_anchor_sequence_rejects_radius_outside_shell():
    entries = list(_tiny_entries())
    # a self-consistent entry whose radius overshoots shell 2's ceiling of 1/2;
    # only the sequence knows the parity, so the shell check lives there
    d = anchor_spacing(1, "even")
    entries[0] = AnchorEntry(
        k=1,
        a=0.6 * E1,
        b=UnitDirection(E1),
        source="filler",
        t0=0.6,
        t1=0.6 - d,
        t2=0.6 - 2.0 * d,
    )
    with pytest.raises(InputError):
        AnchorSequence(parity="even", cone=_axis_cone(), entries=tuple(entries), matched=())


def test_anchor_sequence_rejects_off_cone_anchor():
    cone = ConeSpec(UnitDirection(np.array([0.0, 1.0])))
    with pytest.raises(InputError):
        AnchorSequence(parity="even", cone=cone, entries=_tiny_entries(), matched=())


def test_anchor_sequence_rejects_cone_of_other_dimension():
    cone = ConeSpec(UnitDirection(np.array([1.0, 0.0, 0.0])))
    with pytest.raises(InputError):
        AnchorSequence(parity="even", cone=cone, entries=_tiny_entries(), matched=())


def test_anchor_entry_validates_times():
    with pytest.raises(InputError):
        AnchorEntry(
            k=1, a=0.42 * E1, b=UnitDirection(E1), source="filler",
            t0=0.40, t1=0.40 - 1.0 / 36.0, t2=0.40 - 2.0 / 36.0,
        )


def test_build_anchor_sequence_prefers_lowest_witness_index(diagonal_build):
    """Each matched shell holds the first captured witness point in it."""
    anchors = diagonal_build.anchors
    witness = diagonal_build.witness
    assert len(anchors.matched) >= 2
    for k, i in anchors.matched:
        entry = anchors.entry(k)
        assert entry.source == "given"
        assert np.array_equal(entry.a, witness.pairs[i][0])
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
    matched_ks = {k for k, _ in anchors.matched}
    fillers = [e for e in anchors.entries if e.k not in matched_ks]
    for entry in fillers:
        assert entry.source == "filler"
        lo, hi = shell_bounds(anchor_shell(entry.k, anchors.parity))
        radius = float(np.linalg.norm(entry.a))
        assert math.isclose(radius, 0.5 * (lo + hi), rel_tol=1e-12)
        assert np.allclose(entry.a, radius * axis, atol=1e-15)


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
            dimension=1,
            breakpoints=np.array([0.0, 1.0, 2.0]),
            slopes=np.array([[1.0], [1.0]]),
            offsets=np.array([[0.0], [0.5]]),
        )


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


# ---- skeletons ----------------------------------------------------------


def test_build_skeleton_two_anchor_geometry():
    """Hand-checkable two-anchor skeleton: values, slopes, and the
    connecting slope all follow from the anchor data."""
    entries = _tiny_entries()
    seq = AnchorSequence(parity="even", cone=_axis_cone(), entries=entries, matched=())
    skel = build_skeleton(seq)
    upper, lower = entries[0], entries[1]
    assert skel.segment_count() == 3
    assert np.allclose(eval_affine(skel, upper.t0), upper.a, atol=1e-14)
    assert np.allclose(eval_affine(skel, lower.t0 + 1e-13), lower.a, atol=1e-12)
    assert np.allclose(eval_affine_derivative(skel, upper.t0), upper.b.coords)
    at_t2 = lower.a + (upper.t2 - lower.t0) * lower.b.coords
    target = upper.a + (upper.t1 - upper.t0) * upper.b.coords
    v = (target - at_t2) / (upper.t1 - upper.t2)
    assert np.allclose(eval_affine_derivative(skel, 0.5 * (upper.t1 + upper.t2)), v, atol=1e-14)


def test_skeleton_hits_every_anchor(diagonal_build):
    anchors = diagonal_build.anchors
    skel = diagonal_build.path.skeleton
    for entry in anchors.entries[:-1]:
        dev = float(np.linalg.norm(eval_affine(skel, entry.t0) - entry.a))
        assert dev <= 1e-12


def test_skeleton_slope_near_anchors(diagonal_build):
    """Immediately around each interior anchor time the slope is the
    anchor's prescribed direction."""
    anchors = diagonal_build.anchors
    skel = diagonal_build.path.skeleton
    for entry in anchors.entries[1:-1]:
        eps = 0.05 * anchor_spacing(entry.k, anchors.parity)
        below = eval_affine_derivative(skel, entry.t0 - eps)
        above = eval_affine_derivative(skel, entry.t0 + eps)
        assert np.allclose(below, entry.b.coords, atol=1e-13)
        assert np.allclose(above, entry.b.coords, atol=1e-13)


def test_skeleton_breakpoints_are_anchor_times(diagonal_build):
    anchors = diagonal_build.anchors
    skel = diagonal_build.path.skeleton
    expected = {anchors.entries[-1].t0}
    for entry in anchors.entries[:-1]:
        expected.update((entry.t0, entry.t1, entry.t2))
    assert set(skel.breakpoints.tolist()) == expected

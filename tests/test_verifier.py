"""Certification checks and their negative controls.

Every check gets at least one corrupted input that must turn the
verdict red; a suite that cannot fail verifies nothing.
"""

import json
import math

import numpy as np
import pytest

from pathcert.errors import InputError
from pathcert.mollifier import (
    SmoothPath,
    build_smooth_path,
    eval_smooth,
    eval_smooth_derivative,
)
from pathcert.skeleton import affine_path_from_slopes
from pathcert.verifier import (
    FINITE_THRESHOLD,
    SUITE_NAMES,
    coincidence_check,
    envelope_check,
    interpolation_check,
    lemma1_bound_check,
    lemma1_random_suite,
    product_bound_scan,
    random_affine_path,
    run_checks,
    slope_norm_budget,
    smoothness_check,
)


def _rescaled_skeleton(build, factor):
    """The same skeleton with all values scaled by a constant."""
    skel = build.path.skeleton
    t0 = float(skel.breakpoints[0])
    v0 = skel.slopes[0] * t0 + skel.offsets[0]
    return affine_path_from_slopes(skel.breakpoints, factor * v0, factor * skel.slopes)


def _with_skeleton(build, skeleton):
    return build_smooth_path(build.anchors, skeleton=skeleton)


def _windowless(build):
    return SmoothPath(skeleton=build.path.skeleton, windows=())


# ---- averaged-derivative bound ------------------------------------------


def test_straight_line_average_is_exact():
    """Averaging a constant slope returns it; the ratio sits at 1."""
    path = affine_path_from_slopes(
        np.array([0.0, 1.0]), np.array([1.0, -2.0]), np.array([[3.0, 4.0]])
    )
    report = lemma1_bound_check(path, scale=0.2, t_values=[0.3, 0.5, 0.7])
    assert report.passed
    assert abs(report.measured - 1.0) <= 1e-12
    assert slope_norm_budget(path) == 5.0


def test_two_segment_average_stays_below_budget():
    path = affine_path_from_slopes(
        np.array([0.0, 1.0, 2.0]),
        np.array([0.0]),
        np.array([[1.0], [-1.0]]),
    )
    report = lemma1_bound_check(path, scale=0.5, t_values=np.linspace(0.6, 1.4, 9))
    assert report.passed
    assert report.measured < 1.0


def test_average_support_must_fit():
    path = affine_path_from_slopes(
        np.array([0.0, 1.0]), np.array([0.0]), np.array([[1.0]])
    )
    with pytest.raises(InputError):
        lemma1_bound_check(path, scale=0.3, t_values=[0.1])


def test_random_suite_small_run():
    report = lemma1_random_suite(paths=15, t_per_path=20, seed=3)
    assert report.passed
    assert 0.2 < report.measured <= 1.0 + 1e-7


def test_random_affine_path_shapes():
    rng = np.random.default_rng(11)
    for _ in range(20):
        path = random_affine_path(rng)
        assert 1 <= path.dimension <= 4
        assert 2 <= path.segment_count() <= 8


# ---- interpolation ------------------------------------------------------


def test_interpolation_passes_on_fixture(diagonal_build):
    report = interpolation_check(diagonal_build.path, diagonal_build.anchors)
    assert report.passed
    assert report.measured <= 1e-9


def test_interpolation_fails_on_shifted_skeleton(diagonal_build):
    """Perturbing the incoming slope of the top anchor moves the path off
    that anchor, which the check must flag."""
    skel = diagonal_build.path.skeleton
    slopes = np.array(skel.slopes)
    slopes[-1] += 0.05
    t0 = float(skel.breakpoints[0])
    v0 = skel.slopes[0] * t0 + skel.offsets[0]
    bad = _with_skeleton(
        diagonal_build, affine_path_from_slopes(skel.breakpoints, v0, slopes)
    )
    report = interpolation_check(bad, diagonal_build.anchors)
    assert not report.passed
    assert report.measured > 1e-5


@pytest.mark.parametrize("distortion", ["shift", "scale"])
def test_interpolation_matches_per_anchor_reference(diagonal_build, distortion):
    """The batched check reports the worst anchor of a per-anchor loop, bit
    for bit.  A shift moves only the positions; a scaling moves the
    directions more than the positions, which all lie inside the unit ball."""
    skel = diagonal_build.path.skeleton
    if distortion == "shift":
        t0 = float(skel.breakpoints[0])
        v0 = skel.slopes[0] * t0 + skel.offsets[0] + 1e-4
        moved = affine_path_from_slopes(skel.breakpoints, v0, skel.slopes)
    else:
        moved = _rescaled_skeleton(diagonal_build, 1.001)
    path = _with_skeleton(diagonal_build, moved)
    entries = diagonal_build.anchors.entries[:-1]
    devs = [
        max(
            float(np.linalg.norm(eval_smooth(path, e.t0) - e.a)),
            float(np.linalg.norm(eval_smooth_derivative(path, e.t0) - e.b.coords)),
        )
        for e in entries
    ]
    i = int(np.argmax(devs))
    report = interpolation_check(path, diagonal_build.anchors)
    assert report.measured == devs[i] > 1e-5
    assert report.witness_t == entries[i].t0


# ---- envelope -----------------------------------------------------------


def test_envelope_passes_on_fixture(diagonal_build):
    report = envelope_check(diagonal_build.path, k_max=20)
    assert report.passed
    assert report.measured <= 1e-10


def test_envelope_fails_on_inflated_skeleton(diagonal_build):
    """Tripling the skeleton pushes norms above the shell ceiling."""
    inflated = _with_skeleton(diagonal_build, _rescaled_skeleton(diagonal_build, 3.0))
    report = envelope_check(inflated, k_max=20)
    assert not report.passed
    assert report.measured > 0.1


# ---- product bound ------------------------------------------------------


def test_product_restricted_passes(diagonal_build):
    report = product_bound_scan(
        diagonal_build.path, diagonal_build.anchors, restricted=True
    )
    assert report.passed
    assert report.threshold == 28.0
    assert report.measured < 28.0
    assert "per-leg speed within 28 k" in report.details


def test_product_unrestricted_only_needs_finiteness(diagonal_build):
    report = product_bound_scan(
        diagonal_build.path, diagonal_build.anchors, restricted=False
    )
    assert report.passed
    assert report.threshold == FINITE_THRESHOLD
    assert math.isfinite(report.measured)
    json.dumps(report.to_dict())  # threshold must stay JSON safe


def test_product_restricted_catches_inflated_speed(diagonal_build):
    """Scaling values by 40 lifts both the product and the per-leg speed
    beyond the constants."""
    inflated = _with_skeleton(diagonal_build, _rescaled_skeleton(diagonal_build, 40.0))
    report = product_bound_scan(inflated, diagonal_build.anchors, restricted=True)
    assert not report.passed


# ---- smoothness ---------------------------------------------------------


def test_smoothness_passes_on_fixture(diagonal_build):
    report = smoothness_check(diagonal_build.path, trials=60, seed=0)
    assert report.passed


def test_smoothness_seed_variation(diagonal_build):
    for seed in (1, 2):
        assert smoothness_check(diagonal_build.path, trials=40, seed=seed).passed


def test_smoothness_fails_on_bare_skeleton(builds):
    """Without mollification the derivative jumps at the kinks and the
    finite-difference orders collapse.

    The spiral fixture is the control here: its anchor directions turn
    from shell to shell, so its skeleton carries order-one slope jumps.
    """
    report = smoothness_check(_windowless(builds[("spiral", 2, 20)]), trials=60, seed=0)
    assert not report.passed
    assert report.measured > 1.0


# ---- coincidence --------------------------------------------------------


def test_coincidence_passes_on_fixture(diagonal_build):
    report = coincidence_check(diagonal_build.path)
    assert report.passed
    assert report.measured <= 1e-10


def test_coincidence_trivial_without_windows(diagonal_build):
    report = coincidence_check(_windowless(diagonal_build))
    assert report.passed


# ---- suite runner -------------------------------------------------------


def test_run_checks_order_and_names(diagonal_build):
    reports = run_checks(
        diagonal_build.path,
        diagonal_build.anchors,
        names=("envelope", "interpolation"),
        trials=10,
    )
    assert [r.name for r in reports] == ["envelope", "interpolation"]


def test_run_checks_rejects_unknown(diagonal_build):
    with pytest.raises(InputError):
        run_checks(diagonal_build.path, diagonal_build.anchors, names=("volume",))


def test_report_dict_shape(diagonal_build):
    report = envelope_check(diagonal_build.path, k_max=5)
    data = report.to_dict()
    assert set(data) == {
        "name",
        "passed",
        "measured",
        "threshold",
        "witness_t",
        "details",
    }
    assert data["name"] == "envelope"
    assert isinstance(data["passed"], bool)


def test_suite_names_frozen():
    assert SUITE_NAMES == (
        "lemma1",
        "interpolation",
        "envelope",
        "product",
        "smoothness",
        "coincidence",
    )

"""Certification checks and their negative controls.

Every check gets at least one corrupted input that must turn the
verdict red; a suite that cannot fail verifies nothing.
"""

import json
import math

import numpy as np
import pytest
from conftest import FIXTURE_CASES

from pathcert import verifier
from pathcert.errors import InputError
from pathcert.mollifier import (
    SmoothPath,
    build_smooth_path,
    dense_grid,
    eval_smooth,
    eval_smooth_derivative,
    eval_smooth_derivative_many,
    eval_smooth_many,
    row_norms,
)
from pathcert.skeleton import affine_path_from_slopes, eval_affine_many
from pathcert.verifier import (
    PRODUCT_BOUND,
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
    return SmoothPath(skeleton=build.path.skeleton, lo=(), hi=(), h=())


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
    anchors = diagonal_build.anchors
    times = anchors.times[:-1, 0].tolist()
    devs = [
        max(
            float(np.linalg.norm(eval_smooth(path, t0) - a)),
            float(np.linalg.norm(eval_smooth_derivative(path, t0) - b)),
        )
        for t0, a, b in zip(times, anchors.a, anchors.b)
    ]
    i = int(np.argmax(devs))
    report = interpolation_check(path, anchors)
    assert report.measured == devs[i] > 1e-5
    assert report.witness_t == times[i]


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


@pytest.mark.parametrize("length", range(1, 13))
def test_median_equals_np_median_bit_for_bit(length):
    """The sort-based median gives np.median's bits on lists of 1-12 values,
    with ties, signed zeros, infinities and nans among them."""
    rng = np.random.default_rng(length)
    pool = [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, math.inf, -math.inf, 5e-324, math.nan]
    for trial in range(300):
        if trial % 3 == 0:
            values = [pool[i] for i in rng.integers(0, len(pool), size=length)]
        else:
            values = (rng.standard_normal(length) * 10.0 ** rng.uniform(-300, 300)).tolist()
        if trial % 5 == 0:
            values[-1] = values[0]
        with np.errstate(all="ignore"):
            want = np.median(values)
        got = verifier._median(values)
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert np.float64(got).view(np.int64) == want.view(np.int64), values


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


# ---- batched checks against per-level, per-region, per-trial loops ------
#
# Each reference below evaluates one level, region, trial or leg at a time
# and keeps the first strict maximum.  The checks evaluate one grid in one
# batch; since a row has the same bits in any batch, the reports must agree
# exactly.


def _reference_envelope(path, k_max=20, samples_per_level=256):
    lo, hi = path.domain
    worst, worst_t, levels = -math.inf, None, 0
    for k in range(1, k_max + 1):
        top = min(1.0 / (2.0 * k), hi)
        start = np.nextafter(lo, hi)
        if top <= start:
            continue
        ts = np.geomspace(start, top, samples_per_level)
        ts = ts[ts < 1.0 / (2.0 * k)]
        if ts.size == 0:
            continue
        levels += 1
        excess = row_norms(eval_smooth_many(path, ts)) - 1.0 / k
        i = int(np.argmax(excess))
        if float(excess[i]) > worst:
            worst, worst_t = float(excess[i]), float(ts[i])
    details = f"max ||s(t)|| - 1/k over {levels} levels, {samples_per_level} samples each"
    return worst, worst_t, details


def _reference_coincidence(path, points_per_region=64):
    lo, hi = path.domain
    regions = []
    cursor = lo
    windows = list(zip(path.lo.tolist(), path.hi.tolist(), path.h.tolist()))
    for w_lo, w_hi, _ in windows:
        if w_lo > cursor:
            regions.append((cursor, w_lo))
        cursor = w_hi
    if cursor < hi:
        regions.append((cursor, hi))
    for w_lo, w_hi, h in windows:
        kink_lo = w_hi - 6.0 * h
        kink_hi = w_hi - 2.0 * h
        regions += [
            (w_lo, kink_lo - h),
            (kink_lo + h, kink_hi - h),
            (kink_hi + h, w_hi),
        ]
    worst, worst_t, total = -math.inf, None, 0
    eps = np.nextafter(lo, hi)
    for a, b in regions:
        a, b = max(a, eps), min(b, hi)
        if not (a < b):
            continue
        ts = np.linspace(a, b, points_per_region)
        dev = row_norms(eval_smooth_many(path, ts) - eval_affine_many(path.skeleton, ts))
        total += ts.size
        i = int(np.argmax(dev))
        if float(dev[i]) > worst:
            worst, worst_t = float(dev[i]), float(ts[i])
    details = f"max |s - skeleton| over {total} points in {len(regions)} regions"
    return worst, worst_t, details


def _reference_smoothness(path, trials=100, seed=0, min_order=verifier.MIN_FD_ORDER):
    rng = np.random.default_rng(seed)
    worst, worst_t = -math.inf, None
    for _ in range(trials):
        t, delta0 = verifier._fd_trial_points(path, rng)
        deltas = delta0 / np.power(2.0, np.arange(5))
        points = np.concatenate([[t], t + deltas, t - deltas])
        values = eval_smooth_many(path, points)
        derivs = eval_smooth_derivative_many(path, points)
        ref = derivs[0]
        fd1 = (values[1:6] - values[6:11]) / (2.0 * deltas[:, None])
        floor1 = 1e-8 * max(1.0, float(np.linalg.norm(ref)))
        order1 = verifier._order_estimate(row_norms(fd1 - ref[None, :]), floor1)
        fd2 = (derivs[1:6] - derivs[6:11]) / (2.0 * deltas[:, None])
        floor2 = 1e-7 * max(1.0, float(np.max(row_norms(fd2))))
        order2 = verifier._order_estimate(row_norms(np.diff(fd2, axis=0)), floor2)
        shortfall = max(min_order - order1, 1.0 - order2)
        if shortfall > worst:
            worst, worst_t = shortfall, t
    return worst, worst_t, f"worst order shortfall over {trials} trials, seed {seed}"


def _reference_product(path, anchors, grid, restricted):
    norm_s = row_norms(eval_smooth_many(path, grid))
    norm_ds = row_norms(eval_smooth_derivative_many(path, grid))
    product = norm_s * norm_ds
    worst_t = float(grid[int(np.argmax(product))])
    details = f"max product over {grid.size} grid points"
    if restricted:
        times = anchors.times[:, 0].tolist()
        for k in range(1, len(times)):
            mask = (grid > times[k]) & (grid <= times[k - 1])
            if not np.any(mask):
                continue
            top_speed = float(np.max(norm_ds[mask]))
            if top_speed > PRODUCT_BOUND * k:
                return top_speed / k, worst_t, f"speed {top_speed:.6g} exceeds 28 k on leg {k}"
        details += "; per-leg speed within 28 k"
    return float(np.max(product)), worst_t, details


def _triple(report):
    return report.measured, report.witness_t, report.details


@pytest.mark.parametrize("windowless", [False, True], ids=["mollified", "windowless"])
@pytest.mark.parametrize("case", FIXTURE_CASES, ids=lambda c: f"{c[0]}-d{c[1]}-k{c[2]}")
def test_batched_checks_match_per_part_reference(builds, case, windowless):
    """Every batched check reports the reference loop's worst point, bit for bit."""
    build = builds[case]
    path = _windowless(build) if windowless else build.path
    assert _triple(envelope_check(path)) == _reference_envelope(path)
    assert _triple(coincidence_check(path)) == _reference_coincidence(path)
    assert _triple(smoothness_check(path, seed=3)) == _reference_smoothness(path, seed=3)
    grid = dense_grid(path, per_decade=256, per_window=16)
    for restricted in (False, True):
        report = product_bound_scan(path, build.anchors, grid, restricted)
        assert _triple(report) == _reference_product(path, build.anchors, grid, restricted)


@pytest.mark.parametrize("skipped_legs, failing_leg", [(2, 3), (4, 6)])
def test_product_reports_first_failing_leg_past_the_grid_start(
    builds, skipped_legs, failing_leg
):
    """Inflated by 40, the cone fixture fails the 28 k speed bound on legs
    1-4 and 6 but not 5.  A grid without points on the first legs must
    name the first failing leg it does reach, with that leg's top speed."""
    build = builds[("cone", 2, 20)]
    inflated = _with_skeleton(build, _rescaled_skeleton(build, 40.0))
    times = build.anchors.times[:, 0]
    grid = dense_grid(inflated)
    grid = grid[grid <= times[skipped_legs]]
    report = product_bound_scan(inflated, build.anchors, grid, restricted=True)
    on_leg = (grid > times[failing_leg]) & (grid <= times[failing_leg - 1])
    top_speed = float(np.max(row_norms(eval_smooth_derivative_many(inflated, grid[on_leg]))))
    assert not report.passed
    assert report.details.endswith(f"on leg {failing_leg}")
    assert report.measured == top_speed / failing_leg


def test_anchor_time_is_the_top_of_its_leg(diagonal_build):
    """Leg k is (t_{k+1,0}, t_{k,0}].  Inflated by 40 the path moves at
    speed 40 at every anchor time, which breaks 28 k on leg 1 only."""
    inflated = _with_skeleton(diagonal_build, _rescaled_skeleton(diagonal_build, 40.0))
    times = diagonal_build.anchors.times[:-1, 0].copy()
    below_top = product_bound_scan(inflated, diagonal_build.anchors, times[1:], restricted=True)
    assert below_top.details.endswith("per-leg speed within 28 k")
    report = product_bound_scan(inflated, diagonal_build.anchors, times, restricted=True)
    speed = float(np.linalg.norm(eval_smooth_derivative(inflated, times[0])))
    assert report.details.endswith("on leg 1")
    assert report.measured == speed


def test_product_ignores_grid_points_off_the_legs(builds):
    """A k40 path reaches below the last anchor time of the k20 anchors;
    those points lie on no leg and only enter the product."""
    path = builds[("diagonal", 2, 40)].path
    anchors = builds[("diagonal", 2, 20)].anchors
    grid = dense_grid(path, per_decade=256, per_window=16)
    assert grid.min() < anchors.times[-1, 0]
    report = product_bound_scan(path, anchors, grid, restricted=True)
    assert _triple(report) == _reference_product(path, anchors, grid, True)


def test_each_check_evaluates_its_grid_in_one_batch(diagonal_build, monkeypatch):
    """envelope and coincidence make one smooth-path evaluation call,
    smoothness and product one for values and one for derivatives."""
    calls = []

    def counted(name, evaluate):
        def wrapper(*args):
            calls.append(name)
            return evaluate(*args)

        return wrapper

    for name in ("eval_smooth_many", "eval_smooth_derivative_many", "eval_affine_many"):
        monkeypatch.setattr(verifier, name, counted(name, getattr(verifier, name)))
    path, anchors = diagonal_build.path, diagonal_build.anchors
    expected = {
        "envelope": ["eval_smooth_many"],
        "coincidence": ["eval_smooth_many", "eval_affine_many"],
        "smoothness": ["eval_smooth_many", "eval_smooth_derivative_many"],
        "product": ["eval_smooth_many", "eval_smooth_derivative_many"],
    }
    for name, names in expected.items():
        calls.clear()
        run_checks(path, anchors, (name,), restricted=True)
        assert calls == names, name


def test_suite_names_frozen():
    assert SUITE_NAMES == (
        "lemma1",
        "interpolation",
        "envelope",
        "product",
        "smoothness",
        "coincidence",
    )

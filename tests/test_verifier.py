"""Certification checks and their negative controls.

Every check gets at least one corrupted input that must turn the
verdict red; a suite that cannot fail verifies nothing.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from conftest import FIXTURE_CASES, FIXTURE_DIMENSIONS, FIXTURE_KINDS, witness_fixture

from pathcert import mollifier, verifier
from pathcert.errors import InputError
from pathcert.pipeline import build_path
from pathcert.mollifier import (
    KERNEL_D1_MAX,
    KERNEL_D2_MAX,
    SmoothPath,
    bump_kernel,
    build_smooth_path,
    dense_grid,
    eval_smooth,
    eval_smooth_derivative,
    eval_smooth_derivative_many,
    eval_smooth_many,
    row_norms,
)
from pathcert.pathfile import reports_to_json
from pathcert.skeleton import eval_affine_many, kink_times
from pathcert.verifier import (
    PRODUCT_BOUND,
    FINITE_THRESHOLD,
    SUITE_NAMES,
    coincidence_check,
    envelope_check,
    envelope_level,
    interpolation_check,
    product_bound_scan,
    run_checks,
    smoothness_check,
)
from random_paths import (
    LEMMA1_PATHS,
    LEMMA1_POINTS_PER_PATH,
    affine_path_from_slopes,
    lemma1_bound_check,
    lemma1_path_reports,
    lemma1_random_suite,
    random_affine_path,
    slope_norm_budget,
)
from update_golden import MANIFEST, build_info


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
    report = lemma1_random_suite(seed=3)
    assert report.passed
    assert "over 100 random paths, 50 points each, seed 3" in report.details
    assert 0.2 < report.measured <= 1.0 + 1e-7


@pytest.mark.parametrize("seed", range(5))
def test_random_suite_equals_one_bound_check_per_path(seed):
    """The random suite draws path k, its scale and its points from child k
    of the seed, gives each path the report of its own lemma1_bound_check
    call, bit for bit, and reports the first worst of them."""
    single = []
    for child in np.random.SeedSequence(seed).spawn(LEMMA1_PATHS):
        rng = np.random.default_rng(child)
        path = random_affine_path(rng)
        lo, hi = path.domain
        scale = float(rng.uniform(0.2, 0.8)) * 0.5 * (hi - lo)
        ts = rng.uniform(lo + scale, hi - scale, size=LEMMA1_POINTS_PER_PATH)
        single.append(lemma1_bound_check(path, scale, ts).to_dict())
    assert [r.to_dict() for r in lemma1_path_reports(seed)] == single
    worst = max(single, key=lambda r: r["measured"])
    report = lemma1_random_suite(seed=seed)
    assert (report.measured, report.witness_t) == (worst["measured"], worst["witness_t"])


def test_random_suite_keeps_its_golden_bytes():
    """The random suite's reports at seed 0, whose rows meet several kinks,
    keep the bytes they had as golden artifacts on the build the golden
    hashes were made on: they pin the order of the kink sum's adds, which
    the built paths' rows, meeting at most one kink, never see."""
    made_on = json.loads(MANIFEST.read_text(encoding="utf-8"))["build"]
    if made_on != build_info():
        pytest.skip(f"the digests were made on {made_on}, not on this build {build_info()}")

    def digest(reports):
        return hashlib.sha256(reports_to_json(reports).encode("utf-8")).hexdigest()

    assert digest(lemma1_path_reports(0)) == (
        "3962622489eb9f0d817471c511170e8d1aef351d4ca75124c41e0389a9fdb1ac"
    )
    assert digest([lemma1_random_suite(0)]) == (
        "9712c0b852202634fe911719a73b5364388bc3dc7ae4f80118552012de94882f"
    )


def test_random_affine_path_shapes():
    rng = np.random.default_rng(11)
    for _ in range(20):
        path = random_affine_path(rng)
        assert 1 <= path.dimension <= 4
        assert 2 <= path.segment_count() <= 8


def _lemma1_reference(path, ts):
    """The worst ||s'(t)|| over the largest slope norm among the pieces
    [bp[i], bp[i + 1]] that meet [t - h, t + h], one t and piece at a time."""
    bp, norms = path.skeleton.breakpoints, row_norms(path.skeleton.slopes)
    worst = 0.0
    for t, ds in zip(ts, row_norms(eval_smooth_derivative_many(path, ts))):
        h = path.h[path.window_index(t)] if path.window_index(t) >= 0 else 0.0
        reach = max(n for i, n in enumerate(norms) if bp[i] <= t + h and bp[i + 1] >= t - h)
        worst = max(worst, ds / reach if reach > 0.0 else (0.0 if ds == 0.0 else math.inf))
    return worst


def _kinked_window_path(slopes):
    """A 1-d path on [1, 3] with one window [1.2, 1.8] of half-width 0.15 and
    breakpoints at 1.4, 1.5 and 1.6, so a row near 1.5 meets three kinks."""
    skeleton = affine_path_from_slopes([1.0, 1.4, 1.5, 1.6, 3.0], [0.5], np.array(slopes)[:, None])
    return SmoothPath(skeleton=skeleton, lo=[1.2], hi=[1.8], h=[0.15])


@pytest.mark.parametrize(
    "slopes", [[1.0, 6.0, -6.0, 1.0], [0.5, -3.0, 4.0, 2.0], [0.0, 0.0, 0.0, 0.0]]
)
def test_lemma1_bounds_rows_that_meet_several_kinks(slopes):
    """lemma1 takes the largest slope norm among every piece a row's range
    meets, however many kinks lie in it, and matches a one-row-at-a-time
    reference; on a flat path ||s'|| = 0 everywhere and counts as ratio 0."""
    path = _kinked_window_path(slopes)
    grid = dense_grid(path, per_decade=256, per_window=200)
    # a row within h - 0.1 of 1.5 meets all three kinks
    assert np.count_nonzero(np.abs(grid - 1.5) < path.h[0] - 0.1) > 10
    (report,) = run_checks(path, None, ("lemma1",), per_decade=256, per_window=200)
    assert report.passed, report
    assert report.measured == _lemma1_reference(path, grid)
    if not any(slopes):
        assert report.measured == 0.0


def test_lemma1_holds_on_every_fixture(builds):
    """On every fixture ||s'|| stays within the largest slope norm its
    averaging range reaches, to rounding; off the windows s' is its piece's
    slope, so the worst ratio is at least 1."""
    for case, build in builds.items():
        (report,) = run_checks(build.path, build.anchors, ("lemma1",))
        assert report.passed and 1.0 <= report.measured <= 1.0 + 1e-7, case
        assert report.threshold == 1.0 + verifier.LEMMA1_TOL


def test_lemma1_matches_the_reference_on_fixtures(builds):
    for case in [("diagonal", 2, 20), ("cone", 2, 20), ("halfspace", 3, 20)]:
        path, anchors = builds[case].path, builds[case].anchors
        grid = dense_grid(path, per_decade=64, per_window=16)
        (report,) = run_checks(path, anchors, ("lemma1",), per_decade=64, per_window=16)
        assert report.measured == _lemma1_reference(path, grid), case


def test_lemma1_fails_an_overshooting_kernel_on_every_fixture(builds, monkeypatch):
    """A kernel mass K scaled by 1.01 carries s' past the slope it averages
    towards, so lemma1 fails on every fixture, inside a window."""
    mass_moment = mollifier.kernel_mass_moment

    def overshooting(x):
        mass, moment = mass_moment(x)
        return 1.01 * mass, moment

    monkeypatch.setattr(mollifier, "kernel_mass_moment", overshooting)
    for case, build in builds.items():
        (report,) = run_checks(build.path, build.anchors, ("lemma1",))
        assert not report.passed, case
        assert report.measured > 1.01 and report.details.endswith(
            f"window {build.path.window_index(report.witness_t)}"
        ), case


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
    path = diagonal_build.path
    report = envelope_check(path, dense_grid(path))
    assert report.passed
    assert report.measured <= 1e-10
    assert report.details.endswith("levels 1 to 20")


def test_envelope_fails_on_inflated_skeleton(diagonal_build):
    """Tripling the skeleton pushes norms above the shell ceiling."""
    inflated = _with_skeleton(diagonal_build, _rescaled_skeleton(diagonal_build, 3.0))
    report = envelope_check(inflated, dense_grid(inflated))
    assert not report.passed
    assert report.measured > 0.1


def test_envelope_checks_levels_past_twenty():
    """A windowless path whose norm peaks at 1/25 at t = 0.012, below
    1/(2 31): under the ceiling 1/k of every k <= 20, but above 1/41, the
    ceiling of its own level k(0.012) = 41, so only the deep levels catch it."""
    breakpoints = np.array([0.001, 0.011, 0.012, 0.013, 0.5])
    values = np.array([0.001, 0.011, 0.04, 0.013, 0.5])
    slopes = (np.diff(values) / np.diff(breakpoints))[:, None]
    skeleton = affine_path_from_slopes(breakpoints, values[:1], slopes)
    path = SmoothPath(skeleton=skeleton, lo=(), hi=(), h=())
    report = envelope_check(path, dense_grid(path))
    assert not report.passed
    assert 0.04 - 1.0 / 41.0 - 1e-3 < report.measured <= 0.04 - 1.0 / 41.0
    assert abs(report.witness_t - 0.012) < 1e-4
    assert report.details.endswith("levels 1 to 499")


def test_envelope_level_steps_at_each_edge():
    """k(t) is k just below t = 1/(2k) and k - 1 at it, as the comparison
    t < 1/(2k) gives in floating point."""
    k = np.arange(1.0, 10_002.0)
    edge = 1.0 / (2.0 * k)
    assert np.array_equal(envelope_level(np.nextafter(edge, 0.0)), k)
    assert np.array_equal(envelope_level(edge), k - 1.0)


# ---- product bound ------------------------------------------------------


def test_product_restricted_passes(diagonal_build):
    path = diagonal_build.path
    report = product_bound_scan(path, diagonal_build.anchors, dense_grid(path), restricted=True)
    assert report.passed
    assert report.threshold == 28.0
    assert report.measured < 28.0
    assert "per-leg speed within 28 k" in report.details


def test_product_unrestricted_only_needs_finiteness(diagonal_build):
    path = diagonal_build.path
    report = product_bound_scan(path, diagonal_build.anchors, dense_grid(path), restricted=False)
    assert report.passed
    assert report.threshold == FINITE_THRESHOLD
    assert math.isfinite(report.measured)
    json.dumps(report.to_dict())  # threshold must stay JSON safe


def test_product_restricted_catches_inflated_speed(diagonal_build):
    """Scaling values by 40 lifts both the product and the per-leg speed
    beyond the constants."""
    inflated = _with_skeleton(diagonal_build, _rescaled_skeleton(diagonal_build, 40.0))
    report = product_bound_scan(
        inflated, diagonal_build.anchors, dense_grid(inflated), restricted=True
    )
    assert not report.passed


# ---- smoothness ---------------------------------------------------------


def test_smoothness_passes_on_fixture(diagonal_build):
    report = smoothness_check(diagonal_build.path, trials=60)
    assert report.passed


def test_smoothness_report_does_not_depend_on_the_seed(diagonal_build):
    """No check draws a random number, so the seed moves no report."""
    path, anchors = diagonal_build.path, diagonal_build.anchors
    texts = [reports_to_json(run_checks(path, anchors, seed=seed)) for seed in (0, 7)]
    assert texts[0] == texts[1]


def test_smoothness_fails_at_each_unmollified_window(builds, monkeypatch):
    """An evaluation that leaves one window unmollified (h = 0 there, while
    the Taylor bound keeps the window's h) fails the check, for each window
    that holds a kink; each such window holds both kinks of its pair."""
    path = builds[("spiral", 2, 20)].path
    kinks = kink_times(path.skeleton)
    windows = np.unique(path.window_indices(kinks)).tolist()
    assert 2 * len(windows) == kinks.size and -1 not in windows
    for window in windows:

        def unmollified(path, ts, window=window):
            idx = path.window_indices(ts)
            hs = np.where(idx == window, 0.0, np.append(path.h, 0.0)[idx])
            return mollifier._mollified_rows(path.skeleton, ts, hs)

        monkeypatch.setattr(verifier, "_eval_batch", unmollified)
        assert not smoothness_check(path).passed, window


def test_smoothness_fails_on_bare_skeleton(builds):
    """Without mollification the derivative jumps at the kinks, and a
    central difference across one misses s' by far more than the floor
    that is its whole bound off the windows.

    The spiral fixture is the control here: its anchor directions turn
    from shell to shell, so its skeleton carries order-one slope jumps.
    """
    report = smoothness_check(_windowless(builds[("spiral", 2, 20)]), trials=60)
    assert not report.passed
    assert report.measured >= 10.0


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
    report = envelope_check(diagonal_build.path, dense_grid(diagonal_build.path))
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


# ---- batched checks against per-point, per-region, per-trial loops ------
#
# Each reference below evaluates one point, region, trial or leg at a time
# and keeps the first strict maximum.  The checks evaluate one grid in one
# batch; since a row has the same bits in any batch, the reports must agree
# exactly.


def _reference_kinks(skeleton):
    """One breakpoint at a time: a kink when its slope jump's norm exceeds
    64 eps ||s(kappa)|| / (the shorter piece next to it)."""
    breakpoints = skeleton.breakpoints.tolist()
    kinks = []
    for i in range(1, len(breakpoints) - 1):
        jump = float(np.linalg.norm(skeleton.slopes[i] - skeleton.slopes[i - 1]))
        value = skeleton.slopes[i - 1] * breakpoints[i] + skeleton.offsets[i - 1]
        shorter = min(breakpoints[i] - breakpoints[i - 1], breakpoints[i + 1] - breakpoints[i])
        if jump > 64.0 * verifier.EPS * float(np.linalg.norm(value)) / shorter:
            kinks.append(breakpoints[i])
    return kinks


def _reference_envelope(path, grid):
    """One point at a time, its level k found by climbing while t < 1/(2(k + 1))."""
    worst, worst_t, levels = -math.inf, None, []
    for t in grid.tolist():
        k = 0
        while t < 1.0 / (2.0 * (k + 1)):
            k += 1
        if k == 0:
            continue
        levels.append(k)
        excess = float(np.linalg.norm(eval_smooth(path, t))) - 1.0 / k
        if excess > worst:
            worst, worst_t = excess, t
    details = (
        f"max ||s(t)|| - 1/k(t) over {len(levels)} grid points, "
        f"levels {min(levels)} to {max(levels)}"
    )
    return worst, worst_t, details


def _reference_coincidence(path, points_per_region=64):
    """One region at a time: from the lower end, or from kappa + h past a
    kink kappa, to the next kink's kappa - h, or to the upper end; h is the
    half-width of the window found holding kappa by scanning, else 0."""
    lo, hi = path.domain
    windows = list(zip(path.lo.tolist(), path.hi.tolist(), path.h.tolist()))
    kinks = _reference_kinks(path.skeleton)
    regions, cursor = [], np.nextafter(lo, hi)
    for kappa in kinks:
        h = next((h for w_lo, w_hi, h in windows if w_lo <= kappa <= w_hi), 0.0)
        regions.append((cursor, kappa - h))
        cursor = kappa + h
    regions.append((cursor, hi))
    worst, worst_t, total, count = -math.inf, None, 0, 0
    for a, b in regions:
        if not (a < b):
            continue
        ts = np.linspace(a, b, points_per_region)
        dev = row_norms(eval_smooth_many(path, ts) - eval_affine_many(path.skeleton, ts))
        total += ts.size
        count += 1
        i = int(np.argmax(dev))
        if float(dev[i]) > worst:
            worst, worst_t = float(dev[i]), float(ts[i])
    details = f"max |s - skeleton| over {total} points in {count} regions "
    details += f"clear of {len(kinks)} kinks"
    return worst, worst_t, details


def _reference_smoothness(path, trials=verifier.DEFAULT_TRIALS):
    """One trial at a time: two at each kink found by scanning the breakpoints,
    then the generic points, each step cut by scanning the windows it
    reaches; the window a stencil reaches and the slope jumps within reach
    found by scanning, s'' summed kink by kink."""
    lo, hi = path.domain
    skeleton = path.skeleton
    breakpoints = skeleton.breakpoints.tolist()
    jumps = np.diff(skeleton.slopes, axis=0)
    windows = list(zip(path.lo.tolist(), path.hi.tolist(), path.h.tolist()))
    gap = min(b - a for a, b in zip(breakpoints, breakpoints[1:]))
    placed = []
    kinks = _reference_kinks(skeleton)
    for j, kappa in enumerate(kinks):
        holding = [(w, h) for w, (w_lo, w_hi, h) in enumerate(windows) if w_lo <= kappa <= w_hi]
        if holding:
            w, h = holding[0]
            where = f"kink {j} in window {w}"
            placed += [(kappa - 0.3 * h, h / 16.0, where), (kappa + 0.3 * h, h / 16.0, where)]
        else:
            step = gap / 8.0
            where = f"kink {j} off the windows"
            placed += [(kappa - 0.3 * step, step, where), (kappa + 0.3 * step, step, where)]
    for i, t in enumerate(np.geomspace(lo * 1.05, hi * 0.995, trials).tolist()):
        delta = min(1e-3 * t, (t - lo) / 4.0, (hi - t) / 4.0)
        reached = [h for w_lo, w_hi, h in windows if t + delta > w_lo and t - delta < w_hi]
        if reached:
            delta = min(delta, min(reached) / 16.0)
        placed.append((t, delta, f"generic point {i}"))
    worst, worst_t, worst_where = -math.inf, None, None
    for t, delta, where in placed:
        points = np.array([t, t + delta, t - delta])
        values = eval_smooth_many(path, points)
        derivs = eval_smooth_derivative_many(path, points)
        reached = [h for w_lo, w_hi, h in windows if w_lo <= t + delta and t - delta <= w_hi]
        assert len(reached) <= 1
        big_h = reached[0] if reached else 0.0
        reach = delta + big_h
        spread = 0.0
        second = np.zeros(path.dimension)
        for kappa, jump in zip(breakpoints[1:-1], jumps):
            if t - reach < kappa < t + reach:
                spread += float(np.linalg.norm(jump))
            if t - big_h < kappa < t + big_h:
                second += jump * (bump_kernel((t - kappa) / big_h) / big_h)
        inv_h = 1.0 / big_h if big_h else 0.0
        taylor = delta * delta / 6.0 * spread * inv_h * inv_h
        rounding = verifier.FD_ROUNDING * verifier.EPS / delta
        slope = derivs[0]
        fd1 = (values[1] - values[2]) / (2.0 * delta)
        bound1 = taylor * KERNEL_D1_MAX + verifier.FD_FLOOR1 * max(1.0, np.linalg.norm(slope))
        bound1 += rounding * float(np.max(row_norms(values)))
        fd2 = (derivs[1] - derivs[2]) / (2.0 * delta)
        bound2 = taylor * KERNEL_D2_MAX * inv_h
        bound2 += verifier.FD_FLOOR2 * max(1.0, np.linalg.norm(fd2))
        bound2 += rounding * float(np.max(row_norms(derivs)))
        ratio = max(
            float(np.linalg.norm(fd1 - slope)) / bound1,
            float(np.linalg.norm(fd2 - second)) / bound2,
        )
        if ratio > worst:
            worst, worst_t, worst_where = ratio, t, where
    details = (
        f"worst error / Taylor bound over {len(placed)} trials, 2 at each of {len(kinks)} kinks "
        f"and {trials} generic: {worst_where}"
    )
    return worst, worst_t, details


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
    assert kink_times(path.skeleton).tolist() == _reference_kinks(path.skeleton)
    grid = dense_grid(path, per_decade=256, per_window=16)
    assert _triple(envelope_check(path, grid)) == _reference_envelope(path, grid)
    assert _triple(coincidence_check(path)) == _reference_coincidence(path)
    assert _triple(smoothness_check(path)) == _reference_smoothness(path)
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
    """envelope, coincidence, interpolation, smoothness and product each make
    one path evaluation, one kink sum giving values and slopes together;
    coincidence adds its skeleton reference.  envelope and product run
    together share one evaluation of their grid."""
    calls = []

    def counted(name, evaluate):
        def wrapper(*args):
            calls.append(name)
            return evaluate(*args)

        return wrapper

    evaluate = counted("_eval_batch", mollifier._eval_batch)
    monkeypatch.setattr(mollifier, "_eval_batch", evaluate)
    monkeypatch.setattr(verifier, "_eval_batch", evaluate)
    monkeypatch.setattr(
        mollifier, "_mollified_rows", counted("_mollified_rows", mollifier._mollified_rows)
    )
    monkeypatch.setattr(
        verifier, "eval_affine_many", counted("eval_affine_many", verifier.eval_affine_many)
    )
    path, anchors = diagonal_build.path, diagonal_build.anchors
    one = ["_eval_batch", "_mollified_rows"]
    expected = {
        "lemma1": one,
        "envelope": one,
        "coincidence": [*one, "eval_affine_many"],
        "interpolation": one,
        "smoothness": one,
        "product": one,
        "envelope,product": one,
        "lemma1,envelope,product": one,
    }
    for name, names in expected.items():
        calls.clear()
        run_checks(path, anchors, name.split(","), restricted=True)
        assert calls == names, name


@pytest.mark.parametrize("restricted", [False, True])
def test_envelope_and_product_together_report_as_alone(builds, restricted):
    """The shared evaluation gives each report the bytes of its own call."""
    for case in [("diagonal", 2, 20), ("spiral", 3, 40), ("halfspace", 3, 40)]:
        path, anchors = builds[case].path, builds[case].anchors
        grid = dense_grid(path, per_decade=256, per_window=16)
        alone = [envelope_check(path, grid), product_bound_scan(path, anchors, grid, restricted)]
        together = run_checks(path, anchors, ("product", "envelope"), restricted=restricted,
                              per_decade=256, per_window=16)
        assert reports_to_json(together) == reports_to_json(alone[::-1]), case


def test_suite_names_frozen():
    assert SUITE_NAMES == (
        "lemma1",
        "interpolation",
        "envelope",
        "product",
        "smoothness",
        "coincidence",
    )


def test_run_checks_sizes_the_product_grid_before_any_check(diagonal_build, monkeypatch):
    """A grid above its cap stops the run before the first check, whichever
    of the three checks that read it is chosen."""

    def no_check(*args, **kwargs):
        raise AssertionError("ran a check")

    monkeypatch.setattr(verifier, "interpolation_check", no_check)
    for grid_check in ("lemma1", "envelope", "product"):
        with pytest.raises(InputError, match="above the cap"):
            run_checks(
                diagonal_build.path, diagonal_build.anchors, ("interpolation", grid_check),
                per_window=10**12,
            )


def test_a_negative_seed_is_rejected_before_any_check(diagonal_build, monkeypatch):
    """run_checks still refuses a negative seed, which no check reads,
    before its first check."""
    path, anchors = diagonal_build.path, diagonal_build.anchors
    message = "seed must be a non-negative integer, got -1"

    def no_check(*args, **kwargs):
        raise AssertionError("ran a check")

    for name in ("interpolation_check", "_lemma1_report", "smoothness_check"):
        monkeypatch.setattr(verifier, name, no_check)
    with pytest.raises(InputError, match=message):
        run_checks(path, anchors, ("interpolation", "lemma1", "smoothness"), seed=-1)


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
@pytest.mark.parametrize("dimension", FIXTURE_DIMENSIONS)
def test_smoothness_passes_deep_windows_and_still_finds_kinks(kind, dimension):
    """At K = 1,001 the deepest windows are ~3e-7 wide and their steps ~1.3e-9,
    where rounding of a central difference is ~eps ||s'|| / delta and
    outgrows the relative floors: it must not read as a kink.  The report is
    a ratio to the Taylor bound, not a sentinel.  The windowless control keeps
    its kinks and fails as at K = 41."""
    build = build_path(witness_fixture(kind, dimension), k_max=1000)
    report = smoothness_check(build.path)
    assert report.passed, report.measured
    assert 0.0 < report.measured <= 1.0
    control = smoothness_check(_windowless(build), trials=40)
    assert not control.passed
    assert control.measured >= 1.0

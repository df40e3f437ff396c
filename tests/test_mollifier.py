"""Bump kernel, windows, and the mollified path evaluator."""

import json
import math

import numpy as np
import pytest
from conftest import FIXTURE_CASES, RANDOM_BUILD_CASES, random_build
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pathcert import mollifier
from pathcert.errors import InputError
from pathcert.mollifier import (
    _TABLE_EDGES,
    E1_AT_ONE,
    KERNEL_C,
    KERNEL_D1_MAX,
    KERNEL_D2_MAX,
    SmoothPath,
    _eval_batch,
    _mollified_rows,
    _second_derivative_rows,
    build_smooth_path,
    bump_kernel,
    dense_grid,
    eval_smooth,
    eval_smooth_derivative,
    eval_smooth_derivative_many,
    eval_smooth_many,
    kernel_mass_moment,
    log_grid,
    row_norms,
    sample_path,
    sorted_unique,
)
import two_path_eval
from kernel_table_ref import pair_table_eval, rebuild_kernel_table
from quadrature import integrate_panels
from update_golden import MANIFEST, build_info
from pathcert.skeleton import eval_affine_derivative_many, eval_affine_many
from random_paths import affine_path_from_slopes

# normalization constant computed once with an unrelated adaptive
# quadrature implementation, frozen here as a regression pin
INDEPENDENT_C = 2.2522836210435813


# ---- kernel -------------------------------------------------------------


def test_kernel_constant_matches_independent_value():
    assert abs(KERNEL_C / INDEPENDENT_C - 1.0) <= 1e-12


def test_kernel_unit_mass():
    mass = integrate_panels(bump_kernel, [-1.0, -0.5, 0.0, 0.5, 1.0], order=32, tol=1e-15)
    assert abs(float(mass) - 1.0) <= 1e-12


def test_kernel_peak_value():
    assert float(bump_kernel(0.0)) == KERNEL_C * math.exp(-1.0)


def test_kernel_support():
    assert float(bump_kernel(1.0)) == 0.0
    assert float(bump_kernel(-1.0)) == 0.0
    assert float(bump_kernel(1.7)) == 0.0
    assert float(bump_kernel(0.999)) > 0.0


def test_kernel_symmetric():
    # IEEE negation is exact, so evenness holds bit for bit
    u = np.linspace(-0.999, 0.999, 401)
    assert np.array_equal(bump_kernel(u), bump_kernel(-u))


def test_kernel_scalar_matches_array():
    u = np.array([-0.7, -0.2, 0.0, 0.4, 0.97])
    arr = bump_kernel(u)
    for i, v in enumerate(u):
        assert float(bump_kernel(float(v))) == float(arr[i])


def test_stored_constants_match_closed_forms():
    """KERNEL_C is 1 / (exp(-1/2) (K1(1/2) - K0(1/2))), the inverse integral
    of exp(-1 / (1 - u^2)) over (-1, 1), to 1 ulp, and E1_AT_ONE is E1(1);
    scipy's exp1(1) sits 8 ulp above the correctly rounded value."""
    from scipy.special import exp1, k0, k1

    closed = 1.0 / (math.exp(-0.5) * (k1(0.5) - k0(0.5)))
    assert abs(KERNEL_C - closed) <= np.spacing(closed)
    assert abs(E1_AT_ONE - exp1(1.0)) <= 1e-15


def test_kernel_derivative_maxima_are_rounded_up():
    """KERNEL_D1_MAX and KERNEL_D2_MAX lie above max |rho'| and max |rho''|
    on a grid of 2e6 points, by under 1e-7 relative.  The closed forms taken
    there agree with central differences of bump_kernel."""
    u = np.linspace(-1.0, 1.0, 2_000_001)[1:-1]
    q = 1.0 - u * u
    rho = bump_kernel(u)
    d1 = rho * (-2.0 * u / q**2)
    d2 = rho * (4.0 * u * u / q**4 - 2.0 / q**2 - 8.0 * u * u / q**3)
    for bound, top in ((KERNEL_D1_MAX, np.max(np.abs(d1))), (KERNEL_D2_MAX, np.max(np.abs(d2)))):
        assert top < bound < top * (1.0 + 1e-7)
    e = 1e-4
    probe = slice(1000, None, 20_000)
    v = u[probe]
    fd1 = (bump_kernel(v + e) - bump_kernel(v - e)) / (2.0 * e)
    fd2 = (bump_kernel(v + e) - 2.0 * rho[probe] + bump_kernel(v - e)) / (e * e)
    assert np.max(np.abs(fd1 - d1[probe])) <= 1e-6 * KERNEL_D1_MAX
    assert np.max(np.abs(fd2 - d2[probe])) <= 1e-5 * KERNEL_D2_MAX


@pytest.mark.parametrize(
    "name, value",
    [("KERNEL_C", KERNEL_C * (1.0 + 1e-13)), ("E1_AT_ONE", E1_AT_ONE + 1e-13)],
    ids=["KERNEL_C", "E1_AT_ONE"],
)
def test_kernel_table_check_catches_a_drift(monkeypatch, name, value):
    """A constant off by 1e-13 fails the closed-form check of the table."""
    monkeypatch.setattr(mollifier, name, value)
    mollifier._kernel_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="closed forms"):
            mollifier._kernel_table()
    finally:
        mollifier._kernel_table.cache_clear()


def test_stored_kernel_table_is_its_chebinterpolate_rebuild():
    """The stored coefficients are, bit for bit, what chebinterpolate and
    chebint make from the kernel on the build the golden hashes were made on."""
    made_on = json.loads(MANIFEST.read_text(encoding="utf-8"))["build"]
    if made_on != build_info():
        pytest.skip(f"the kernel table was made on {made_on}, not on this build {build_info()}")
    stored = mollifier._kernel_table()
    rebuilt = rebuild_kernel_table()
    assert stored.shape == rebuilt.shape == (20, 6, 2)
    assert np.array_equal(stored.view(np.int64), rebuilt.view(np.int64))


def _table_arguments() -> np.ndarray:
    """x in every panel and on both sides, each panel edge and its mirror one
    ulp either side, +-0.0, |x| >= 1 and 10^5 random x."""
    rng = np.random.default_rng(20)
    inner = np.linspace(_TABLE_EDGES[:-1], _TABLE_EDGES[1:], 9, axis=1).ravel()
    edges = np.concatenate([
        _TABLE_EDGES, np.nextafter(_TABLE_EDGES, -2.0), np.nextafter(_TABLE_EDGES, 2.0)
    ])
    outside = [-1.0, 1.0, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), -1.5, 2.0, 1e6]
    x = np.concatenate([inner, edges, outside, rng.uniform(-1.1, 1.1, 100_000)])
    return np.concatenate([x, -x, [0.0, -0.0]])


def test_columnwise_table_eval_equals_the_paired_recurrence():
    """K and M evaluated apart have the bits of the recurrence on (n, 2) arrays."""
    coefs = mollifier._kernel_table()
    x = _table_arguments()
    for got, want in zip(mollifier._table_eval(coefs, x), pair_table_eval(coefs, x)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---- mass and moment tables ---------------------------------------------


def test_mass_moment_endpoints():
    mass, moment = kernel_mass_moment([-1.0, 0.0, 1.0])
    assert abs(float(mass[0])) <= 1e-15
    assert abs(float(mass[1]) - 0.5) <= 1e-15
    assert abs(float(mass[2]) - 1.0) <= 1e-15
    assert abs(float(moment[0])) <= 1e-16
    assert abs(float(moment[2])) <= 1e-16


def test_mass_moment_far_outside_the_support():
    """Huge and infinite x give K = 0 or 1 and M = 0 with no overflow, which
    the tests' warning filter would raise."""
    xs = np.array([2e15, -2e15, 3e15, 1e300, -1e300, np.inf, -np.inf])
    mass, moment = kernel_mass_moment(xs)
    assert np.array_equal(mass, (xs > 0.0).astype(float))
    assert np.array_equal(moment, np.zeros(xs.size))


def test_mass_monotone():
    mass, _ = kernel_mass_moment(np.linspace(-1.0, 1.0, 401))
    assert np.all(np.diff(mass) >= 0.0)


def test_mass_moment_match_quadrature():
    xs = np.linspace(-0.995, 0.995, 41)
    mass, moment = kernel_mass_moment(xs)
    for x, k, m in zip(xs, mass, moment):
        ref_k = integrate_panels(bump_kernel, [-1.0, x], order=32, tol=1e-16)
        ref_m = integrate_panels(lambda u: u * bump_kernel(u), [-1.0, x], order=32, tol=1e-16)
        assert abs(k - float(ref_k)) <= 1e-15
        assert abs(m - float(ref_m)) <= 1e-15


# ---- windows ------------------------------------------------------------


def test_windows_follow_anchor_times(diagonal_build):
    """Window edges and half-widths come straight from the anchor times:
    window i, counted up in t, belongs to the pair of anchors K - i - 1 and
    K - i.  The read-only arrays are the one store of the windows."""
    times = diagonal_build.anchors.times.tolist()
    path = diagonal_build.path
    assert path.lo.size == path.hi.size == path.h.size == len(times) - 1
    for i, (lo, hi, h) in enumerate(zip(path.lo.tolist(), path.hi.tolist(), path.h.tolist())):
        upper, lower = times[len(times) - i - 2], times[len(times) - i - 1]
        assert lo == 0.5 * (lower[0] + upper[2])
        assert hi == 0.5 * (upper[1] + upper[0])
        assert h == 0.25 * (upper[0] - upper[1])
    assert not (path.lo.flags.writeable or path.hi.flags.writeable or path.h.flags.writeable)


def test_windows_ascending_disjoint_with_interior_breakpoints(diagonal_build):
    path = diagonal_build.path
    breakpoints = path.skeleton.breakpoints[1:-1]
    assert np.all(path.lo[1:] > path.hi[:-1])
    for lo, hi, h in zip(path.lo, path.hi, path.h):
        inside = breakpoints[(breakpoints > lo) & (breakpoints < hi)]
        # both breakpoints of the pair, where its slope may change, sit in
        # the window, clear of the edges by at least the averaging half-width
        assert inside.size == 2
        assert float(inside.min()) >= lo + h - 1e-15
        assert float(inside.max()) <= hi - h + 1e-15


def test_every_kink_is_windowed(diagonal_build):
    """No slope change, not even one of rounding size, survives outside the
    mollification windows."""
    path = diagonal_build.path
    skeleton = path.skeleton
    changed = np.any(np.diff(skeleton.slopes, axis=0) != 0.0, axis=1)
    assert np.all(path.window_indices(skeleton.breakpoints[1:-1][changed]) >= 0)


def test_window_index_boundaries(diagonal_build):
    path = diagonal_build.path
    assert path.window_index(path.lo[0]) == 0
    assert path.window_index(path.hi[0]) == 0
    gap = 0.5 * (path.hi[0] + path.lo[1])
    assert path.window_index(gap) == -1
    # the batched lookup agrees with the scalar one at every edge, one ulp
    # to either side of it, and in the gaps between windows
    edges = np.stack([path.lo, path.hi], axis=1).ravel()
    gaps = 0.5 * (edges[1:-1:2] + edges[2::2])
    ts = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), gaps]
    )
    batched = path.window_indices(ts)
    assert np.array_equal(batched, [path.window_index(float(t)) for t in ts])
    k = np.arange(path.lo.size)
    none = np.full(k.size, -1)
    expected = np.concatenate(
        [
            np.stack([k, k], axis=1).ravel(),  # lo, hi
            np.stack([none, k], axis=1).ravel(),  # lo - ulp, hi - ulp
            np.stack([k, none], axis=1).ravel(),  # lo + ulp, hi + ulp
            np.full(gaps.size, -1),
        ]
    )
    assert np.array_equal(batched, expected)


def _with_window(path, i, lo=None, hi=None, h=None):
    """The path's window arrays with window i's entries replaced."""
    arrays = [path.lo.copy(), path.hi.copy(), path.h.copy()]
    for arr, value in zip(arrays, (lo, hi, h)):
        if value is not None:
            arr[i] = value
    return arrays


def test_window_validation(diagonal_build):
    """A window with lo above hi, a zero half-width, a slope change within h
    of an edge, or a widened range past the skeleton's is named by its index."""
    path = diagonal_build.path
    skeleton = path.skeleton
    lo, hi, h = path.lo[3], path.hi[3], path.h[3]
    with pytest.raises(InputError, match="window 3: lo must stay below hi"):
        SmoothPath(skeleton, *_with_window(path, 3, lo=hi, hi=lo))
    with pytest.raises(InputError, match="window 3: half-width must be positive"):
        SmoothPath(skeleton, *_with_window(path, 3, h=0.0))
    with pytest.raises(InputError, match="window 3 has a slope change too close to its edge"):
        SmoothPath(skeleton, *_with_window(path, 3, h=3.0 * h))
    with pytest.raises(InputError, match="window 0 widened by h leaves the skeleton range"):
        SmoothPath(skeleton, *_with_window(path, 0, lo=skeleton.domain[0] + 0.5 * path.h[0]))


def test_smooth_path_rejects_disordered_windows(diagonal_build):
    path = diagonal_build.path
    with pytest.raises(InputError, match="ascending and disjoint"):
        SmoothPath(path.skeleton, path.lo[::-1], path.hi[::-1], path.h[::-1])


def test_windows_view_lists_the_window_edges(diagonal_build):
    """``windows`` is a view of (lo, hi) records built on access."""
    path = diagonal_build.path
    assert [(w.lo, w.hi) for w in path.windows] == list(zip(path.lo.tolist(), path.hi.tolist()))


# ---- evaluation ---------------------------------------------------------


def _mixed_parameters(path, count=160, seed=0):
    """Parameters spread over gaps and windows alike."""
    rng = np.random.default_rng(seed)
    lo, hi = path.domain
    ts = np.exp(rng.uniform(math.log(lo * 1.01), math.log(hi), size=count))
    extra = [rng.uniform(lo, hi) for lo, hi in zip(path.lo[:20], path.hi[:20])]
    return np.clip(np.concatenate([ts, extra]), np.nextafter(lo, hi), hi)


def test_eval_scalar_matches_batch(diagonal_build):
    path = diagonal_build.path
    ts = _mixed_parameters(path)
    values = eval_smooth_many(path, ts)
    derivs = eval_smooth_derivative_many(path, ts)
    for i in (0, 17, 63, 101, len(ts) - 1):
        t = float(ts[i])
        assert np.array_equal(eval_smooth(path, t), values[i])
        assert np.array_equal(eval_smooth_derivative(path, t), derivs[i])


def test_eval_off_window_equals_skeleton(diagonal_build):
    path = diagonal_build.path
    ts = _mixed_parameters(path)
    off = np.array([t for t in ts if path.window_index(float(t)) < 0])
    assert off.size > 30
    assert np.array_equal(eval_smooth_many(path, off), eval_affine_many(path.skeleton, off))
    assert np.array_equal(
        eval_smooth_derivative_many(path, off),
        eval_affine_derivative_many(path.skeleton, off),
    )


def test_eval_in_window_matches_direct_convolution(diagonal_build):
    """The fast evaluator agrees with a direct kernel average.

    The reference integral is assembled here from the generic panel
    quadrature with explicit splits at the breakpoint preimages.
    """
    path = diagonal_build.path
    breakpoints = path.skeleton.breakpoints[1:-1]
    rng = np.random.default_rng(42)
    for i in (0, 7, -1):
        for t in rng.uniform(path.lo[i], path.hi[i], size=3):
            h = float(path.h[i])
            edges = {-1.0, -0.5, 0.0, 0.5, 1.0}
            for kappa in breakpoints:
                u = (t - float(kappa)) / h
                if -1.0 < u < 1.0:
                    edges.add(u)
            edges = sorted(edges)

            def value_integrand(u):
                return bump_kernel(u)[:, None] * eval_affine_many(path.skeleton, t - h * u)

            def deriv_integrand(u):
                return bump_kernel(u)[:, None] * eval_affine_derivative_many(
                    path.skeleton, t - h * u
                )

            direct_v = integrate_panels(value_integrand, edges, order=32, tol=5e-14)
            direct_d = integrate_panels(deriv_integrand, edges, order=32, tol=5e-14)
            assert np.allclose(eval_smooth(path, float(t)), direct_v, atol=1e-11)
            assert np.allclose(eval_smooth_derivative(path, float(t)), direct_d, atol=1e-9)


@st.composite
def _crowded_averages(draw):
    """A random continuous piecewise-affine path in dimensions 1-5 with
    2-9 segments, plus parameters and a half-width wide enough that most
    averaging ranges hold several slope changes."""
    dimension = draw(st.integers(1, 5))
    segments = draw(st.integers(2, 9))
    unit = st.floats(0.0, 1.0)
    gaps = np.array(draw(st.lists(unit, min_size=segments, max_size=segments)))
    breakpoints = np.concatenate([[0.0], np.cumsum(0.05 + 0.35 * gaps)])
    breakpoints += 2.0 * draw(unit) - 1.0
    entries = st.lists(st.floats(-9.0, 9.0), min_size=dimension, max_size=dimension)
    slopes = np.array(draw(st.lists(entries, min_size=segments, max_size=segments)))
    path = affine_path_from_slopes(breakpoints, draw(entries), slopes)
    lo, hi = path.domain
    h = (0.2 + 0.6 * draw(unit)) * 0.5 * (hi - lo)
    ts = lo + h + (hi - lo - 2.0 * h) * np.array(draw(st.lists(unit, min_size=1, max_size=6)))
    return path, np.clip(ts, lo + h, hi - h), h


@settings(max_examples=80)
@given(case=_crowded_averages())
def test_kernel_average_matches_direct_convolution_with_many_kinks(case):
    """Kink sums agree with a direct kernel average of the path to 1e-12."""
    path, ts, h = case
    hs = np.full(ts.size, h)
    values, derivs = _mollified_rows(path, ts, hs)
    lo, hi = path.domain
    for i, t in enumerate(ts):
        preimages = (t - path.breakpoints[1:-1]) / h
        edges = np.unique(np.concatenate([[-1.0, 1.0], preimages[np.abs(preimages) < 1.0]]))

        def points(u):
            return np.clip(t - h * u, np.nextafter(lo, hi), hi)

        direct_v = integrate_panels(
            lambda u: bump_kernel(u)[:, None] * eval_affine_many(path, points(u)),
            edges, order=32, tol=1e-15,
        )
        direct_d = integrate_panels(
            lambda u: bump_kernel(u)[:, None] * eval_affine_derivative_many(path, points(u)),
            edges, order=32, tol=1e-15,
        )
        for got, ref in ((values[i], direct_v), (derivs[i], direct_d)):
            tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(got - ref))) <= tol
        # a row is the same alone as in its batch
        one = ts[i : i + 1]
        value, deriv = _mollified_rows(path, one, hs[:1])
        assert np.array_equal(value[0], values[i])
        assert np.array_equal(deriv[0], derivs[i])


def _anchor_time_rows(path):
    """Indices of the interior breakpoints that lie off every window."""
    bp = path.skeleton.breakpoints
    return 1 + np.flatnonzero(path.window_indices(bp[1:-1]) < 0)


@pytest.mark.parametrize("case", FIXTURE_CASES, ids=lambda c: f"{c[0]}-d{c[1]}-k{c[2]}")
def test_anchor_times_join_two_equal_skeleton_rows(builds, case):
    """Off the windows the only breakpoints are the anchor times t_{k,0},
    and the skeleton rows on either side of each carry the same slope and
    offset bits, so the h = 0 rows may take either piece."""
    build = builds[case]
    path = build.path
    at = _anchor_time_rows(path)
    assert np.array_equal(path.skeleton.breakpoints[at], build.anchors.times[-2:0:-1, 0])
    for name in ("slopes", "offsets"):
        rows = getattr(path.skeleton, name)
        assert np.array_equal(rows[at - 1].view(np.int64), rows[at].view(np.int64))


@settings(max_examples=30)
@given(case=RANDOM_BUILD_CASES)
def test_one_kink_sum_keeps_the_bits_of_the_two_path_evaluator(case):
    """Values and slopes from the one kink sum equal the two-path
    evaluator's (skeleton off the windows, kink sum inside, one pass
    each) bit for bit, in dimensions 1-5, on the dense grid, every
    breakpoint, every window edge and the domain's upper end."""
    build = random_build(case)
    event(f"dimension {build.anchors.dimension}")
    path = build.path
    ts = np.concatenate(
        [dense_grid(path), path.skeleton.breakpoints[1:], path.lo, path.hi, [path.domain[1]]]
    )
    assert _anchor_time_rows(path).size == build.anchors.times.shape[0] - 2
    for got, derivative in zip(_eval_batch(path, ts), (False, True)):
        want = two_path_eval.eval_batch(path, ts, derivative)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_derivative_consistent_with_finite_differences(diagonal_build):
    path = diagonal_build.path
    lo, hi, h = path.lo[3], path.hi[3], path.h[3]
    for t in (0.5 * (lo + hi), lo + 0.1 * (hi - lo)):
        delta = h * 1e-4
        fd = (eval_smooth(path, t + delta) - eval_smooth(path, t - delta)) / (2 * delta)
        deriv = eval_smooth_derivative(path, t)
        assert np.allclose(fd, deriv, atol=1e-6)


@pytest.mark.parametrize("case", FIXTURE_CASES)
def test_second_derivative_rows_match_a_central_difference_of_the_slope(builds, case):
    """The kink sum of delta rho(x) / h is the derivative of the slope rows.
    At x = -0.95..0.95 around every breakpoint inside a window, and at seven
    points across every window, it agrees with a central difference of
    ``_mollified_rows`` at the same h, step 1e-3 h, to 1e-5 of
    sum ||delta|| max|rho''| / h plus the rounding of the difference.  With
    no breakpoint within h of t the row is exactly zero, and at h = 0 every
    row is."""
    path = builds[case].path
    skeleton = path.skeleton
    inner = skeleton.breakpoints[1:-1]
    jumps = np.diff(skeleton.slopes, axis=0)
    win = path.window_indices(inner)
    offsets = np.linspace(-0.95, 0.95, 7)
    fractions = np.linspace(0.05, 0.95, 7)
    ts = np.concatenate([
        (inner[win >= 0, None] + path.h[win[win >= 0], None] * offsets).ravel(),
        (path.lo[:, None] + (path.hi - path.lo)[:, None] * fractions).ravel(),
    ])
    hs = np.concatenate([
        np.repeat(path.h[win[win >= 0]], offsets.size),
        np.repeat(path.h, fractions.size),
    ])
    second = _second_derivative_rows(skeleton, ts, hs)
    step = 1e-3 * hs
    up = _mollified_rows(skeleton, ts + step, hs)[1]
    down = _mollified_rows(skeleton, ts - step, hs)[1]
    fd = (up - down) / (2.0 * step[:, None])
    rounding = 8.0 * np.finfo(float).eps * np.maximum(row_norms(up), row_norms(down)) / step
    reached = 0
    for i, (t, h) in enumerate(zip(ts, hs)):
        near = (inner > t - h) & (inner < t + h)
        if not near.any():
            assert not np.any(second[i]), (i, t)
            continue
        reached += 1
        scale = float(np.sum(row_norms(jumps[near]))) * KERNEL_D2_MAX / h
        assert np.linalg.norm(fd[i] - second[i]) <= 1e-5 * scale + rounding[i], (i, t)
    assert reached >= 7 * np.count_nonzero(win >= 0) > 0
    flat = _second_derivative_rows(skeleton, ts, np.zeros_like(ts))
    assert flat.shape == second.shape
    assert not np.any(flat)


def test_eval_outside_domain_raises(diagonal_build):
    path = diagonal_build.path
    lo, hi = path.domain
    with pytest.raises(InputError):
        eval_smooth(path, lo - 1e-6)
    with pytest.raises(InputError):
        eval_smooth(path, hi + 1e-6)
    # the open lower end itself is excluded
    with pytest.raises(InputError):
        eval_smooth(path, lo)


def test_norm_stays_below_parameter(diagonal_build):
    """With radial derivative data the path norm never exceeds t."""
    path = diagonal_build.path
    ts = dense_grid(path, per_decade=512, per_window=16)
    norms = np.linalg.norm(eval_smooth_many(path, ts), axis=1)
    assert float(np.max(norms - ts)) <= 1e-12


def test_rerun_is_bitwise_identical(diagonal_build):
    path = diagonal_build.path
    ts = _mixed_parameters(path, seed=9)
    assert np.array_equal(eval_smooth_many(path, ts), eval_smooth_many(path, ts))


# ---- grids and samples --------------------------------------------------


def test_log_grid_properties():
    grid = log_grid(0.01, 1.0, 64)
    assert grid.shape == (64,)
    assert float(grid[0]) >= 0.01
    assert float(grid[-1]) <= 1.0
    assert np.all(np.diff(grid) > 0)


def test_dense_grid_covers_windows(diagonal_build):
    path = diagonal_build.path
    grid = dense_grid(path, per_decade=256, per_window=8)
    lo, hi = path.domain
    assert float(grid[0]) > lo
    assert float(grid[-1]) <= hi
    assert np.all(np.diff(grid) > 0)
    for lo, hi in zip(path.lo, path.hi):
        assert int(np.count_nonzero((grid >= lo) & (grid <= hi))) >= 8


@pytest.mark.parametrize(
    "densities", [(10**12, 1), (1, 10**12), (2048, None)], ids=["per-decade", "per-window", "cap"]
)
def test_dense_grid_checks_its_row_count_before_allocating(
    diagonal_build, monkeypatch, densities
):
    """A grid above MAX_GRID_ROWS is an InputError raised before any array is
    built; a grid of exactly MAX_GRID_ROWS rows is allowed."""
    path = diagonal_build.path
    per_decade, per_window = densities
    lo, hi = path.domain
    count = max(math.ceil(per_decade * math.log10(hi / np.nextafter(lo, hi))), 2)
    if per_window is None:  # fill the cap with window points
        per_window = (mollifier.MAX_GRID_ROWS - count) // path.lo.size
        assert count + per_window * path.lo.size <= mollifier.MAX_GRID_ROWS
        assert count + (per_window + 1) * path.lo.size > mollifier.MAX_GRID_ROWS
        assert dense_grid(path, per_decade, per_window).size <= mollifier.MAX_GRID_ROWS
        with pytest.raises(InputError, match="above the cap"):
            dense_grid(path, per_decade, per_window + 1)
        return

    def no_array(*args, **kwargs):
        raise AssertionError("allocated a grid")

    for name in ("geomspace", "linspace"):
        monkeypatch.setattr(mollifier.np, name, no_array)
    rows = count + per_window * path.lo.size
    with pytest.raises(InputError, match=f"holds {rows} rows, above the cap"):
        dense_grid(path, per_decade, per_window)


@settings(max_examples=40)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0, 3.0]),
            st.floats(allow_nan=False),
        ),
        max_size=40,
    )
)
def test_sorted_unique_equals_np_unique(values):
    """The sort-and-dedupe helper returns np.unique's array, bit for bit
    (a 0.0 and a -0.0 may come out as either, as they compare equal)."""
    arr = np.array(values, dtype=float)
    got, want = sorted_unique(arr), np.unique(arr)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert np.array_equal(got[nonzero].view(np.int64), want[nonzero].view(np.int64))


def test_sorted_unique_on_dense_grid_parts(builds):
    """On the parts dense_grid joins, the helper matches np.unique bit for bit."""
    for build in builds.values():
        path = build.path
        lo, hi = path.domain
        parts = [np.geomspace(np.nextafter(lo, hi), hi, 4096)]
        parts += [np.linspace(a, b, 32) for a, b in zip(path.lo, path.hi)]
        parts.append(parts[0][::7].copy())
        joined = np.concatenate(parts)
        assert np.array_equal(
            sorted_unique(joined).view(np.int64), np.unique(joined).view(np.int64)
        )


def test_sample_path_rows(diagonal_build):
    path = diagonal_build.path
    ts = _mixed_parameters(path, count=12, seed=4)[:12]
    d = path.dimension
    table = sample_path(path, ts)
    assert table.shape == (12, 2 * d + 4)
    assert table.dtype == np.float64
    assert np.array_equal(table[:, 0], ts)
    for row in table:
        s, ds = row[1 : 1 + d], row[1 + d : 1 + 2 * d]
        norm_s, norm_ds, product = row[-3:]
        assert norm_s == float(np.linalg.norm(s))
        assert norm_ds == float(np.linalg.norm(ds))
        assert product == norm_s * norm_ds


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
def test_row_norms_equal_vector_norm(dimension):
    rng = np.random.default_rng(dimension)
    v = rng.normal(size=(2000, dimension)) * np.exp(rng.uniform(-5.0, 5.0, size=(2000, 1)))
    norms = row_norms(v)
    for i in range(v.shape[0]):
        assert norms[i] == np.linalg.norm(v[i])


def test_build_smooth_path_without_precomputed_skeleton(diagonal_build):
    anchors = diagonal_build.anchors
    fresh = build_smooth_path(anchors)
    ts = _mixed_parameters(diagonal_build.path, count=40, seed=2)
    assert np.array_equal(
        eval_smooth_many(fresh, ts), eval_smooth_many(diagonal_build.path, ts)
    )

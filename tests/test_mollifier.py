"""Bump kernel, windows, and the mollified path evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcert.errors import InputError
from pathcert.mollifier import (
    MollificationWindow,
    SmoothPath,
    _mollified_rows,
    build_smooth_path,
    dense_grid,
    eval_smooth,
    eval_smooth_derivative,
    eval_smooth_derivative_many,
    eval_smooth_many,
    kernel_mass_moment,
    log_grid,
    make_kernel,
    row_norms,
    sample_path,
    sorted_unique,
    windows_for_anchors,
)
from pathcert.quadrature import integrate_panels
from pathcert.skeleton import (
    affine_path_from_slopes,
    eval_affine_derivative_many,
    eval_affine_many,
    kink_times,
)

# normalization constant computed once with an unrelated adaptive
# quadrature implementation, frozen here as a regression pin
INDEPENDENT_C = 2.2522836210435813


# ---- kernel -------------------------------------------------------------


def test_kernel_constant_matches_independent_value():
    kernel = make_kernel()
    assert abs(kernel.c / INDEPENDENT_C - 1.0) <= 1e-12


def test_kernel_unit_mass():
    kernel = make_kernel()
    mass = integrate_panels(kernel, [-1.0, -0.5, 0.0, 0.5, 1.0], order=32, tol=1e-15)
    assert abs(float(mass) - 1.0) <= 1e-12


def test_kernel_peak_value():
    kernel = make_kernel()
    assert float(kernel(0.0)) == kernel.c * math.exp(-1.0)


def test_kernel_support():
    kernel = make_kernel()
    assert float(kernel(1.0)) == 0.0
    assert float(kernel(-1.0)) == 0.0
    assert float(kernel(1.7)) == 0.0
    assert float(kernel(0.999)) > 0.0


def test_kernel_symmetric():
    # IEEE negation is exact, so evenness holds bit for bit
    kernel = make_kernel()
    u = np.linspace(-0.999, 0.999, 401)
    assert np.array_equal(kernel(u), kernel(-u))


def test_kernel_scalar_matches_array():
    kernel = make_kernel()
    u = np.array([-0.7, -0.2, 0.0, 0.4, 0.97])
    arr = kernel(u)
    for i, v in enumerate(u):
        assert float(kernel(float(v))) == float(arr[i])


def test_kernel_cached():
    assert make_kernel() is make_kernel()


# ---- mass and moment tables ---------------------------------------------


def test_mass_moment_endpoints():
    mass, moment = kernel_mass_moment([-1.0, 0.0, 1.0])
    assert abs(float(mass[0])) <= 1e-15
    assert abs(float(mass[1]) - 0.5) <= 1e-15
    assert abs(float(mass[2]) - 1.0) <= 1e-15
    assert abs(float(moment[0])) <= 1e-16
    assert abs(float(moment[2])) <= 1e-16


def test_mass_monotone():
    mass, _ = kernel_mass_moment(np.linspace(-1.0, 1.0, 401))
    assert np.all(np.diff(mass) >= 0.0)


def test_mass_moment_match_quadrature():
    kernel = make_kernel()
    xs = np.linspace(-0.995, 0.995, 41)
    mass, moment = kernel_mass_moment(xs)
    for x, k, m in zip(xs, mass, moment):
        ref_k = integrate_panels(kernel, [-1.0, x], order=32, tol=1e-16)
        ref_m = integrate_panels(lambda u: u * kernel(u), [-1.0, x], order=32, tol=1e-16)
        assert abs(k - float(ref_k)) <= 1e-15
        assert abs(m - float(ref_m)) <= 1e-15


# ---- windows ------------------------------------------------------------


def test_windows_follow_anchor_times(diagonal_build):
    """Window edges and half-widths come straight from the anchor times."""
    anchors = diagonal_build.anchors
    windows = windows_for_anchors(anchors)
    assert len(windows) == len(anchors.entries) - 1
    for w in windows:
        upper = anchors.entry(w.k)
        lower = anchors.entry(w.k + 1)
        assert w.lo == 0.5 * (lower.t0 + upper.t2)
        assert w.hi == 0.5 * (upper.t1 + upper.t0)
        assert w.h == 0.25 * (upper.t0 - upper.t1)


def test_windows_ascending_disjoint_with_interior_kinks(diagonal_build):
    path = diagonal_build.path
    kinks = kink_times(path.skeleton)
    prev_hi = None
    for w in sorted(path.windows, key=lambda w: w.lo):
        if prev_hi is not None:
            assert w.lo > prev_hi
        prev_hi = w.hi
        inside = kinks[(kinks > w.lo) & (kinks < w.hi)]
        # both slope changes of the pair sit in the window, clear of the
        # edges by at least the averaging half-width
        assert inside.size == 2
        assert float(inside.min()) >= w.lo + w.h - 1e-15
        assert float(inside.max()) <= w.hi - w.h + 1e-15


def test_every_kink_is_windowed(diagonal_build):
    """No slope change survives outside the mollification windows."""
    path = diagonal_build.path
    kinks = kink_times(path.skeleton)
    for t in kinks:
        assert path.window_index(float(t)) >= 0


def test_window_index_boundaries(diagonal_build):
    path = diagonal_build.path
    w = path.windows[0]
    assert path.window_index(w.lo) == 0
    assert path.window_index(w.hi) == 0
    gap = 0.5 * (w.hi + path.windows[1].lo)
    assert path.window_index(gap) == -1
    # the batched lookup agrees with the scalar one at every edge, one ulp
    # to either side of it, and in the gaps between windows
    edges = np.array([[v.lo, v.hi] for v in path.windows]).ravel()
    gaps = 0.5 * (edges[1:-1:2] + edges[2::2])
    ts = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), gaps]
    )
    batched = path.window_indices(ts)
    assert np.array_equal(batched, [path.window_index(float(t)) for t in ts])
    k = np.arange(len(path.windows))
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


def test_window_validation():
    with pytest.raises(InputError):
        MollificationWindow(k=1, lo=0.5, hi=0.4, h=0.01)
    with pytest.raises(InputError):
        MollificationWindow(k=1, lo=0.4, hi=0.5, h=0.0)


def test_smooth_path_rejects_disordered_windows(diagonal_build):
    path = diagonal_build.path
    reversed_windows = tuple(sorted(path.windows, key=lambda w: -w.lo))
    with pytest.raises(InputError):
        SmoothPath(skeleton=path.skeleton, windows=reversed_windows)


# ---- evaluation ---------------------------------------------------------


def _mixed_parameters(path, count=160, seed=0):
    """Parameters spread over gaps and windows alike."""
    rng = np.random.default_rng(seed)
    lo, hi = path.domain
    ts = np.exp(rng.uniform(math.log(lo * 1.01), math.log(hi), size=count))
    extra = [rng.uniform(w.lo, w.hi) for w in path.windows[:20]]
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
    quadrature with explicit splits at the kink preimages.
    """
    path = diagonal_build.path
    kernel = make_kernel()
    kinks = kink_times(path.skeleton)
    rng = np.random.default_rng(42)
    for w in (path.windows[0], path.windows[7], path.windows[-1]):
        for t in rng.uniform(w.lo, w.hi, size=3):
            h = w.h
            edges = {-1.0, -0.5, 0.0, 0.5, 1.0}
            for kink in kinks:
                u = (t - float(kink)) / h
                if -1.0 < u < 1.0:
                    edges.add(u)
            edges = sorted(edges)

            def value_integrand(u):
                return kernel(u)[:, None] * eval_affine_many(path.skeleton, t - h * u)

            def deriv_integrand(u):
                return kernel(u)[:, None] * eval_affine_derivative_many(
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
    kernel = make_kernel()
    hs = np.full(ts.size, h)
    values = _mollified_rows(path, ts, hs, derivative=False)
    derivs = _mollified_rows(path, ts, hs, derivative=True)
    lo, hi = path.domain
    for i, t in enumerate(ts):
        preimages = (t - path.breakpoints[1:-1]) / h
        edges = np.unique(np.concatenate([[-1.0, 1.0], preimages[np.abs(preimages) < 1.0]]))

        def points(u):
            return np.clip(t - h * u, np.nextafter(lo, hi), hi)

        direct_v = integrate_panels(
            lambda u: kernel(u)[:, None] * eval_affine_many(path, points(u)),
            edges, order=32, tol=1e-15,
        )
        direct_d = integrate_panels(
            lambda u: kernel(u)[:, None] * eval_affine_derivative_many(path, points(u)),
            edges, order=32, tol=1e-15,
        )
        for got, ref in ((values[i], direct_v), (derivs[i], direct_d)):
            tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(got - ref))) <= tol
        # a row is the same alone as in its batch
        one = ts[i : i + 1]
        assert np.array_equal(_mollified_rows(path, one, hs[:1], False)[0], values[i])
        assert np.array_equal(_mollified_rows(path, one, hs[:1], True)[0], derivs[i])


def test_derivative_consistent_with_finite_differences(diagonal_build):
    path = diagonal_build.path
    w = path.windows[3]
    for t in (0.5 * (w.lo + w.hi), w.lo + 0.1 * (w.hi - w.lo)):
        delta = w.h * 1e-4
        fd = (eval_smooth(path, t + delta) - eval_smooth(path, t - delta)) / (2 * delta)
        deriv = eval_smooth_derivative(path, t)
        assert np.allclose(fd, deriv, atol=1e-6)


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
    for w in path.windows:
        assert int(np.count_nonzero((grid >= w.lo) & (grid <= w.hi))) >= 8


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
        parts += [np.linspace(w.lo, w.hi, 32) for w in path.windows]
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

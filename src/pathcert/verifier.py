"""Numerical certification of path properties.

Every check returns a CheckReport with a single scalar ``measured`` and
a ``threshold``; the check passes exactly when measured <= threshold.
The checks:

* lemma1: the kernel average of a piecewise-affine derivative never
  exceeds the sum of the segment slope norms,
* interpolation: the smooth path reproduces anchor positions and
  derivative directions at the anchor times,
* envelope: ||s(t)|| <= 1/k for t below 1/(2k),
* product: ||s(t)|| ||s'(t)|| stays bounded (below 28 for witness data
  confined near the cone axis, with ||s'|| <= 28 k on the k-th leg),
* smoothness: finite differences of s converge to s' at second order,
  and differences of s' are Cauchy at second order,
* coincidence: the path equals its skeleton outside the windows and on
  the affine stretches around the anchor times inside them.

Each sampled check builds its whole parameter grid first, evaluates it
in one batch, and reports the first t that attains the worst value.
A row evaluates to the same bits alone or in any batch, so the report
does not depend on how the grid is split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mollifier import (
    SmoothPath,
    _mollified_rows,
    dense_grid,
    eval_smooth_derivative_many,
    eval_smooth_many,
    row_norms,
)
from .skeleton import (
    AnchorSequence,
    PiecewiseAffinePath,
    affine_path_from_slopes,
    eval_affine_many,
    kink_times,
)

LEMMA1_TOL = 1e-7
INTERPOLATION_TOL = 1e-9
ENVELOPE_TOL = 1e-10
COINCIDENCE_TOL = 1e-10
PRODUCT_BOUND = 28.0
MIN_FD_ORDER = 1.9
# JSON-safe stand-in for "any finite value passes"
FINITE_THRESHOLD = np.finfo(float).max

SUITE_NAMES = (
    "lemma1",
    "interpolation",
    "envelope",
    "product",
    "smoothness",
    "coincidence",
)


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of one check; passes exactly when measured <= threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float
    witness_t: float | None
    details: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "threshold": self.threshold,
            "witness_t": self.witness_t,
            "details": self.details,
        }


def _report(
    name: str, measured: float, threshold: float, witness_t: float, details: str
) -> CheckReport:
    return CheckReport(
        name=name,
        passed=bool(measured <= threshold),
        measured=float(measured),
        threshold=float(threshold),
        witness_t=witness_t,
        details=details,
    )


def _worst(name: str, excess, ts, threshold: float, details: str) -> CheckReport:
    """Report the largest excess, at the first t that attains it."""
    i = int(np.argmax(excess))
    return _report(name, float(excess[i]), threshold, float(ts[i]), details)


# ---- derivative bound for kernel averages ------------------------------


def slope_norm_budget(path: PiecewiseAffinePath) -> float:
    """Sum of the segment slope norms; bounds any kernel average of p'."""
    return float(np.sum(row_norms(path.slopes)))


def lemma1_bound_check(path: PiecewiseAffinePath, scale: float, t_values) -> CheckReport:
    """Check ||average of p' at scale|| <= sum of slope norms at each t.

    Every averaging range [t - scale, t + scale] must lie inside the
    path's parameter interval; the averaging raises DomainError if not.
    """
    ts = np.atleast_1d(np.asarray(t_values, dtype=float))
    if ts.size == 0:
        raise InputError("at least one t value is required")
    budget = slope_norm_budget(path)
    avg = _mollified_rows(path, ts, np.full(ts.size, float(scale)), derivative=True)
    return _worst(
        "lemma1",
        row_norms(avg) / budget,
        ts,
        1.0 + LEMMA1_TOL,
        f"max ||averaged slope|| / budget over {ts.size} points; budget {budget:.6g}",
    )


def random_affine_path(rng: np.random.Generator) -> PiecewiseAffinePath:
    """Random continuous piecewise-affine path for bound checks."""
    dimension = int(rng.integers(1, 5))
    segments = int(rng.integers(2, 9))
    gaps = rng.uniform(0.05, 0.4, size=segments)
    start = float(rng.uniform(-1.0, 1.0))
    breakpoints = start + np.concatenate([[0.0], np.cumsum(gaps)])
    slopes = rng.normal(0.0, 3.0, size=(segments, dimension))
    value = rng.normal(0.0, 1.0, size=dimension)
    return affine_path_from_slopes(breakpoints, value, slopes)


def lemma1_random_suite(
    paths: int = 100, t_per_path: int = 50, seed: int = 0
) -> CheckReport:
    """Run the derivative-average bound on a family of random paths."""
    reports = []
    for child in np.random.SeedSequence(seed).spawn(paths):
        rng = np.random.default_rng(child)
        path = random_affine_path(rng)
        lo, hi = path.domain
        scale = float(rng.uniform(0.2, 0.8)) * 0.5 * (hi - lo)
        ts = rng.uniform(lo + scale, hi - scale, size=t_per_path)
        reports.append(lemma1_bound_check(path, scale, ts))
    return _worst(
        "lemma1",
        [r.measured for r in reports],
        [r.witness_t for r in reports],
        1.0 + LEMMA1_TOL,
        f"max ratio over {paths} random paths, {t_per_path} points each, seed {seed}",
    )


# ---- interpolation ------------------------------------------------------


def interpolation_check(
    path: SmoothPath, anchors: AnchorSequence, tol: float = INTERPOLATION_TOL
) -> CheckReport:
    """Anchor positions and derivative directions are hit at the t_{k,0}.

    The last anchor sits on the open lower end of the domain and only
    shapes the final leg, so it is not evaluated.
    """
    ts = anchors.times[:-1, 0]
    value_dev = row_norms(eval_smooth_many(path, ts) - anchors.a[:-1])
    deriv_dev = row_norms(eval_smooth_derivative_many(path, ts) - anchors.b[:-1])
    given = int(np.count_nonzero(anchors.given[:-1]))
    return _worst(
        "interpolation",
        np.maximum(value_dev, deriv_dev),
        ts,
        tol,
        f"max anchor deviation over {ts.size} anchors ({given} given)",
    )


# ---- envelope -----------------------------------------------------------


def envelope_check(
    path: SmoothPath,
    k_max: int = 20,
    samples_per_level: int = 256,
    tol: float = ENVELOPE_TOL,
) -> CheckReport:
    """||s(t)|| <= 1/k + tol whenever t < 1/(2k), for k = 1..k_max."""
    lo, hi = path.domain
    start = np.nextafter(lo, hi)
    grids = []
    ceilings = []
    for k in range(1, k_max + 1):
        top = min(1.0 / (2.0 * k), hi)
        if top <= start:
            continue
        ts = np.geomspace(start, top, samples_per_level)
        ts = ts[ts < 1.0 / (2.0 * k)]
        grids.append(ts)
        ceilings.append(np.full(ts.size, 1.0 / k))
    levels = sum(1 for ts in grids if ts.size)
    if levels == 0:
        raise InputError("no envelope level fits inside the path domain")
    ts = np.concatenate(grids)
    return _worst(
        "envelope",
        row_norms(eval_smooth_many(path, ts)) - np.concatenate(ceilings),
        ts,
        tol,
        f"max ||s(t)|| - 1/k over {levels} levels, {samples_per_level} samples each",
    )


# ---- product bound ------------------------------------------------------


def product_bound_scan(
    path: SmoothPath,
    anchors: AnchorSequence,
    grid=None,
    restricted: bool = False,
) -> CheckReport:
    """Scan ||s|| ||s'|| on a grid (dense default).

    Unrestricted data only asserts finiteness.  For witness data close
    to the cone axis the product must stay below 28 and the speed below
    28 k between consecutive anchor times.
    """
    ts = dense_grid(path) if grid is None else np.asarray(grid, dtype=float)
    norm_s = row_norms(eval_smooth_many(path, ts))
    norm_ds = row_norms(eval_smooth_derivative_many(path, ts))
    product = norm_s * norm_ds
    details = f"max product over {ts.size} grid points"
    threshold = FINITE_THRESHOLD
    if restricted:
        # leg k is (t_{k+1,0}, t_{k,0}]: with the K anchor times ascending,
        # a t above j of them lies on leg K - j
        times = anchors.times[::-1, 0]
        legs = times.size - np.searchsorted(times, ts)
        on_leg = (legs >= 1) & (legs < times.size)
        top_speed = np.full(times.size, -math.inf)
        np.maximum.at(top_speed, legs[on_leg], norm_ds[on_leg])
        failing = np.flatnonzero(top_speed > PRODUCT_BOUND * np.arange(times.size))
        if failing.size:
            k = int(failing[0])
            return _report(
                "product",
                float(top_speed[k]) / k,
                PRODUCT_BOUND,
                float(ts[np.argmax(product)]),
                f"speed {top_speed[k]:.6g} exceeds 28 k on leg {k}",
            )
        details += "; per-leg speed within 28 k"
        threshold = PRODUCT_BOUND
    bad = np.flatnonzero(~np.isfinite(product))
    if bad.size:
        return _report("product", math.inf, threshold, float(ts[bad[0]]), "non-finite product")
    return _worst("product", product, ts, threshold, details)


# ---- smoothness ---------------------------------------------------------


def _order_estimate(errors: np.ndarray, floor: float) -> float:
    """Convergence order of a halving error sequence.

    Uses the better of the median pair order and the last pair order;
    the last pair is the most asymptotic and the median guards it.
    Errors at the noise floor count as converged; with no usable pair
    the sequence is treated as already exact.
    """
    orders = []
    for a, b in zip(errors[:-1], errors[1:]):
        if a > floor and b > floor:
            orders.append(math.log2(a / b))
    if not orders:
        return 10.0
    return max(_median(orders), orders[-1])


def _median(values: list[float]) -> float:
    """np.median of a short list, bit for bit, without numpy: the middle
    value, or (a + b) / 2 of the two middle values; nan if any is nan.
    np.median takes a mean, whose sum starts from 0.0 and so turns -0.0
    into 0.0; adding 0.0 does the same and changes no other value."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid] + 0.0
    return (ordered[mid - 1] + ordered[mid]) / 2.0 + 0.0


def _fd_trial_points(path: SmoothPath, rng: np.random.Generator) -> tuple[float, float]:
    """Pick a trial parameter and base step.

    Alternates between feature regions (windows, or slope changes when
    the path has no windows) and generic logarithmically placed points.
    """
    lo, hi = path.domain
    if rng.uniform() < 0.5:
        if path.lo.size:
            i = int(rng.integers(0, path.lo.size))
            t = float(rng.uniform(path.lo[i], path.hi[i]))
            # h/16 starts the halving ladder inside the asymptotic regime;
            # at h/8 the leading error term has not taken over yet and the
            # observed order can sit a few percent under 2
            return t, float(path.h[i]) / 16.0
        kinks = kink_times(path.skeleton)
        if kinks.size:
            gaps = np.diff(path.skeleton.breakpoints)
            gap = float(gaps.min())
            k = float(kinks[int(rng.integers(0, kinks.size))])
            delta0 = gap / 8.0
            t = k + float(rng.uniform(-0.25, 0.25)) * delta0
            return t, delta0
    t = float(np.exp(rng.uniform(math.log(lo * 1.05), math.log(hi * 0.995))))
    delta0 = 1e-3 * t
    delta0 = min(delta0, (t - lo) / 4.0, (hi - t) / 4.0)
    # when the stencil reaches into a blend window the ladder must start
    # well under that window's averaging radius, or the first steps sit
    # outside the asymptotic regime
    reached = (t + delta0 > path.lo) & (t - delta0 < path.hi)
    if np.any(reached):
        delta0 = min(delta0, float(np.min(path.h[reached])) / 16.0)
    return t, delta0


def smoothness_check(
    path: SmoothPath,
    trials: int = 100,
    seed: int = 0,
    min_order: float = MIN_FD_ORDER,
) -> CheckReport:
    """Finite-difference convergence proxy for C^2 regularity.

    Stage one: central differences of s converge to the evaluated s' at
    order >= min_order (or sit at rounding level).  Stage two guards
    against kink-level breakdown: central differences of s' must be
    Cauchy at order >= 1.  The second stage gets the lower bar because
    its leading Taylor coefficient crosses zero inside blend windows,
    where the halving sequence legitimately dips below second order,
    while a genuine kink drives it to order -1.  measured is the worst
    shortfall across both stages; the check passes at measured <= 0.
    """
    if trials < 1:
        raise InputError("smoothness needs at least one trial")
    rng = np.random.default_rng(seed)
    t, delta0 = np.array([_fd_trial_points(path, rng) for _ in range(trials)]).T
    deltas = delta0[:, None] / np.power(2.0, np.arange(5))
    points = np.concatenate([t[:, None], t[:, None] + deltas, t[:, None] - deltas], axis=1)
    values = eval_smooth_many(path, points.ravel()).reshape(trials, 11, -1)
    derivs = eval_smooth_derivative_many(path, points.ravel()).reshape(trials, 11, -1)
    ref = derivs[:, 0]
    fd1 = (values[:, 1:6] - values[:, 6:11]) / (2.0 * deltas[:, :, None])
    err1 = row_norms(fd1 - ref[:, None, :])
    floor1 = 1e-8 * np.maximum(1.0, row_norms(ref))
    fd2 = (derivs[:, 1:6] - derivs[:, 6:11]) / (2.0 * deltas[:, :, None])
    diff2 = row_norms(np.diff(fd2, axis=1))
    floor2 = 1e-7 * np.maximum(1.0, np.max(row_norms(fd2), axis=1))
    shortfall = [
        max(min_order - _order_estimate(e1, f1), 1.0 - _order_estimate(e2, f2))
        for e1, f1, e2, f2 in zip(err1, floor1, diff2, floor2)
    ]
    return _worst(
        "smoothness",
        shortfall,
        t,
        0.0,
        f"worst order shortfall over {trials} trials, seed {seed}",
    )


# ---- coincidence with the skeleton -------------------------------------


def coincidence_check(
    path: SmoothPath,
    points_per_region: int = 64,
    tol: float = COINCIDENCE_TOL,
) -> CheckReport:
    """s equals the skeleton off the windows and near the anchor times.

    Inside each window the kernel average still sees a purely affine
    stretch around the bottom anchor time of the pair, so the path must
    match the skeleton there as well.
    """
    lo, hi = path.domain
    # the gaps between the windows, and before the first and after the last
    gap_lo = np.concatenate([[lo], path.hi])
    gap_hi = np.concatenate([path.lo, [hi]])
    gaps = gap_lo < gap_hi
    # in-window stretches whose averaging range sees no slope change:
    # the pair's kinks sit at hi - 6h and hi - 2h, so the bands below,
    # between, and above them (margin h) are still exactly affine
    w_lo, w_hi, h = path.lo, path.hi, path.h
    kink_lo = w_hi - 6.0 * h
    kink_hi = w_hi - 2.0 * h
    band_lo = np.stack([w_lo, kink_lo + h, kink_hi + h], axis=1).ravel()
    band_hi = np.stack([kink_lo - h, kink_hi - h, w_hi], axis=1).ravel()
    start = np.maximum(np.concatenate([gap_lo[gaps], band_lo]), np.nextafter(lo, hi))
    stop = np.minimum(np.concatenate([gap_hi[gaps], band_hi]), hi)
    keep = start < stop
    ts = np.linspace(start[keep], stop[keep], points_per_region, axis=1).ravel()
    return _worst(
        "coincidence",
        row_norms(eval_smooth_many(path, ts) - eval_affine_many(path.skeleton, ts)),
        ts,
        tol,
        f"max |s - skeleton| over {ts.size} points in {start.size} regions",
    )


# ---- suite runner -------------------------------------------------------


def run_checks(
    path: SmoothPath,
    anchors: AnchorSequence,
    names=None,
    *,
    seed: int = 0,
    restricted: bool = False,
    per_decade: int = 2048,
    per_window: int = 64,
    trials: int = 100,
) -> list[CheckReport]:
    """Run the named checks (all by default) against a built path."""
    chosen = tuple(names) if names else SUITE_NAMES
    unknown = [n for n in chosen if n not in SUITE_NAMES]
    if unknown:
        raise InputError(f"unknown checks: {', '.join(unknown)}")
    reports = []
    for name in chosen:
        if name == "lemma1":
            reports.append(lemma1_random_suite(seed=seed))
        elif name == "interpolation":
            reports.append(interpolation_check(path, anchors))
        elif name == "envelope":
            k_cap = min(20, len(anchors.times) - 1)
            reports.append(envelope_check(path, k_max=k_cap))
        elif name == "product":
            grid = dense_grid(path, per_decade=per_decade, per_window=per_window)
            reports.append(product_bound_scan(path, anchors, grid, restricted))
        elif name == "smoothness":
            reports.append(smoothness_check(path, trials=trials, seed=seed))
        elif name == "coincidence":
            reports.append(coincidence_check(path))
    return reports

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mollifier import (
    BumpKernel,
    SmoothPath,
    _mollified_rows,
    dense_grid,
    eval_smooth_derivative_many,
    eval_smooth_many,
    make_kernel,
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
    name: str, measured: float, threshold: float, witness_t: float | None, details: str
) -> CheckReport:
    return CheckReport(
        name=name,
        passed=bool(measured <= threshold),
        measured=float(measured),
        threshold=float(threshold),
        witness_t=witness_t,
        details=details,
    )


# ---- derivative bound for kernel averages ------------------------------


def slope_norm_budget(path: PiecewiseAffinePath) -> float:
    """Sum of the segment slope norms; bounds any kernel average of p'."""
    return float(np.sum(row_norms(path.slopes)))


def lemma1_bound_check(
    path: PiecewiseAffinePath,
    kernel: BumpKernel,
    scale: float,
    t_values,
) -> CheckReport:
    """Check ||average of p' at scale|| <= sum of slope norms at each t.

    Every averaging range [t - scale, t + scale] must lie inside the
    path's parameter interval.
    """
    lo, hi = path.domain
    ts = np.atleast_1d(np.asarray(t_values, dtype=float))
    if ts.size == 0:
        raise InputError("at least one t value is required")
    if float(ts.min()) - scale < lo - 1e-12 or float(ts.max()) + scale > hi + 1e-12:
        raise InputError(
            "averaging support must stay inside the path's parameter interval"
        )
    budget = slope_norm_budget(path)
    avg = _mollified_rows(path, kernel, ts, np.full(ts.size, float(scale)), derivative=True)
    ratios = row_norms(avg) / budget
    i = int(np.argmax(ratios))
    return _report(
        "lemma1",
        float(ratios[i]),
        1.0 + LEMMA1_TOL,
        float(ts[i]),
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
    kernel: BumpKernel | None = None,
    paths: int = 100,
    t_per_path: int = 50,
    seed: int = 0,
) -> CheckReport:
    """Run the derivative-average bound on a family of random paths."""
    if kernel is None:
        kernel = make_kernel()
    children = np.random.SeedSequence(seed).spawn(paths)
    worst = -math.inf
    worst_t = None
    for child in children:
        rng = np.random.default_rng(child)
        path = random_affine_path(rng)
        lo, hi = path.domain
        scale = float(rng.uniform(0.2, 0.8)) * 0.5 * (hi - lo)
        ts = rng.uniform(lo + scale, hi - scale, size=t_per_path)
        report = lemma1_bound_check(path, kernel, scale, ts)
        if report.measured > worst:
            worst = report.measured
            worst_t = report.witness_t
    return _report(
        "lemma1",
        worst,
        1.0 + LEMMA1_TOL,
        worst_t,
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
    worst = -math.inf
    worst_t = None
    checked = 0
    for entry in anchors.entries[:-1]:
        value = eval_smooth_many(path, [entry.t0])[0]
        deriv = eval_smooth_derivative_many(path, [entry.t0])[0]
        dev = max(
            float(np.linalg.norm(value - entry.a)),
            float(np.linalg.norm(deriv - entry.b.coords)),
        )
        checked += 1
        if dev > worst:
            worst = dev
            worst_t = entry.t0
    given = sum(1 for e in anchors.entries[:-1] if e.source == "given")
    return _report(
        "interpolation",
        worst,
        tol,
        worst_t,
        f"max anchor deviation over {checked} anchors ({given} given)",
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
    worst = -math.inf
    worst_t = None
    levels = 0
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
        norms = row_norms(eval_smooth_many(path, ts))
        excess = norms - 1.0 / k
        i = int(np.argmax(excess))
        if float(excess[i]) > worst:
            worst = float(excess[i])
            worst_t = float(ts[i])
    if levels == 0:
        raise InputError("no envelope level fits inside the path domain")
    return _report(
        "envelope",
        worst,
        tol,
        worst_t,
        f"max ||s(t)|| - 1/k over {levels} levels, {samples_per_level} samples each",
    )


# ---- product bound ------------------------------------------------------


def product_profile(path: SmoothPath, grid=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, ||s||, ||s'||) along the grid (dense default)."""
    ts = dense_grid(path) if grid is None else np.asarray(grid, dtype=float)
    norm_s = row_norms(eval_smooth_many(path, ts))
    norm_ds = row_norms(eval_smooth_derivative_many(path, ts))
    return ts, norm_s, norm_ds


def product_bound_scan(
    path: SmoothPath,
    anchors: AnchorSequence,
    grid=None,
    restricted: bool = False,
) -> CheckReport:
    """Scan ||s|| ||s'|| on a grid.

    Unrestricted data only asserts finiteness.  For witness data close
    to the cone axis the product must stay below 28 and the speed below
    28 k between consecutive anchor times.
    """
    ts, norm_s, norm_ds = product_profile(path, grid)
    product = norm_s * norm_ds
    i = int(np.argmax(product))
    worst = float(product[i])
    worst_t = float(ts[i])
    details = [f"max product over {ts.size} grid points"]
    threshold = PRODUCT_BOUND if restricted else FINITE_THRESHOLD
    if restricted:
        entries = anchors.entries
        speed_fail = None
        for k in range(1, len(entries)):
            upper = entries[k - 1].t0
            lower = entries[k].t0
            mask = (ts > lower) & (ts <= upper)
            if not np.any(mask):
                continue
            top_speed = float(np.max(norm_ds[mask]))
            if top_speed > PRODUCT_BOUND * k:
                speed_fail = (k, top_speed)
                break
        if speed_fail is not None:
            k, top_speed = speed_fail
            return _report(
                "product",
                top_speed / k,
                PRODUCT_BOUND,
                worst_t,
                f"speed {top_speed:.6g} exceeds 28 k on leg {k}",
            )
        details.append("per-leg speed within 28 k")
    if not np.all(np.isfinite(product)):
        return _report(
            "product",
            math.inf,
            threshold,
            float(ts[np.nonzero(~np.isfinite(product))[0][0]]),
            "non-finite product",
        )
    return _report("product", worst, threshold, worst_t, "; ".join(details))


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
    return float(max(np.median(orders), orders[-1]))


def _fd_trial_points(path: SmoothPath, rng: np.random.Generator) -> tuple[float, float]:
    """Pick a trial parameter and base step.

    Alternates between feature regions (windows, or slope changes when
    the path has no windows) and generic logarithmically placed points.
    """
    lo, hi = path.domain
    if rng.uniform() < 0.5:
        if path.windows:
            w = path.windows[int(rng.integers(0, len(path.windows)))]
            t = float(rng.uniform(w.lo, w.hi))
            # h/16 starts the halving ladder inside the asymptotic regime;
            # at h/8 the leading error term has not taken over yet and the
            # observed order can sit a few percent under 2
            return t, w.h / 16.0
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
    for w in path.windows:
        if t + delta0 > w.lo and t - delta0 < w.hi:
            delta0 = min(delta0, w.h / 16.0)
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
    worst = -math.inf
    worst_t = None
    for _ in range(trials):
        t, delta0 = _fd_trial_points(path, rng)
        deltas = delta0 / np.power(2.0, np.arange(5))
        points = np.concatenate([[t], t + deltas, t - deltas])
        values = eval_smooth_many(path, points)
        derivs = eval_smooth_derivative_many(path, points)
        ref = derivs[0]
        fd1 = (values[1:6] - values[6:11]) / (2.0 * deltas[:, None])
        err1 = row_norms(fd1 - ref[None, :])
        floor1 = 1e-8 * max(1.0, float(np.linalg.norm(ref)))
        order1 = _order_estimate(err1, floor1)
        fd2 = (derivs[1:6] - derivs[6:11]) / (2.0 * deltas[:, None])
        diff2 = row_norms(np.diff(fd2, axis=0))
        floor2 = 1e-7 * max(1.0, float(np.max(row_norms(fd2))))
        order2 = _order_estimate(diff2, floor2)
        shortfall = max(min_order - order1, 1.0 - order2)
        if shortfall > worst:
            worst = shortfall
            worst_t = t
    return _report(
        "smoothness",
        worst,
        0.0,
        worst_t,
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
    regions: list[tuple[float, float]] = []
    cursor = lo
    for w in path.windows:
        if w.lo > cursor:
            regions.append((cursor, w.lo))
        cursor = w.hi
    if cursor < hi:
        regions.append((cursor, hi))
    # in-window stretches whose averaging range sees no slope change:
    # the pair's kinks sit at hi - 6h and hi - 2h, so the bands below,
    # between, and above them (margin h) are still exactly affine
    for w in path.windows:
        kink_lo = w.hi - 6.0 * w.h
        kink_hi = w.hi - 2.0 * w.h
        regions.append((w.lo, kink_lo - w.h))
        regions.append((kink_lo + w.h, kink_hi - w.h))
        regions.append((kink_hi + w.h, w.hi))
    worst = -math.inf
    worst_t = None
    total = 0
    eps = np.nextafter(lo, hi)
    for a, b in regions:
        a = max(a, eps)
        b = min(b, hi)
        if not (a < b):
            continue
        ts = np.linspace(a, b, points_per_region)
        dev = row_norms(eval_smooth_many(path, ts) - eval_affine_many(path.skeleton, ts))
        total += ts.size
        i = int(np.argmax(dev))
        if float(dev[i]) > worst:
            worst = float(dev[i])
            worst_t = float(ts[i])
    return _report(
        "coincidence",
        worst,
        tol,
        worst_t,
        f"max |s - skeleton| over {total} points in {len(regions)} regions",
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
            reports.append(lemma1_random_suite(path.kernel, seed=seed))
        elif name == "interpolation":
            reports.append(interpolation_check(path, anchors))
        elif name == "envelope":
            k_cap = min(20, len(anchors.entries) - 1)
            reports.append(envelope_check(path, k_max=k_cap))
        elif name == "product":
            grid = dense_grid(path, per_decade=per_decade, per_window=per_window)
            reports.append(product_bound_scan(path, anchors, grid, restricted))
        elif name == "smoothness":
            reports.append(smoothness_check(path, trials=trials, seed=seed))
        elif name == "coincidence":
            reports.append(coincidence_check(path))
    return reports

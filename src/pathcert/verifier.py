"""Numerical certification of path properties.

Every check returns a CheckReport with a single scalar ``measured`` and
a ``threshold``; the check passes exactly when measured <= threshold.
The checks:

* lemma1: ||s'(t)|| never exceeds the largest slope norm among the
  skeleton pieces that meet t's averaging range [t - h, t + h], since
  s'(t) is a kernel average of those slopes,
* interpolation: the smooth path reproduces anchor positions and
  derivative directions at the anchor times,
* envelope: ||s(t)|| <= 1/k for t below 1/(2k), at every level the grid reaches,
* product: ||s(t)|| ||s'(t)|| stays bounded (below 28 for witness data
  confined near the cone axis, with ||s'|| <= 28 k on the k-th leg),
* smoothness: a central difference of s and one of s' at each trial
  point stay within Taylor's bound of the exact s' and s'', plus a floor
  that includes the rounding of a central difference; the trials sit at
  every kink of the skeleton and at log-spaced generic points,
* coincidence: the path equals its skeleton wherever its averaging range
  meets no kink; a kink is a slope jump above rounding (``kink_times``),
  the one list smoothness and coincidence read.

Each sampled check builds its whole parameter grid first, evaluates it
once, taking the values and slopes it needs from the same pass, and
reports the first t that attains the worst value; ``run_checks``
evaluates the grid that lemma1, the envelope and the product check share
once, for any of them.
A row evaluates to the same bits alone or in any batch, so the report
does not depend on how the grid is split.  Each check's tolerance and
sample count are module constants (LEMMA1_TOL, INTERPOLATION_TOL,
ENVELOPE_TOL, COINCIDENCE_TOL, FD_FLOOR1, ...), not arguments; what a
caller varies is the shared grid and the number of generic smoothness
points.  No check draws a random number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .geometry import require_seed, row_norms
from .mollifier import DEFAULT_PER_DECADE, DEFAULT_PER_WINDOW, KERNEL_D1_MAX, KERNEL_D2_MAX
from .mollifier import SmoothPath, _eval_batch, _kinks, _second_derivative_rows
from .mollifier import dense_grid, eval_smooth_many
from .skeleton import AnchorSequence, eval_affine_many, kink_times

LEMMA1_TOL = 1e-7
INTERPOLATION_TOL = 1e-9
ENVELOPE_TOL = 1e-10
COINCIDENCE_TOL = 1e-10
PRODUCT_BOUND = 28.0
# smoothness floors, relative to max(1, ||s'||) and max(1, ||difference of s'||)
FD_FLOOR1 = 1e-8
FD_FLOOR2 = 1e-7
COINCIDENCE_POINTS_PER_REGION = 64
DEFAULT_TRIALS = 32
EPS = float(np.finfo(float).eps)
# Rounding term of the smoothness floors, in units of eps max||row|| / delta,
# where a row is a computed s (stage one) or s' (stage two) on a trial's stencil.
# A row meets at most one slope change (a window's kinks sit 4h apart and a row
# averages over 2h), so it carries the rounding of an affine piece, of one kink
# term and of t +- delta: about 2 eps max||row|| while no term outgrows the rows.
# A central difference divides two rows' difference by 2 delta, so rounding
# reaches 2 eps max||row|| / delta.  The floor is 32 times that, so rounding
# never reads as a breach of the Taylor bound.
FD_ROUNDING = 64.0
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
        return asdict(self)


def _report(
    name: str, measured: float, threshold: float, witness_t: float, details: str
) -> CheckReport:
    measured, threshold = float(measured), float(threshold)
    return CheckReport(name, measured <= threshold, measured, threshold, witness_t, details)


def _worst(name: str, excess, ts, threshold: float, details: str) -> CheckReport:
    """Report the largest excess, at the first t that attains it."""
    i = int(np.argmax(excess))
    return _report(name, float(excess[i]), threshold, float(ts[i]), details)


# ---- averaged-slope bound ----------------------------------------------


def _lemma1_report(path: SmoothPath, ts: np.ndarray, norm_ds: np.ndarray) -> CheckReport:
    """The averaged-slope judgement of ||s'|| at the grid ``ts``.

    At t in a window of half-width h (h = 0 off the windows), s'(t) is a
    kernel average of the skeleton's slopes on [t - h, t + h], so ||s'(t)||
    is at most the largest slope norm among the pieces that meet that range.
    The ratio of the two is at most 1 up to rounding; where that largest
    norm is 0, a zero ||s'|| counts as ratio 0.  measured is the worst
    ratio, and details name its window.
    """
    windows = path.window_indices(ts)
    h = np.append(path.h, 0.0)[windows]
    bp = path.skeleton.breakpoints
    # piece i is [bp[i], bp[i + 1]]; pieces first .. stop - 1 meet [t - h, t + h],
    # and reduceat takes each range's largest slope norm
    first = np.maximum(np.searchsorted(bp, ts - h, side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(bp, ts + h, side="right"), bp.size - 1)
    norms = np.append(row_norms(path.skeleton.slopes), 0.0)
    reach = np.maximum.reduceat(norms, np.stack([first, stop], 1).ravel())[::2]
    zero = np.where(norm_ds == 0.0, 0.0, math.inf)
    ratio = np.divide(norm_ds, reach, out=zero, where=reach > 0.0)
    i = int(np.argmax(ratio))
    where = f"window {windows[i]}" if windows[i] >= 0 else "off the windows"
    return _report(
        "lemma1",
        ratio[i],
        1.0 + LEMMA1_TOL,
        float(ts[i]),
        f"max ||s'(t)|| / largest slope norm on [t - h, t + h] over {ts.size} grid points: "
        f"{where}",
    )


# ---- interpolation ------------------------------------------------------


def interpolation_check(path: SmoothPath, anchors: AnchorSequence) -> CheckReport:
    """Anchor positions and derivative directions are hit at the t_{k,0}.

    The last anchor sits on the open lower end of the domain and only
    shapes the final leg, so it is not evaluated.
    """
    ts = anchors.times[:-1, 0]
    values, slopes = _eval_batch(path, ts)
    value_dev = row_norms(values - anchors.a[:-1])
    deriv_dev = row_norms(slopes - anchors.b[:-1])
    given = int(np.count_nonzero(anchors.given[:-1]))
    return _worst(
        "interpolation",
        np.maximum(value_dev, deriv_dev),
        ts,
        INTERPOLATION_TOL,
        f"max anchor deviation over {ts.size} anchors ({given} given)",
    )


# ---- envelope -----------------------------------------------------------


def envelope_level(ts: np.ndarray) -> np.ndarray:
    """k(t) for 0 < t <= 1/2: the largest k with t < 1/(2k) as computed in
    floating point, as floats (0 at t = 1/2).  0.5 / t may round across a
    level edge, so its floor moves one level where that comparison says so."""
    k = np.floor(0.5 / ts)
    k -= ts >= 1.0 / (2.0 * k)
    return k + (ts < 1.0 / (2.0 * (k + 1.0)))


def _envelope_report(ts: np.ndarray, norm_s: np.ndarray) -> CheckReport:
    """The envelope judgement of ||s|| at the grid ``ts``."""
    low = ts < 0.5
    ts = ts[low]
    k = envelope_level(ts)
    return _worst(
        "envelope",
        norm_s[low] - 1.0 / k,
        ts,
        ENVELOPE_TOL,
        f"max ||s(t)|| - 1/k(t) over {ts.size} grid points, levels {k.min():.0f} to {k.max():.0f}",
    )


def envelope_check(path: SmoothPath, grid) -> CheckReport:
    """||s(t)|| <= 1/k + ENVELOPE_TOL at each grid t, for every k with
    t < 1/(2k): the tightest is 1/k(t) (``envelope_level``).  Grid points
    at t >= 1/2 belong to no level and are skipped."""
    ts = np.asarray(grid, dtype=float)
    return _envelope_report(ts, row_norms(eval_smooth_many(path, ts)))


# ---- product bound ------------------------------------------------------


def product_bound_scan(
    path: SmoothPath, anchors: AnchorSequence, grid, restricted: bool = False
) -> CheckReport:
    """Scan ||s|| ||s'|| on a grid.

    Unrestricted data only asserts finiteness.  For witness data close
    to the cone axis the product must stay below 28 and the speed below
    28 k between consecutive anchor times.
    """
    ts = np.asarray(grid, dtype=float)
    return _product_report(ts, *map(row_norms, _eval_batch(path, ts)), anchors, restricted)


def _product_report(
    ts: np.ndarray, norm_s: np.ndarray, norm_ds: np.ndarray, anchors: AnchorSequence,
    restricted: bool,
) -> CheckReport:
    """The product judgement of ||s|| and ||s'|| at the grid ``ts``."""
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


def smoothness_check(path: SmoothPath, trials: int = DEFAULT_TRIALS) -> CheckReport:
    """Central differences of s and s' against Taylor's bound, at fixed trials.

    Each kink of the skeleton gets two trials.  In a window of half-width h
    they sit at +-0.3 h with step h/16, so the stencil stays in the window
    and a window left unmollified fails there; off the windows the stencil
    straddles the kink with step min gap / 8.  ``trials`` log-spaced generic
    points follow, with step 1e-3 t, at most a quarter of the way to either
    end and h/16 of any window the stencil reaches.

    Per trial, at t and step d, the central differences of s and s' miss the
    exact kink sums s'(t) and s''(t) by at most d^2/6 S KERNEL_D1_MAX / H^2
    and d^2/6 S KERNEL_D2_MAX / H^3: on the stencil the path is the kernel
    average at the half-width H of the window the stencil reaches, and S
    sums the slope jumps' norms within d + H of t.  Off the windows H = 0
    and the bound is 0, so a slope change there is a kink.  Each bound adds
    its floor, FD_FLOOR1 or FD_FLOOR2 relative to a derivative plus
    FD_ROUNDING eps max||row|| / d.  measured is the worst error / bound,
    and details name the kink or generic point that gives it; the check
    passes at measured <= 1.
    """
    if trials < 1:
        raise InputError("smoothness needs at least one trial")
    lo, hi = path.domain
    kinks = kink_times(path.skeleton)
    holder = path.window_indices(kinks)
    h = np.append(path.h, 0.0)[holder]
    step = np.where(holder >= 0, h / 16.0, float(np.min(np.diff(path.skeleton.breakpoints))) / 8.0)
    offset = 0.3 * np.where(holder >= 0, h, step)
    generic = np.geomspace(lo * 1.05, hi * 0.995, trials)
    d0 = np.minimum(1e-3 * generic, np.minimum((generic - lo) / 4.0, (hi - generic) / 4.0))
    # the stencil reaches windows first .. stop - 1; reduceat takes each range's least h
    first = np.searchsorted(path.hi, generic - d0, side="right")
    stop = np.searchsorted(path.lo, generic + d0, side="left")
    least = np.minimum.reduceat(np.append(path.h, np.inf), np.stack([first, stop], 1).ravel())
    d0 = np.minimum(d0, np.where(stop > first, least[::2], np.inf) / 16.0)
    t = np.concatenate([(kinks[:, None] + offset[:, None] * [-1.0, 1.0]).ravel(), generic])
    delta = np.concatenate([np.repeat(step, 2), d0])
    n = t.size
    points = np.stack([t, t + delta, t - delta], axis=1)
    values, derivs = (a.reshape(n, 3, -1) for a in _eval_batch(path, points.ravel()))
    # the half-width of the one window the stencil may reach: its step stays
    # under h / 16 of a window it reaches, and windows lie more than h apart
    w = np.searchsorted(path.lo, t + delta, side="right") - 1
    reached = t - delta <= np.append(path.hi, -math.inf)[w]
    big_h = np.where(reached, np.append(path.h, 0.0)[w], 0.0)
    inv_h = np.divide(1.0, big_h, out=np.zeros(n), where=reached)
    _, row, jump, _ = _kinks(path.skeleton, t, delta + big_h)
    spread = np.bincount(row, weights=row_norms(jump), minlength=n)
    taylor = delta * delta / 6.0 * spread * inv_h * inv_h
    rounding = FD_ROUNDING * EPS / delta
    slope = derivs[:, 0]
    fd1 = (values[:, 1] - values[:, 2]) / (2.0 * delta[:, None])
    bound1 = taylor * KERNEL_D1_MAX + FD_FLOOR1 * np.maximum(1.0, row_norms(slope))
    bound1 += rounding * np.max(row_norms(values), axis=1)
    fd2 = (derivs[:, 1] - derivs[:, 2]) / (2.0 * delta[:, None])
    second = _second_derivative_rows(path.skeleton, t, big_h)
    bound2 = taylor * KERNEL_D2_MAX * inv_h + FD_FLOOR2 * np.maximum(1.0, row_norms(fd2))
    bound2 += rounding * np.max(row_norms(derivs), axis=1)
    ratio = np.maximum(row_norms(fd1 - slope) / bound1, row_norms(fd2 - second) / bound2)
    i = int(np.argmax(ratio))
    if i >= 2 * kinks.size:
        where = f"generic point {i - 2 * kinks.size}"
    elif holder[i // 2] >= 0:
        where = f"kink {i // 2} in window {holder[i // 2]}"
    else:
        where = f"kink {i // 2} off the windows"
    details = f"worst error / Taylor bound over {n} trials, 2 at each of {kinks.size} kinks "
    details += f"and {trials} generic: {where}"
    return _report("smoothness", ratio[i], 1.0, float(t[i]), details)


# ---- coincidence with the skeleton -------------------------------------


def coincidence_check(path: SmoothPath) -> CheckReport:
    """s equals the skeleton wherever its averaging range meets no kink.

    A kink kappa (``kink_times``) moves s off the skeleton only on
    (kappa - h, kappa + h), with h the half-width of the window holding
    kappa (0 off the windows).  Each piece of (lo, hi] left after removing
    these intervals gets COINCIDENCE_POINTS_PER_REGION evenly spaced points.
    """
    lo, hi = path.domain
    kinks = kink_times(path.skeleton)
    h = np.append(path.h, 0.0)[path.window_indices(kinks)]
    start = np.concatenate([[np.nextafter(lo, hi)], kinks + h])
    stop = np.concatenate([kinks - h, [hi]])
    keep = start < stop
    ts = np.linspace(start[keep], stop[keep], COINCIDENCE_POINTS_PER_REGION, axis=1).ravel()
    return _worst(
        "coincidence",
        row_norms(eval_smooth_many(path, ts) - eval_affine_many(path.skeleton, ts)),
        ts,
        COINCIDENCE_TOL,
        f"max |s - skeleton| over {ts.size} points in {np.count_nonzero(keep)} regions "
        f"clear of {kinks.size} kinks",
    )


# ---- suite runner -------------------------------------------------------


def run_checks(
    path: SmoothPath,
    anchors: AnchorSequence,
    names=None,
    *,
    seed: int = 0,
    restricted: bool = False,
    per_decade: int = DEFAULT_PER_DECADE,
    per_window: int = DEFAULT_PER_WINDOW,
    trials: int = DEFAULT_TRIALS,
) -> list[CheckReport]:
    """Run the named checks (all by default) against a built path.

    ``seed`` moves no report.  It is still accepted and refused when
    negative, because perfbench's replay passes it; it goes when the
    benchmark stops passing it.
    """
    chosen = tuple(names) if names else SUITE_NAMES
    unknown = [n for n in chosen if n not in SUITE_NAMES]
    if unknown:
        raise InputError(f"unknown checks: {', '.join(unknown)}")
    require_seed(seed)
    # the grid is sized first, so that a grid above its cap stops the run before any check
    if {"lemma1", "envelope", "product"}.intersection(chosen):
        grid = dense_grid(path, per_decade=per_decade, per_window=per_window)
        # all three judge this grid, so one evaluation serves them
        norm_s, norm_ds = map(row_norms, _eval_batch(path, grid))
    reports = []
    for name in chosen:
        if name == "lemma1":
            reports.append(_lemma1_report(path, grid, norm_ds))
        elif name == "interpolation":
            reports.append(interpolation_check(path, anchors))
        elif name == "envelope":
            reports.append(_envelope_report(grid, norm_s))
        elif name == "product":
            reports.append(_product_report(grid, norm_s, norm_ds, anchors, restricted))
        elif name == "smoothness":
            reports.append(smoothness_check(path, trials=trials))
        elif name == "coincidence":
            reports.append(coincidence_check(path))
    return reports

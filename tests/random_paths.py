"""Random piecewise-affine paths: the self-test of the kink sum.

``lemma1_random_suite`` averages the slopes of LEMMA1_PATHS random
continuous piecewise-affine paths with ``mollifier._mollified_rows``, each
at its own random scale and points, and checks each average against the
sum of its path's slope norms, a bound any kernel average of the slopes
obeys.  The paths have up to eight pieces and averaging ranges up to 80%
of their domain, so a row meets several kinks: the suite sees the order of
the kink sum's adds, which the built paths, whose rows meet at most one
kink, never do.
"""

from __future__ import annotations

import numpy as np

from pathcert.errors import InputError
from pathcert.geometry import row_norms
from pathcert.mollifier import _mollified_rows
from pathcert.skeleton import PiecewiseAffinePath
from pathcert.verifier import LEMMA1_TOL, CheckReport, _worst

LEMMA1_PATHS = 100
LEMMA1_POINTS_PER_PATH = 50


def affine_path_from_slopes(breakpoints, start_value, slopes) -> PiecewiseAffinePath:
    """Continuous path from breakpoints, a start value, and segment slopes.

    Offsets are chained so each segment starts where the previous ended.
    """
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    value = np.asarray(start_value, dtype=float)
    if sl.ndim != 2 or sl.shape[0] != bp.size - 1:
        raise InputError("need one slope row per segment")
    if value.shape != (sl.shape[1],):
        raise InputError("start value dimension does not match slopes")
    offsets = np.empty_like(sl)
    for i in range(sl.shape[0]):
        offsets[i] = value - sl[i] * bp[i]
        value = value + sl[i] * (bp[i + 1] - bp[i])
    return PiecewiseAffinePath(breakpoints=bp, slopes=sl, offsets=offsets)


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
    _, avg = _mollified_rows(path, ts, np.full(ts.size, float(scale)))
    budget = slope_norm_budget(path)
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


def lemma1_path_reports(seed: int) -> list[CheckReport]:
    """The bound check on each of LEMMA1_PATHS random paths, in draw order;
    path k, its scale and its points come from child k of ``seed``."""
    reports = []
    for child in np.random.SeedSequence(seed).spawn(LEMMA1_PATHS):
        rng = np.random.default_rng(child)
        path = random_affine_path(rng)
        lo, hi = path.domain
        scale = float(rng.uniform(0.2, 0.8)) * 0.5 * (hi - lo)
        ts = rng.uniform(lo + scale, hi - scale, size=LEMMA1_POINTS_PER_PATH)
        reports.append(lemma1_bound_check(path, scale, ts))
    return reports


def lemma1_random_suite(seed: int = 0) -> CheckReport:
    """The worst of ``lemma1_path_reports(seed)``, at the first such path."""
    reports = lemma1_path_reports(seed)
    return _worst(
        "lemma1",
        [r.measured for r in reports],
        [r.witness_t for r in reports],
        1.0 + LEMMA1_TOL,
        f"max ratio over {LEMMA1_PATHS} random paths, {LEMMA1_POINTS_PER_PATH} points each, "
        f"seed {seed}",
    )

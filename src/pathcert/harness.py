"""Scalar fields and discontinuity probing.

A scalar field f with f(0) = 0 is discontinuous at the origin when
some sequence x_k -> 0 keeps |f(x_k)| >= eps.  The probe turns such a
sequence into a smooth path s with s(t) -> 0 as t -> 0+ that passes
through the x_k, then estimates limsup |f(s(t))| as t -> 0+ along a
dense grid.  A certified verdict means the estimate stays above eps,
exhibiting the discontinuity along a single smooth bounded-speed path.

``ScalarField.values`` evaluates a field on a batch of rows with one
shape check, one origin test and one call of its array evaluator, giving
each row the bits it has alone; the probe uses it for the witness points
and for the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InputError, WitnessNotFoundError
from .expressions import parse_expression
from .generators import GeneratorSpec, generate_points
from .geometry import stack_rows
from .mollifier import dense_grid, eval_smooth_many, sorted_unique
from .pipeline import DEFAULT_K_MAX, PathBuild, build_path
from .skeleton import WitnessSequence

DEFAULT_EPSILON = 0.5
DEFAULT_MIN_WITNESSES = 8
CERTIFY_TOL = 1e-9
# below the smallest normal float a denominator has lost bits to underflow
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar field on R^n, normalized so the origin evaluates to 0.

    ``evaluator`` maps an (m, n) array of points to float64[m]; it may
    warn on overflow, as ``values`` silences numpy there."""

    name: str
    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        """The field at one point: a one-row call of ``values``."""
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def values(self, rows) -> np.ndarray:
        """The field at each row of an (m, dimension) array, as float64[m]:
        one call of the evaluator, in which overflow gives inf and an
        invalid operation nan without a warning, as Python floats do, and
        0.0 at every origin row."""
        arr = np.ascontiguousarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise InputError(
                f"field {self.name} expects rows of dimension {self.dimension}, "
                f"got shape {arr.shape}"
            )
        with np.errstate(all="ignore"):
            values = self.evaluator(arr)
        return np.where(np.any(arr, axis=1), values, 0.0)

    @classmethod
    def normalized(
        cls, name: str, dimension: int, evaluator: Callable[[np.ndarray], np.ndarray]
    ) -> "ScalarField":
        """Wrap a raw evaluator, shifting so the origin maps to 0."""
        with np.errstate(all="ignore"):
            at_zero = float(evaluator(np.zeros((1, dimension)))[0])
        if not math.isfinite(at_zero):
            at_zero = 0.0
        if at_zero == 0.0:
            return cls(name=name, dimension=dimension, evaluator=evaluator)
        return cls(
            name=name,
            dimension=dimension,
            evaluator=lambda x: evaluator(x) - at_zero,
        )


# ---- built-in fields ----------------------------------------------------
# Each works on whole arrays and gives each row the bits of evaluating it
# alone: the sums of squares run in index order, the dot products are
# np.vecdot's (the row's own x @ y), and exp is libm's, per element.


def _rescued(x: np.ndarray, tiny: np.ndarray, field) -> np.ndarray:
    """``field`` on the rows of ``x`` flagged ``tiny``, each divided by its
    largest magnitude: a denominator there lost bits, and the value
    depends only on the row's direction."""
    rows = x[tiny]
    return field(rows / np.max(np.abs(rows), axis=1)[:, None])


def _rational(x: np.ndarray) -> np.ndarray:
    """2 x1 x2 / ||x||^2, the squares summed in index order."""
    denom = x[:, 0] * x[:, 0]
    for i in range(1, x.shape[1]):
        denom = denom + x[:, i] * x[:, i]
    values = 2.0 * x[:, 0] * x[:, 1] / denom
    tiny = (denom < _TINY) & np.any(x, axis=1)
    if np.any(tiny):
        values[tiny] = _rescued(x, tiny, _rational)
    return values


def _parabola(x: np.ndarray) -> np.ndarray:
    return np.vecdot(x, x)


def _ray_bump(axis: np.ndarray, width: float) -> Callable[[np.ndarray], np.ndarray]:
    def evaluator(x: np.ndarray) -> np.ndarray:
        r2 = np.vecdot(x, x)
        dot = np.vecdot(x, axis)
        dot_sq = dot * dot
        values = np.zeros(x.shape[0])
        # exp(-tan(angle)^2 / width^2) with angle measured from the axis
        live = ~(dot <= 0.0)  # nan goes on to the exp, as in the scalar test
        bump = live & ~(dot_sq < _TINY)
        tan_sq = r2[bump] / dot_sq[bump] - 1.0
        values[bump] = np.fromiter(map(math.exp, (-tan_sq / (width * width)).tolist()), float)
        # dot^2 lost bits or underflowed: scale a tiny point up, as the bump
        # sees only its direction; a unit-sized one is at right angles to the axis
        tiny = live & (dot_sq < _TINY) & (np.max(np.abs(x), axis=1) < 1.0)
        if np.any(tiny):
            values[tiny] = _rescued(x, tiny, evaluator)
        return values

    return evaluator


_DIAG2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
_DIAG3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
_RAY_WIDTH = math.tan(math.pi / 8.0)

BUILTIN_FIELDS: dict[str, ScalarField] = {
    "rational2d": ScalarField("rational2d", 2, _rational),
    "parabola": ScalarField("parabola", 2, _parabola),
    "ray_bump2d": ScalarField("ray_bump2d", 2, _ray_bump(_DIAG2, _RAY_WIDTH)),
    "ray_bump3d": ScalarField("ray_bump3d", 3, _ray_bump(_DIAG3, _RAY_WIDTH)),
    "rational3d": ScalarField("rational3d", 3, _rational),
}


def get_builtin_field(name: str) -> ScalarField:
    try:
        return BUILTIN_FIELDS[name]
    except KeyError:
        raise InputError(
            f"unknown builtin field {name!r}; available: {', '.join(sorted(BUILTIN_FIELDS))}"
        ) from None


def field_from_expression(text: str) -> ScalarField:
    """Compile an expression into a normalized scalar field named by its text."""
    evaluator, dimension = parse_expression(text)
    return ScalarField.normalized(text, dimension, evaluator)


# ---- probing ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Outcome of a discontinuity probe along a smooth path."""

    field_name: str
    epsilon: float
    limsup_estimate: float
    tail_profile: tuple[tuple[float, float], ...]
    verdict: str
    matched_count: int
    domain: tuple[float, float]

    @property
    def certified(self) -> bool:
        return self.verdict == "discontinuous-certified"


def _check_epsilon(epsilon: float) -> None:
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise InputError(f"epsilon must be positive and finite, got {epsilon!r}")


def derive_witness(
    field: ScalarField,
    generator: GeneratorSpec | Iterable,
    epsilon: float = DEFAULT_EPSILON,
    min_count: int = DEFAULT_MIN_WITNESSES,
) -> WitnessSequence:
    """Collect generator points with |f| >= epsilon into a witness sequence.

    Raises WitnessNotFoundError when fewer than min_count points qualify.
    """
    _check_epsilon(epsilon)
    if isinstance(generator, GeneratorSpec):
        if generator.dimension != field.dimension:
            raise InputError("generator and field dimensions differ")
        points = generate_points(generator)
    else:
        points = stack_rows(generator, "point")
    magnitudes = np.abs(field.values(points))
    survivors = points[np.isfinite(magnitudes) & (magnitudes >= epsilon)]
    if len(survivors) < min_count:
        raise WitnessNotFoundError(
            f"only {len(survivors)} of {len(points)} points reach |f| >= {epsilon}"
        )
    return WitnessSequence.ingest(survivors)


def _delta_ladder(
    domain_inf: float, floor: float, extra: Iterable[float]
) -> list[float]:
    """Decreasing powers of two above the floor, with user extras merged."""
    deltas = []
    j = 1
    while 2.0 ** -j > max(floor, domain_inf):
        deltas.append(2.0 ** -j)
        j += 1
        if j > 60:
            break
    if not deltas:
        deltas.append(max(floor, domain_inf) * 2.0)
    for value in extra:
        v = float(value)
        if not math.isfinite(v):
            raise InputError(f"tail delta {v!r} must be finite")
        if v <= domain_inf:
            raise InputError(
                f"tail delta {v!r} does not exceed the domain floor {domain_inf!r}"
            )
        deltas.append(v)
    return sorted(set(deltas), reverse=True)


def certify_discontinuity(
    field: ScalarField,
    witness: WitnessSequence,
    k_max: int = DEFAULT_K_MAX,
    epsilon: float | None = None,
    *,
    seed: int = 0,
    extra_deltas: Iterable[float] = (),
) -> tuple[ProbeReport, PathBuild]:
    """Build a smooth path through the witness data and bound |f(s(t))|.

    epsilon defaults to the smallest |f| over the witness points.  The
    tail profile records sup |f(s(t))| over t < delta for a decreasing
    delta ladder; the verdict is certified when the sup at the smallest
    ladder rung still reaches epsilon (within CERTIFY_TOL).
    """
    if field.dimension != witness.dimension:
        raise InputError("field and witness dimensions differ")
    if epsilon is None:
        magnitudes = np.abs(field.values(witness.x))
        finite = magnitudes[np.isfinite(magnitudes)]
        if not finite.size:
            raise InputError("field is non-finite on every witness point")
        epsilon = float(np.min(finite))
    _check_epsilon(epsilon)
    build = build_path(witness, k_max=k_max, seed=seed)
    path = build.path

    domain_inf = path.domain[0]
    grid = dense_grid(path, per_decade=1024, per_window=32)
    anchor_times = build.anchors.times[build.anchors.given, 0]
    anchor_times = anchor_times[anchor_times > domain_inf]
    ts = sorted_unique(np.concatenate([grid, anchor_times]))
    field_values = field.values(eval_smooth_many(path, ts))
    finite_mask = np.isfinite(field_values)
    magnitudes = np.abs(field_values[finite_mask])
    finite_ts = ts[finite_mask]
    if not finite_ts.size:
        raise InputError("field is non-finite on every grid point of the path")

    # the smallest rung must keep a matched anchor (or at least one
    # sample) below it, so the deepest sup still sees witness data
    floor = float(anchor_times.min()) if anchor_times.size else domain_inf
    ladder = _delta_ladder(domain_inf, floor, extra_deltas)
    ladder = [d for d in ladder if d > float(finite_ts.min())]
    if not ladder:
        ladder = [float(finite_ts.max())]
    # finite_ts ascend: the sup over t < delta is a running maximum
    running = np.maximum.accumulate(magnitudes).tolist()
    below = np.searchsorted(finite_ts, ladder).tolist()
    profile = [(delta, running[n - 1] if n else 0.0) for delta, n in zip(ladder, below)]
    limsup_estimate = profile[-1][1]
    certified = limsup_estimate >= epsilon - CERTIFY_TOL
    report = ProbeReport(
        field_name=field.name,
        epsilon=float(epsilon),
        limsup_estimate=limsup_estimate,
        tail_profile=tuple(profile),
        verdict="discontinuous-certified" if certified else "no-violation-found",
        matched_count=len(build.anchors.matched),
        domain=path.domain,
    )
    return report, build

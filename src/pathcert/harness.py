"""Scalar fields and discontinuity probing.

A scalar field f with f(0) = 0 is discontinuous at the origin when
some sequence x_k -> 0 keeps |f(x_k)| >= eps.  The probe turns such a
sequence into a smooth path s with s(t) -> 0 as t -> 0+ that passes
through the x_k, then estimates limsup |f(s(t))| as t -> 0+ along a
dense grid.  A certified verdict means the estimate stays above eps,
exhibiting the discontinuity along a single smooth bounded-speed path.

``ScalarField.values`` evaluates a field on a batch of rows with one
shape check and one origin test, giving the bits of one call per row;
the probe uses it for the witness points and for the whole grid.
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
    """Scalar field on R^n, normalized so the origin evaluates to 0."""

    name: str
    dimension: int
    evaluator: Callable[[np.ndarray], float]

    def __call__(self, x) -> float:
        """The field at one point: a one-row call of ``values``."""
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def values(self, rows) -> np.ndarray:
        """The field at each row of an (m, dimension) array, as float64[m],
        with one shape check and one origin test for the whole batch."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise InputError(
                f"field {self.name} expects rows of dimension {self.dimension}, "
                f"got shape {arr.shape}"
            )
        evaluator = self.evaluator
        nonzero = np.any(arr, axis=1).tolist()
        return np.array(
            [float(evaluator(row)) if keep else 0.0 for row, keep in zip(arr, nonzero)]
        )

    @classmethod
    def normalized(
        cls, name: str, dimension: int, evaluator: Callable[[np.ndarray], float]
    ) -> "ScalarField":
        """Wrap a raw evaluator, shifting so the origin maps to 0."""
        at_zero = float(evaluator(np.zeros(dimension)))
        if not math.isfinite(at_zero):
            at_zero = 0.0
        if at_zero == 0.0:
            return cls(name=name, dimension=dimension, evaluator=evaluator)
        return cls(
            name=name,
            dimension=dimension,
            evaluator=lambda x: float(evaluator(x)) - at_zero,
        )


# ---- built-in fields ----------------------------------------------------


def _rational2d(x: np.ndarray) -> float:
    denom = x[0] * x[0] + x[1] * x[1]
    if denom < _TINY and np.any(x):  # the squares lost bits; only x's direction counts
        return _rational2d(x / np.max(np.abs(x)))
    return 2.0 * x[0] * x[1] / denom


def _parabola(x: np.ndarray) -> float:
    return float(x @ x)


def _rational3d(x: np.ndarray) -> float:
    denom = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    if denom < _TINY and np.any(x):  # the squares lost bits; only x's direction counts
        return _rational3d(x / np.max(np.abs(x)))
    return 2.0 * x[0] * x[1] / denom


def _ray_bump(axis: np.ndarray, width: float) -> Callable[[np.ndarray], float]:
    def evaluator(x: np.ndarray) -> float:
        r2 = float(x @ x)
        dot = float(x @ axis)
        if dot <= 0.0:
            return 0.0
        if dot * dot < _TINY:
            # dot^2 lost bits or underflowed: scale a tiny point up, as the bump
            # sees only its direction; a unit-sized one is at right angles to the axis
            top = float(np.max(np.abs(x)))
            return evaluator(x / top) if top < 1.0 else 0.0
        # exp(-tan(angle)^2 / width^2) with angle measured from the axis
        tan_sq = r2 / (dot * dot) - 1.0
        return math.exp(-tan_sq / (width * width))

    return evaluator


_DIAG2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
_DIAG3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
_RAY_WIDTH = math.tan(math.pi / 8.0)

BUILTIN_FIELDS: dict[str, ScalarField] = {
    "rational2d": ScalarField("rational2d", 2, _rational2d),
    "parabola": ScalarField("parabola", 2, _parabola),
    "ray_bump2d": ScalarField("ray_bump2d", 2, _ray_bump(_DIAG2, _RAY_WIDTH)),
    "ray_bump3d": ScalarField("ray_bump3d", 3, _ray_bump(_DIAG3, _RAY_WIDTH)),
    "rational3d": ScalarField("rational3d", 3, _rational3d),
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

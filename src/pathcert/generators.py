"""Deterministic point-sequence generators for witness data.

Each generator produces points with geometrically decreasing norms so
that consecutive dyadic shells stay populated down to the stop radius.
Directions vary by kind: 'ray' keeps a fixed direction, 'diagonal' uses
the all-ones direction, 'spiral' sweeps directions with a golden-angle
rotation (dimension 2) or a low-discrepancy sequence (higher).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import _fibonacci_sphere, _halton_sphere, vector_norm

GENERATOR_KINDS = ("ray", "diagonal", "spiral")
DEFAULT_COUNT = 200
DEFAULT_START = 0.45
DEFAULT_STOP = 0.015
# a 2-D spiral build took ~1.3 s at this count and ~78 s at 100,000 (2-vCPU VM)
MAX_COUNT = 10_000
# caps on the command line's other size arguments, each far above its
# default; a 5-D k_max 40 run at one cap peaked at 0.2-0.6 GB (2-vCPU VM)
MAX_SIZES = {"points": 500_000, "trials": 100_000, "per_decade": 1_000_000, "per_window": 50_000}


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Parameters of a deterministic point sequence."""

    kind: str
    dimension: int
    count: int = DEFAULT_COUNT
    start: float = DEFAULT_START
    stop: float = DEFAULT_STOP
    axis: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise InputError(
                f"generator kind must be one of {', '.join(GENERATOR_KINDS)}, got {self.kind!r}"
            )
        if self.dimension < 1:
            raise InputError("generator dimension must be >= 1")
        if not (2 <= self.count <= MAX_COUNT):
            raise InputError(f"generator count must lie in 2..{MAX_COUNT}, got {self.count!r}")
        if not (0.0 < self.stop < self.start <= 1.0):
            raise InputError("generator radii must satisfy 0 < stop < start <= 1")
        if self.axis is not None:
            axis = np.asarray(self.axis, dtype=float)
            if axis.shape != (self.dimension,):
                raise InputError("generator axis dimension mismatch")
            if not np.all(np.isfinite(axis)):
                raise InputError("generator axis is not finite")
            if vector_norm(axis, "generator axis") == 0.0:
                raise InputError("generator axis must be nonzero")
            object.__setattr__(self, "axis", tuple(float(v) for v in axis))


def _spiral_directions(count: int, dimension: int) -> np.ndarray:
    if dimension == 1:
        return np.ones((count, 1))
    if dimension == 2:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        angles = golden * np.arange(count)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dimension == 3:
        return _fibonacci_sphere(count)
    dirs = _halton_sphere(count + 8, dimension)
    return dirs[:count]


def generate_points(spec: GeneratorSpec) -> np.ndarray:
    """Points of the sequence as the rows of a (count, dimension) array,
    norms geometric from start down to stop."""
    radii = np.geomspace(spec.start, spec.stop, spec.count)
    if spec.kind == "diagonal":
        directions = np.ones(spec.dimension) / math.sqrt(spec.dimension)
    elif spec.kind == "ray" and spec.axis is None:
        directions = np.zeros(spec.dimension)
        directions[0] = 1.0
    elif spec.kind == "ray":
        axis = np.asarray(spec.axis, float)
        directions = axis / vector_norm(axis, "generator axis")
    else:
        directions = _spiral_directions(spec.count, spec.dimension)
    return radii[:, None] * directions

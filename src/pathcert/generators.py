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

GENERATOR_KINDS = ("ray", "diagonal", "spiral")
DEFAULT_COUNT = 200
DEFAULT_START = 0.45
DEFAULT_STOP = 0.015
# a 2-D spiral build took ~1.3 s at this count and ~78 s at 100,000 (2-vCPU VM)
MAX_COUNT = 10_000


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
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(axis))
            if norm == 0.0:
                raise InputError("generator axis must be nonzero")
            if not np.isfinite(norm):
                raise InputError("generator axis is too large or not finite")
            object.__setattr__(self, "axis", tuple(float(v) for v in axis))


def _spiral_directions(count: int, dimension: int) -> np.ndarray:
    if dimension == 1:
        return np.ones((count, 1))
    if dimension == 2:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        angles = golden * np.arange(count)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dimension == 3:
        from .geometry import _fibonacci_sphere

        return _fibonacci_sphere(count)
    from .geometry import _halton_sphere

    dirs = _halton_sphere(count + 8, dimension)
    return dirs[:count]


def generate_points(spec: GeneratorSpec) -> list[np.ndarray]:
    """Points of the sequence, norms geometric from start down to stop."""
    radii = np.geomspace(spec.start, spec.stop, spec.count)
    if spec.kind == "diagonal":
        axis = np.ones(spec.dimension) / math.sqrt(spec.dimension)
        return [r * axis for r in radii]
    if spec.kind == "ray":
        if spec.axis is None:
            axis = np.zeros(spec.dimension)
            axis[0] = 1.0
        else:
            axis = np.asarray(spec.axis, dtype=float)
            axis = axis / np.linalg.norm(axis)
        return [r * axis for r in radii]
    directions = _spiral_directions(spec.count, spec.dimension)
    return [r * directions[i] for i, r in enumerate(radii)]


def cone_confined_points(
    rng: np.random.Generator,
    dimension: int,
    axis,
    max_angle: float,
    count: int,
    start: float = DEFAULT_START,
    stop: float = DEFAULT_STOP,
) -> list[np.ndarray]:
    """Random points within max_angle of an axis, geometric norms.

    Helper for stress fixtures; not a generator kind of its own.
    """
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    if not (0.0 < max_angle < math.pi / 2.0):
        raise InputError("max_angle must lie in (0, pi/2)")
    radii = np.geomspace(start, stop, count)
    points = []
    for r in radii:
        phi = float(rng.uniform(0.0, max_angle))
        if dimension == 1:
            direction = u
        elif dimension == 2:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            c, s = math.cos(sign * phi), math.sin(sign * phi)
            direction = np.array(
                [c * u[0] - s * u[1], s * u[0] + c * u[1]]
            )
        else:
            w = rng.standard_normal(dimension)
            w -= (w @ u) * u
            norm = float(np.linalg.norm(w))
            if norm < 1e-12:
                direction = u
            else:
                w /= norm
                direction = math.cos(phi) * u + math.sin(phi) * w
        points.append(r * direction)
    return points

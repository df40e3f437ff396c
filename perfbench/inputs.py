"""Seeded witness files for the benchmark workloads.

Written with the benchmark's own numpy code, so the program under test
sees only the files.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

START = 0.45
CONE_STOP = 0.012
PROBE_STOP = 0.013
CONFINE_ANGLE = 0.95 * math.pi / 6.0
PROBE_JITTER = math.radians(5.0)
PROBE_MIN_FIELD = 0.5

# one independent stream per input file, so adding a file never shifts another
_STREAMS = {"certify-2d": 1, "build-5d": 2, "probe2d": 3, "probe3d": 4}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def confined_2d(seed: int, count: int = 240) -> tuple[np.ndarray, np.ndarray]:
    """Points within CONFINE_ANGLE of a seeded axis; returns (axis, points)."""
    rng = _rng(seed, "certify-2d")
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phi = theta + rng.uniform(-CONFINE_ANGLE, CONFINE_ANGLE, count)
    radii = np.geomspace(START, CONE_STOP, count)
    points = radii[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    return np.array([math.cos(theta), math.sin(theta)]), points


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    result = np.zeros(index.shape)
    scale = 1.0 / base
    index = index.copy()
    while np.any(index > 0):
        result += (index % base) * scale
        index //= base
        scale /= base
    return result


def _random_rotation(rng: np.random.Generator, dimension: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    return q * np.sign(np.diag(r))


def spiral_5d(seed: int, count: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """A low-discrepancy spiral in 5-D under a seeded rotation.

    Directions follow the Halton/inverse-normal construction of a
    spiral witness, so they spread over the whole sphere and the cone
    selection has to test every cover direction.  Returns (axis, points),
    where the axis is a seeded 3-D unit vector for the workload's probe.
    """
    rng = _rng(seed, "build-5d")
    index = np.arange(1, count + 1)
    inv_cdf = np.vectorize(NormalDist().inv_cdf)
    gauss = np.stack(
        [inv_cdf(_radical_inverse(index, b)) for b in (2, 3, 5, 7, 11)], axis=1
    )
    directions = gauss / np.linalg.norm(gauss, axis=1)[:, None]
    directions = directions @ _random_rotation(rng, 5).T
    radii = np.geomspace(START, CONE_STOP, count)
    axis = _unit(rng.standard_normal(3))
    return axis, radii[:, None] * directions


def diagonal_jittered(seed: int, dimension: int, count: int = 160) -> np.ndarray:
    """Points within PROBE_JITTER of the all-ones diagonal."""
    rng = _rng(seed, f"probe{dimension}d")
    diag = np.ones(dimension) / math.sqrt(dimension)
    directions = []
    for angle in rng.uniform(0.0, PROBE_JITTER, count):
        w = rng.standard_normal(dimension)
        w = _unit(w - (w @ diag) * diag)
        directions.append(math.cos(angle) * diag + math.sin(angle) * w)
    radii = np.geomspace(START, PROBE_STOP, count)
    return radii[:, None] * np.array(directions)


def rational_field(points: np.ndarray) -> np.ndarray:
    """2 x1 x2 / ||x||^2, the builtin rational2d/rational3d fields."""
    return 2.0 * points[:, 0] * points[:, 1] / np.einsum("ij,ij->i", points, points)


def axis_field_expression(axis: np.ndarray) -> str:
    """An expression for the cosine of the angle to a fixed axis."""
    terms = " + ".join(f"{float(c)!r}*x{i + 1}" for i, c in enumerate(axis))
    return f"({terms})/norm(x)"


def witness_text(points: np.ndarray) -> str:
    document = {
        "dimension": int(points.shape[1]),
        "pairs": [{"x": [float(v) for v in row]} for row in points],
    }
    return json.dumps(document, indent=1) + "\n"


def write_inputs(seed: int, directory: Path) -> dict:
    """Write every workload's witness files; returns names, paths and axes."""
    directory.mkdir(parents=True, exist_ok=True)
    _, confined = confined_2d(seed)
    axis3, spiral = spiral_5d(seed)
    files = {
        "certify-2d": confined,
        "build-5d": spiral,
        "probe2d": diagonal_jittered(seed, 2),
        "probe3d": diagonal_jittered(seed, 3),
    }
    for name in ("probe2d", "probe3d"):
        low = float(np.min(np.abs(rational_field(files[name]))))
        if low < PROBE_MIN_FIELD:
            raise ValueError(f"{name}: |f| drops to {low} below {PROBE_MIN_FIELD}")
    paths = {}
    for name, points in files.items():
        target = directory / f"{name}.witness.json"
        target.write_text(witness_text(points))
        paths[name] = target
    return {"paths": paths, "axis3": axis3}

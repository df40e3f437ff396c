"""Shared fixtures: witness data and the paths built from it.

Building a path is cheap next to evaluating one, but the suite leans on
the same handful of builds over and over, so they are built once per
session and shared.
"""

# pathcert before numpy: importing pathcert sets the BLAS thread count
# to 1 unless the environment sets one, and OpenBLAS reads that count
# once, when numpy loads it.  Imported later, the suite would run its
# matrix products on every core while the commands run on one thread.
import pathcert  # noqa: F401, I001

import math

import numpy as np
import pytest
from hypothesis import reject, settings
from hypothesis import strategies as st

from pathcert.errors import InputError, PipelineError
from pathcert.generators import DEFAULT_START, DEFAULT_STOP, GeneratorSpec, generate_points
from pathcert.pipeline import build_path
from pathcert.skeleton import WitnessSequence

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

FIXTURE_KINDS = ("diagonal", "spiral", "cone", "tangent", "halfspace")
FIXTURE_DIMENSIONS = (2, 3)
FIXTURE_K_MAX = (20, 40)
FIXTURE_CASES = tuple(
    (kind, dimension, k_max)
    for kind in FIXTURE_KINDS
    for dimension in FIXTURE_DIMENSIONS
    for k_max in FIXTURE_K_MAX
)

# witness kinds whose points stay within pi/6 of a single axis; the
# sharp product bound applies to these
RESTRICTED_KINDS = ("diagonal", "ray", "cone", "tangent", "halfspace")


def cone_confined_points(
    rng: np.random.Generator,
    dimension: int,
    axis,
    max_angle: float,
    count: int,
    start: float = DEFAULT_START,
    stop: float = DEFAULT_STOP,
) -> list[np.ndarray]:
    """Random points within max_angle of an axis, geometric norms; the
    stress fixtures' witness points, not a generator kind of its own."""
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


def _cone_points(seed: int, dimension: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    axis = np.zeros(dimension)
    axis[0] = 1.0
    axis[-1] = 0.5
    return cone_confined_points(rng, dimension, axis, 0.95 * math.pi / 6.0, count=240, stop=0.012)


def _tangent_directions(rng: np.random.Generator, points) -> list[np.ndarray]:
    """A unit y with x.y = 0 for each x, drawn at random in x's normal space."""
    directions = []
    for x in points:
        u = x / np.linalg.norm(x)
        w = rng.standard_normal(u.size)
        w -= (w @ u) * u
        directions.append(w / np.linalg.norm(w))
    return directions


def _halfspace_directions(rng: np.random.Generator, points) -> list[np.ndarray]:
    """A random unit y for each x, flipped where needed so that x.y >= 0."""
    directions = []
    for x in points:
        w = rng.standard_normal(x.size)
        w /= np.linalg.norm(w)
        directions.append(w if x @ w >= 0.0 else -w)
    return directions


def random_witness_data(seed, dimension, count, spread, y_kind, size):
    """Points within ``spread`` radians of a random axis, norms geometric from
    ``size`` down by a random factor, and radial, tangent or half-space y."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(dimension)
    axis /= np.linalg.norm(axis)
    other = rng.standard_normal((count, dimension))
    other -= np.outer(other @ axis, axis)
    lengths = np.linalg.norm(other, axis=1, keepdims=True)
    other = np.divide(other, lengths, out=np.zeros_like(other), where=lengths > 1e-9)
    angles = rng.uniform(0.0, spread, size=(count, 1))
    directions = np.cos(angles) * axis + np.sin(angles) * other
    points = np.geomspace(size, size * rng.uniform(1e-3, 0.3), count)[:, None] * directions
    if y_kind == "radial":
        return points, None
    w = rng.standard_normal((count, dimension))
    if y_kind == "tangent":
        unit = points / np.linalg.norm(points, axis=1, keepdims=True)
        w -= np.sum(w * unit, axis=1, keepdims=True) * unit
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return points, np.where(np.sum(points * w, axis=1, keepdims=True) >= 0.0, w, -w)


RANDOM_BUILD_CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "dimension": st.integers(1, 5),
        "spread": st.floats(0.0, 0.3),
        "y_kind": st.sampled_from(["radial", "tangent", "halfspace"]),
        "size": st.sampled_from([0.5, 1.0]),
        "k_max": st.integers(2, 10),
    }
)


def random_build(case):
    """The build of 60 random witness points near an axis (a draw of
    RANDOM_BUILD_CASES); data too sparse to match two anchors is rejected
    as an example."""
    y_kind = case["y_kind"]
    if case["dimension"] == 1 and y_kind == "tangent":
        y_kind = "halfspace"  # no unit y is orthogonal to x on a line
    points, directions = random_witness_data(
        case["seed"], case["dimension"], 60, case["spread"], y_kind, case["size"]
    )
    try:
        return build_path(WitnessSequence.ingest(points, directions), k_max=case["k_max"])
    except PipelineError:
        reject()


def witness_fixture(kind: str, dimension: int) -> WitnessSequence:
    """Deterministic witness sequence for one fixture kind."""
    if kind in ("diagonal", "ray"):
        spec = GeneratorSpec(kind=kind, dimension=dimension, count=160, stop=0.012)
        return WitnessSequence.ingest(generate_points(spec))
    if kind == "spiral":
        spec = GeneratorSpec(kind="spiral", dimension=dimension, count=200, stop=0.012)
        return WitnessSequence.ingest(generate_points(spec))
    if kind == "cone":
        return WitnessSequence.ingest(_cone_points(2026 + dimension, dimension))
    if kind in ("tangent", "halfspace"):
        points = _cone_points(2126 + dimension, dimension)
        rng = np.random.default_rng(2226 + dimension)
        make = _tangent_directions if kind == "tangent" else _halfspace_directions
        return WitnessSequence.ingest(points, make(rng, points))
    raise ValueError(f"unknown fixture kind {kind!r}")


@pytest.fixture(scope="session")
def builds():
    """(kind, dimension, k_max) -> PathBuild for every fixture case."""
    return {
        case: build_path(witness_fixture(case[0], case[1]), k_max=case[2])
        for case in FIXTURE_CASES
    }


@pytest.fixture(scope="session")
def diagonal_build(builds):
    """The smallest fixture, convenient for single-path tests."""
    return builds[("diagonal", 2, 20)]

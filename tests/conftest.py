"""Shared fixtures: witness data and the paths built from it.

Building a path is cheap next to evaluating one, but the suite leans on
the same handful of builds over and over, so they are built once per
session and shared.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from pathcert.generators import GeneratorSpec, cone_confined_points, generate_points
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
RESTRICTED_KINDS = ("diagonal", "cone", "tangent", "halfspace")


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


def witness_fixture(kind: str, dimension: int) -> WitnessSequence:
    """Deterministic witness sequence for one fixture kind."""
    if kind == "diagonal":
        spec = GeneratorSpec(kind="diagonal", dimension=dimension, count=160, stop=0.012)
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

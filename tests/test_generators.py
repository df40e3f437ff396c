"""Deterministic witness point generators."""

import math

import numpy as np
import pytest
from conftest import cone_confined_points

from pathcert.errors import InputError
from pathcert.generators import (
    GENERATOR_KINDS,
    MAX_COUNT,
    GeneratorSpec,
    generate_points,
)


def test_kinds_frozen():
    assert GENERATOR_KINDS == ("ray", "diagonal", "spiral")


def test_spec_validation():
    with pytest.raises(InputError):
        GeneratorSpec(kind="lattice", dimension=2)
    with pytest.raises(InputError):
        GeneratorSpec(kind="ray", dimension=0)
    with pytest.raises(InputError):
        GeneratorSpec(kind="ray", dimension=2, count=1)
    with pytest.raises(InputError):
        GeneratorSpec(kind="ray", dimension=2, start=0.1, stop=0.4)
    with pytest.raises(InputError):
        GeneratorSpec(kind="ray", dimension=2, axis=(1.0, 0.0, 0.0))
    with pytest.raises(InputError):
        GeneratorSpec(kind="ray", dimension=2, axis=(0.0, 0.0))
    with pytest.raises(InputError, match="too large"):
        GeneratorSpec(kind="ray", dimension=2, axis=(1e308, 1e308))
    assert GeneratorSpec(kind="ray", dimension=2, count=MAX_COUNT).count == MAX_COUNT
    with pytest.raises(InputError, match="10000"):
        GeneratorSpec(kind="ray", dimension=2, count=MAX_COUNT + 1)


def test_norms_follow_geometric_ladder():
    spec = GeneratorSpec(kind="diagonal", dimension=2, count=50, start=0.4, stop=0.02)
    points = generate_points(spec)
    norms = np.array([np.linalg.norm(p) for p in points])
    assert len(points) == 50
    assert math.isclose(float(norms[0]), 0.4, rel_tol=1e-12)
    assert math.isclose(float(norms[-1]), 0.02, rel_tol=1e-12)
    ratios = norms[1:] / norms[:-1]
    assert float(np.max(np.abs(ratios - ratios[0]))) <= 1e-12


def test_diagonal_direction():
    spec = GeneratorSpec(kind="diagonal", dimension=3, count=5)
    for p in generate_points(spec):
        direction = p / np.linalg.norm(p)
        assert np.allclose(direction, np.ones(3) / math.sqrt(3.0), atol=1e-14)


def test_ray_defaults_to_first_axis():
    spec = GeneratorSpec(kind="ray", dimension=4, count=5)
    for p in generate_points(spec):
        assert p[0] > 0
        assert np.allclose(p[1:], 0.0)


def test_ray_custom_axis_normalized():
    spec = GeneratorSpec(kind="ray", dimension=2, count=4, axis=(3.0, 4.0))
    p = generate_points(spec)[0]
    assert np.allclose(p / np.linalg.norm(p), [0.6, 0.8], atol=1e-14)


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_spiral_directions_are_unit(dimension):
    spec = GeneratorSpec(kind="spiral", dimension=dimension, count=60)
    points = generate_points(spec)
    assert len(points) == 60
    radii = np.geomspace(spec.start, spec.stop, 60)
    for p, r in zip(points, radii):
        assert math.isclose(float(np.linalg.norm(p)), float(r), rel_tol=1e-12)


def test_spiral_sweeps_directions():
    """Consecutive spiral points must not share a direction."""
    spec = GeneratorSpec(kind="spiral", dimension=2, count=30)
    points = generate_points(spec)
    dirs = np.array([p / np.linalg.norm(p) for p in points])
    dots = np.sum(dirs[1:] * dirs[:-1], axis=1)
    assert float(np.max(dots)) < 0.999


def test_generate_points_deterministic():
    spec = GeneratorSpec(kind="spiral", dimension=3, count=40)
    a = generate_points(spec)
    b = generate_points(GeneratorSpec(kind="spiral", dimension=3, count=40))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_cone_confined_points_respect_angle():
    rng = np.random.default_rng(8)
    axis = np.array([1.0, 2.0, -1.0])
    unit = axis / np.linalg.norm(axis)
    max_angle = math.pi / 7.0
    points = cone_confined_points(rng, 3, axis, max_angle, count=80, stop=0.05)
    assert len(points) == 80
    for p in points:
        cos_angle = float(p @ unit) / float(np.linalg.norm(p))
        assert math.acos(min(cos_angle, 1.0)) <= max_angle + 1e-9


def test_cone_confined_rejects_flat_angle():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        cone_confined_points(rng, 2, [1.0, 0.0], math.pi / 2.0, count=10)

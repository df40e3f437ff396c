"""Gauss-Legendre panel quadrature."""

import math

import numpy as np
import pytest

from quadrature import gauss_legendre_nodes, integrate_panels


def test_nodes_and_weights_basics():
    nodes, weights = gauss_legendre_nodes(12)
    assert nodes.shape == weights.shape == (12,)
    assert math.isclose(float(weights.sum()), 2.0, rel_tol=1e-14)
    assert np.all(np.diff(nodes) > 0)
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_nodes_cached():
    a = gauss_legendre_nodes(20)[0]
    b = gauss_legendre_nodes(20)[0]
    assert a is b


def test_polynomial_exactness():
    """Order-n Gauss rules integrate degree 2n-1 polynomials exactly."""
    for degree in range(0, 2 * 8):
        value = integrate_panels(
            lambda u, d=degree: u ** d, [-1.0, 1.0], order=8, tol=1e-14
        )
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert math.isclose(float(value), exact, rel_tol=0.0, abs_tol=1e-13)


def test_smooth_integral_value():
    value = integrate_panels(np.sin, [0.0, math.pi], order=20, tol=1e-13)
    assert math.isclose(float(value), 2.0, rel_tol=1e-12)


def test_kinked_integrand_with_matching_edge():
    """Splitting at the kink makes |u| integrate exactly."""
    value = integrate_panels(np.abs, [-1.0, 0.0, 1.0], order=10, tol=1e-14)
    assert math.isclose(float(value), 1.0, rel_tol=0.0, abs_tol=1e-14)


def test_kinked_integrand_without_edge_still_converges():
    value = integrate_panels(np.abs, [-1.0, 1.0], order=10, tol=1e-11)
    assert math.isclose(float(value), 1.0, rel_tol=0.0, abs_tol=1e-10)


def test_vector_valued_integrand():
    def f(u):
        return np.stack([u, u * u], axis=-1)

    value = integrate_panels(f, [0.0, 1.0], order=10, tol=1e-13)
    assert value.shape == (2,)
    assert math.isclose(float(value[0]), 0.5, abs_tol=1e-14)
    assert math.isclose(float(value[1]), 1.0 / 3.0, abs_tol=1e-14)


def test_zero_width_panels_contribute_nothing():
    plain = integrate_panels(np.cos, [0.0, 1.0], order=12, tol=1e-13)
    padded = integrate_panels(np.cos, [0.0, 0.5, 0.5, 1.0], order=12, tol=1e-13)
    assert float(plain) == pytest.approx(float(padded), abs=1e-15)


def test_descending_edges_rejected():
    with pytest.raises(ValueError):
        integrate_panels(np.cos, [1.0, 0.0], order=8, tol=1e-12)

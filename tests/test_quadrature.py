"""Gauss-Legendre rules and element integration drivers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iga_explicit.quadrature import element_quadrature, gauss_rule, moments
from iga_explicit.splinecore import uniform_space


def test_one_point_rule():
    rule = gauss_rule(1)
    assert_allclose(rule.nodes, [0.0])
    assert_allclose(rule.weights, [2.0])


def test_two_point_rule():
    rule = gauss_rule(2)
    assert_allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_three_point_rule():
    rule = gauss_rule(3)
    assert_allclose(rule.nodes, [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)], atol=1e-15)
    assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40, 64])
def test_matches_numpy_leggauss(n):
    rule = gauss_rule(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert_allclose(rule.nodes, x_ref, atol=5e-15)
    assert_allclose(rule.weights, w_ref, atol=5e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_exactness_boundary(n):
    rule = gauss_rule(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(rule.weights * rule.nodes**k) - exact) <= 1e-14
    k = 2 * n
    exact = 2.0 / (k + 1)
    assert abs(np.sum(rule.weights * rule.nodes**k) - exact) > 1e-10


def test_weights_sum_to_two():
    for n in (1, 7, 32):
        assert gauss_rule(n).weights.sum() == pytest.approx(2.0, abs=1e-14)


def test_rule_bounds():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(65)


def integrate(space, f):
    """Element-wise quadrature with degree+1 points per element."""
    xq, wq = element_quadrature(space, space.degree + 1)
    return float(np.sum(wq * f(xq)))


def test_integrate_constant():
    space = uniform_space(5, 2)
    assert integrate(space, np.ones_like) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_integrate_monomial_exact(p):
    space = uniform_space(3, p)
    val = integrate(space, lambda x: x ** (2 * p))
    assert val == pytest.approx(1.0 / (2 * p + 1), abs=1e-14)


def test_integrate_sine():
    space = uniform_space(8, 3)
    val = integrate(space, lambda x: np.sin(np.pi * x))
    assert val == pytest.approx(2.0 / np.pi, abs=1e-10)


def test_integrate_vector_accumulation():
    space = uniform_space(6, 2)
    vec = moments(space, lambda x: 1.0)
    assert vec.shape == (space.dimension,)
    assert vec.sum() == pytest.approx(1.0, abs=1e-13)


def test_tensor_product_separable():
    sx = uniform_space(4, 2)
    sy = uniform_space(5, 3)
    xq, wx = element_quadrature(sx, 4)
    yq, wy = element_quadrature(sy, 5)
    f2d = np.exp(xq)[:, None] * np.cos(yq)[None, :]
    val2d = wx @ f2d @ wy
    val1d = np.sum(wx * np.exp(xq)) * np.sum(wy * np.cos(yq))
    assert val2d == pytest.approx(val1d, abs=1e-13)


def test_moments_against_direct_sum():
    space = uniform_space(5, 3)
    m = moments(space, np.sin)
    # sum of moments is the integral of sin by partition of unity
    assert m.sum() == pytest.approx(1.0 - np.cos(1.0), abs=1e-12)

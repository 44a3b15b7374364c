"""Gauss-Legendre rules, element quadrature points, and moment vectors."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .splinecore import eval_basis


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (-1, 1) and positive weights summing to 2."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self):
        return len(self.nodes)


@functools.cache
def gauss_rule(n):
    """n-point Gauss-Legendre rule on [-1, 1], exact for degree <= 2n-1;
    computed once per process.

    Nodes are found by Newton iteration on the Legendre polynomial P_n from
    Chebyshev initial guesses; weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    if not 1 <= n <= 64:
        raise ValueError("number of quadrature points must be in [1, 64]")
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(100):
        pn, dpn = _legendre_and_derivative(n, x)
        dx = pn / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    pn, dpn = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x**2) * dpn**2)
    order = np.argsort(x)
    return QuadratureRule(x[order], w[order])


def _legendre_and_derivative(n, x):
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x**2 - 1.0)
    return p, dp


def element_quadrature(space, points_per_element):
    """Flattened quadrature points and weights over all elements of a space."""
    rule = gauss_rule(points_per_element)
    bps = space.breakpoints
    lo = bps[:-1][:, None]
    hi = bps[1:][:, None]
    xq = (0.5 * (hi - lo) * (rule.nodes[None, :] + 1.0) + lo).ravel()
    wq = (0.5 * (hi - lo) * rule.weights[None, :]).ravel()
    return xq, wq


def moments(space, f):
    """Vector of inner products <f, B_i> by quadrature with p + 2 Gauss points
    per element."""
    xq, wq = element_quadrature(space, space.degree + 2)
    # the callable sees one point at a time, as scalar code would call it
    scale = wq * np.array([f(x) for x in xq])
    ev = eval_basis(space, xq)
    out = np.zeros(space.dimension)
    np.add.at(out, ev.indices, scale[:, None] * ev.values[:, 0])
    return out

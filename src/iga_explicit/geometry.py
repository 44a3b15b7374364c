"""Geometric mappings from the parametric unit square, with analytic Jacobians,
Jacobian gradients, and the scalar weight field c = det(F) * rho."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class GeometryMap:
    """Mapping from the unit square with analytic first and second derivatives.

    All callables accept broadcasting arrays ``(x1, x2)`` and return arrays
    with the tensor components in the leading axes: ``value -> (2, ...)``,
    ``jacobian -> (2, 2, ...)``, ``jacobian_gradient -> (2, 2, 2, ...)`` where
    the trailing index of the gradient is the parametric differentiation
    direction. ``rho`` is a constant density, positive and finite.
    """

    value: callable
    jacobian: callable
    jacobian_gradient: callable
    rho: float = 1.0
    name: str = "map"

    def __post_init__(self):
        if not 0.0 < self.rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho!r}")

    @cached_property
    def radial_weight(self):
        """The weight c = det(F) rho as an array-valued function of x1 alone,
        c(x1, 0), for a map whose weight does not vary along x2.

        The checks run once per map, on first use: ``weight_field``'s
        determinant check (ValueError) and separability of c on a 17 x 17
        sample grid (NumericalError). A map that fails raises on every use.
        """
        c_fn, _ = weight_field(self)
        xs = np.linspace(0.0, 1.0, 17)
        vals = c_fn(xs[:, None], xs[None, :])
        if np.max(np.abs(vals - vals[:, :1])) > 1e-10 * np.max(np.abs(vals)):
            raise NumericalError("weight field is not separable; unsupported geometry")
        return lambda x: c_fn(np.asarray(x, float), 0.0)


def identity_map(rho=1.0):
    """Identity mapping; F = I, gradient = 0, c = rho."""

    def value(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return np.stack([x1, x2])

    def jacobian(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        F = np.zeros((2, 2) + x1.shape)
        F[0, 0] = 1.0
        F[1, 1] = 1.0
        return F

    def jacobian_gradient(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return np.zeros((2, 2, 2) + x1.shape)

    return GeometryMap(value, jacobian, jacobian_gradient, rho=rho, name="identity")


def annulus_map(a, b, rho=1.0):
    """Polar map of the unit square onto the annulus a <= r <= b.

    x1 is the radial coordinate (r = a + (b-a) x1) and x2 the angular one
    (theta = 2 pi x2); det(F) = 2 pi (b-a) r > 0.
    """
    if not 0.0 < a < b:
        raise ValueError("annulus radii must satisfy 0 < a < b")
    dr = b - a
    two_pi = 2.0 * np.pi

    def polar(x1, x2):
        # r and theta on the operands as given; sin, cos and the radius are
        # taken once per coordinate, only the outputs reach the full shape
        r, th = a + dr * np.asarray(x1, float), two_pi * np.asarray(x2, float)
        return r, th, np.broadcast_shapes(r.shape, th.shape)

    def value(x1, x2):
        r, th, _ = polar(x1, x2)
        return np.stack(np.broadcast_arrays(r * np.cos(th), r * np.sin(th)))

    def jacobian(x1, x2):
        r, th, shape = polar(x1, x2)
        c, s = np.cos(th), np.sin(th)
        F = np.empty((2, 2) + shape)
        F[0, 0] = dr * c
        F[0, 1] = -two_pi * r * s
        F[1, 0] = dr * s
        F[1, 1] = two_pi * r * c
        return F

    def jacobian_gradient(x1, x2):
        r, th, shape = polar(x1, x2)
        c, s = np.cos(th), np.sin(th)
        dF = np.zeros((2, 2, 2) + shape)
        # derivative with respect to x1 (radial)
        dF[0, 1, 0] = -two_pi * dr * s
        dF[1, 1, 0] = two_pi * dr * c
        # derivative with respect to x2 (angular)
        dF[0, 0, 1] = -two_pi * dr * s
        dF[0, 1, 1] = -(two_pi**2) * r * c
        dF[1, 0, 1] = two_pi * dr * c
        dF[1, 1, 1] = -(two_pi**2) * r * s
        return dF

    return GeometryMap(value, jacobian, jacobian_gradient, rho=rho, name="annulus")


def weight_field(geo):
    """The weight c = det(F) * rho and its parametric gradient.

    The gradient of det(F) uses Jacobi's formula,
    d(det F) = det(F) * tr(F^{-1} dF). Positivity of det(F) is checked on a
    64 x 64 sample grid at construction.
    """
    xs = np.linspace(0.0, 1.0, 64)
    det = _det2(geo.jacobian(xs[:, None], xs[None, :]))
    if np.min(det) <= 0.0:
        raise ValueError(f"non-positive Jacobian determinant (min {np.min(det):.3e})")

    rho = geo.rho

    def c_fn(x1, x2):
        return _det2(geo.jacobian(x1, x2)) * rho

    def grad_c_fn(x1, x2):
        F = geo.jacobian(x1, x2)
        det = _det2(F)
        return weight_gradient(rho, det, _inv2(F, det), geo.jacobian_gradient(x1, x2))

    return c_fn, grad_c_fn


def weight_gradient(rho, det, Finv, dF):
    """The parametric gradient of c = det(F) rho by Jacobi's formula, from
    det(F), F^{-1} and the Jacobian gradient dF at the same points.

    Each trace is summed in place in its row of the result, in the order
    of its four products, so one product is the only temporary; ``out[k,
    ...]`` is a view also for scalar points."""
    out = np.empty((2,) + np.shape(det))
    for k in range(2):
        trace = out[k, ...]
        np.multiply(Finv[0, 0], dF[0, 0, k], out=trace)
        trace += Finv[0, 1] * dF[1, 0, k]
        trace += Finv[1, 0] * dF[0, 1, k]
        trace += Finv[1, 1] * dF[1, 1, k]
        trace *= rho * det
    return out


def _det2(F):
    return F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]


def _inv2(F, det):
    inv = np.empty_like(F)
    inv[0, 0] = F[1, 1] / det
    inv[0, 1] = -F[0, 1] / det
    inv[1, 0] = -F[1, 0] / det
    inv[1, 1] = F[0, 0] / det
    return inv

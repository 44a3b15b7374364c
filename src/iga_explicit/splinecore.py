"""Univariate B-spline spaces: knot vectors, Cox-de Boor evaluation, Greville
abscissae, and exact coefficient vectors of monomials.

Evaluation follows the half-open element convention [x_k, x_{k+1}) with the
last element closed at the right end. Periodic spaces are realized by index
wraparound on a uniform knot extension and support only maximal smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

CLAMPED = "clamped"
PERIODIC = "periodic"


@dataclass(frozen=True)
class KnotVector:
    """Non-decreasing knot sequence with a polynomial degree."""

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if np.any(np.diff(knots) < 0.0):
            raise ValueError("knots must be non-decreasing")


@dataclass(frozen=True)
class SplineSpace:
    """Space of univariate splines spanned by B-splines on a knot vector.

    For clamped spaces ``dimension = len(knots) - degree - 1``. For periodic
    spaces the knot vector is the uniform extension of the base partition and
    ``dimension`` equals the number of elements; basis indices wrap modulo the
    dimension.
    """

    knot_vector: KnotVector
    boundary_kind: str
    dimension: int

    @property
    def degree(self):
        return self.knot_vector.degree

    @property
    def periodic(self):
        return self.boundary_kind == PERIODIC

    @property
    def domain(self):
        p = self.degree
        k = self.knot_vector.knots
        return float(k[p]), float(k[len(k) - p - 1])

    @property
    def breakpoints(self):
        a, b = self.domain
        k = self.knot_vector.knots
        p = self.degree
        interior = k[p : len(k) - p]
        return np.unique(interior)

    @property
    def n_elements(self):
        return len(self.breakpoints) - 1


@dataclass(frozen=True)
class BasisEval:
    """Values (and derivatives) of the non-vanishing B-splines at one point.

    ``values[k, l]`` is the k-th derivative of basis function ``indices[l]``.
    """

    first_index: int
    values: np.ndarray
    indices: np.ndarray


def make_space(breakpoints, degree, regularity=None, boundary_kind=CLAMPED):
    """Build a spline space from breakpoints, degree and interior regularity.

    ``regularity`` may be None (maximal smoothness, degree-1), a scalar applied
    at every interior breakpoint, or a sequence with one value per interior
    breakpoint. Periodic spaces require a uniform partition and maximal
    smoothness.
    """
    bps = np.asarray(breakpoints, dtype=float)
    if bps.ndim != 1 or len(bps) < 2:
        raise ValueError("need at least two breakpoints")
    if np.any(np.diff(bps) <= 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    p = int(degree)
    if p < 0:
        raise ValueError("degree must be non-negative")
    n_interior = len(bps) - 2

    if p == 0:
        # piecewise constants: interior knots appear once, no continuity choices
        if regularity is not None:
            raise ValueError("degree-0 splines admit no interior continuity")
        regs = [-1] * n_interior
    elif regularity is None:
        regs = [p - 1] * n_interior
    elif np.ndim(regularity) == 0:
        regs = [int(regularity)] * n_interior
    else:
        regs = [int(r) for r in regularity]
        if len(regs) != n_interior:
            raise ValueError("one regularity value per interior breakpoint required")
    if p >= 1:
        for r in regs:
            if not 0 <= r <= p - 1:
                raise ValueError(f"regularity {r} outside [0, {p - 1}]")

    if boundary_kind == CLAMPED:
        parts = [np.full(p + 1, bps[0])]
        for k in range(1, len(bps) - 1):
            parts.append(np.full(p - regs[k - 1], bps[k]))
        parts.append(np.full(p + 1, bps[-1]))
        knots = np.concatenate(parts)
        dim = len(knots) - p - 1
        return SplineSpace(KnotVector(knots, p), CLAMPED, dim)

    if boundary_kind == PERIODIC:
        h = np.diff(bps)
        if not np.allclose(h, h[0], rtol=1e-12, atol=1e-14):
            raise ValueError("periodic spaces require a uniform partition")
        if any(r != p - 1 for r in regs):
            raise ValueError("periodic spaces require maximal smoothness")
        n_el = len(bps) - 1
        if n_el <= 2 * p:
            raise ValueError("periodic space needs more elements than 2*degree")
        step = float(h[0])
        ext = bps[0] + step * np.arange(-p, n_el + p + 1)
        return SplineSpace(KnotVector(ext, p), PERIODIC, n_el)

    raise ValueError(f"unknown boundary kind {boundary_kind!r}")


def uniform_space(n_elements, degree, a=0.0, b=1.0, boundary_kind=CLAMPED):
    """Uniform maximal-smoothness space on [a, b] with ``n_elements`` elements."""
    return make_space(np.linspace(a, b, n_elements + 1), degree, None, boundary_kind)


def _ders_basis(knots, p, mu, x, nd):
    """All non-vanishing B-splines and derivatives up to order nd at the
    points x (spans mu), as an array (len(x), nd + 1, p + 1).

    The recurrence (Piegl and Tiller, The NURBS Book, Alg. A2.3) runs on all
    points at once; its control flow depends on p and nd only, so each point
    gets the same operations in the same order as if evaluated alone. The
    values' inner loop over r < j runs at once over r too: its term
    saved_r = left[j - r + 1] temp_{r-1} needs only the previous column.
    """
    m = len(x)
    ndu = np.empty((p + 1, p + 1, m))
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    ndu[0, 0] = 1.0
    saved = np.zeros((p, m))  # saved[r] of the recurrence, 0 at r = 0
    for j in range(1, p + 1):
        left[j] = x - knots[mu + 1 - j]
        right[j] = knots[mu + j] - x
        ndu[j, :j] = right[1 : j + 1] + left[j:0:-1]
        temp = ndu[:j, j - 1] / ndu[j, :j]
        saved[1:j] = left[j:1:-1] * temp[:-1]
        ndu[:j, j] = saved[:j] + right[1 : j + 1] * temp
        ndu[j, j] = left[1] * temp[-1]

    ders = np.zeros((nd + 1, p + 1, m))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, nd + 1):
        ders[k] *= fac
        fac *= p - k
    return np.ascontiguousarray(ders.transpose(2, 0, 1))


def eval_basis(space, x, max_deriv=0):
    """Evaluate the non-vanishing basis functions and derivatives at ``x``.

    ``x`` is a point or a 1-D array of points. An array gives one BasisEval
    whose fields carry a leading point axis: ``first_index`` (m,),
    ``values`` (m, max_deriv + 1, p + 1) and ``indices`` (m, p + 1). Every
    point gets the same arithmetic either way. A clamped space rejects points
    more than 1e-12 outside its domain, naming the first such point.
    """
    p = space.degree
    if max_deriv > p:
        raise ValueError("max_deriv exceeds the polynomial degree")
    knots = space.knot_vector.knots
    a, b = space.domain
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if space.periodic:
        length = b - a
        xs = a + (xs - a) % length
        xs = np.where(xs >= b, xs - length, xs)  # guard against float wrap landing on b
        n_el = space.n_elements
        k = np.minimum(((xs - a) / (length / n_el)).astype(int), n_el - 1)
    else:
        outside = (xs < a - 1e-12) | (xs > b + 1e-12)
        if outside.any():
            raise ValueError(f"evaluation point {xs[outside][0]} outside domain [{a}, {b}]")
        xs = np.minimum(np.maximum(xs, a), b)
        span = np.searchsorted(knots, xs, side="right") - 1
        k = np.clip(span, p, len(knots) - p - 2) - p
    # index of the first function alive at each point; only periodic ones wrap
    first = k % space.dimension
    indices = (k[:, None] + np.arange(p + 1)) % space.dimension
    if p > 0:
        values = _ders_basis(knots, p, k + p, xs, max_deriv)
    else:
        values = np.zeros((len(xs), max_deriv + 1, 1))
        values[:, 0, 0] = 1.0
    if np.ndim(x) == 0:
        return BasisEval(int(first[0]), values[0], indices[0])
    return BasisEval(first, values, indices)


def greville(space):
    """Greville abscissae (knot averages); clamped spaces only."""
    if space.periodic:
        raise ValueError("Greville points are defined here for clamped spaces only")
    p = space.degree
    knots = space.knot_vector.knots
    n = space.dimension
    if p == 0:
        bps = space.breakpoints
        return 0.5 * (bps[:-1] + bps[1:])
    return np.lib.stride_tricks.sliding_window_view(knots[1:], p)[:n].mean(axis=1)


def monomial_coefficients(space, q):
    """Coefficients c with sum_i c_i B_i(x) = x**q, exact for 0 <= q <= degree.

    Solved by collocation at the Greville abscissae, which is a banded system
    and exact because x**q lies in the space.
    """
    p = space.degree
    if not 0 <= q <= p:
        raise ValueError("monomial degree must satisfy 0 <= q <= degree")
    if space.periodic:
        raise ValueError("monomial coefficients require a clamped space")
    n = space.dimension
    if q == 0:
        return np.ones(n)
    g = greville(space)
    ev = eval_basis(space, g)
    ab = np.zeros((2 * p + 1, n))
    ab[p + np.arange(n)[:, None] - ev.indices, ev.indices] += ev.values[:, 0]
    return solve_banded((p, p), ab, g**q)

"""Independent oracles used across the test suite.

The oracles of values and integrals deliberately avoid the package's own
evaluation and integration code paths: naive recursive Cox-de Boor evaluation
and composite Gauss panels built directly on numpy's Legendre module. The
point-loop oracles at the end do use the package's scalar evaluation and
quadrature rules: they check that the batched assembly sums the same terms in
the same order, so their results must agree bit for bit.
"""

import numpy as np
import scipy.sparse as sp


def naive_bspline(x, k, i, t):
    """Textbook recursive B-spline evaluation B_{i,k} on knots t (half-open)."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * naive_bspline(x, k - 1, i, t)
    c2 = 0.0
    if t[i + k + 1] != t[i + 1]:
        c2 = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * naive_bspline(x, k - 1, i + 1, t)
    return c1 + c2


def naive_all_values(space, x):
    """Full-length vector of basis values at x via the recursive oracle."""
    t = space.knot_vector.knots
    p = space.degree
    n_funcs = len(t) - p - 1
    vals = np.array([naive_bspline(x, p, i, t) for i in range(n_funcs)])
    if space.periodic:
        out = np.zeros(space.dimension)
        for j, v in enumerate(vals):
            out[j % space.dimension] += v
        return out
    return vals


def gauss_panels(f, a, b, n_panels=64, n_pts=12):
    """Composite Gauss-Legendre integration, independent of package quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(n_pts)
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        total += 0.5 * (hi - lo) * np.sum(weights * np.array([f(x) for x in xm]))
    return total


def eval_spline(space, coeffs, x):
    """Value of sum_i coeffs_i B_i(x) using the package evaluator."""
    from iga_explicit.splinecore import eval_basis

    ev = eval_basis(space, x)
    return float(np.dot(coeffs[ev.indices], ev.values[0]))


def spline_l2_error(space, coeffs, f, n_panels=200, n_pts=8):
    """Relative L2 distance between a spline and a reference callable."""
    a, b = space.domain
    err2 = gauss_panels(lambda x: (eval_spline(space, coeffs, x) - f(x)) ** 2, a, b, n_panels, n_pts)
    ref2 = gauss_panels(lambda x: f(x) ** 2, a, b, n_panels, n_pts)
    return np.sqrt(err2 / ref2) if ref2 > 0 else np.sqrt(err2)


def loop_grammian_bands(space, weight=None, points_per_element=None):
    """Band storage of the Grammian of ``dualbasis.grammian``, accumulated
    one quadrature point and one pair of basis functions at a time."""
    from iga_explicit.quadrature import element_quadrature
    from iga_explicit.splinecore import eval_basis

    p, n = space.degree, space.dimension
    if points_per_element is None:
        points_per_element = p + 1 if weight is None else p + 2
    hw = p if space.periodic else min(p, n - 1)
    bands = np.zeros((hw + 1, n))
    for x, w in zip(*element_quadrature(space, points_per_element)):
        if weight is not None:
            w = w * weight(x)
        ev = eval_basis(space, x)
        for a in range(p + 1):
            for b in range(a, p + 1):
                bands[b - a, ev.indices[a]] += w * ev.values[0, a] * ev.values[0, b]
    return bands


def loop_tables(space, points_per_element):
    """Value and derivative matrices of ``DiscreteSystem.tables``, one
    quadrature point at a time."""
    from iga_explicit.quadrature import element_quadrature
    from iga_explicit.splinecore import eval_basis

    xq, _ = element_quadrature(space, points_per_element)
    rows, cols, vdat, ddat = [], [], [], []
    for i, x in enumerate(xq):
        ev = eval_basis(space, x, max_deriv=1)
        for l, j in enumerate(ev.indices):
            rows.append(i)
            cols.append(int(j))
            vdat.append(ev.values[0, l])
            ddat.append(ev.values[1, l])
    shape = (len(xq), space.dimension)
    return [sp.coo_matrix((dat, (rows, cols)), shape=shape).tocsr() for dat in (vdat, ddat)]

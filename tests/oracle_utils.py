"""Independent oracles used across the test suite.

The oracles of values and integrals deliberately avoid the package's own
evaluation and integration code paths: naive recursive Cox-de Boor evaluation
and composite Gauss panels built directly on numpy's Legendre module. The
point-loop oracles do use the package's scalar evaluation and quadrature
rules: they check that the batched assembly sums the same terms in the same
order, so their results must agree bit for bit. The Runge-Kutta oracles at
the end step by the tableau's stage recursion and evaluate its stability
function by the resolvent, the general forms that the package's polynomial
step must reproduce for linear systems. The matrix helpers before them (column-major
flattening, band storage of a dense matrix, the dense Petrov mass) build the
dense operators the Kronecker and banded ones are checked against.
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


def grid_to_vec(grid):
    """Column-major flattening consistent with the Kronecker convention."""
    return np.asarray(grid).reshape(-1, order="F")


def banded_from_dense(dense, halfwidth, periodic=False):
    """A ``BandedSymmetricMatrix`` holding the upper bands of a dense
    symmetric matrix, wrapped modulo n when periodic."""
    from iga_explicit.banded import BandedSymmetricMatrix

    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    out = BandedSymmetricMatrix(n, halfwidth, periodic=periodic)
    for d in range(out.halfwidth + 1):
        if periodic:
            out.bands[d, :] = dense[np.arange(n), (np.arange(n) + d) % n]
        else:
            out.bands[d, : n - d] = dense[np.arange(n - d), np.arange(d, n)]
    return out


def petrov_mass_dense(system):
    """Dense Petrov mass of a 2D system, assembled by quadrature with
    explicit geometry factors.

    Entries are b(dual_test_i / c, B_j) evaluated with the rho det(F) / c
    factor carried through the quadrature loop; the result is analytically
    geometry-independent, which is the point of the construction.
    """
    E1, E2 = (system.tables(k)[2] for k in range(2))
    W, det, c = system.quadrature_grid()
    W = W * (system.rho * det / c)
    L1 = E1 @ system.duals[0].S.to_dense()  # columns are dual function values
    L2 = E2 @ system.duals[1].S.to_dense()
    T1 = np.einsum("qa,qc->qac", L1, E1.toarray())
    T2 = np.einsum("rb,rd->rbd", L2, E2.toarray())
    M = np.einsum("qac,qr,rbd->abcd", T1, W, T2)
    n1, n2 = system.full_shape
    return M.transpose(1, 0, 3, 2).reshape(n1 * n2, n1 * n2)


def stage_rk_step(tableau, rhs, state, dt):
    """One explicit RK step of the first-order system (d, v)' = (v, rhs(d))
    by the stage recursion of the Butcher tableau, for any ``rhs``.

    ``rhs`` maps a displacement grid to an acceleration grid. Raises on NaN.
    """
    from iga_explicit.dynamics import DynamicState
    from iga_explicit.errors import NumericalError

    if dt <= 0.0:
        raise ValueError("time step must be positive")
    a, b = tableau.a, tableau.b
    s = tableau.stages
    kd = []
    kv = []
    for i in range(s):
        di = state.d
        vi = state.v
        for j in range(i):
            if a[i, j] != 0.0:
                di = di + dt * a[i, j] * kd[j]
                vi = vi + dt * a[i, j] * kv[j]
        kd.append(vi)
        kv.append(rhs(di))
    d_new = state.d
    v_new = state.v
    for i in range(s):
        if b[i] != 0.0:
            d_new = d_new + dt * b[i] * kd[i]
            v_new = v_new + dt * b[i] * kv[i]
    if not (np.all(np.isfinite(d_new)) and np.all(np.isfinite(v_new))):
        raise NumericalError(f"non-finite state after step at t={state.t}")
    return DynamicState(d_new, v_new, state.t + dt)


def resolvent_stability_function(tableau, z):
    """R(z) = 1 + z b^T (I - z A)^{-1} 1 for scalar (complex) z."""
    s = tableau.stages
    mat = np.eye(s, dtype=complex) - z * tableau.a
    k = np.linalg.solve(mat, np.ones(s, dtype=complex))
    return 1.0 + z * np.dot(tableau.b, k)

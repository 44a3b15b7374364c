"""Independent oracles used across the test suite.

The oracles of values and integrals deliberately avoid the package's own
evaluation and integration code paths: naive recursive Cox-de Boor evaluation
and composite Gauss panels built directly on numpy's Legendre module. The
point-loop oracles do use the package's scalar evaluation and quadrature
rules: they check that the batched assembly sums the same terms in the same
order, so their results must agree bit for bit. The Runge-Kutta oracles at
the end step by the tableau's stage recursion and evaluate its stability
function by the resolvent, the general forms that the package's polynomial
step must reproduce for linear systems; the allocating polynomial step is
the one its in-place accumulation must reproduce bit for bit. The matrix helpers before them (column-major
flattening, band storage of a dense matrix, the dense Petrov mass) build the
dense operators the Kronecker and banded ones are checked against. The
scalar Cox-de Boor levels, the clamped knots built one breakpoint at a time
and the Grammian summed by np.add.at are the forms the array ones must
reproduce bit for bit. The CSR
route oracles assemble the stiffness kernel and the run operator through
scipy.sparse (a full-space CSR build restricted by fancy indexing, CSR
blocks per term) for the direct by-fill builds to be checked against. The
weight gradient's four-term sum, the copying cross approximation, the
clamped dual's mirror blocks from scipy.sparse products with their numpy
SVD, and its constraint rows built row by row are the forms the in-place
and array ones must reproduce bit for bit, as the loop-built outlier end
block is for the indexed one.
"""

import math

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


def scalar_ders_basis(knots, p, mu, x, nd):
    """The non-vanishing B-splines and derivatives up to order nd at one
    point x of span mu, (nd + 1, p + 1): Piegl and Tiller's Alg. A2.3 on
    Python floats, one knot difference per level as the book forms them.
    What ``splinecore._ders_basis`` must reproduce bit for bit."""
    knots = [float(k) for k in knots]
    left, right = [0.0] * (p + 1), [0.0] * (p + 1)
    ndu = [[0.0] * (p + 1) for _ in range(p + 1)]
    ndu[0][0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - knots[mu + 1 - j]
        right[j] = knots[mu + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved
    ders = np.zeros((nd + 1, p + 1))
    ders[0] = [ndu[r][p] for r in range(p + 1)]
    for r in range(p + 1):
        s1, s2 = 0, 1
        a = [[0.0] * (p + 1) for _ in range(2)]
        a[0][0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2][0] = a[s1][0] / ndu[pk + 1][rk]
                d = a[s2][0] * ndu[rk][pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2][j] = (a[s1][j] - a[s1][j - 1]) / ndu[pk + 1][rk + j]
                d += a[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                a[s2][k] = -a[s1][k - 1] / ndu[pk + 1][r]
                d += a[s2][k] * ndu[r][pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, nd + 1):
        ders[k] *= fac
        fac *= p - k
    return ders


def full_clamped_knots(breakpoints, p, regularity):
    """Clamped knots built one breakpoint at a time: p + 1 copies of each
    end and p - regularity of each interior breakpoint."""
    parts = [np.full(p + 1, breakpoints[0])]
    for k in range(1, len(breakpoints) - 1):
        parts.append(np.full(p - regularity[k - 1], breakpoints[k]))
    parts.append(np.full(p + 1, breakpoints[-1]))
    return np.concatenate(parts)


def add_at_grammian_bands(space, weight=None, points_per_element=None):
    """Band storage of the Grammian of ``dualbasis.grammian``, summed by
    np.add.at over the (band, row) index of every point's pairs a <= b."""
    from iga_explicit.quadrature import element_quadrature
    from iga_explicit.splinecore import eval_basis

    p, n = space.degree, space.dimension
    if points_per_element is None:
        points_per_element = p + 1 if weight is None else p + 2
    xq, wq = element_quadrature(space, points_per_element)
    if weight is not None:
        wq = wq * weight(xq)
    ev = eval_basis(space, xq)
    vals = ev.values[:, 0]
    a, b = np.triu_indices(p + 1)
    bands = np.zeros((p + 1 if space.periodic else min(p, n - 1) + 1, n))
    np.add.at(bands, (b - a, ev.indices[:, a]), wq[:, None] * vals[:, a] * vals[:, b])
    return bands


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

    Entries are b(dual_test_i / c, B_j) evaluated with the det(F) / c
    factor carried through the quadrature loop, det(F) from the map's
    Jacobian; the result is analytically geometry-independent, which is the
    point of the construction.
    """
    from iga_explicit.geometry import _det2

    E1, E2 = (system.tables(k)[2] for k in range(2))
    x1, x2 = (system.tables(k)[0] for k in range(2))
    det = _det2(system.geometry.jacobian(x1[:, None], x2[None, :]))
    W, c = system.quadrature_grid()
    W = W * (det / c)
    L1 = E1 @ system.duals[0].S.to_dense()  # columns are dual function values
    L2 = E2 @ system.duals[1].S.to_dense()
    T1 = np.einsum("qa,qc->qac", L1, E1.toarray())
    T2 = np.einsum("rb,rd->rbd", L2, E2.toarray())
    M = np.einsum("qac,qr,rbd->abcd", T1, W, T2)
    n1, n2 = system.full_shape
    return M.transpose(1, 0, 3, 2).reshape(n1 * n2, n1 * n2)


def four_term_weight_gradient(det, Finv, dF):
    """The parametric gradient of c = det(F) by Jacobi's formula, each
    trace one expression of its four products."""
    out = np.empty((2,) + np.shape(det))
    for k in range(2):
        trace = (
            Finv[0, 0] * dF[0, 0, k]
            + Finv[0, 1] * dF[1, 0, k]
            + Finv[1, 0] * dF[0, 1, k]
            + Finv[1, 1] * dF[1, 1, k]
        )
        out[k] = det * trace
    return out


def copying_separate(grid, bound):
    """Fully pivoted cross approximation on a copy of the grid: the pivot is
    the first largest entry of |R|, the update one outer product."""
    from iga_explicit.errors import NumericalError

    R = np.array(grid, dtype=float).reshape(len(grid), -1)
    terms = []
    for _ in range(min(R.shape) + 1):
        i, j = np.unravel_index(np.argmax(np.abs(R)), R.shape)
        if abs(R[i, j]) <= bound:
            return terms
        u, v = R[:, j].copy(), R[i] / R[i, j]
        R -= np.outer(u, v)
        terms.append((u, v))
    raise NumericalError("stiffness coefficient grid did not separate")


def constraint_matrix(vals, ids, inside, n_cols):
    """The clamped dual's constraint matrix A as CSR, row r * (p+1) + m,
    from its (row, window) layout: vals[r, m, t] in column ids[r, t] where
    the window slot is inside the matrix."""
    n, q, _ = vals.shape
    r, t = np.nonzero(inside)
    rows = r[:, None] * q + np.arange(q)
    cols = np.broadcast_to(ids[r, t, None], rows.shape)
    return sp.csr_matrix((vals[r, :, t].ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n * q, n_cols))


def index_map_matrix(maps):
    """The matrix Q of ``dualbasis._mirror_basis``'s index maps as CSR: row
    k has coefs[k] in columns slots[k] (a fixed point's two entries, 1 and
    0, summed)."""
    slots, coefs = maps
    n = len(slots)
    return sp.csr_matrix((coefs.ravel(), (np.repeat(np.arange(n), 2), slots.ravel())),
                         shape=(n, n))


def sparse_mirror_blocks(vals, ids, inside, col_mirror):
    """C = (Qr^T A) Qc of the clamped dual's mirror bases, formed with
    scipy.sparse products, dense, with the row and column counts (re, ce)
    of its even block: the sums ``dualbasis._mirror_svd`` forms from A's
    window layout."""
    from iga_explicit.dualbasis import _mirror_basis

    n, q, _ = vals.shape
    nr, nc = n * q, len(col_mirror)
    r, m = np.divmod(np.arange(nr), q)
    Qr, re = _mirror_basis((n - 1 - r) * q + m, (-1.0) ** m)
    Qc, ce = _mirror_basis(col_mirror, np.ones(nc))
    T = (index_map_matrix(Qr).T.tocsr() @ constraint_matrix(vals, ids, inside, nc)).tocsr()
    T.sort_indices()
    return (T @ index_map_matrix(Qc)).toarray(), re, ce


def numpy_mirror_svd(vals, ids, inside, col_mirror):
    """The clamped dual's mirror-block constraint SVD with C from scipy.sparse
    products and numpy's SVD, which factors a private copy of each block:
    what ``dualbasis._mirror_svd``, which fills each block from A's window
    layout and factors it in its own memory, must reproduce bit for bit."""
    from iga_explicit.dualbasis import _mirror_basis

    n, q, _ = vals.shape
    nr, nc = n * q, len(col_mirror)
    r, m = np.divmod(np.arange(nr), q)
    Qr, _ = _mirror_basis((n - 1 - r) * q + m, (-1.0) ** m)
    Qc, _ = _mirror_basis(col_mirror, np.ones(nc))
    C, re, ce = sparse_mirror_blocks(vals, ids, inside, col_mirror)
    A = constraint_matrix(vals, ids, inside, nc)
    cross = np.concatenate([C[:re, ce:].ravel(), C[re:, :ce].ravel()])
    coupling = np.abs(cross).max(initial=0.0) / np.abs(A.data).max()
    blocks = [(slice(0, re), slice(0, ce)), (slice(re, nr), slice(ce, nc))]
    if coupling > 1e-12 or (re - ce) * (nr - re - nc + ce) < 0:
        Qr, _ = _mirror_basis(np.arange(nr), np.ones(nr))
        Qc, _ = _mirror_basis(np.arange(nc), np.ones(nc))
        C = A.toarray()
        blocks = [(slice(0, nr), slice(0, nc))]
    factors, shapes = [], []
    for rows, cols in blocks:
        B = C[rows, cols]
        shapes.append(B.shape)
        factors.append((rows, cols, *np.linalg.svd(B, full_matrices=B.shape[0] < B.shape[1])))
    return Qr, Qc, factors, {"block_shapes": shapes, "coupling": coupling}


def loop_constraint_rows(space, hw):
    """The clamped dual's equilibrated constraint rows (n, p+1, 2hw+1) and
    their de Boor-Fix right-hand sides, row by row with scalar loops: each
    row's moment window and powers filled element by element, multiplied
    as one (p+1) x K by K x (2hw+2p+1) product, and the roots of the
    de Boor-Fix polynomial multiplied out one at a time. What
    ``dualbasis._constraint_rows`` must reproduce bit for bit. Powers go
    through numpy's power ufunc on one-element arrays, as the package's
    arrays take them (its SIMD loops need not round as the C library's pow
    does), with a scalar exponent for the local powers and an array one for
    the de Boor-Fix scale, as the package's expressions have them (numpy
    squares for a scalar exponent of 2)."""
    from iga_explicit.quadrature import element_quadrature
    from iga_explicit.splinecore import eval_basis, greville

    p, n, n_el = space.degree, space.dimension, space.n_elements
    a, b = space.domain
    hbar = (b - a) / n_el
    knots = space.knot_vector.knots
    grev = greville(space)
    xq, wq = element_quadrature(space, p + 1)
    ev = eval_basis(space, xq)
    xq, wq = xq.reshape(n_el, p + 1), wq.reshape(n_el, p + 1)
    values = ev.values[:, 0].reshape(n_el, p + 1, p + 1)
    first = ev.first_index[:: p + 1]
    width, n_win = 2 * hw + 1, 2 * hw + p + 1
    fact = [float(math.factorial(k)) for k in range(p + 1)]

    def power(x, m):
        return (np.full(1, x) ** m)[0]

    vals = np.zeros((n, p + 1, width))
    rhs = np.zeros((n, p + 1))
    for r in range(n):
        # the n_win elements from the first whose first function is at
        # least r - hw - p; those past the last element or starting after
        # r + hw weigh nothing, and take the last element's points
        e0 = next((e for e in range(n_el) if first[e] >= r - hw - p), n_el)
        powers = np.zeros((n_win * (p + 1), p + 1))
        window = np.zeros((n_win * (p + 1), width + 2 * p))
        for s in range(n_win):
            e = min(e0 + s, n_el - 1)
            live = e0 + s < n_el and first[e] <= r + hw
            for k in range(p + 1):
                u = (xq[e, k] - grev[r]) / hbar
                for m in range(p + 1):
                    powers[s * (p + 1) + k, m] = power(u, m)
                for f in range(p + 1 if live else 0):
                    window[s * (p + 1) + k, first[e] - r + hw + p + f] = wq[e, k] * values[e, k, f]
        moments = powers.T @ window
        for m in range(p + 1):
            for t in range(width):
                if 0 <= r - hw + t < n:
                    vals[r, m, t] = moments[m, p + t] / hbar
        coefs = [1.0] + [0.0] * p
        for k in range(p):
            root = knots[r + 1 + k] - grev[r]
            for i in range(k + 1, 0, -1):
                coefs[i] -= root * coefs[i - 1]
        for m in range(p + 1):
            exponent = np.full(1, m)
            rhs[r, m] = (power(-1.0, exponent) * fact[m] * fact[p - m]
                         / (fact[p] * power(hbar, exponent)) * coefs[m])
        for m in range(p + 1):
            norm = max(max(abs(v) for v in vals[r, m]), 1e-300)
            vals[r, m] /= norm
            rhs[r, m] /= norm
    return vals, rhs.ravel()


def loop_outlier_end_block(space, x_end, lo, m, p, K, left):
    """The nullspace block of the outlier constraints at one end, its rows
    sum_j d_j B_j^(2k)(x_end) = 0 filled entry by entry over k and the basis
    functions at the end: what ``OutlierConstraint._end_block`` must give bit
    for bit."""
    import scipy.linalg

    from iga_explicit.splinecore import eval_basis

    ev = eval_basis(space, x_end, max_deriv=2 * K)
    rows = np.zeros((K, p))
    for k in range(1, K + 1):
        for l, j in enumerate(ev.indices):
            jf = int(j) - lo
            col = jf if left else jf - (m - p)
            if 0 <= col < p:
                rows[k - 1, col] = ev.values[2 * k, l]
    _, sv, Vt = scipy.linalg.svd(rows)
    rank = int(np.sum(sv > sv[0] * 1e-10)) if len(sv) else 0
    return Vt[rank:].T


def csr_by_fill(A):
    """The storage rule on a built matrix: dense when its nonzeros reach
    ``DENSE_FILL`` of its entries, else CSR, converting between the two."""
    from iga_explicit.assembly import DENSE_FILL

    nonzeros = A.count_nonzero() if sp.issparse(A) else np.count_nonzero(A)
    if nonzeros >= DENSE_FILL * A.shape[0] * A.shape[1]:
        return A.toarray() if sp.issparse(A) else A
    return sp.csr_matrix(A)


def _full_entries(ev, parts):
    vals = ev.values
    data = sum(vals[:, test, :, None] * (u[:, None, None] * vals[:, trial, None, :])
               for test, trial, u in parts)
    rows, cols = np.broadcast_arrays(ev.indices[:, :, None], ev.indices[:, None, :])
    return data.ravel(), rows.ravel(), cols.ravel()


def _stacked_csr(blocks, shape, row_step, col_step):
    data, rows, cols = (np.concatenate(x) for x in zip(*blocks))
    block = np.repeat(np.arange(len(blocks)), [len(d) for d, _, _ in blocks])
    A = sp.csr_matrix((data, (rows + block * row_step, cols + block * col_step)), shape=shape)
    A.eliminate_zeros()
    return A


def csr_stiffness_kernel(system):
    """(outer, inner) of ``assembly._stiffness_kernel`` by the CSR route: the
    terms' COO entries on the full space summed into one CSR matrix per
    stacked factor, restricted to the free rows and, within each term's
    block, the free columns by fancy indexing, then stored by their fill.
    The form comes from a new system of the same inputs: a system drops the
    geometry grids of its form once its own kernel is built."""
    from iga_explicit.assembly import SEPARATION_TOL, DiscreteSystem, _separate, _stiffness_form

    evs = [system.tables(k)[3] for k in range(system.ndim)]
    n0, m = system.full_shape[0], int(np.prod(system.full_shape[1:]))
    form = _stiffness_form(DiscreteSystem(
        system.spaces, system.geometry, system.mass_kind, system.kappa,
        system.dirichlet, system.dual_halfwidth))
    bound = SEPARATION_TOL * max(np.max(np.abs(grid)) for grid, _, _ in form)
    groups = {}
    for grid, test, trial in form:
        groups.setdefault((tuple(test[1:]), tuple(trial[1:])), []).append(
            (grid, test[0], trial[0]))
    outer, inner = [], []
    for (tests, trials), entries in groups.items():
        stacked = np.concatenate([grid for grid, _, _ in entries])
        for u, v in _separate(stacked, bound):
            outer.append(_full_entries(evs[0], [(t, r, u_e) for (_, t, r), u_e in
                                                zip(entries, u.reshape(len(entries), -1))]))
            factor = (np.ones(1), np.zeros(1, dtype=int), np.zeros(1, dtype=int))
            for ev, t, r in zip(evs[1:], tests, trials):
                factor = _full_entries(ev, [(t, r, v)])
            inner.append(factor)
    n_terms = len(outer)
    outer = _stacked_csr(outer, (n0, n_terms * n0), 0, n0)
    inner = _stacked_csr(inner, (n_terms * m, m), m, 0)
    blocks = np.arange(n_terms)[:, None]
    (lo, hi), *rest = [system.free_range(k) for k in range(system.ndim)]
    outer = outer[lo:hi][:, (blocks * n0 + np.arange(lo, hi)).ravel()]
    for lo, hi in rest:
        inner = inner[(blocks * m + np.arange(lo, hi)).ravel()][:, lo:hi]
    return csr_by_fill(outer), csr_by_fill(inner)


def csr_factor_inverses(system):
    """The inverse of each factor of the system's mass by the CSR route: a
    Grammian's dense inverse, the lumped reciprocals as a diagonal matrix,
    the constrained dual S_c through its CSR form, stored by their fill."""
    from iga_explicit.dualbasis import grammian

    free = [slice(*system.free_range(k)) for k in range(system.ndim)]
    if system.mass_kind == "customized":
        return [csr_by_fill(cd.S.to_coo().tocsr()) for cd in system.constrained_duals]
    radial = system.geometry.radial_weight if system.geometry else None
    weights = [radial] + [None] * (system.ndim - 1)
    grams = [grammian(space, weight=w, points_per_element=system.mass_points)
             for space, w in zip(system.spaces, weights)]
    if system.mass_kind == "rowsum_lumped":
        return [csr_by_fill(sp.diags(1.0 / (G.to_coo().tocsr() @ np.ones(G.n))[f]))
                for G, f in zip(grams, free)]
    return [csr_by_fill((G if G.periodic else G.submatrix(f.start, f.stop)).dense_inverse())
            for G, f in zip(grams, free)]


def csr_run_terms(system, outlier=None):
    """(P, Q) of ``assembly.mass_inverse_stiffness`` by the CSR route, from
    the CSR-route kernel and factor inverses (the reduced radial factor,
    T^T F0 T, inverted densely as ``OutlierConstraint.reduce`` does): the
    P_t in one product, each Q_t from a CSR block of the stacked B_t, stored
    by their fill."""
    from iga_explicit.assembly import mass_operator

    outer, inner = csr_stiffness_kernel(system)
    m = inner.shape[1]
    n_terms = inner.shape[0] // m
    F0inv, *rest = csr_factor_inverses(system)
    if outlier is not None:
        T = outlier.T
        n, r = T.shape
        outer = ((T.T @ outer).reshape(r, n_terms, n) @ T).reshape(r, -1)
        F0inv = np.linalg.inv(T.T @ mass_operator(system).factors[0].to_dense() @ T)
    for inv in rest:
        inner = sp.csr_matrix(inner)
        blocks = [inv @ inner[t * m:(t + 1) * m] for t in range(n_terms)]
        inner = sp.vstack(blocks) if sp.issparse(inv) else np.vstack(blocks)
    return csr_by_fill(-(F0inv @ outer)), csr_by_fill(inner)


def dense_of(A):
    """The entries of a dense array or sparse matrix as a dense array."""
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def allocating_rk_step(tableau, rhs, state, dt):
    """One step y <- R(dt L) y that allocates a new sum at every power of L:
    the arithmetic and the memory orders the in-place step must reproduce."""
    from iga_explicit.dynamics import DynamicState

    d, v = state.d, state.v
    d_new, v_new = d, v
    for k, c in enumerate(tableau.coefficients[1:], start=1):
        d, v = v, rhs(d)
        d_new = d_new + c * dt**k * d
        v_new = v_new + c * dt**k * v
    return DynamicState(d_new, v_new, state.t + dt)


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


def loop_bessel_miller(n, x):
    """Miller's backward recurrence for J_n at arguments ``x``, checking
    every step for entries past 1e250 and rescaling them: the reference the
    package's recurrence must match bit for bit."""
    xmax = float(np.max(x))
    start = int(xmax + 12.0 * xmax ** (1.0 / 3.0) + n + 20)
    if start % 2:
        start += 1
    f_up = np.zeros_like(x)  # f_{k+1}
    f_k = np.full_like(x, 1e-30)
    target = np.zeros_like(x)
    even_sum = np.zeros_like(x)
    if n == start:
        target = f_k.copy()
    for k in range(start, 0, -1):
        f_dn = (2.0 * k / x) * f_k - f_up
        f_up = f_k
        f_k = f_dn
        idx = k - 1
        if idx == n:
            target = f_k.copy()
        if idx >= 2 and idx % 2 == 0:
            even_sum += 2.0 * f_k
        big = np.abs(f_k) > 1e250
        if np.any(big):
            scale = np.where(big, 1.0 / np.abs(f_k), 1.0)
            f_k *= scale
            f_up *= scale
            target *= scale
            even_sum *= scale
    norm = f_k + even_sum  # f_0 + 2 sum_{even k >= 2} f_k = 1
    return target / norm

"""Discrete operators on tensor-product spline patches.

Every tensor-product operation is one contraction, ``contract``: one
product and one transpose view per axis (sum factorization), for the mass and
projection solves, moments against the B-splines, and field values. A system
builds one mass, that of its own kind (Galerkin-consistent, customized with
explicitly sparse inverse, rowsum-lumped), on first use: a ``MassOperator``
of free-index per-direction factors from the b-form Grammians of its test
mode, which also carries its initial projection (``mass_operator``). An
explicit scheme needs only M^{-1}, so every factor, projections included, is an
``InverseFactor`` held as its inverse: a Grammian's inverse, the customized
mass's banded dual coefficient matrix S_c, or a lumped diagonal's
reciprocal. The Petrov mass is kept only as the dense oracle
``ApproximateDualBasis.product_dense``. Dirichlet sides are imposed by
restricting the univariate factors to the free indices;
the customized mass keeps a banded inverse there, the Schur complement
S_ff - S_fc S_cc^{-1} S_cf of the constrained dual.

A system's test functions follow from its mass kind (``MASS_KINDS``), read
through the read-only ``DiscreteSystem.test_mode``: B/c for the customized
kind, B for the others. The stiffness kernel, the moments and the initial
projection all use it.

The stiffness is a short sum of Kronecker products of sparse 1D factors
(low-rank Galerkin stiffness: Mantzaflaris, Juettler, Khoromskij and Langer,
CMAME 316, 2017). The coefficient grids of the form that share their
patterns on every axis but the first are separated together by fully
pivoted cross approximation, until no residual entry exceeds 1e-13 of the
largest coefficient. On the identity and annulus maps this gives 2 terms for
both the B-spline test functions and the dual ones B/c; a map whose grids do
not separate only adds terms. The kernel stacks the factors of all terms
into two matrices, so an apply is two products whatever the number of
terms. A system has one stiffness operator, ``DiscreteSystem.stiffness_kernel``,
on its free grids: each factor keeps only its entries on the free rows and
columns, so no apply pads zeros at Dirichlet ends. A 1D system has one term,
whose axis-0 factor is its free assembled stiffness.

The mass is a Kronecker product F0 (x) F1 of per-direction factors, so the
operator of an explicit run is a Kronecker sum too: M^{-1} K =
sum_t (F0^{-1} A_t) (x) (F1^{-1} B_t), held in the same stacked layout
(``mass_inverse_stiffness``), which makes a right-hand side two products
with no separate mass solve (sum factorization carried through the mass).

How a matrix that is multiplied repeatedly is stored follows from the matrix
alone, not from the mass kind it came from (``by_fill``): dense once its
nonzeros reach ``DENSE_FILL`` = 1/10 of its entries, CSR below, where the
measured cost of a sparse product crosses that of a dense one. That holds
for every factor's inverse, the stiffness kernel and the run operator's
stacked factors, and each is built straight into that storage from its
entries or from one product: no CSR form of a matrix stored dense, no dense
form of one stored as CSR.

``system.counters`` counts operator work. ``stiffness_applies`` adds 1 per
``stiffness_apply`` call and per run-operator apply (``dynamics.RunOperator``)
alike. ``mac_ops`` adds each call's multiply-adds by one definition, the
``macs`` of the ``KroneckerSum`` it applies: the stored entries of its two
operands (nonzeros, or the whole array when dense) times the length of the
other axis.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from .dualbasis import approximate_dual, constrain_dual, grammian
from .errors import NumericalError
from .geometry import _det2, _inv2, weight_gradient
from .quadrature import element_quadrature
from .splinecore import eval_basis

# mass kind -> the test functions of its b-form: the B-splines divided by the
# weight c ("dual") or the B-splines themselves ("standard")
MASS_KINDS = {
    "galerkin_consistent": "standard",
    "customized": "dual",
    "rowsum_lumped": "standard",
}


def contract(ops, grid):
    """``ops[k]`` along axis k of a grid of one or two axes (sum
    factorization: Antolin et al., CMAME 284, 2015). Each operator, a product
    or a factor's ``solve``, acts on the leading axis, which the transpose
    view then rotates to the back. A 2D result is in Fortran order."""
    for op in ops:
        grid = op(grid).T
    return grid


# ---------------------------------------------------------------------------
# univariate operator factors


# A matrix multiplied repeatedly is stored dense once its nonzeros reach this
# fraction of its entries, as CSR below it. Against a banded n x n matrix
# (bandwidths 7 and 15) times an n x k one (k = 33, 64), one BLAS thread, CSR
# took 2.6-5.6 times the dense time at n = 17, 1.3-3.2 at 65, 0.65-1.3 at 129
# and 0.26-0.45 at 257: the crossover lies near a fill of 1/10.
DENSE_FILL = 0.1


def by_fill(A):
    """A dense array or sparse matrix stored as it is cheaper to multiply by:
    dense when its nonzeros reach ``DENSE_FILL`` of its entries, else CSR.

    A sparse matrix goes straight to that storage from its entries, the
    duplicates of a COO one summed in their order: no CSR copy of a matrix
    stored dense and no dense copy of one stored as CSR."""
    if not sp.issparse(A):
        return A if np.count_nonzero(A) >= DENSE_FILL * A.size else sp.csr_matrix(A)
    A = A.tocoo()
    n_rows, n_cols = A.shape
    keys, where = np.unique(A.row.astype(np.int64) * n_cols + A.col, return_inverse=True)
    sums = np.bincount(where, weights=A.data)
    if np.count_nonzero(sums) >= DENSE_FILL * n_rows * n_cols:
        out = np.zeros(A.shape)
        out.flat[keys] = sums
        return out
    keys, sums = keys[sums != 0.0], sums[sums != 0.0]
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    return sp.csr_matrix((sums, keys % n_cols, indptr), shape=A.shape)


class InverseFactor:
    """Univariate mass or projection factor held as its inverse.

    ``inverse`` and ``dense`` are zero-argument callables: the first gives the
    matrix a solve multiplies by, formed on the first solve and kept, dense
    or CSR by its fill (``by_fill``); the second gives the factor itself, for
    the dense oracles and spectra. A diagonal inverse (the lumped kind's)
    solves by scaling rows, to the product's bits.
    """

    def __init__(self, n, inverse, dense):
        self.n = n
        self._inverse, self._dense = inverse, dense

    @cached_property
    def inverse(self):
        return by_fill(self._inverse())

    @cached_property
    def _scale(self):
        """The inverse's diagonal as a column if it has no other nonzero."""
        A, diagonal = self.inverse, self.inverse.diagonal()
        nonzeros = A.count_nonzero() if sp.issparse(A) else np.count_nonzero(A)
        return diagonal[:, None] if np.count_nonzero(diagonal) == nonzeros else None

    def solve(self, x):
        rows = x.reshape(self.n, -1)
        if self._scale is None:
            return (self.inverse @ rows).reshape(x.shape)
        return np.multiply(rows, self._scale, order="C").reshape(x.shape)  # C, as a product

    def to_dense(self):
        return self._dense()


class KroneckerOperator:
    """Tensor-product operator whose factor k acts along axis k of a grid.

    Flattening grids in column-major order turns the operator into the
    Kronecker product kron(factors[-1], ..., factors[0]).
    """

    def __init__(self, factors):
        self.factors = list(factors)

    def solve(self, grid):
        return contract([f.solve for f in self.factors], np.asarray(grid, dtype=float))


# ---------------------------------------------------------------------------
# the discrete system


class DiscreteSystem:
    """Trial spaces, geometry, mass kind, and Dirichlet sides of one patch.

    ``spaces`` holds one (1D problems) or two univariate spline spaces.
    ``dirichlet`` gives per-direction (left, right) flags; periodic directions
    cannot be constrained. The wave-speed-squared coefficient ``kappa``
    multiplies the stiffness form. The density ``rho``
    is 1 by default without a map; a map brings its own (``GeometryMap.rho``)
    and takes no other. Both must be positive and finite.

    A system is fixed once built: its inputs (``INPUTS``) cannot be assigned
    again, and its test mode and quadrature orders are read-only properties.
    What it builds on first use (duals, tables, geometry grids, its mass, the
    stiffness kernel) is a ``cached_property``, built once.
    """

    INPUTS = frozenset({"spaces", "geometry", "mass_kind", "kappa", "rho", "dirichlet",
                        "dual_halfwidth"})

    def __init__(
        self,
        spaces,
        geometry=None,
        mass_kind="customized",
        kappa=1.0,
        rho=None,
        dirichlet=None,
        dual_halfwidth=None,
    ):
        self.spaces = tuple(spaces)
        if len(self.spaces) not in (1, 2):
            raise ValueError("one or two spaces required")
        if len(self.spaces) == 1 and geometry is not None:
            raise ValueError("geometry maps apply to two-dimensional systems")
        if mass_kind not in MASS_KINDS:
            raise ValueError(f"unknown mass kind {mass_kind!r}")
        self.geometry = geometry
        self.mass_kind = mass_kind
        self.kappa = float(kappa)
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
        if geometry is not None and rho is not None:
            raise ValueError("rho comes from the geometry map; pass it to the map")
        self.rho = float(geometry.rho if geometry is not None else 1.0 if rho is None else rho)
        if not 0.0 < self.rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho!r}")
        if np.ndim(dual_halfwidth) and len(dual_halfwidth) != len(self.spaces):
            raise ValueError(
                f"dual_halfwidth has {len(dual_halfwidth)} entries for "
                f"{len(self.spaces)} directions"
            )
        self.dual_halfwidth = tuple(dual_halfwidth) if np.ndim(dual_halfwidth) else dual_halfwidth
        if dirichlet is None:
            dirichlet = [(False, False)] * len(self.spaces)
        self.dirichlet = tuple(tuple(bool(v) for v in d) for d in dirichlet)
        for space, (dl, dr) in zip(self.spaces, self.dirichlet):
            if space.periodic and (dl or dr):
                raise ValueError("cannot constrain a periodic direction")

        self.counters = {"stiffness_applies": 0, "mac_ops": 0}

    def __setattr__(self, name, value):
        if name in self.INPUTS and name in self.__dict__:
            raise AttributeError(f"{name!r} of a built DiscreteSystem cannot be assigned")
        super().__setattr__(name, value)

    @property
    def test_mode(self):
        """The test functions of the mass kind's b-form (``MASS_KINDS``):
        "dual" (B/c) or "standard" (B)."""
        return MASS_KINDS[self.mass_kind]

    # -- index bookkeeping ---------------------------------------------------

    @property
    def ndim(self):
        return len(self.spaces)

    @property
    def full_shape(self):
        return tuple(s.dimension for s in self.spaces)

    def free_range(self, k):
        n = self.spaces[k].dimension
        dl, dr = self.dirichlet[k]
        return (1 if dl else 0), (n - 1 if dr else n)

    @property
    def free_shape(self):
        return tuple(self.free_range(k)[1] - self.free_range(k)[0] for k in range(self.ndim))

    @property
    def n_free(self):
        return int(np.prod(self.free_shape))

    def inject(self, free_grid):
        """Place free coefficients into a full grid with zeros at constraints."""
        full = np.zeros(self.full_shape)
        sl = tuple(slice(*self.free_range(k)) for k in range(self.ndim))
        full[sl] = free_grid
        return full

    def extract(self, full_grid):
        sl = tuple(slice(*self.free_range(k)) for k in range(self.ndim))
        return np.asarray(full_grid)[sl]

    # -- dual bases ------------------------------------------------------------

    @property
    def dual_halfwidths(self):
        """Per-direction halfwidths of the duals, the degree where unset."""
        hw = self.dual_halfwidth
        if np.ndim(hw) == 0:
            hw = [hw] * len(self.spaces)
        return [s.degree if h is None else int(h) for s, h in zip(self.spaces, hw)]

    @cached_property
    def duals(self):
        return [approximate_dual(s, halfwidth=h)
                for s, h in zip(self.spaces, self.dual_halfwidths)]

    @cached_property
    def constrained_duals(self):
        return [constrain_dual(dual, left=dl, right=dr)
                for dual, (dl, dr) in zip(self.duals, self.dirichlet)]

    # -- tabulation ------------------------------------------------------------

    @property
    def mass_points(self):
        """Gauss points per element of the Grammians: p_max + 1."""
        return max(s.degree for s in self.spaces) + 1

    @property
    def stiffness_points(self):
        """Gauss points per element of every other integral (stiffness,
        moments, errors), the order of ``tables``: p_max + 2."""
        return self.mass_points + 1

    def tables(self, k):
        """Quadrature points, weights, the sparse value matrix E, and the
        batched basis evaluation (``eval_basis``, first derivatives included)
        it is built from, along axis k at ``stiffness_points``."""
        return self._axis_tables[k]

    @cached_property
    def _axis_tables(self):
        out = []
        for space in self.spaces:
            xq, wq = element_quadrature(space, self.stiffness_points)
            ev = eval_basis(space, xq, max_deriv=1)
            rows = np.repeat(np.arange(len(xq)), space.degree + 1)
            E = sp.coo_matrix((ev.values[:, 0].ravel(), (rows, ev.indices.ravel())),
                              shape=(len(xq), space.dimension)).tocsr()
            out.append((xq, wq, E, ev))
        return out

    def quadrature_grid(self):
        """Tensor quadrature weights W, det(F) and the weight c = det(F) rho
        on the quadrature grid (det(F) = 1 and c = rho without a map)."""
        W = reduce(np.multiply.outer, [self.tables(k)[1] for k in range(self.ndim)])
        if self.geometry is None:
            return W, 1.0, self.rho
        g = self.geometry_grids()
        return W, g["det"], g["c"]

    def evaluate(self, func, physical=False):
        """Values of a callable on the tensor quadrature grid: at the mapped
        points with ``physical`` and a geometry map, else the parametric ones.

        One-dimensional callables are called point by point, because
        vectorized ``x**q`` can round differently from scalar evaluation.
        Parametric 2D callables see the axes as (n1, 1) and (1, n2) operands
        (``np.ix_``), and their result is broadcast to the grid.
        """
        xs = [self.tables(k)[0] for k in range(self.ndim)]
        if self.ndim == 1:
            return np.array([func(x) for x in xs[0]])
        if physical and self.geometry is not None:
            g = self.geometry_grids()
            return func(g["X"], g["Y"])
        return np.broadcast_to(func(*np.ix_(*xs)), tuple(map(len, xs)))

    def geometry_grids(self):
        """Geometry factors at the tensor quadrature grid of a 2D system.

        The map sees the two axes as (n1, 1) and (1, n2) operands and is
        evaluated once: one Jacobian, from which A and c = det(F) rho follow,
        and, for the dual test functions B/c only, one Jacobian gradient,
        from which the gradient of c ("grad_c") follows. A and grad_c, which
        only the stiffness kernel reads, are dropped once it is built.
        """
        return self._geometry_grids

    @cached_property
    def _geometry_grids(self):
        if self.geometry is None:
            raise ValueError("geometry grids require a 2D system with a map")
        x1, x2 = self.tables(0)[0][:, None], self.tables(1)[0][None, :]
        geo = self.geometry
        # each full-grid temporary is dropped once consumed: F after F^{-1},
        # the Jacobian gradient (8 grids) before A is built, F^{-1} after A
        F = geo.jacobian(x1, x2)
        det = _det2(F)
        if np.min(det) <= 0.0:
            raise NumericalError("non-positive Jacobian determinant at quadrature point")
        Finv = _inv2(F, det)
        del F
        grids = {"det": det, "c": det * geo.rho}
        if self.test_mode == "dual":
            grids["grad_c"] = weight_gradient(geo.rho, det, Finv, geo.jacobian_gradient(x1, x2))
        # kappa * det(F) * F^{-1} F^{-T}, symmetric 2x2 per point
        A11 = self.kappa * det * (Finv[0, 0] ** 2 + Finv[0, 1] ** 2)
        A12 = self.kappa * det * (Finv[0, 0] * Finv[1, 0] + Finv[0, 1] * Finv[1, 1])
        A22 = self.kappa * det * (Finv[1, 0] ** 2 + Finv[1, 1] ** 2)
        del Finv
        XY = geo.value(x1, x2)
        grids.update(A=[[A11, A12], [A12, A22]], X=XY[0], Y=XY[1])
        return grids

    @cached_property
    def stiffness_kernel(self):
        """The stiffness form of the test mode on free grids, a
        ``KroneckerSum`` (``_stiffness_kernel``)."""
        kernel = _stiffness_kernel(self)
        for name in ("A", "grad_c"):  # read by the kernel only
            self.__dict__.get("_geometry_grids", {}).pop(name, None)
        return kernel

    @cached_property
    def mass(self):
        """The free-index ``MassOperator`` of the system's kind, Dirichlet
        included, built on the first ``mass_operator`` call.

        Its factors come from the per-direction Grammians b(test_i, B_j) of
        the test mode on the full space. The weight c cancels against the
        dual test functions B/c, which leaves the parametric Grammians the
        dual bases are built from; the B-splines themselves see the separable
        weight c1(x1) in direction 0.

        Every factor is an ``InverseFactor``, whose inverse is stored by its
        fill (``by_fill``), whatever the kind. Galerkin-consistent: the
        restricted geometry-weighted Grammians, which also project, with the
        inverses their Cholesky factors give. Rowsum-lumped: diagonals of
        their full rowsums, which project too, as an explicit production
        code would. Customized: the constrained dual coefficient matrices
        S_c, which are the inverses, projecting with the restricted
        parametric Grammians, where the dual coefficients cancel.
        """
        if self.test_mode == "dual":
            grams = [dual.G for dual in self.duals]
        else:
            weights = [self.radial_weight()] + [None] * (self.ndim - 1)
            grams = [grammian(space, weight=w, points_per_element=self.mass_points)
                     for space, w in zip(self.spaces, weights)]
        free = [slice(*self.free_range(k)) for k in range(self.ndim)]
        if self.mass_kind == "rowsum_lumped":
            rowsums = [G.rowsums()[f] for G, f in zip(grams, free)]
            if any(np.min(d) <= 0.0 for d in rowsums):
                raise NumericalError("non-positive rowsum in lumped mass")
            factors = projection = [
                InverseFactor(len(d), lambda d=d: sp.diags(1.0 / d), lambda d=d: np.diag(d))
                for d in rowsums]
        else:
            restricted = [G if G.periodic else G.submatrix(f.start, f.stop)
                          for G, f in zip(grams, free)]
            projection = [InverseFactor(G.n, G.dense_inverse, G.to_dense) for G in restricted]
            factors = projection if self.mass_kind == "galerkin_consistent" else [
                InverseFactor(cd.S.n, cd.S.to_coo, cd.S.dense_inverse)
                for cd in self.constrained_duals]
        return MassOperator(factors, KroneckerOperator(projection))

    def radial_weight(self):
        """Separable part c1(x1) of the weight field (c2 must be constant 1),
        array-valued: the map's ``radial_weight``, checked once per map; the
        constant density without a map, None for a unit density."""
        if self.geometry is None:
            return (lambda x: self.rho) if self.rho != 1.0 else None
        return self.geometry.radial_weight


# ---------------------------------------------------------------------------
# masses


class MassOperator(KroneckerOperator):
    """Kronecker-factorized mass of one kind acting on free coefficient grids.

    ``projection`` is the KroneckerOperator whose solve, against the moments
    of the initial data, projects that data.
    """

    def __init__(self, factors, projection):
        super().__init__(factors)
        self.projection = projection


def mass_operator(system):
    """The free-index mass of the system's own kind (``DiscreteSystem.mass``),
    built on the first call and cached on the system."""
    return system.mass


# ---------------------------------------------------------------------------
# matrix-free stiffness


# cross approximation stops once every residual entry is at most this
# fraction of the largest coefficient of the form
SEPARATION_TOL = 1e-13

# a rank-1 update of the cross approximation subtracts its outer product in
# this many blocks of rows, so that its temporary is this fraction of the grid
SEPARATION_BLOCKS = 8


def _stiffness_form(system):
    """The stiffness form as (coefficient grid, test pattern, trial pattern)
    entries on the quadrature grid; a pattern holds one flag per axis, 1 for
    the derivative table and 0 for the values, for the system's test mode.

    The entries are ``W A_ab`` (``W A_ab / c`` in dual mode) between the
    derivatives along axes a and b, with A = kappa det(F) F^{-1} F^{-T}
    (kappa I without a map). In dual mode the gradient of 1/c adds
    ``R_b = -W sum_a c_a A_ab / c^2`` between values and derivatives along b.
    """
    W, _, c = system.quadrature_grid()
    axes = range(system.ndim)
    if system.geometry is None:
        A, grad_c = system.kappa * np.eye(system.ndim), np.zeros(system.ndim)
    else:
        g = system.geometry_grids()
        A, grad_c = g["A"], g.get("grad_c")  # grad_c: dual test mode only
    dual = system.test_mode == "dual"
    derivative = np.eye(system.ndim, dtype=int)  # row a: the derivative along axis a
    scale = W / c if dual else W
    form = [(scale * A[a][b], derivative[a], derivative[b]) for a in axes for b in axes]
    if dual:
        weight = -W / c**2
        del W, scale  # two grids fewer at the products below
        values = np.zeros(system.ndim, dtype=int)
        form += [(weight * sum(grad_c[a] * A[a][b] for a in axes), values, derivative[b])
                 for b in axes]
    return form


def _separate(grid, bound):
    """Terms (u, v) with grid = sum u (x) v up to ``bound`` in every entry,
    by fully pivoted cross approximation over the first axis and the rest.

    Each step takes the largest residual entry (i, j) and subtracts the
    outer product of residual column j and residual row i / R[i, j], which
    zeros that row and column. A one-axis grid is a single column, whose row
    factor is exactly 1. A float array is overwritten by the residual: the
    search and the update work in place, with no temporary of its size.
    """
    R = np.asarray(grid, dtype=float).reshape(len(grid), -1)
    step = -(-len(R) // SEPARATION_BLOCKS)
    terms = []
    for _ in range(min(R.shape) + 1):
        # the first largest |R|: the first of argmax R and argmin R on a tie
        hi, lo = R.argmax(), R.argmin()
        top, bottom = R.flat[hi], -R.flat[lo]
        i, j = np.unravel_index(hi if top > bottom else lo if bottom > top else min(hi, lo),
                                R.shape)
        if abs(R[i, j]) <= bound:
            return terms
        u, v = R[:, j].copy(), R[i] / R[i, j]
        for rows in range(0, len(R), step):
            R[rows:rows + step] -= np.outer(u[rows:rows + step], v)
        terms.append((u, v))
    raise NumericalError("stiffness coefficient grid did not separate")


def _entries(ev, free, parts):
    """COO entries (data, rows, cols) on the index range ``free`` = (lo, hi),
    counted from lo, of the sum over ``parts`` (test, trial, u) of
    X^T diag(u) Y, X and Y the test and trial tables (0 values, 1
    derivatives) of the batched evaluation ``ev`` at the quadrature points.

    The points of a run with the same basis indices, an element's, are
    summed first; ``by_fill`` sums the remaining duplicates."""
    vals, idx = ev.values, ev.indices
    data = sum(vals[:, test, :, None] * (u[:, None, None] * vals[:, trial, None, :])
               for test, trial, u in parts)
    starts = np.flatnonzero(np.r_[True, np.any(idx[1:] != idx[:-1], axis=1)])
    data, idx = np.add.reduceat(data, starts), idx[starts] - free[0]
    rows, cols = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
    keep = (rows >= 0) & (rows < free[1] - free[0]) & (cols >= 0) & (cols < free[1] - free[0])
    return data[keep], rows[keep], cols[keep]


def _stacked(blocks, shape, row_step, col_step):
    """One COO matrix of the entries of its blocks, block t shifted by
    t row_step rows and t col_step columns."""
    data, rows, cols = (np.concatenate(x) for x in zip(*blocks))
    block = np.repeat(np.arange(len(blocks)), [len(d) for d, _, _ in blocks])
    return sp.coo_matrix((data, (rows + block * row_step, cols + block * col_step)), shape=shape)


def _stored(A):
    """Stored entries of a dense or CSR matrix."""
    return A.nnz if sp.issparse(A) else A.size


class KroneckerSum:
    """sum_t P_t (x) Q_t on coefficient grids, P_t along axis 0 and Q_t along
    the rest.

    A grid is viewed as X of shape (n0, m), m the product of the trailing
    dimensions (1 in 1D, where each Q_t is the 1 x 1 matrix [1]). ``outer``
    holds the P_t side by side (n0 x T n0) and ``inner`` the Q_t stacked
    vertically (T m x m), each a dense array or CSR matrix (``storage``), so
    an apply is two products whatever the number of terms. ``macs`` counts
    the multiply-adds of one apply: the stored entries of ``outer`` times m,
    plus those of ``inner`` times n0; a dense operand stores all its entries.
    """

    def __init__(self, outer, inner):
        self.outer, self.inner = outer, inner
        self.m = inner.shape[1]
        self.n_terms = inner.shape[0] // self.m
        self.macs = _stored(outer) * self.m + _stored(inner) * outer.shape[0]

    @property
    def storage(self):
        """The storage of ``outer`` and ``inner``: "dense" or "csr"."""
        return {name: "csr" if sp.issparse(A) else "dense"
                for name, A in (("outer", self.outer), ("inner", self.inner))}

    def apply(self, grid):
        """sum_t P_t X Q_t^T: the Q_t act on X^T at once, and the stacked
        results, transposed to (T n0, m), meet the P_t in one product."""
        n0, m = len(grid), self.m
        y = self.inner @ grid.reshape(n0, m).T
        return (self.outer @ y.reshape(-1, m, n0).transpose(0, 2, 1).reshape(-1, m)
                ).reshape(grid.shape)


def _stiffness_kernel(system):
    """The stiffness form of a system's test mode on its free grids, as a
    short sum of Kronecker products, A_t along axis 0 and B_t along the rest
    (``KroneckerSum``).

    The entries of the form that share their test and trial patterns on
    every axis but the first are stacked along that axis and separated
    together (``_separate``), so each term sum_e u_e (x) v shares its
    trailing factor B_t, the product over the other axes of X^T diag(v) Y,
    while its axis-0 factor A_t sums X_e^T diag(u_e) Y_e over the entries.
    The supported maps give 2 terms in both test modes; a non-separable map
    only adds terms. Each factor keeps only its entries on the free indices,
    and each stacked matrix is summed straight into the storage of its fill
    (``by_fill``).
    """
    evs = [system.tables(k)[3] for k in range(system.ndim)]
    free = [system.free_range(k) for k in range(system.ndim)]
    n0, m = system.free_shape[0], int(np.prod(system.free_shape[1:]))
    groups, bound = {}, 0.0
    for grid, test, trial in _stiffness_form(system):
        bound = max(bound, grid.max(), -grid.min())
        key = (tuple(test[1:]), tuple(trial[1:]))
        groups.setdefault(key, []).append((grid, test[0], trial[0]))
    bound *= SEPARATION_TOL
    del grid
    outer, inner = [], []
    while groups:
        # in insertion order, which fixes the order of the terms; each
        # group's grids are dropped once stacked, and separated in place
        tests, trials = key = next(iter(groups))
        entries = groups.pop(key)
        stacked = np.concatenate([grid for grid, _, _ in entries])
        patterns = [(t, r) for _, t, r in entries]
        del entries
        for u, v in _separate(stacked, bound):
            outer.append(_entries(evs[0], free[0], [(t, r, u_e) for (t, r), u_e in
                                                    zip(patterns, u.reshape(len(patterns), -1))]))
            # B_t: a system has one axis after the first at most, and 1D has [1]
            factor = (np.ones(1), np.zeros(1, dtype=int), np.zeros(1, dtype=int))
            for ev, f, t, r in zip(evs[1:], free[1:], tests, trials):
                factor = _entries(ev, f, [(t, r, v)])
            inner.append(factor)
    n_terms = len(outer)
    return KroneckerSum(by_fill(_stacked(outer, (n0, n_terms * n0), 0, n0)),
                        by_fill(_stacked(inner, (n_terms * m, m), m, 0)))


def stiffness_apply(system, d_free):
    """Matrix-free action of the stiffness form on a free coefficient grid.

    In the system's dual test mode the test functions are B_i / c (the
    gradient is expanded as grad(B)/c - B grad(c)/c^2); in the standard one
    they are the B-splines themselves. The cached kernel applies all its
    Kronecker terms in two products; the counters add one apply and the
    kernel's ``macs``, the definition a run-operator apply counts by.
    """
    kernel = system.stiffness_kernel
    system.counters["stiffness_applies"] += 1
    system.counters["mac_ops"] += kernel.macs
    return kernel.apply(np.asarray(d_free, dtype=float))


def assembled_stiffness_1d(system):
    """Sparse assembled stiffness of a 1D system on its free indices: its
    kernel's single axis-0 factor as CSR (oracle and spectrum path)."""
    if system.ndim != 1:
        raise ValueError("assembled path is one-dimensional")
    return sp.csr_matrix(system.stiffness_kernel.outer)


def mass_inverse_stiffness(mass, kernel):
    """-M^{-1} K as a KroneckerSum on the grids of a mass ``MassOperator``
    M = F0 (x) F1 and a stiffness ``KroneckerSum`` K = sum_t A_t (x) B_t.

    M^{-1} K = sum_t P_t (x) Q_t with P_t = F0^{-1} A_t and Q_t = F1^{-1} B_t.
    The sign is folded into the P_t. The stacked P_t and Q_t are each stored
    by their own fill (``by_fill``), whatever the storage of the factors they
    come from.
    """
    inner = kernel.inner
    F0, *rest = mass.factors
    for F1 in rest:
        inner = _blockwise(F1.inverse, inner)
    return KroneckerSum(by_fill(-(F0.inverse @ kernel.outer)), by_fill(inner))


def _blockwise(A, stacked):
    """A B_t for every block B_t of ``stacked`` (the B_t stacked vertically),
    in the same layout, by one product: sparse with T copies of A on the
    diagonal when both are CSR, else dense with the B_t side by side."""
    m = A.shape[1]
    if sp.issparse(A) and sp.issparse(stacked):
        return sp.kron(sp.identity(stacked.shape[0] // m), A, format="csr") @ stacked
    B = stacked.toarray() if sp.issparse(stacked) else stacked
    side = B.reshape(-1, m, m).transpose(1, 0, 2).reshape(m, -1)
    return (A @ side).reshape(m, -1, m).transpose(1, 0, 2).reshape(stacked.shape)


# ---------------------------------------------------------------------------
# initial data


def moments(system, func_param):
    """Moment grid b(test_i, v) of a field v given on parametric coordinates,
    against the test functions of the system's test mode.

    The weight c cancels against the dual test functions B/c, leaving the
    parametric moments <B_i, v>; the B-splines themselves give <B_i, c v>.
    """
    W, _, c = system.quadrature_grid()
    vals = system.evaluate(func_param)
    if system.test_mode == "standard":
        vals = vals * c
    out = W * vals
    # the last axis first, by contracting the transposed grid: axis 0 first
    # rounds differently, moving annulus L2 errors by up to 3e-13
    return contract([system.tables(k)[2].T.__matmul__ for k in reversed(range(system.ndim))],
                    out.T).T


def project_initial(system, u0_param):
    """Initial coefficients from the method's own mass equations.

    ``u0_param`` is the initial field composed with the geometry map, i.e. a
    callable on parametric coordinates. Its moments against the kind's test
    functions are solved with the kind's projection (``mass_operator``). The
    dual-weighted kind solves its consistent projection once at setup, where
    the dual coefficients cancel and the equations reduce to the parametric
    L2 projection (a banded per-direction solve); the Galerkin-consistent
    kind projects in the geometry-weighted metric. The rowsum-lumped kind
    stays fully lumped, dividing by its diagonal as an explicit production
    code would; its initial data is therefore only second-order accurate,
    consistent with the accuracy of the method itself.
    """
    return mass_operator(system).projection.solve(system.extract(moments(system, u0_param)))

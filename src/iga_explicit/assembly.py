"""Discrete operators on tensor-product spline patches.

Mass matrices in their four variants (Galerkin-consistent, Petrov-consistent,
customized with explicitly sparse inverse, rowsum-lumped) all keep a
per-direction Kronecker factorization; the stiffness action is evaluated
matrix-free with sum factorization through per-direction sparse evaluation
matrices. Dirichlet constraints are imposed separately per side of the patch
by restricting the univariate factors; the customized mass keeps its
factorization through per-factor Woodbury-constrained operators.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .banded import BandedSymmetricMatrix
from .dualbasis import ConstrainedDual, approximate_dual, constrain_dual, grammian
from .errors import NumericalError
from .geometry import _det2, _inv2, weight_field
from .quadrature import element_quadrature
from .splinecore import eval_basis

MASS_KINDS = ("galerkin_consistent", "petrov_consistent", "customized", "rowsum_lumped")


# ---------------------------------------------------------------------------
# univariate operator factors


class DenseFactor:
    """Dense univariate factor (used for products like S G and small oracles)."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        self.n = self.mat.shape[0]

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        return (self.mat @ x.reshape(self.n, -1)).reshape((self.mat.shape[0],) + x.shape[1:])

    def todense(self):
        return self.mat

    def restricted(self, lo, hi):
        return DenseFactor(self.mat[lo:hi, lo:hi])

    @property
    def storage_entries(self):
        return self.mat.size


class DiagonalFactor:
    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)
        self.n = len(self.diag)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        return (self.diag[:, None] * x.reshape(self.n, -1)).reshape(x.shape)

    def solve(self, x):
        x = np.asarray(x, dtype=float)
        return (x.reshape(self.n, -1) / self.diag[:, None]).reshape(x.shape)

    def todense(self):
        return np.diag(self.diag)

    def restricted(self, lo, hi):
        return DiagonalFactor(self.diag[lo:hi])

    @property
    def storage_entries(self):
        return self.n


class BandedFactor:
    """Adapter presenting a BandedSymmetricMatrix as an operator factor."""

    def __init__(self, banded):
        self.banded = banded
        self.n = banded.n

    def matvec(self, x):
        return self.banded.matvec(x)

    def solve(self, x):
        return self.banded.solve(x)

    def todense(self):
        return self.banded.to_dense()

    def restricted(self, lo, hi):
        return BandedFactor(self.banded.submatrix(lo, hi))

    @property
    def storage_entries(self):
        return self.banded.storage_entries


class WoodburyFactor(DenseFactor):
    """Customized mass factor on free indices: its solve is the constrained
    dual coefficient operator, applied through the Woodbury updates."""

    def __init__(self, constrained):
        super().__init__(np.linalg.inv(constrained.dense_free()))
        self.constrained = constrained

    def solve(self, x):
        return self.constrained.apply_free(x)

    @property
    def storage_entries(self):
        base = self.constrained.parent.S.storage_entries
        extra = sum(Z.size + W.size + 4 for (Z, W, _) in self.constrained._updates)
        return base + extra


class KroneckerOperator:
    """Tensor-product operator factor2 (x) factor1 acting on coefficient grids.

    Grids are indexed (i1, i2); flattening with column-major order corresponds
    to the Kronecker product kron(dense(factor2), dense(factor1)).
    """

    def __init__(self, factors):
        self.factors = list(factors)

    @property
    def factor1(self):
        return self.factors[0]

    @property
    def factor2(self):
        return self.factors[1]

    @property
    def shape_grid(self):
        return tuple(f.n for f in self.factors)

    def apply(self, grid):
        grid = np.asarray(grid, dtype=float)
        out = self.factors[0].matvec(grid)
        if len(self.factors) == 2:
            out = self.factors[1].matvec(out.T).T
        return out

    def solve(self, grid):
        grid = np.asarray(grid, dtype=float)
        out = self.factors[0].solve(grid)
        if len(self.factors) == 2:
            out = self.factors[1].solve(out.T).T
        return out

    def to_dense(self):
        if len(self.factors) == 1:
            return self.factors[0].todense()
        return np.kron(self.factors[1].todense(), self.factors[0].todense())

    @property
    def storage_entries(self):
        return sum(f.storage_entries for f in self.factors)


def grid_to_vec(grid):
    """Column-major flattening consistent with the Kronecker convention."""
    return np.asarray(grid).reshape(-1, order="F")


def vec_to_grid(vec, shape):
    return np.asarray(vec).reshape(shape, order="F")


# ---------------------------------------------------------------------------
# the discrete system


class DiscreteSystem:
    """Trial spaces, geometry, mass kind, and Dirichlet sides of one patch.

    ``spaces`` holds one (1D problems) or two univariate spline spaces.
    ``dirichlet`` gives per-direction (left, right) flags; periodic directions
    cannot be constrained. The wave-speed-squared coefficient ``kappa``
    multiplies the stiffness form.
    """

    def __init__(
        self,
        spaces,
        geometry=None,
        mass_kind="customized",
        kappa=1.0,
        rho=1.0,
        dirichlet=None,
        dual_halfwidth=None,
        mass_points=None,
        stiffness_points=None,
    ):
        self.spaces = list(spaces)
        if len(self.spaces) not in (1, 2):
            raise ValueError("one or two spaces required")
        if len(self.spaces) == 1 and geometry is not None:
            raise ValueError("geometry maps apply to two-dimensional systems")
        if mass_kind not in MASS_KINDS:
            raise ValueError(f"unknown mass kind {mass_kind!r}")
        self.geometry = geometry
        self.mass_kind = mass_kind
        self.kappa = float(kappa)
        self.rho = float(geometry.rho) if geometry is not None else float(rho)
        self.dual_halfwidth = dual_halfwidth
        if dirichlet is None:
            dirichlet = [(False, False)] * len(self.spaces)
        self.dirichlet = [tuple(bool(v) for v in d) for d in dirichlet]
        for space, (dl, dr) in zip(self.spaces, self.dirichlet):
            if space.periodic and (dl or dr):
                raise ValueError("cannot constrain a periodic direction")
        p_max = max(s.degree for s in self.spaces)
        self.mass_points = mass_points or (p_max + 1)
        self.stiffness_points = stiffness_points or (p_max + 2)

        self.counters = {"stiffness_applies": 0, "mac_ops": 0, "quad_points": 0}
        self._tables = {}
        self._geom_cache = {}
        self._duals = None
        self._cduals = None
        self._weight1d = None
        self._kernels = {}

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
    def duals(self):
        if self._duals is None:
            hw = self.dual_halfwidth
            if hw is None or np.ndim(hw) == 0:
                hw = [hw] * len(self.spaces)
            self._duals = [
                approximate_dual(s, halfwidth=h) for s, h in zip(self.spaces, hw)
            ]
        return self._duals

    @property
    def constrained_duals(self):
        if self._cduals is None:
            self._cduals = [
                constrain_dual(dual, left=dl, right=dr)
                for dual, (dl, dr) in zip(self.duals, self.dirichlet)
            ]
        return self._cduals

    # -- tabulation ------------------------------------------------------------

    def tables(self, k, points_per_element):
        """Quadrature points, weights, and sparse value/derivative matrices."""
        key = (k, points_per_element)
        if key in self._tables:
            return self._tables[key]
        space = self.spaces[k]
        xq, wq = element_quadrature(space, points_per_element)
        rows, cols, vdat, ddat = [], [], [], []
        for i, x in enumerate(xq):
            ev = eval_basis(space, x, max_deriv=1)
            for l, j in enumerate(ev.indices):
                rows.append(i)
                cols.append(int(j))
                vdat.append(ev.values[0, l])
                ddat.append(ev.values[1, l])
        shape = (len(xq), space.dimension)
        E = sp.coo_matrix((vdat, (rows, cols)), shape=shape).tocsr()
        D = sp.coo_matrix((ddat, (rows, cols)), shape=shape).tocsr()
        entry = (xq, wq, E, D)
        self._tables[key] = entry
        return entry

    def geometry_grids(self, points_per_element):
        """Geometry factors at the tensor quadrature grid of a 2D system."""
        if points_per_element in self._geom_cache:
            return self._geom_cache[points_per_element]
        xq1, wq1, _, _ = self.tables(0, points_per_element)
        xq2, wq2, _, _ = self.tables(1, points_per_element)
        X1 = xq1[:, None] * np.ones((1, len(xq2)))
        X2 = np.ones((len(xq1), 1)) * xq2[None, :]
        if self.geometry is None:
            raise ValueError("geometry grids require a 2D system with a map")
        geo = self.geometry
        F = geo.jacobian(X1, X2)
        det = _det2(F)
        if np.min(det) <= 0.0:
            raise NumericalError("non-positive Jacobian determinant at quadrature point")
        Finv = _inv2(F, det)
        # kappa * det(F) * F^{-1} F^{-T}, symmetric 2x2 per point
        A11 = self.kappa * det * (Finv[0, 0] ** 2 + Finv[0, 1] ** 2)
        A12 = self.kappa * det * (Finv[0, 0] * Finv[1, 0] + Finv[0, 1] * Finv[1, 1])
        A22 = self.kappa * det * (Finv[1, 0] ** 2 + Finv[1, 1] ** 2)
        c_fn, grad_c_fn = weight_field(geo)
        c = c_fn(X1, X2)
        grad_c = grad_c_fn(X1, X2)
        XY = geo.value(X1, X2)
        W = wq1[:, None] * wq2[None, :]
        grids = {
            "A11": A11,
            "A12": A12,
            "A22": A22,
            "det": det,
            "c": c,
            "cx": grad_c[0],
            "cy": grad_c[1],
            "X": XY[0],
            "Y": XY[1],
            "W": W,
        }
        self._geom_cache[points_per_element] = grids
        return grids

    def radial_weight(self):
        """Separable part c1(x1) of the weight field (c2 must be constant 1).

        The supported geometry maps have weights depending on x1 only; this is
        verified on a sample grid.
        """
        if self._weight1d is not None:
            return self._weight1d
        if self.geometry is None:
            self._weight1d = None
            return None
        c_fn, _ = weight_field(self.geometry)
        xs = np.linspace(0.0, 1.0, 17)
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        vals = c_fn(X1, X2)
        sep = vals[:, :1] * np.ones((1, len(xs)))
        if np.max(np.abs(vals - sep)) > 1e-10 * np.max(np.abs(vals)):
            raise NumericalError("weight field is not separable; unsupported geometry")
        self._weight1d = lambda x: float(c_fn(np.asarray(x, float), 0.0))
        return self._weight1d


# ---------------------------------------------------------------------------
# mass operators


class MassOperator:
    """Kronecker-factorized mass with ``apply`` and ``solve`` in free indices."""

    def __init__(self, kind, kron_apply, kron_solve=None, diag=None, storage=0):
        self.kind = kind
        self._apply = kron_apply
        self._solve = kron_solve
        self.diag = diag
        self.storage_entries = storage

    def apply(self, grid):
        return self._apply(grid)

    def solve(self, grid):
        if self._solve is None:
            raise NumericalError(f"mass kind {self.kind} has no solve path")
        return self._solve(grid)


def _galerkin_factors(system):
    """Per-direction Grammian factors of the geometry-weighted Galerkin mass."""
    factors = []
    for k, space in enumerate(system.spaces):
        weight = None
        if k == 0:
            if system.geometry is not None:
                weight = system.radial_weight()
            elif system.rho != 1.0:
                weight = lambda x: system.rho
        G = grammian(space, weight=weight, points_per_element=system.mass_points)
        factors.append(G)
    return factors


def _mass_factors(system):
    """Free-index per-direction factors of the system's Kronecker mass; each
    factor's ``todense`` is the mass factor and its ``solve`` the inverse."""
    kind = system.mass_kind
    if kind == "galerkin_consistent":
        return galerkin_gram_operator(system).factors
    if kind == "customized":
        return [WoodburyFactor(cd) for cd in system.constrained_duals]
    if kind == "rowsum_lumped":
        diags = [G.rowsums()[slice(*system.free_range(k))]
                 for k, G in enumerate(_galerkin_factors(system))]
        if any(np.min(d) <= 0.0 for d in diags):
            raise NumericalError("non-positive rowsum in lumped mass")
        return [DiagonalFactor(d) for d in diags]
    raise ValueError(f"mass kind {kind!r} has no factored solve")


def mass_operator(system):
    """Build the mass operator of the system's kind, Dirichlet included."""
    kind = system.mass_kind
    if kind == "petrov_consistent":
        factors = []
        for k, dual in enumerate(system.duals):
            C = dual.S.to_dense() @ dual.G.to_dense()
            lo, hi = system.free_range(k)
            factors.append(DenseFactor(C[lo:hi, lo:hi]))
        op = KroneckerOperator(factors)
        return MassOperator(kind, op.apply, None, storage=op.storage_entries)

    op = KroneckerOperator(_mass_factors(system))
    diag = None
    if kind == "rowsum_lumped":
        diags = [f.diag for f in op.factors]
        diag = diags[0] if system.ndim == 1 else np.outer(diags[0], diags[1])
    return MassOperator(kind, op.apply, op.solve, diag=diag, storage=op.storage_entries)


# ---------------------------------------------------------------------------
# matrix-free stiffness


def _test_mode(system, override=None):
    if override is not None:
        return override
    return "dual" if system.mass_kind in ("customized", "petrov_consistent") else "standard"


class _StiffnessKernel:
    """Per-axis evaluation matrices and fused pointwise coefficient grids of
    one stiffness form, applied to full coefficient grids.

    The 2D grids are stored transposed, ``(nq2, nq1)``, which is the layout
    the sparse products return: ``B_ij = W A_ij`` (``W A_ij / c`` in dual
    mode) and, in dual mode, ``R_k = -W (c_x A_1k + c_y A_2k) / c^2`` for the
    term the gradient of 1/c adds to the test function.
    """

    def __init__(self, system, mode):
        self.dual = mode == "dual"
        self.ndim = system.ndim
        pts = system.stiffness_points
        if self.ndim == 1:
            xq, wq, _, D = system.tables(0, pts)
            self.D1, self.D1T = D, D.T.tocsr()
            scale = system.kappa / system.rho if self.dual else system.kappa
            self.w = scale * wq
            self.macs = 2 * D.nnz
            self.quad_points = len(xq)
            return
        _, _, E1, D1 = system.tables(0, pts)
        _, _, E2, D2 = system.tables(1, pts)
        self.E1, self.D1, self.E2, self.D2 = E1, D1, E2, D2
        self.E1T, self.D1T, self.E2T, self.D2T = (
            M.T.tocsr() for M in (E1, D1, E2, D2)
        )
        g = system.geometry_grids(pts)
        W = g["W"] / g["c"] if self.dual else g["W"]
        self.B11, self.B12, self.B22 = (
            np.ascontiguousarray((W * g[name]).T) for name in ("A11", "A12", "A22")
        )
        if self.dual:
            Wc2 = -g["W"] / g["c"] ** 2
            self.R1 = np.ascontiguousarray((Wc2 * (g["cx"] * g["A11"] + g["cy"] * g["A12"])).T)
            self.R2 = np.ascontiguousarray((Wc2 * (g["cx"] * g["A12"] + g["cy"] * g["A22"])).T)
        (nq1, n1), (nq2, n2) = E1.shape, E2.shape
        self.macs = D1.nnz * n2 + E2.nnz * nq1 + E1.nnz * n2 + D2.nnz * nq1
        if self.dual:
            self.macs += (D1.nnz + 2 * E1.nnz) * nq2 + (2 * E2.nnz + D2.nnz) * n1
        else:
            self.macs += (D1.nnz + E1.nnz) * nq2 + (E2.nnz + D2.nnz) * n1
        self.quad_points = nq1 * nq2

    def apply(self, full):
        if self.ndim == 1:
            return self.D1T @ (self.w * (self.D1 @ full))
        UX = self.E2 @ (self.D1 @ full).T
        UY = self.D2 @ (self.E1 @ full).T
        q1 = self.B11 * UX
        q1 += self.B12 * UY
        if self.dual:
            q0 = self.R1 * UX
            q0 += self.R2 * UY
        # q2 = B12 UX + B22 UY, built in the buffers of UX and UY
        UX *= self.B12
        UY *= self.B22
        UY += UX
        rest = self.D2T @ UY
        if self.dual:
            rest += self.E2T @ q0
        return self.D1T @ (self.E2T @ q1).T + self.E1T @ rest.T


def _stiffness_kernel(system, mode):
    """The system's cached stiffness kernel for a test mode."""
    key = (mode, system.stiffness_points)
    kernel = system._kernels.get(key)
    if kernel is None:
        kernel = system._kernels[key] = _StiffnessKernel(system, mode)
    return kernel


def _stiffness_full(system, full_grid, mode):
    """Stiffness action on a full coefficient grid, constrained slots included."""
    kernel = _stiffness_kernel(system, mode)
    system.counters["stiffness_applies"] += 1
    system.counters["mac_ops"] += kernel.macs
    system.counters["quad_points"] += kernel.quad_points
    return kernel.apply(full_grid)


def stiffness_apply(system, d_free, test_mode=None):
    """Matrix-free action of the stiffness form on a free coefficient grid.

    With ``test_mode='dual'`` the test functions are B_i / c (the gradient is
    expanded as grad(B)/c - B grad(c)/c^2); with ``'standard'`` they are the
    B-splines themselves. Sum factorization sweeps one direction at a time
    through sparse evaluation matrices.
    """
    mode = _test_mode(system, test_mode)
    return system.extract(_stiffness_full(system, system.inject(d_free), mode))


def assembled_stiffness_1d(system, test_mode=None):
    """Banded assembled stiffness for 1D systems (oracle and spectrum path)."""
    if system.ndim != 1:
        raise ValueError("assembled path is one-dimensional")
    mode = _test_mode(system, test_mode)
    space = system.spaces[0]
    p = space.degree
    xq, wq = element_quadrature(space, system.stiffness_points)
    n = space.dimension
    K = BandedSymmetricMatrix(n, min(p, n - 1), periodic=space.periodic)
    scale = system.kappa / (system.rho if mode == "dual" else 1.0)
    for x, w in zip(xq, wq):
        ev = eval_basis(space, x, max_deriv=1)
        der = ev.values[1]
        idx = ev.indices
        for a in range(len(idx)):
            for b in range(a, len(idx)):
                if not space.periodic and idx[a] > idx[b]:
                    continue
                K.add_at(idx[a], idx[b], scale * w * der[a] * der[b])
    return K


# ---------------------------------------------------------------------------
# load vector and initial data


def load_vector(system, f=None, neumann=None, lift=None, lift_accel=None, test_mode=None):
    """Assemble the load against the system's test functions on free indices.

    ``f`` is a callable on physical coordinates. ``neumann`` supplies endpoint
    flux values (h_left, h_right) for 1D systems. ``lift`` and ``lift_accel``
    are full coefficient grids of a Dirichlet lift g and its acceleration;
    their stiffness and mass contributions are subtracted.
    """
    mode = _test_mode(system, test_mode)

    if system.ndim == 1:
        space = system.spaces[0]
        xq, wq, E, D = system.tables(0, system.stiffness_points)
        vec = np.zeros(space.dimension)
        if f is not None:
            fv = np.array([f(x) for x in xq])
            scale = 1.0 / system.rho if mode == "dual" else 1.0
            vec += E.T @ (wq * fv * scale)
        if neumann is not None:
            h_left, h_right = neumann
            scale = 1.0 / system.rho if mode == "dual" else 1.0
            vec[0] += h_left * scale
            vec[-1] += h_right * scale
        out = system.extract(vec)
    else:
        if neumann is not None:
            raise ValueError("Neumann data is supported on 1D systems only")
        out = np.zeros(system.free_shape)
        if f is not None:
            pts = system.stiffness_points
            _, _, E1, _ = system.tables(0, pts)
            _, _, E2, _ = system.tables(1, pts)
            g = system.geometry_grids(pts)
            fv = f(g["X"], g["Y"])
            field = fv * g["det"] / g["c"] if mode == "dual" else fv * g["det"]
            integ = g["W"] * field
            full = E1.T @ ((E2.T @ integ.T).T)
            out += system.extract(full)

    if lift is not None:
        k_term = _stiffness_full(system, np.asarray(lift, float), mode)
        out = out - system.extract(k_term)
    if lift_accel is not None:
        m_term = _parametric_mass_full(system, np.asarray(lift_accel, float), mode)
        out = out - system.extract(m_term)
    return out


def _parametric_mass_full(system, full_grid, mode):
    """Mass term b(test, v) for a full grid v; geometry-free in dual mode."""
    if mode == "dual":
        factors = [BandedFactor(grammian(s, points_per_element=system.mass_points))
                   for s in system.spaces]
    else:
        factors = [BandedFactor(G) for G in _galerkin_factors(system)]
    op = KroneckerOperator(factors)
    return op.apply(full_grid)


def parametric_moments(system, func_param, points_per_element=None):
    """Moment grid <B_i1 B_i2, v> with v given in parametric coordinates."""
    pts = points_per_element or (max(s.degree for s in system.spaces) + 2)
    if system.ndim == 1:
        xq, wq, E, _ = system.tables(0, pts)
        vals = np.array([func_param(x) for x in xq])
        return E.T @ (wq * vals)
    xq1, wq1, E1, _ = system.tables(0, pts)
    xq2, wq2, E2, _ = system.tables(1, pts)
    X1 = xq1[:, None] * np.ones((1, len(xq2)))
    X2 = np.ones((len(xq1), 1)) * xq2[None, :]
    vals = func_param(X1, X2)
    integ = (wq1[:, None] * wq2[None, :]) * vals
    return E1.T @ ((E2.T @ integ.T).T)


def physical_moments(system, func_param, points_per_element=None):
    """Moment grid weighted by c (the Galerkin b-form data for trial tests)."""
    pts = points_per_element or (max(s.degree for s in system.spaces) + 2)
    if system.ndim == 1:
        xq, wq, E, _ = system.tables(0, pts)
        vals = np.array([func_param(x) for x in xq]) * system.rho
        return E.T @ (wq * vals)
    xq1, wq1, E1, _ = system.tables(0, pts)
    xq2, wq2, E2, _ = system.tables(1, pts)
    g = system.geometry_grids(pts)
    X1 = xq1[:, None] * np.ones((1, len(xq2)))
    X2 = np.ones((len(xq1), 1)) * xq2[None, :]
    vals = func_param(X1, X2) * g["c"]
    integ = (wq1[:, None] * wq2[None, :]) * vals
    return E1.T @ ((E2.T @ integ.T).T)


def parametric_gram_operator(system):
    """Restricted per-direction parametric Grammians with a Kronecker solve."""
    factors = []
    for k, space in enumerate(system.spaces):
        G = grammian(space, points_per_element=system.mass_points)
        if not space.periodic:
            lo, hi = system.free_range(k)
            G = G.submatrix(lo, hi)
        factors.append(BandedFactor(G))
    return KroneckerOperator(factors)


def project_initial(system, u0_param):
    """Initial coefficients from the method's own mass equations.

    ``u0_param`` is the initial field composed with the geometry map, i.e. a
    callable on parametric coordinates. The dual-weighted kinds solve their
    consistent projection once at setup, where the dual coefficients cancel
    and the equations reduce to the parametric L2 projection (a banded
    per-direction solve); the Galerkin-consistent kind projects in the
    geometry-weighted metric. The rowsum-lumped kind stays fully lumped,
    dividing by its diagonal as an explicit production code would; its
    initial data is therefore only second-order accurate, consistent with
    the accuracy of the method itself.
    """
    kind = system.mass_kind
    if kind in ("customized", "petrov_consistent"):
        m_free = system.extract(parametric_moments(system, u0_param))
        return parametric_gram_operator(system).solve(m_free)
    m_free = system.extract(physical_moments(system, u0_param))
    if kind == "rowsum_lumped":
        return mass_operator(system).solve(m_free)
    return galerkin_gram_operator(system).solve(m_free)


def galerkin_gram_operator(system):
    """Restricted per-direction geometry-weighted Grammians (Kronecker)."""
    factors = []
    for k, G in enumerate(_galerkin_factors(system)):
        if not G.periodic:
            lo, hi = system.free_range(k)
            G = G.submatrix(lo, hi)
        factors.append(BandedFactor(G))
    return KroneckerOperator(factors)


# ---------------------------------------------------------------------------
# Dirichlet restriction of operators and petrov mass oracle


def apply_dirichlet(system, operand):
    """Restrict an operator or grid to the system's free indices."""
    if isinstance(operand, KroneckerOperator):
        factors = []
        for k, f in enumerate(operand.factors):
            lo, hi = system.free_range(k)
            if hasattr(f, "restricted"):
                factors.append(f.restricted(lo, hi))
            elif isinstance(f, BandedSymmetricMatrix):
                factors.append(BandedFactor(f.submatrix(lo, hi)))
            else:
                raise ValueError("factor cannot be restricted")
        return KroneckerOperator(factors)
    if isinstance(operand, BandedSymmetricMatrix):
        lo, hi = system.free_range(0)
        return operand.submatrix(lo, hi)
    if isinstance(operand, np.ndarray):
        return system.extract(operand)
    raise ValueError(f"cannot apply constraints to {type(operand)!r}")


def petrov_mass_dense(system, points_per_element=None):
    """Dense Petrov mass assembled by quadrature with explicit geometry factors.

    Entries are b(dual_test_i / c, B_j) evaluated with the rho det(F) / c
    factor carried through the quadrature loop; the result is analytically
    geometry-independent, which is the point of the construction.
    """
    if system.ndim != 2:
        raise ValueError("petrov mass oracle is for 2D systems")
    pts = points_per_element or system.mass_points
    _, wq1, E1, _ = system.tables(0, pts)
    _, wq2, E2, _ = system.tables(1, pts)
    g = system.geometry_grids(pts)
    factor = system.rho * g["det"] / g["c"]
    W = (wq1[:, None] * wq2[None, :]) * factor
    L1 = E1 @ system.duals[0].S.to_dense()  # columns are dual function values
    L2 = E2 @ system.duals[1].S.to_dense()
    E1d = E1.toarray()
    E2d = E2.toarray()
    T1 = np.einsum("qa,qc->qac", L1, E1d)
    T2 = np.einsum("rb,rd->rbd", L2, E2d)
    M = np.einsum("qac,qr,rbd->abcd", T1, W, T2)
    n1, n2 = system.full_shape
    return M.transpose(1, 0, 3, 2).reshape(n1 * n2, n1 * n2)

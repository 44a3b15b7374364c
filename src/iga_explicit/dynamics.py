"""Explicit Runge-Kutta steppers, stability limits, critical timestep, the
run operator and its maximum frequency, generalized eigensolver for spectrum
studies, and outlier removal, which ``OutlierConstraint`` owns: where its
constraints exist (``outlier_removal``) and every reduction T^T X T."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import assembly
from .banded import circulant_symbols
from .errors import NumericalError
from .splinecore import eval_basis

__all__ = [
    "ButcherTableau",
    "DynamicState",
    "RK2",
    "RK4",
    "RK6",
    "TABLEAUS",
    "PAPER_CMAX",
    "rk_step",
    "stability_limit",
    "critical_dt",
    "power_max_frequency",
    "RunOperator",
    "max_frequency",
    "eigensolve",
    "outlier_removal",
    "OutlierConstraint",
]


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta tableau (strictly lower-triangular stage matrix)."""

    name: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if np.max(np.abs(np.triu(a))) > 0.0:
            raise ValueError("tableau must be explicit (strictly lower-triangular)")

    @property
    def stages(self):
        return len(self.b)

    @cached_property
    def coefficients(self):
        """Coefficients c_0 .. c_deg of the stability polynomial R(z) =
        sum_k c_k z^k, c_0 = 1 and c_k = b^T a^(k-1) 1, trimmed after the
        last nonzero one (Hairer, Norsett and Wanner, Solving ODEs I, IV.2)."""
        coeffs = [1.0]
        power = np.ones(self.stages)
        for _ in range(self.stages):
            coeffs.append(float(self.b @ power))
            power = self.a @ power
        return np.trim_zeros(np.array(coeffs), "b")


# Three-stage second-order scheme (iterated midpoint): R(z) = 1 + z + z^2/2 +
# z^3/4, whose imaginary-axis stability interval is exactly [0, 2]. This makes
# the conventional C_max = 2.0 for second-order explicit runs an actual
# stability limit rather than a convention.
RK2 = ButcherTableau(
    "rk2",
    a=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]],
    b=[0.0, 0.0, 1.0],
)

RK4 = ButcherTableau(
    "rk4",
    a=[
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    b=[1 / 6, 1 / 3, 1 / 3, 1 / 6],
)

# Eight-stage sixth-order method (Verner) with rational coefficients. Among
# the classical sixth-order tableaus this one has the widest imaginary-axis
# stability interval (~1.305, with |R(iy)| <= 1.00043 out to y = 1.7), which
# matters for wave problems run near the conventional C_max.
RK6 = ButcherTableau(
    "rk6",
    a=[
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1 / 6, 0, 0, 0, 0, 0, 0, 0],
        [4 / 75, 16 / 75, 0, 0, 0, 0, 0, 0],
        [5 / 6, -8 / 3, 5 / 2, 0, 0, 0, 0, 0],
        [-165 / 64, 55 / 6, -425 / 64, 85 / 96, 0, 0, 0, 0],
        [12 / 5, -8, 4015 / 612, -11 / 36, 88 / 255, 0, 0, 0],
        [-8263 / 15000, 124 / 75, -643 / 680, -81 / 250, 2484 / 10625, 0, 0, 0],
        [3501 / 1720, -300 / 43, 297275 / 52632, -319 / 2322, 24068 / 84065, 0,
         3850 / 26703, 0],
    ],
    b=[3 / 40, 0, 875 / 2244, 23 / 72, 264 / 1955, 0, 125 / 11592, 43 / 616],
)

TABLEAUS = {"rk2": RK2, "rk4": RK4, "rk6": RK6}

# Run-time defaults for the critical-timestep constant; the computed
# imaginary-axis limits are logged alongside (they differ for rk4: 2.828).
PAPER_CMAX = {"rk2": 2.0, "rk4": 2.785, "rk6": 3.387}

# the dense eigensolver's largest problem
EIGENSOLVE_MAX_N = 2000

# Krylov basis size of the omega_max estimate (ARPACK's ncv; scipy's default
# for one eigenvalue)
ARNOLDI_VECTORS = 20


@dataclass
class DynamicState:
    """Displacement and velocity coefficient grids at a time instant."""

    d: np.ndarray
    v: np.ndarray
    t: float = 0.0


def rk_step(tableau, rhs, state, dt):
    """One explicit RK step of the first-order system (d, v)' = (v, rhs(d))
    for a linear ``rhs``, which maps a displacement grid to an acceleration
    grid.

    For a linear autonomous system the step is y <- R(dt L) y, with R the
    tableau's stability polynomial and L(d, v) = (v, rhs(d)): one ``rhs``
    call per power of L, the degree of R in all. The first power allocates
    the new d and v, in the memory orders numpy gives their sums, and later
    powers add into them in place; ``state`` is never written. Raises on NaN.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"time step must be positive and finite, got {dt!r}")
    d, v = state.d, state.v
    for k, c in enumerate(tableau.coefficients[1:], start=1):
        d, v = v, rhs(d)
        if k == 1:
            fortran = np.isfortran(d) and np.isfortran(v)
            d_new = np.multiply(d, c * dt, order="F" if fortran and np.isfortran(state.d) else "C")
            v_new = np.multiply(v, c * dt, order="F" if fortran else "C")
            d_new += state.d
            v_new += state.v
        else:
            d_new += c * dt**k * d
            v_new += c * dt**k * v
    if not (np.isfinite(d_new).all() and np.isfinite(v_new).all()):
        raise NumericalError(f"non-finite state after step at t={state.t}")
    return DynamicState(d_new, v_new, state.t + dt)


def stability_polynomial(tableau, z):
    """R(z) = sum_k c_k z^k for scalar (complex) z."""
    return np.polyval(tableau.coefficients[::-1], z)


def stability_limit(tableau):
    """Largest y with |R(i y')| <= 1 + 1e-12 for all y' up to y (0 if none),
    scanned in steps of 0.005 up to 8 and refined by bisection."""
    tol, scan_step, cap = 1e-12, 0.005, 8.0
    y = scan_step
    prev = 0.0
    while y <= cap:
        if abs(stability_polynomial(tableau, 1j * y)) > 1.0 + tol:
            lo, hi = prev, y
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if abs(stability_polynomial(tableau, 1j * mid)) > 1.0 + tol:
                    hi = mid
                else:
                    lo = mid
            # an interval below 1e-4 is tolerance slack, not genuine stability
            return lo if lo > 1e-4 else 0.0
        prev = y
        y += scan_step
    return prev


def critical_dt(c_max, omega_max):
    """Largest stable explicit step C_max / omega_max."""
    for name, value in (("C_max", c_max), ("maximum frequency", omega_max)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return c_max / omega_max


def _with_margin(radius, tol):
    """omega_max = sqrt(radius * (1 + tol)) from the spectral radius of
    M^{-1} K: every estimate carries the same relative margin of about
    ``tol / 2`` in omega (see ``power_max_frequency``). An estimate that is
    not positive and finite raises NumericalError."""
    omega = float(np.sqrt(radius * (1.0 + tol)))
    if not 0.0 < omega < np.inf:
        raise NumericalError(f"omega_max estimate {omega!r} is not positive and finite")
    return omega


def _finite(y):
    """``y``, or NumericalError where an operator apply is not finite:
    ARPACK and LAPACK would fail on it with their own errors."""
    if not np.isfinite(y).all():
        raise NumericalError("non-finite operator apply in the omega_max estimate")
    return y


def power_max_frequency(apply_fn, n, tol=1e-10, max_iterations=1000):
    """Largest sqrt(|eigenvalue|) of a linear operator by implicitly restarted
    Arnoldi (ARPACK; Lehoucq, Sorensen and Yang 1998).

    ``apply_fn`` realizes M^{-1} K, or its negative, on flattened
    coefficient vectors; the result is the square root of its spectral
    radius, which stays meaningful for the non-normal customized mass. The
    start vector is random, from a fixed seed: a constant one stays inside
    the angular-wavenumber-0 modes of an annulus and converges to a value
    0.8% low. ``max_iterations`` bounds the Arnoldi restart cycles. Returns
    ``(omega, applies)``.

    ARPACK accepts a Ritz value theta once its residual estimate is at most
    ``tol * |theta|``. For an operator normal in the residual's inner
    product, Bauer-Fike puts an eigenvalue within that distance, so the
    returned ``sqrt(|theta| * (1 + tol))`` does not fall below it. M^{-1} K
    is normal only in the mass inner product (Galerkin, lumped) or not at all
    (customized), where the bound gains an eigenvector condition number. The
    margin still suffices, though its share grows with the mesh: the
    converged Ritz value lies below the exact omega by 1.3e-11 relative at
    p=5, n_r=123 (Galerkin, against the exact Fourier-block eigenvalues),
    inside the margin of ``tol / 2`` = 5e-11 in omega with 73% of it left,
    and ``test_max_frequency_bounds_the_dense_oracle`` checks it for every
    mass kind on small meshes. Below ARPACK's minimum dimension (n <= 2) the
    eigenvalues are dense, with the same margin. Raises NumericalError on a
    non-finite apply, and on non-convergence, reporting the Ritz estimate on
    the span of the last ``ARNOLDI_VECTORS`` vectors applied.
    """
    if n <= 2:
        columns = _finite(np.column_stack([apply_fn(e) for e in np.eye(n)]))
        return _with_margin(np.max(np.abs(np.linalg.eigvals(columns))), tol), n
    # imported here, not with the module: loading ARPACK adds about 1.2 MB of
    # resident memory, which a run on the Fourier blocks, a run with a stored
    # omega_max and the 1D studies never need
    import scipy.sparse.linalg

    recent = deque(maxlen=ARNOLDI_VECTORS)
    applies = 0

    def matvec(x):
        nonlocal applies
        applies += 1
        y = _finite(apply_fn(x))
        recent.append((x.copy(), y))  # ARPACK passes a view of its workspace
        return y

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lam = scipy.sparse.linalg.eigs(
            op, k=1, which="LM", tol=tol, v0=v0, ncv=min(ARNOLDI_VECTORS, n),
            maxiter=max_iterations, return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        # ARPACK keeps its unconverged Ritz values to itself: Rayleigh-Ritz on
        # the span of the last Krylov vectors applied (A Q = Y R^-1)
        X = np.column_stack([x for x, _ in recent])
        Y = np.column_stack([y for _, y in recent])
        Q, R = np.linalg.qr(X)
        ritz = np.max(np.abs(np.linalg.eigvals(Q.T @ Y @ np.linalg.pinv(R))))
        raise NumericalError(
            f"Arnoldi iteration did not converge in {applies} operator applies "
            f"({exc}); Ritz estimate over the last {len(recent)} Krylov vectors: "
            f"|lambda| = {ritz:.12e}"
        ) from None
    return _with_margin(np.abs(lam[0]), tol), applies


class RunOperator:
    """The operator -M^{-1} K of an explicit run on its state grids: the free
    grids of a system, or with an OutlierConstraint the reduced ones.

    The mass is built with the operator; its Kronecker terms
    (``assembly.mass_inverse_stiffness``) on the first apply, which in a run
    is inside the omega_max estimate, and kept on the operator, so the
    estimate and the stepping share them by passing the same operator. An
    apply is two products and counts as one stiffness apply with the terms'
    own multiply-adds. ``prolong`` maps a state grid to the free grid the
    error is measured on. ``fourier_eigenvalues`` gives its spectrum where
    its angular factors are circulant.
    """

    def __init__(self, system, outlier=None):
        self.system = system
        self.outlier = outlier
        mass = assembly.mass_operator(system)
        if outlier is None:
            self.mass, self.shape = mass, system.free_shape
        else:
            self.mass, self.shape = outlier.reduce(mass), outlier.shape_reduced

    @cached_property
    def terms(self):
        """The operator as an ``assembly.KroneckerSum``, of the kernel the
        OutlierConstraint reduces if any; NumericalError where not finite."""
        kernel = self.system.stiffness_kernel
        if self.outlier is not None:
            kernel = assembly.KroneckerSum(self.outlier.congruence(kernel.outer, kernel.n_terms),
                                           kernel.inner)
        terms = assembly.mass_inverse_stiffness(self.mass, kernel)
        if not all(np.isfinite(A.data if sp.issparse(A) else A).all()
                   for A in (terms.outer, terms.inner)):
            raise NumericalError("the run operator -M^{-1} K has non-finite entries")
        return terms

    @property
    def n(self):
        return int(np.prod(self.shape))

    def apply(self, grid):
        terms = self.terms
        self.system.counters["stiffness_applies"] += 1
        self.system.counters["mac_ops"] += terms.macs
        return terms.apply(grid)

    def prolong(self, grid):
        return grid if self.outlier is None else self.outlier.prolong(grid)

    @cached_property
    def fourier_eigenvalues(self):
        """The eigenvalues mu of the operator from its angular Fourier
        blocks, one row per wavenumber k = 0 .. m // 2, for a Petrov (dual
        test mode) system whose trailing direction is periodic; None for any
        other system, or when a Q_t is not a symmetric circulant.

        Then the Fourier mode f_k of the m angular functions is an
        eigenvector of each Q_t with the real eigenvalue q_t(k)
        (``_circulant_symbols``), so the operator maps x f_k^T to the real
        block (sum_t q_t(k) P_t) x f_k^T; wavenumber m - k gives the same
        block. T acts on axis 0 only, so an outlier-reduced operator has
        the same structure with its reduced P_t. The M-self-adjoint kinds
        keep ARPACK while the benchmark checks their Arnoldi iterations.
        """
        system = self.system
        if system.test_mode != "dual" or system.ndim != 2 or not system.spaces[1].periodic:
            return None
        terms = self.terms
        symbols = _circulant_symbols(terms.inner, terms.m)
        if symbols is None:
            return None
        n0, n_terms = terms.outer.shape[0], terms.n_terms
        outer = terms.outer.toarray() if sp.issparse(terms.outer) else terms.outer
        P = outer.reshape(n0, n_terms, n0).transpose(1, 0, 2).reshape(n_terms, -1)
        # complex always: numpy returns a float array when every eigenvalue
        # is real, whose negative entries have no real square root
        return np.linalg.eigvals((symbols.T @ P).reshape(-1, n0, n0)).astype(complex)

    @property
    def omega_method(self):
        """The path of ``max_frequency``: "fourier_blocks" where the operator
        has ``fourier_eigenvalues``, else "arnoldi"."""
        return "arnoldi" if self.fourier_eigenvalues is None else "fourier_blocks"

    @property
    def spectral_abscissa(self):
        """The largest growth rate max Re sqrt(mu) of (d, v)' = (v, L d) over
        the eigenvalues mu of this operator L, from ``fourier_eigenvalues``;
        None without them. The real blocks leave real eigenvalues real, so a
        stable operator reads exactly 0."""
        mu = self.fourier_eigenvalues
        if mu is None:
            return None
        return float(np.max(np.sqrt(mu).real))


# The largest deviation of an angular factor Q_t from the circulant matrix of
# its first column, relative to its largest entry, that counts as round-off.
# It grows with the angular resolution, as the local coordinates of the
# quadrature points lose digits: at most 1.2e-14 up to 192 angular functions
# on the annulus, 4.8e-13 at 1950. An eigenvalue error of that order stays
# far inside the margin tol = 1e-10 of every omega_max estimate.
CIRCULANT_RTOL = 1e-11


def _circulant_symbols(inner, m):
    """The real symbols (``banded.circulant_symbols``) of the m x m blocks
    Q_t stacked in ``inner`` (dense or CSR), one row per block. None unless
    each Q_t is the symmetric circulant matrix of its first column c to
    ``CIRCULANT_RTOL``.

    The checks use the stored entries only, so a CSR ``inner`` is never made
    dense. Entry (i, j) of Q_t lies on the wrapped diagonal (i - j) mod m and
    must match c there; a diagonal with fewer than m stored entries holds
    zeros, so that entry must be zero too; and c_l = c_{m - l}.
    """
    A = sp.csr_matrix(inner)
    if not A.has_canonical_format:  # duplicate entries: left to ARPACK
        return None
    entries = A.tocoo(copy=False)
    columns = []
    for t in range(A.shape[0] // m):
        part = slice(A.indptr[t * m], A.indptr[(t + 1) * m])
        row, col, data = entries.row[part] - t * m, entries.col[part], entries.data[part]
        first = np.zeros(m)
        first[row[col == 0]] = data[col == 0]
        diagonal = (row - col) % m
        stored = np.bincount(diagonal, minlength=m)
        bound = CIRCULANT_RTOL * np.max(np.abs(first))
        if (np.any(np.abs(data - first[diagonal]) > bound)
                or np.any(np.abs(first[stored < m]) > bound)
                or np.any(np.abs(first - np.roll(first[::-1], 1)) > bound)):
            return None
        columns.append(first)
    return circulant_symbols(columns)


def max_frequency(run, tol=1e-10):
    """Maximum discrete frequency of a ``RunOperator`` (plain or
    outlier-reduced), sqrt(rho (1 + tol)) of its spectral radius rho: from
    its angular Fourier blocks where it has them (``fourier_eigenvalues``),
    else matrix-free by ARPACK (``power_max_frequency``), as
    ``run.omega_method`` names. The operator's terms are built here if no
    apply came first, and a run that steps with the same operator reuses
    them.
    """
    if run.omega_method == "fourier_blocks":
        return _with_margin(np.max(np.abs(run.fourier_eigenvalues)), tol)
    omega, _ = power_max_frequency(lambda vec: run.apply(vec.reshape(run.shape)).ravel(),
                                   run.n, tol)
    return omega


def eigensolve(K, M):
    """Sorted nonnegative frequencies of K phi = omega^2 M phi for dense
    symmetric K, SPD M. LAPACK's failures, an M that is not SPD among them,
    raise NumericalError with its message."""
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    n = K.shape[0]
    if n > EIGENSOLVE_MAX_N:
        raise ValueError(f"dense eigensolver capped at N={EIGENSOLVE_MAX_N}")
    try:
        vals = scipy.linalg.eigh(K, M, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from None
    floor = -1e-8 * max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) < floor:
        raise NumericalError(f"negative eigenvalue {np.min(vals):.3e} in spectrum")
    freqs = np.sqrt(np.clip(vals, 0.0, None))
    return np.sort(freqs)


def constraints_per_end(degree):
    """Outlier constraints at each end of a degree-p direction: none below 3."""
    return max((degree - 1) // 2, 0)


class OutlierConstraint:
    """Sparse basis transformation imposing vanishing even end derivatives,
    and every reduction T^T X T by it (``congruence``).

    Acts on the free (Dirichlet-constrained) coefficients of direction 0 of a
    system; columns of T span the subspace with u^(2k)(a) = u^(2k)(b) = 0 for
    k = 1 .. floor((p-1)/2), so none below degree 3, where it raises.
    """

    def __init__(self, system):
        space = system.spaces[0]
        if space.periodic:
            raise ValueError("outlier removal applies to a clamped direction")
        dl, dr = system.dirichlet[0]
        if not (dl and dr):
            raise ValueError("outlier removal expects homogeneous Dirichlet ends")
        p = space.degree
        self.system = system
        self.n_constraints_per_end = K = constraints_per_end(p)
        if K == 0:
            raise ValueError(f"no outlier constraints below degree 3 (got {p})")
        lo, hi = system.free_range(0)
        m = hi - lo
        if m < 2 * p:
            raise ValueError("too few free functions for outlier constraints")
        a, b = space.domain
        T = np.zeros((m, m - 2 * K))
        T[: p, : p - K] = self._end_block(space, a, lo, m, p, K, left=True)
        T[p : m - p, p - K : p - K + m - 2 * p] = np.eye(m - 2 * p)
        T[m - p :, m - 2 * K - (p - K) :] = self._end_block(space, b, lo, m, p, K, left=False)
        self.T = T
        self.shape_reduced = (T.shape[1],) + tuple(system.free_shape[1:])

    def _end_block(self, space, x_end, lo, m, p, K, left):
        # constraint rows: sum_j d_j B_j^(2k)(x_end) = 0 over the p boundary-
        # nearest free functions, k = 1..K; columns of the returned block span
        # the nullspace
        ev = eval_basis(space, x_end, max_deriv=2 * K)
        cols = ev.indices - lo - (0 if left else m - p)  # free index, block column
        keep = (cols >= 0) & (cols < p)
        rows = np.zeros((K, p))
        rows[:, cols[keep]] = ev.values[2 : 2 * K + 1 : 2][:, keep]
        # scipy's SVD, as the clamped duals take: a run pages in one dgesdd
        _, sv, Vt = scipy.linalg.svd(rows)
        rank = int(np.sum(sv > sv[0] * 1e-10)) if len(sv) else 0
        return Vt[rank:].T

    @property
    def n_reduced(self):
        return int(np.prod(self.shape_reduced))

    def prolong(self, reduced):
        return np.tensordot(self.T, reduced, axes=(1, 0))

    def restrict(self, free):
        return np.tensordot(self.T.T, free, axes=(1, 0))

    def unflatten(self, vec):
        return vec.reshape(self.shape_reduced)

    def congruence(self, X, n_terms=None):
        """T^T X T, dense; with ``n_terms``, of each of the n_terms blocks of
        X side by side (a ``KroneckerSum.outer``), in the same layout."""
        if n_terms is None:
            return self.T.T @ X @ self.T
        n, r = self.T.shape
        return ((self.T.T @ X).reshape(r, n_terms, n) @ self.T).reshape(r, -1)

    def reduce(self, op):
        """The Kronecker operator (T^T F0 T) (x) F1 on reduced grids of a
        free-index Kronecker operator F0 (x) F1, held as the dense inverse of
        T^T F0 T, formed on its first solve; the caller owns it."""
        mat = self.congruence(op.factors[0].to_dense())
        mat.flags.writeable = False  # the inverse is formed from it later
        reduced = assembly.InverseFactor(len(mat), lambda: np.linalg.inv(mat), lambda: mat)
        return assembly.KroneckerOperator([reduced, *op.factors[1:]])

    def project_initial(self, u0_param):
        """Reduced initial data y of the system's projection P (that of
        ``assembly.project_initial``): (T^T P0 T) (x) P1 y = T^T m, m the moments."""
        m = self.system.extract(assembly.moments(self.system, u0_param))
        return self.reduce(assembly.mass_operator(self.system).projection).solve(self.restrict(m))

    def reduce_mass(self, system):
        """Reduced-mass solve (T^T M0 T)^{-1} (x) M1^{-1}."""
        return self.reduce(assembly.mass_operator(system)).solve


def outlier_removal(system):
    """Constraint operator removing spurious high boundary modes (None p<3)."""
    return OutlierConstraint(system) if constraints_per_end(system.spaces[0].degree) else None

"""Kronecker operators, mass variants, matrix-free stiffness, Dirichlet handling."""

from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from oracle_utils import (
    banded_from_dense,
    copying_separate,
    csr_factor_inverses,
    csr_run_terms,
    csr_stiffness_kernel,
    dense_of,
    grid_to_vec,
    loop_tables,
    petrov_mass_dense,
)

from iga_explicit.assembly import (
    DENSE_FILL,
    MASS_KINDS,
    DiscreteSystem,
    InverseFactor,
    KroneckerOperator,
    _separate,
    assembled_stiffness_1d,
    contract,
    mass_operator,
    moments,
    project_initial,
    stiffness_apply,
)
from iga_explicit.dualbasis import grammian
from iga_explicit.errors import NumericalError
from iga_explicit.geometry import annulus_map, identity_map, weight_field
from iga_explicit.splinecore import PERIODIC, eval_basis, uniform_space

# a mass kind of each test mode: the test functions follow from the kind
KIND_OF_MODE = {"standard": "galerkin_consistent", "dual": "customized"}


def make_system_2d(p=2, nel1=4, nel2=8, geometry="annulus", mass_kind="customized",
                   dirichlet_radial=True, kappa=1.0):
    s1 = uniform_space(nel1, p)
    s2 = uniform_space(nel2, p, boundary_kind=PERIODIC)
    geo = annulus_map(2.0, 5.0) if geometry == "annulus" else identity_map()
    d = [(dirichlet_radial, dirichlet_radial), (False, False)]
    return DiscreteSystem([s1, s2], geometry=geo, mass_kind=mass_kind,
                          kappa=kappa, dirichlet=d)


def banded_factor(A):
    """A symmetric matrix as the InverseFactor of its full-band storage."""
    B = banded_from_dense(A, len(A) - 1)
    return InverseFactor(B.n, B.dense_inverse, B.to_dense)


def stored(A):
    """The stored entries of a dense array or CSR matrix."""
    return A.nnz if sp.issparse(A) else A.size


def nonzero_macs(kernel):
    """The multiply-adds of one apply of a KroneckerSum counted by the
    nonzeros of its operands, whatever their storage."""
    n0, m = kernel.outer.shape[0], kernel.m
    return sum(n * (A.count_nonzero() if sp.issparse(A) else np.count_nonzero(A))
               for A, n in ((kernel.outer, m), (kernel.inner, n0)))


def dense_kron(factors):
    """kron(factors[-1], ..., factors[0]) of the factors' dense matrices."""
    mats = [f.to_dense() for f in factors]
    return reduce(lambda acc, A: np.kron(A, acc), mats[1:], mats[0])


@pytest.mark.parametrize("method", ["solve"])
@pytest.mark.parametrize("n_factors", [1, 2])
def test_kron_apply_matches_dense(n_factors, method):
    rng = np.random.default_rng(0)
    mats = []
    for n in (5, 7)[:n_factors]:
        A = rng.normal(size=(n, n))
        mats.append(A @ A.T + n * np.eye(n))  # SPD with a full band
    op = KroneckerOperator([banded_factor(A) for A in mats])
    dense = reduce(lambda acc, A: np.kron(A, acc), mats[1:], mats[0])
    assert np.max(np.abs(dense_kron(op.factors) - dense)) <= 1e-12 * np.max(np.abs(dense))
    grid = rng.normal(size=tuple(len(A) for A in mats))
    ref = np.linalg.solve(dense, grid_to_vec(grid))
    out = grid_to_vec(getattr(op, method)(grid))
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kron_apply_banded_and_diag_factors():
    rng = np.random.default_rng(1)
    space = uniform_space(8, 2)
    G = grammian(space)
    d2 = rng.uniform(1.0, 2.0, size=6)
    diag = InverseFactor(6, lambda: sp.diags(1.0 / d2, format="csr"), lambda: np.diag(d2))
    op = KroneckerOperator([InverseFactor(G.n, G.dense_inverse, G.to_dense), diag])
    grid = rng.normal(size=(space.dimension, 6))
    ref = np.linalg.solve(np.kron(np.diag(d2), G.to_dense()), grid_to_vec(grid))
    assert_allclose(grid_to_vec(op.solve(grid)), ref, atol=1e-12)


def factor_of_storage(storage, rng):
    """An InverseFactor whose inverse ``by_fill`` stores as ``storage``, and
    that inverse as a dense array: a full matrix ("dense"), a tridiagonal
    one at a fill below 1/10 ("csr"), and reciprocals of a lumped diagonal,
    stored as CSR ("diagonal") or, at 7 functions, dense ("small_diagonal")."""
    n = 7 if storage == "small_diagonal" else 31
    if storage == "dense":
        inverse = rng.normal(size=(n, n))
    elif storage == "csr":
        inverse = sp.diags([rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1)],
                           [-1, 0, 1])
    else:
        inverse = sp.diags(1.0 / rng.uniform(1.0, 2.0, size=n))
    dense = dense_of(inverse)
    return InverseFactor(n, lambda: inverse, lambda: np.linalg.inv(dense)), dense


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("storages", [("dense",), ("csr",), ("diagonal",), ("dense", "csr"),
                                      ("csr", "diagonal"), ("diagonal", "dense"),
                                      ("small_diagonal", "csr"), ("dense", "small_diagonal")])
def test_contract_matches_the_dense_kronecker_oracle(storages, order):
    rng = np.random.default_rng(13)
    factors, inverses = zip(*(factor_of_storage(s, rng) for s in storages))
    oracle = reduce(lambda acc, A: np.kron(A, acc), inverses[1:], inverses[0])
    grid = np.asarray(rng.normal(size=[f.n for f in factors]), order=order)
    ref = oracle @ grid_to_vec(grid)
    for ops in ([f.solve for f in factors], [f.inverse.__matmul__ for f in factors]):
        out = contract(ops, grid)
        assert out.shape == grid.shape
        assert np.max(np.abs(grid_to_vec(out) - ref)) <= 1e-13 * np.max(np.abs(ref))
        # a 2D result comes back in Fortran order, as the layout of the
        # grids a run passes on fixes the bits of the products that follow
        assert out.ndim == 1 or (out.flags.f_contiguous and not out.flags.c_contiguous)
    assert np.array_equal(KroneckerOperator(factors).solve(grid), contract(
        [f.solve for f in factors], grid))
    for f, storage in zip(factors, storages):
        assert sp.issparse(f.inverse) == (storage in ("csr", "diagonal")), storage
        # a diagonal inverse solves by scaling rows, with the product's bits
        assert (f._scale is not None) == storage.endswith("diagonal"), storage
        for x in (rng.normal(size=(f.n, 4)), np.asfortranarray(rng.normal(size=(f.n, 4)))):
            assert np.array_equal(f.solve(x), f.inverse @ x), storage
            assert f.solve(x).flags.c_contiguous


@pytest.mark.parametrize("kind", ["customized", "galerkin_consistent"])
def test_geometry_grids_of_the_form_are_dropped_once_the_kernel_is_built(kind):
    system = make_system_2d(p=3, nel1=6, nel2=12, mass_kind=kind)
    grids = system.geometry_grids()
    dual = {"grad_c"} if kind == "customized" else set()
    assert set(grids) == {"det", "c", "A", "X", "Y"} | dual
    kernel = system.stiffness_kernel
    assert system.geometry_grids() is grids
    assert set(grids) == {"det", "c", "X", "Y"}
    assert system.stiffness_kernel is kernel
    # the kept grids serve the moments and the error norms
    project_initial(system, lambda x1, x2: x1 * (1.0 - x1) * np.cos(2.0 * np.pi * x2))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_tables_match_point_loop(degree):
    system = make_system_2d(p=degree, nel1=5, nel2=12)
    assert system.stiffness_points == degree + 2
    for k, space in enumerate(system.spaces):
        E, ev = system.tables(k)[2:]
        E_loop, D_loop = loop_tables(space, degree + 2)
        assert np.array_equal(E.toarray(), E_loop.toarray())
        D = np.zeros(D_loop.shape)
        D[np.arange(len(D))[:, None], ev.indices] = ev.values[:, 1]
        assert np.array_equal(D, D_loop.toarray())


@pytest.mark.parametrize("attribute", ["stiffness_points", "mass_points", "test_mode", "mass_kind",
                                       "kappa", "rho", "dirichlet", "geometry", "spaces",
                                       "dual_halfwidth"])
def test_quadrature_orders_are_read_only(attribute):
    system = make_system_2d(p=3)
    assert (system.mass_points, system.stiffness_points) == (4, 5)
    with pytest.raises(AttributeError):
        setattr(system, attribute, 7)


def test_petrov_mass_geometry_independent():
    sys_ann = make_system_2d(p=2, nel1=3, nel2=8, geometry="annulus", dirichlet_radial=False)
    sys_id = make_system_2d(p=2, nel1=3, nel2=8, geometry="identity", dirichlet_radial=False)
    M_ann = petrov_mass_dense(sys_ann)
    M_id = petrov_mass_dense(sys_id)
    assert np.max(np.abs(M_ann - M_id)) <= 1e-10


def test_petrov_mass_matches_kronecker_factors():
    system = make_system_2d(p=2, nel1=3, nel2=8, dirichlet_radial=False)
    M = petrov_mass_dense(system)
    C1 = system.duals[0].product_dense
    C2 = system.duals[1].product_dense
    assert np.max(np.abs(M - np.kron(C2, C1))) <= 1e-10


def test_petrov_mass_rowsums_one():
    system = make_system_2d(p=3, nel1=3, nel2=8, dirichlet_radial=False)
    C1, C2 = (dual.product_dense for dual in system.duals)
    assert np.max(np.abs(np.kron(C2, C1).sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("dirichlet_radial", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_customized_solve_matches_dense_kron_oracle(p, dirichlet_radial):
    system = DiscreteSystem([uniform_space(10, p), uniform_space(12, p, boundary_kind=PERIODIC)],
                            geometry=annulus_map(1.0, 2.0), mass_kind="customized",
                            dirichlet=[(dirichlet_radial,) * 2, (False, False)])
    mass = mass_operator(system)
    # the solve is the Kronecker product of the inverses of inv(S_k)[f, f]
    blocks = []
    for k, dual in enumerate(system.duals):
        f = slice(*system.free_range(k))
        blocks.append(np.linalg.inv(np.linalg.inv(dual.S.to_dense())[f, f]))
    oracle = np.kron(blocks[1], blocks[0])
    rng = np.random.default_rng(2)
    grid = rng.normal(size=system.free_shape)
    ref = oracle @ grid_to_vec(grid)
    out = grid_to_vec(mass.solve(grid))
    assert np.max(np.abs(out - ref)) <= 1e-9 * np.max(np.abs(ref))
    # the factors hold S_c itself, dense or CSR by its fill, and no other array
    for factor, cd in zip(mass.factors, system.constrained_duals):
        S = cd.S.to_coo().tocsr()
        assert sp.issparse(factor.inverse) == (S.nnz < DENSE_FILL * S.shape[0] ** 2)
        assert np.array_equal(dense_of(factor.inverse), S.toarray())
        assert not any(isinstance(v, np.ndarray) for name, v in vars(factor).items()
                       if name != "inverse")


@pytest.mark.parametrize("dirichlet_radial", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_banded_solves_match_dense_kron_oracle(p, dirichlet_radial):
    # the Galerkin mass and both projections solve through the inverses that
    # the clamped radial and the periodic angular Grammians cache
    rng = np.random.default_rng(12)
    for kind in ("galerkin_consistent", "customized"):
        system = make_system_2d(p=p, nel1=10, nel2=12, mass_kind=kind,
                                dirichlet_radial=dirichlet_radial)
        mass = mass_operator(system)
        operators = [mass.projection] + ([mass] if kind == "galerkin_consistent" else [])
        for op in operators:
            oracle = np.linalg.inv(dense_kron(op.factors))
            for _ in range(2):  # the first solve forms the inverses, the second reuses them
                grid = rng.normal(size=system.free_shape)
                ref = oracle @ grid_to_vec(grid)
                out = grid_to_vec(op.solve(grid))
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), kind


def test_mass_inverses_are_formed_on_the_first_solve():
    rng = np.random.default_rng(8)
    for kind in MASS_KINDS:
        system = make_system_2d(p=3, nel1=6, nel2=12, mass_kind=kind)
        mass = mass_operator(system)
        factors = mass.factors + mass.projection.factors
        assert all(isinstance(f, InverseFactor) for f in factors), kind
        assert all("inverse" not in vars(f) for f in factors), kind
        mass.solve(np.ones(system.free_shape))
        assert all("inverse" in vars(f) for f in mass.factors), kind
        # a solve is the product with the inverse
        for f in factors:
            x = rng.normal(size=(f.n, 3))
            assert np.array_equal(f.solve(x), f.inverse @ x), kind


def test_inverse_factor_to_dense_is_a_copy_of_the_inverse():
    # the customized factor's dense form is the inverse of S_c, which the
    # banded matrix caches read-only
    system = make_system_2d(p=3, nel1=8, nel2=16)
    for factor, cd in zip(mass_operator(system).factors, system.constrained_duals):
        dense = factor.to_dense()
        S = cd.S.to_dense()
        ref = np.linalg.solve(S, np.eye(len(S)))
        assert np.max(np.abs(dense - ref)) <= 1e-13 * np.max(np.abs(ref))
        with pytest.raises(ValueError):
            dense[:] = 0.0
        assert_allclose(factor.to_dense(), ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_outlier_reduced_operator_reports_dense_and_storage():
    from iga_explicit.dynamics import OutlierConstraint

    system = make_system_2d(p=3, nel1=8, nel2=16)
    outlier = OutlierConstraint(system)
    mass = mass_operator(system)
    reduced = outlier.reduce(mass)
    T = outlier.T
    F0 = reduced.factors[0]
    assert np.array_equal(F0.to_dense(), T.T @ mass.factors[0].to_dense() @ T)
    assert "inverse" not in vars(F0)  # formed on the first solve
    # the reduced factor stores its dense r x r inverse; the angular one is kept
    assert isinstance(F0.inverse, np.ndarray) and F0.inverse.shape == (T.shape[1],) * 2
    assert reduced.factors[1] is mass.factors[1]
    assert np.array_equal(F0.inverse, np.linalg.inv(F0.to_dense()))


def test_galerkin_mass_spd_and_solve():
    system = make_system_2d(p=2, nel1=4, nel2=8, mass_kind="galerkin_consistent")
    mass = mass_operator(system)
    rng = np.random.default_rng(3)
    f = rng.normal(size=system.free_shape)
    u = mass.solve(f)
    assert_allclose(dense_kron(mass.factors) @ grid_to_vec(u), grid_to_vec(f), atol=1e-11)


def test_lumped_mass_diag_positive_and_partition():
    system = make_system_2d(p=3, nel1=4, nel2=8, mass_kind="rowsum_lumped",
                            dirichlet_radial=False)
    diag = dense_kron(mass_operator(system).factors).sum(axis=1)
    assert np.min(diag) > 0
    # total lumped mass equals the weighted domain measure rho * |Omega|
    c_fn, _ = weight_field(system.geometry)
    total = diag.sum()
    a, b = 2.0, 5.0
    assert total == pytest.approx(np.pi * (b**2 - a**2), rel=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_unit_density_1d_kernel_is_the_same_in_both_modes(p):
    # at c = 1 the dual test functions B/c are the B-splines, so the string
    # spectra take the customized system's stiffness for every kind
    for n in (40, 250):
        standard, dual = (
            assembled_stiffness_1d(DiscreteSystem([uniform_space(n - p, p)], mass_kind=kind,
                                                  dirichlet=[(True, True)])).toarray()
            for kind in KIND_OF_MODE.values())
        assert np.array_equal(standard, dual), n


def test_stiffness_constant_in_kernel():
    system = make_system_2d(p=2, nel1=4, nel2=8, dirichlet_radial=False)
    ones = np.ones(system.full_shape)
    r = stiffness_apply(system, ones)
    assert np.max(np.abs(r)) <= 1e-10


def dense_stiffness_oracle_1d(system, mode):
    """Dense 1D stiffness by direct quadrature loops; independent assembly path."""
    from iga_explicit.quadrature import element_quadrature

    (space,) = system.spaces
    n = space.dimension
    scale = system.kappa / system.rho if mode == "dual" else system.kappa
    K = np.zeros((n, n))
    for x, w in zip(*element_quadrature(space, system.stiffness_points)):
        ev = eval_basis(space, x, max_deriv=1)
        for a, i in enumerate(ev.indices):
            for b, j in enumerate(ev.indices):
                K[i, j] += scale * w * ev.values[1, a] * ev.values[1, b]
    return K


@pytest.mark.parametrize("mode", ["standard", "dual"])
@pytest.mark.parametrize("periodic", [False, True], ids=["clamped", "periodic"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_stiffness_1d_matches_dense_oracle(p, periodic, mode):
    space = uniform_space(16, p, boundary_kind=PERIODIC) if periodic else uniform_space(16, p)
    system = DiscreteSystem([space], mass_kind=KIND_OF_MODE[mode], kappa=1.7, rho=2.5,
                            dirichlet=[(not periodic,) * 2])
    K = dense_stiffness_oracle_1d(system, mode)
    free = slice(*system.free_range(0))
    assembled = assembled_stiffness_1d(system).toarray()
    assert np.max(np.abs(assembled - K[free, free])) <= 1e-12 * np.max(np.abs(K))
    d = np.random.default_rng(4).normal(size=system.free_shape)
    ref = system.extract(K @ system.inject(d))
    out = stiffness_apply(system, d)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def dense_stiffness_oracle(system, mode):
    """Dense stiffness by direct quadrature loops; independent assembly path."""
    from iga_explicit.quadrature import element_quadrature

    s1, s2 = system.spaces
    n1, n2 = system.full_shape
    pts = system.stiffness_points
    xq1, wq1 = element_quadrature(s1, pts)
    xq2, wq2 = element_quadrature(s2, pts)
    geo = system.geometry
    c_fn, grad_c_fn = weight_field(geo)
    K = np.zeros((n1 * n2, n1 * n2))
    for a_, x1 in enumerate(xq1):
        ev1 = eval_basis(s1, x1, max_deriv=1)
        for b_, x2 in enumerate(xq2):
            ev2 = eval_basis(s2, x2, max_deriv=1)
            F = geo.jacobian(x1, x2)
            det = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
            Finv = np.linalg.inv(F)
            A = system.kappa * det * (Finv @ Finv.T)
            w = wq1[a_] * wq2[b_]
            c = c_fn(x1, x2)
            gc = grad_c_fn(x1, x2)
            # parametric gradients of all nonzero trial/test functions
            idx = []
            grads = []
            vals = []
            for l1, j1 in enumerate(ev1.indices):
                for l2, j2 in enumerate(ev2.indices):
                    idx.append(j1 + n1 * j2)
                    vals.append(ev1.values[0, l1] * ev2.values[0, l2])
                    grads.append(
                        np.array(
                            [
                                ev1.values[1, l1] * ev2.values[0, l2],
                                ev1.values[0, l1] * ev2.values[1, l2],
                            ]
                        )
                    )
            # the p+1 angular functions at a point are distinct, so idx holds
            # no repeated index and the fancy-indexed update is exact
            grads = np.array(grads)
            if mode == "dual":
                tests = grads / c - np.outer(vals, gc) / c**2
            else:
                tests = grads
            K[np.ix_(idx, idx)] += w * tests @ A @ grads.T
    return K


def oracle_apply(system, K, d):
    full = system.inject(d)
    return system.extract((K @ grid_to_vec(full)).reshape(system.full_shape, order="F"))


@pytest.mark.parametrize("mode", ["standard", "dual"])
def test_stiffness_2d_matches_dense_oracle(mode):
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        # the angular direction needs more than 2p elements
        systems = [make_system_2d(p=p, nel1=3, nel2=2 * p + 2, mass_kind=KIND_OF_MODE[mode],
                                  dirichlet_radial=dirichlet)
                   for dirichlet in (True, False)]
        K = dense_stiffness_oracle(systems[0], mode)  # the full grid's operator
        for system in systems:
            d = rng.normal(size=system.free_shape)
            ref = oracle_apply(system, K, d)
            out = stiffness_apply(system, d)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), (p, system.dirichlet)


@pytest.mark.parametrize("geometry", ["annulus", "identity"])
def test_stiffness_has_two_kronecker_terms_in_both_modes(geometry):
    # the dual mode's (d/dx1, d/dx1) entry and the gradient-of-1/c entry share
    # their factor along x2, so they are separated together into one term
    for p in (3, 5):
        for mode, kind in KIND_OF_MODE.items():
            system = make_system_2d(p=p, nel1=8, nel2=16, geometry=geometry, mass_kind=kind)
            stiffness_apply(system, np.zeros(system.free_shape))
            assert system.stiffness_kernel.n_terms == 2, (p, mode)


def per_term_stiffness(kernel):
    """Dense sum over the kernel's terms of kron(B_t, A_t), the column-major
    operator of A_t along axis 0 and B_t along the rest, cut out of the
    stacked matrices."""
    n0, m = kernel.outer.shape[0], kernel.m
    A = dense_of(kernel.outer).reshape(n0, kernel.n_terms, n0)
    B = dense_of(kernel.inner).reshape(kernel.n_terms, m, m)
    return sum(np.kron(B[t], A[:, t]) for t in range(kernel.n_terms))


@pytest.mark.parametrize("mode", ["standard", "dual"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_stacked_kernel_matches_per_term_sum_and_dense_stiffness(ndim, mode):
    rng = np.random.default_rng(9)
    kind = KIND_OF_MODE[mode]
    if ndim == 1:
        system = DiscreteSystem([uniform_space(12, 3)], mass_kind=kind, kappa=1.7, rho=2.5)
        dense = dense_stiffness_oracle_1d(system, mode)
    else:
        system = make_system_2d(p=3, nel1=3, nel2=8, mass_kind=kind, dirichlet_radial=False)
        dense = dense_stiffness_oracle(system, mode)
    kernel = system.stiffness_kernel
    assert kernel.n_terms == (1 if ndim == 1 else 2)
    summed = per_term_stiffness(kernel)
    assert np.max(np.abs(summed - dense)) <= 1e-12 * np.max(np.abs(dense))
    full = rng.normal(size=system.full_shape)
    out = grid_to_vec(kernel.apply(full))
    for ref in (summed @ grid_to_vec(full), dense @ grid_to_vec(full)):
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("geometry", ["annulus", "identity"])
def test_kernel_macs_are_the_per_axis_factor_count(geometry):
    # sum over the two operands of their stored entries times the length of
    # the other axis: 9 x 18 and 32 x 16 dense operands on the 9 x 16 free
    # grid of this mesh; 21 x 21 and 1 x 1 for the clamped 1D space, 20 x 20
    # and 1 x 1 for the periodic one
    spaces_1d = [uniform_space(20, 3), uniform_space(20, 3, boundary_kind=PERIODIC)]
    for kind in KIND_OF_MODE.values():
        system = make_system_2d(p=3, nel1=8, nel2=16, geometry=geometry, mass_kind=kind)
        kernel = system.stiffness_kernel
        n1, n2 = system.free_shape
        assert kernel.macs == stored(kernel.outer) * n2 + stored(kernel.inner) * n1 == 7200
        for space, macs in zip(spaces_1d, (21 * 21 + 21, 20 * 20 + 20)):
            system_1d = DiscreteSystem([space], mass_kind=kind,
                                       dirichlet=[(not space.periodic,) * 2])
            assert system_1d.stiffness_kernel.macs == macs
            system_1d.counters["mac_ops"] = 0
            stiffness_apply(system_1d, np.zeros(system_1d.free_shape))
            assert system_1d.counters["mac_ops"] == macs


def assert_same_operand(A, oracle, what):
    """Same storage as the CSR route's and values within 1e-14 of its
    largest entry."""
    assert sp.issparse(A) == sp.issparse(oracle), what
    assert A.shape == oracle.shape, what
    err = np.max(np.abs(dense_of(A) - dense_of(oracle)))
    assert err <= 1e-14 * np.max(np.abs(dense_of(oracle))), (what, err)


def assert_direct_builds_match_the_csr_route(system):
    from iga_explicit.dynamics import RunOperator, outlier_removal

    kernel = system.stiffness_kernel
    outer, inner = csr_stiffness_kernel(system)
    assert_same_operand(kernel.outer, outer, "kernel outer")
    assert_same_operand(kernel.inner, inner, "kernel inner")
    for k, (f, oracle) in enumerate(zip(mass_operator(system).factors,
                                        csr_factor_inverses(system))):
        assert_same_operand(f.inverse, oracle, f"factor {k} inverse")
    outliers = [None] + ([outlier_removal(system)] if all(system.dirichlet[0]) else [])
    for outlier in outliers:
        terms = RunOperator(system, outlier).terms
        P, Q = csr_run_terms(system, outlier)
        assert_same_operand(terms.outer, P, ("P", outlier is not None))
        assert_same_operand(terms.inner, Q, ("Q", outlier is not None))


@pytest.mark.parametrize("kind", list(MASS_KINDS))
@pytest.mark.parametrize("dirichlet", [False, True], ids=["free", "dirichlet"])
@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("ndim", [1, 2])
def test_direct_builds_match_the_csr_route(ndim, p, dirichlet, kind):
    # the kernel, each factor's inverse and the run terms, plain and
    # outlier-reduced, against scipy.sparse assembly and fancy indexing
    if ndim == 1:
        system = DiscreteSystem([uniform_space(12, p)], mass_kind=kind, kappa=1.7,
                                dirichlet=[(dirichlet, dirichlet)])
    else:
        system = make_system_2d(p=p, nel1=8, nel2=2 * p + 4, mass_kind=kind,
                                dirichlet_radial=dirichlet)
    assert_direct_builds_match_the_csr_route(system)


@pytest.mark.parametrize("kind", list(MASS_KINDS))
def test_mixed_storage_direct_builds_match_the_csr_route(kind):
    # the membrane at n_r = 96, whose operands fall on both sides of the fill
    # rule: CSR throughout for the lumped mass
    system = DiscreteSystem(
        [uniform_space(96, 3), uniform_space(192, 3, boundary_kind=PERIODIC)],
        geometry=annulus_map(2.0, 5.0), mass_kind=kind,
        dirichlet=[(True, True), (False, False)], dual_halfwidth=(3, 4))
    assert_direct_builds_match_the_csr_route(system)


def traced_peak(build):
    """Peak bytes that ``build()`` allocates above what was traced before."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sparse_kernel_allocates_no_dense_square():
    # 1998 free functions at 7 nonzeros per row: CSR by its fill
    system = DiscreteSystem([uniform_space(1997, 3)], dirichlet=[(True, True)])
    system.tables(0)
    peak = traced_peak(lambda: system.stiffness_kernel)
    kernel = system.stiffness_kernel
    n = system.n_free
    assert n == 1998 and sp.issparse(kernel.outer)
    assert peak < 8 * n * n / 2, peak  # half of one n x n float array


# peak of the geometry grids and the stiffness kernel together, in full
# float64 quadrature grids: the customized kind's weight gradient and the
# grids of its form make its share the larger one
@pytest.mark.parametrize("kind,grids", [("customized", 21), ("galerkin_consistent", 13)])
@pytest.mark.parametrize("n_r", [16, 32])
def test_setup_peak_in_quadrature_grids(kind, grids, n_r):
    system = DiscreteSystem(
        [uniform_space(n_r, 3), uniform_space(2 * n_r, 3, boundary_kind=PERIODIC)],
        geometry=annulus_map(2.0, 5.0), mass_kind=kind,
        dirichlet=[(True, True), (False, False)])
    size = 8 * len(system.tables(0)[0]) * len(system.tables(1)[0])
    peak = traced_peak(lambda: (system.geometry_grids(), system.stiffness_kernel))
    assert peak <= grids * size, peak / size


def test_separation_allocates_no_temporary_of_the_grid_size():
    rng = np.random.default_rng(3)
    m, n = 240, 150
    grid = sum(np.outer(rng.standard_normal(m), rng.standard_normal(n)) for _ in range(3))
    bound = 1e-13 * np.max(np.abs(grid))
    residual = grid.copy()
    peak = traced_peak(lambda: _separate(residual, bound))
    assert len(copying_separate(grid, bound)) == 3 and peak < 8 * m * n, peak


def small_integer_grid(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-3, 4, (9, 3)) @ rng.integers(-3, 4, (3, 12)).astype(float)


# the pivot is the first largest |R| also when a positive and a negative
# entry tie in magnitude
@pytest.mark.parametrize("grid", [
    np.array([[2.0, -2.0, 1.0], [1.0, 1.0, 0.5]]),  # the positive one first
    np.array([[-2.0, 2.0, 1.0], [1.0, 1.0, 0.5]]),  # the negative one first
    # seeds 1 and 15 tie at a later step
    *(small_integer_grid(seed) for seed in (0, 1, 15)),
])
def test_separation_pivots_as_the_largest_magnitude_search(grid):
    want = copying_separate(grid, 1e-12)
    got = _separate(grid.copy(), 1e-12)
    assert len(got) == len(want)
    for (u, v), (u_want, v_want) in zip(got, want):
        assert u.tobytes() == u_want.tobytes() and v.tobytes() == v_want.tobytes()


@pytest.mark.parametrize("n_el,sparse", [(12, False), (200, True)])
def test_stiffness_apply_adds_the_stored_entries_it_multiplies(n_el, sparse):
    # the kernel is the free block of the full-space stiffness, stored by its
    # fill: 7 nonzeros per row, dense at 13 free functions, CSR at 201
    system = DiscreteSystem([uniform_space(n_el, 3)], dirichlet=[(True, True)])
    free = slice(*system.free_range(0))
    K = dense_stiffness_oracle_1d(system, system.test_mode)
    kernel = system.stiffness_kernel
    assert sp.issparse(kernel.outer) == sparse
    assert kernel.outer.shape == (system.n_free,) * 2 and kernel.inner.shape == (1, 1)
    assert np.max(np.abs(dense_of(kernel.outer) - K[free, free])) <= 1e-12 * np.max(np.abs(K))
    d = np.random.default_rng(2).normal(size=system.free_shape)
    assert np.array_equal(stiffness_apply(system, d), kernel.outer @ d)
    assert system.counters["mac_ops"] == stored(kernel.outer) + stored(kernel.inner) * len(d)
    # in 2D as in the run operator: each operand's stored entries times the
    # length of the other axis, once per apply
    system = make_system_2d(p=3, nel1=n_el // 4, nel2=16)
    kernel = system.stiffness_kernel
    n1, n2 = system.free_shape
    assert (kernel.outer.shape, kernel.inner.shape) == ((n1, 2 * n1), (2 * n2, n2))
    for applies in (1, 2):
        stiffness_apply(system, np.zeros(system.free_shape))
        assert system.counters["stiffness_applies"] == applies
        assert system.counters["mac_ops"] == applies * (
            stored(kernel.outer) * n2 + stored(kernel.inner) * n1)


def test_manufactured_eigenfunction_residual_decays():
    from iga_explicit.benchmarks import annulus_solution

    sol = annulus_solution()
    kappa = sol.omega**2
    residuals = []
    for nel in (4, 8):
        s1 = uniform_space(nel, 3)
        s2 = uniform_space(2 * nel, 3, boundary_kind=PERIODIC)
        system = DiscreteSystem(
            [s1, s2],
            geometry=annulus_map(sol.inner_radius, sol.outer_radius),
            mass_kind="customized",
            kappa=kappa,
            dirichlet=[(True, True), (False, False)],
        )

        def u0(x1, x2):
            r = sol.inner_radius + (sol.outer_radius - sol.inner_radius) * x1
            return sol.radial(r) * np.cos(sol.angular_wavenumber * 2 * np.pi * x2)

        d = project_initial(system, u0)
        M = dense_kron(mass_operator(system).factors)
        r = stiffness_apply(system, d) - kappa * (M @ grid_to_vec(d)).reshape(d.shape, order="F")
        residuals.append(np.max(np.abs(r)) / np.max(np.abs(stiffness_apply(system, d))))
    slope = np.log2(residuals[0] / residuals[1])
    assert slope >= 3 - 1 - 0.3


def test_apply_dirichlet_dimensions():
    system = make_system_2d(p=2, nel1=4, nel2=8, dirichlet_radial=True)
    n1, n2 = system.full_shape
    assert system.free_shape == (n1 - 2, n2)
    grid = np.arange(n1 * n2, dtype=float).reshape(n1, n2)
    assert system.extract(grid).shape == (n1 - 2, n2)


@pytest.mark.parametrize("ndim,halfwidths", [(2, (3,)), (2, (3, 3, 3)), (1, (3, 4))],
                         ids=["2d-short", "2d-long", "1d-long"])
def test_dual_halfwidth_length_must_match_the_directions(ndim, halfwidths):
    spaces = [uniform_space(8, 3), uniform_space(16, 3, boundary_kind=PERIODIC)][:ndim]
    geometry = annulus_map(1.0, 2.0) if ndim == 2 else None
    with pytest.raises(ValueError, match="dual_halfwidth"):
        DiscreteSystem(spaces, geometry=geometry, dual_halfwidth=halfwidths)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_kappa_is_rejected(kappa):
    with pytest.raises(ValueError, match="kappa"):
        DiscreteSystem([uniform_space(8, 3)], kappa=kappa)


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_or_non_finite_rho_is_rejected(rho):
    with pytest.raises(ValueError, match="rho"):
        DiscreteSystem([uniform_space(8, 3)], rho=rho)


def test_rho_comes_from_the_map_when_there_is_one():
    spaces = [uniform_space(8, 3), uniform_space(16, 3, boundary_kind=PERIODIC)]
    assert DiscreteSystem([uniform_space(8, 3)]).rho == 1.0
    assert DiscreteSystem([uniform_space(8, 3)], rho=2.5).rho == 2.5
    assert DiscreteSystem(spaces, geometry=annulus_map(1.0, 2.0, rho=1.3)).rho == 1.3
    with pytest.raises(ValueError, match="rho"):
        DiscreteSystem(spaces, geometry=annulus_map(1.0, 2.0), rho=5.0)
    with pytest.raises(ValueError, match="rho"):  # a map checks only the sign of its own
        DiscreteSystem(spaces, geometry=annulus_map(1.0, 2.0, rho=float("nan")))


def test_storage_scaling_sqrt_n():
    sizes = []
    for nel in (8, 32):
        s1 = uniform_space(nel, 2)
        s2 = uniform_space(2 * nel, 2, boundary_kind=PERIODIC)
        system = DiscreteSystem([s1, s2], geometry=annulus_map(1.0, 2.0),
                                mass_kind="customized",
                                dirichlet=[(True, True), (False, False)])
        mass = mass_operator(system)
        sizes.append((system.n_free, sum(stored(f.inverse) for f in mass.factors)))
    (n_a, s_a), (n_b, s_b) = sizes
    growth = np.log(s_b / s_a) / np.log(n_b / n_a)
    assert growth <= 0.75  # ~ sqrt(N), far below linear


def test_mac_ops_scale_linearly_with_n():
    # counted by nonzeros: at these sizes the operands are stored dense, and
    # the stored entries grow faster by design
    counts = []
    for nel in (4, 8):
        system = make_system_2d(p=3, nel1=nel, nel2=2 * nel)
        counts.append((system.n_free, nonzero_macs(system.stiffness_kernel)))
    (n_a, m_a), (n_b, m_b) = counts
    growth = np.log(m_b / m_a) / np.log(n_b / n_a)
    assert growth <= 1.35  # near-linear in N; naive tensor assembly would be ~2


def test_mac_ops_per_dof_linear_in_p():
    per_dof = []
    for p in (2, 4):
        system = make_system_2d(p=p, nel1=6, nel2=12)
        per_dof.append(nonzero_macs(system.stiffness_kernel) / system.n_free)
    # each Kronecker factor has 2p + 1 bands: cost per dof grows like p
    assert per_dof[1] / per_dof[0] <= 9.0 / 5.0


def test_apply_deterministic():
    system = make_system_2d(p=3, nel1=4, nel2=8)
    rng = np.random.default_rng(7)
    d = rng.normal(size=system.free_shape)
    r1 = stiffness_apply(system, d)
    r2 = stiffness_apply(system, d)
    assert np.array_equal(r1, r2)


def test_parametric_moments_partition():
    system = make_system_2d(p=2, nel1=3, nel2=8, dirichlet_radial=False)
    m = moments(system, lambda x1, x2: np.ones_like(x1))
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def annulus_initial_field(x1, x2):
    from iga_explicit.benchmarks import annulus_solution

    sol = annulus_solution()
    r = sol.inner_radius + (sol.outer_radius - sol.inner_radius) * x1
    return sol.radial(r) * np.cos(sol.angular_wavenumber * 2.0 * np.pi * x2)


@pytest.mark.parametrize("field", [
    annulus_initial_field,
    lambda x1, x2: np.sin(np.pi * x1) * np.cos(4.0 * np.pi * x2),
    lambda x1, x2: x1**3 + x2,
    lambda x1, x2: np.ones_like(x1),  # an (n1, 1) result
], ids=["annulus-initial", "separable", "sum", "ones-like-x1"])
def test_parametric_fields_are_evaluated_per_axis(field):
    system = make_system_2d(p=3, nel1=8, nel2=16)
    xs = [system.tables(k)[0] for k in range(2)]
    assert np.array_equal(system.evaluate(field), field(*np.meshgrid(*xs, indexing="ij")))


def linear_map(jacobian_of):
    """A GeometryMap with the Jacobian ``jacobian_of(x1, x2)``, a 2 x 2 nested
    list of arrays, and a zero Jacobian gradient; its value is unused."""
    from iga_explicit.geometry import GeometryMap

    def value(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return np.stack([x1, x2])

    def jacobian(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return np.array([[np.broadcast_to(f, x1.shape) for f in row]
                         for row in jacobian_of(x1, x2)])

    def jacobian_gradient(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return np.zeros((2, 2, 2) + x1.shape)

    return GeometryMap(value, jacobian, jacobian_gradient)


def flipped_map():
    """(x1, x2) -> (x2, x1): negative orientation."""
    return linear_map(lambda x1, x2: [[0.0, 1.0], [1.0, 0.0]])


def test_weight_field_rejects_flipped_map():
    with pytest.raises(ValueError):
        weight_field(flipped_map())


@pytest.mark.parametrize("kind", ["galerkin_consistent", "rowsum_lumped"])
def test_mass_build_checks_the_map_once_and_rejects_unsupported_ones(kind):
    # the B-spline masses weight their radial Grammian by c(x1): a flipped
    # map raises ValueError and a weight varying along x2 NumericalError,
    # which the CLI reports with exit codes 2 and 3
    spaces = [uniform_space(6, 3), uniform_space(12, 3, boundary_kind=PERIODIC)]
    # c = det(F) = 1 + x2 / 2 > 0, not a function of x1 alone
    sheared = linear_map(lambda x1, x2: [[1.0 + 0.5 * x2, 0.5 * x1], [0.0, 1.0]])
    for geometry, error in ((flipped_map(), ValueError), (sheared, NumericalError)):
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(error):
                mass_operator(DiscreteSystem(spaces, geometry=geometry, mass_kind=kind))
    from dataclasses import replace

    annulus = annulus_map(2.0, 5.0)
    calls = []
    geometry = replace(annulus, jacobian=lambda *x: calls.append(1) or annulus.jacobian(*x))
    mass_operator(DiscreteSystem(spaces, geometry=geometry, mass_kind=kind))
    checked = len(calls)
    mass_operator(DiscreteSystem(spaces, geometry=geometry, mass_kind=kind))
    # the second mass on the same map evaluates c at its quadrature points only
    assert len(calls) == checked + 1

"""Geometric mappings, Jacobians, and the weight field c = det(F) rho."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracle_utils import four_term_weight_gradient

from iga_explicit.assembly import DiscreteSystem, project_initial, stiffness_apply
from iga_explicit.benchmarks import l2_error
from iga_explicit.geometry import (
    GeometryMap,
    _det2,
    _inv2,
    annulus_map,
    identity_map,
    weight_field,
    weight_gradient,
)
from iga_explicit.splinecore import PERIODIC, uniform_space


def fd_jacobian(geo, x1, x2, h=1e-6):
    F = np.empty((2, 2))
    for k, (d1, d2) in enumerate(((h, 0.0), (0.0, h))):
        up = geo.value(x1 + d1, x2 + d2)
        dn = geo.value(x1 - d1, x2 - d2)
        F[:, k] = (up - dn) / (2 * h)
    return F


def test_identity_map_basics():
    geo = identity_map(rho=2.0)
    F = geo.jacobian(0.3, 0.7)
    assert_allclose(F, np.eye(2))
    assert_allclose(geo.jacobian_gradient(0.3, 0.7), np.zeros((2, 2, 2)))
    c, grad_c = weight_field(geo)
    assert c(0.2, 0.9) == pytest.approx(2.0)
    assert_allclose(grad_c(0.2, 0.9), np.zeros(2), atol=0)


def test_annulus_corner_point():
    geo = annulus_map(2.0, 5.0)
    assert_allclose(geo.value(0.0, 0.0), [2.0, 0.0], atol=1e-15)


def test_annulus_determinant_analytic():
    a, b = 2.0, 5.0
    geo = annulus_map(a, b)
    det = _det2(geo.jacobian(1.0, 0.37))
    assert det == pytest.approx(2 * np.pi * (b - a) * b, rel=1e-14)


def test_annulus_jacobian_matches_finite_differences():
    geo = annulus_map(1.5, 4.0)
    rng = np.random.default_rng(0)
    for x1, x2 in rng.uniform(0.05, 0.95, size=(20, 2)):
        F = geo.jacobian(x1, x2)
        F_fd = fd_jacobian(geo, x1, x2)
        assert_allclose(F, F_fd, rtol=1e-5, atol=1e-7)


def test_annulus_jacobian_gradient_matches_finite_differences():
    geo = annulus_map(1.5, 4.0)
    rng = np.random.default_rng(1)
    h = 1e-6
    for x1, x2 in rng.uniform(0.05, 0.95, size=(20, 2)):
        dF = geo.jacobian_gradient(x1, x2)
        for k, (d1, d2) in enumerate(((h, 0.0), (0.0, h))):
            up = geo.jacobian(x1 + d1, x2 + d2)
            dn = geo.jacobian(x1 - d1, x2 - d2)
            fd = (up - dn) / (2 * h)
            scale = np.abs(fd).max()
            assert_allclose(dF[:, :, k], fd, atol=1e-5 * max(scale, 1.0))


def test_weight_gradient_matches_finite_differences():
    geo = annulus_map(1.0, 3.0, rho=1.7)
    c, grad_c = weight_field(geo)
    rng = np.random.default_rng(2)
    h = 1e-6
    for x1, x2 in rng.uniform(0.05, 0.95, size=(20, 2)):
        g = grad_c(x1, x2)
        fd = np.array(
            [
                (c(x1 + h, x2) - c(x1 - h, x2)) / (2 * h),
                (c(x1, x2 + h) - c(x1, x2 - h)) / (2 * h),
            ]
        )
        assert_allclose(g, fd, rtol=2e-5, atol=1e-6)


def test_weight_independent_of_angle():
    geo = annulus_map(2.0, 5.0)
    c, _ = weight_field(geo)
    x2 = np.linspace(0.0, 1.0, 33)
    vals = c(np.full_like(x2, 0.4), x2)
    assert np.max(np.abs(vals - vals[0])) <= 1e-12


def test_annulus_area_by_pullback():
    a, b = 2.0, 5.0
    geo = annulus_map(a, b)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    det = _det2(geo.jacobian(X1, X2))
    area = np.einsum("i,j,ij->", w, w, det)
    assert area == pytest.approx(np.pi * (b**2 - a**2), abs=1e-8)


def test_invalid_radii():
    with pytest.raises(ValueError):
        annulus_map(3.0, 2.0)
    with pytest.raises(ValueError):
        annulus_map(0.0, 2.0)


@pytest.mark.parametrize("make", [identity_map, lambda rho: annulus_map(1.0, 2.0, rho=rho)],
                         ids=["identity", "annulus"])
def test_maps_reject_a_density_that_is_not_positive_and_finite(make):
    for rho in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"rho must be positive and finite, got {rho!r}$"):
            make(rho)


def test_vectorized_evaluation_shapes():
    geo = annulus_map(1.0, 2.0)
    x1 = np.linspace(0, 1, 4)[:, None] * np.ones((1, 3))
    x2 = np.ones((4, 1)) * np.linspace(0, 1, 3)[None, :]
    assert geo.value(x1, x2).shape == (2, 4, 3)
    assert geo.jacobian(x1, x2).shape == (2, 2, 4, 3)
    assert geo.jacobian_gradient(x1, x2).shape == (2, 2, 2, 4, 3)


def test_annulus_map_broadcasts_axis_operands_and_scalars():
    geo = annulus_map(1.0, 2.0)
    x1, x2 = np.linspace(0, 1, 4)[:, None], np.linspace(0, 1, 3)[None, :]
    X1, X2 = np.meshgrid(x1[:, 0], x2[0], indexing="ij")
    for fn, lead in ((geo.value, (2,)), (geo.jacobian, (2, 2)),
                     (geo.jacobian_gradient, (2, 2, 2))):
        assert fn(x1, x2).shape == lead + (4, 3)
        assert np.array_equal(fn(x1, x2), fn(X1, X2))
        assert fn(0.3, 0.7).shape == lead
        assert fn(0.3, x2[0]).shape == lead + (3,)


def annulus_system(p=3, n_r=8, geometry=None, mass_kind="customized"):
    return DiscreteSystem(
        [uniform_space(n_r, p), uniform_space(2 * n_r, p, boundary_kind=PERIODIC)],
        geometry=geometry or annulus_map(2.0, 5.0, rho=1.3),
        mass_kind=mass_kind,
        kappa=2.5,
        dirichlet=[(True, True), (False, False)],
    )


@pytest.mark.parametrize("p, n_r", [(3, 8), (5, 16)])
def test_geometry_grids_match_full_grid_evaluation_exactly(p, n_r):
    system = annulus_system(p, n_r)
    geo = system.geometry
    g = system.geometry_grids()
    X1, X2 = np.meshgrid(*(system.tables(k)[0] for k in range(2)), indexing="ij")
    c_fn, grad_c_fn = weight_field(geo)
    F = geo.jacobian(X1, X2)
    det = _det2(F)
    Finv = _inv2(F, det)
    A = [[system.kappa * det * (Finv[a, 0] * Finv[b, 0] + Finv[a, 1] * Finv[b, 1])
          for b in range(2)] for a in range(2)]
    XY = geo.value(X1, X2)
    want = {"det": det, "c": c_fn(X1, X2), "grad_c": grad_c_fn(X1, X2),
            "X": XY[0], "Y": XY[1]}
    for key, value in want.items():
        assert np.array_equal(g[key], value), key
    for a in range(2):
        for b in range(2):
            assert np.array_equal(g["A"][a][b], A[a][b]), (a, b)


def test_weight_gradient_sums_in_place_bit_for_bit():
    # the in-place traces against one four-term expression each, on the
    # annulus at scalar points, on an (n1, 1) x (1, n2) grid and on random
    # factors of every component
    geo = annulus_map(2.0, 5.0, rho=1.3)
    xs = np.linspace(0.0, 1.0, 23)
    points = [(x1, x2) for x1 in (0.0, 0.37, 1.0) for x2 in (0.0, 0.61, 0.999)]
    points.append((xs[:, None], xs[None, ::-1] ** 2))
    for x1, x2 in points:
        F = geo.jacobian(x1, x2)
        det = _det2(F)
        args = (geo.rho, det, _inv2(F, det), geo.jacobian_gradient(x1, x2))
        got, want = weight_gradient(*args), four_term_weight_gradient(*args)
        assert got.shape == want.shape == (2,) + np.shape(x1 + x2)
        assert np.array_equal(got, want)
    rng = np.random.default_rng(5)
    for shape in ((), (7,), (5, 9)):
        args = (1.7, rng.standard_normal(shape), rng.standard_normal((2, 2) + shape),
                rng.standard_normal((2, 2, 2) + shape))
        assert weight_gradient(*args).tobytes() == four_term_weight_gradient(*args).tobytes()


def test_map_is_evaluated_once_on_the_quadrature_grid():
    geo = annulus_map(2.0, 5.0)
    shapes = {"jacobian": [], "jacobian_gradient": []}

    def counted(name):
        fn = getattr(geo, name)

        def wrapper(x1, x2):
            shapes[name].append(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
            return fn(x1, x2)

        return wrapper

    # a system of each test mode: dual and standard
    for mass_kind in ("customized", "galerkin_consistent"):
        for seen in shapes.values():
            seen.clear()
        system = annulus_system(geometry=GeometryMap(
            geo.value, counted("jacobian"), counted("jacobian_gradient"), rho=geo.rho),
            mass_kind=mass_kind)
        quad_shape = tuple(len(system.tables(k)[0]) for k in range(2))
        # everything an annulus run evaluates on the quadrature grid
        d = np.ones(system.free_shape)
        stiffness_apply(system, d)
        u0 = lambda x1, x2: np.sin(np.pi * x1) * np.cos(2 * np.pi * x2)
        project_initial(system, u0)
        l2_error(system, d, lambda X, Y: np.hypot(X, Y))
        # the Jacobian gradient only for the dual test functions B/c
        want = {"jacobian": 1, "jacobian_gradient": int(mass_kind == "customized")}
        for name, seen in shapes.items():
            assert seen.count(quad_shape) == want[name], (mass_kind, name)
        assert len(shapes["jacobian_gradient"]) == want["jacobian_gradient"], mass_kind

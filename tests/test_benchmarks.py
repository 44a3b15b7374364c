"""Bessel oracles, manufactured annulus solution, string frequencies, L2 errors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracle_utils import loop_bessel_miller

from iga_explicit.assembly import DiscreteSystem, project_initial
from iga_explicit.benchmarks import (
    annulus_solution,
    bessel_j,
    bessel_zero,
    l2_error,
    string_frequencies,
)
from iga_explicit.geometry import annulus_map
from iga_explicit.splinecore import PERIODIC, uniform_space


def series_oracle(n, x, terms=15):
    """Truncated ascending series used as an independent small-x oracle."""
    from math import factorial

    total = 0.0
    for k in range(terms):
        num = (-1.0) ** k * (x / 2.0) ** (n + 2 * k)
        total += num / (factorial(k) * factorial(n + k))
    return total


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j(4, 0.0) == 0.0


def test_bessel_against_series_small_x():
    for x in np.linspace(0.0, 5.0, 41):
        assert abs(bessel_j(4, x) - series_oracle(4, x)) <= 1e-10


def test_bessel_against_scipy():
    from scipy.special import jv

    rng = np.random.default_rng(0)
    for n in (0, 1, 4, 7):
        x = rng.uniform(0.0, 60.0, size=200)
        assert np.max(np.abs(bessel_j(n, x) - jv(n, x))) <= 1e-12


def test_bessel_recurrence_identity():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 40.0, size=100)
    lhs = bessel_j(3, x) + bessel_j(5, x)
    rhs = (8.0 / x) * bessel_j(4, x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_bessel_vectorized_matches_scalar():
    x = np.array([0.3, 7.0, 13.0, 31.5])
    vec = bessel_j(4, x)
    for i, xi in enumerate(x):
        assert vec[i] == pytest.approx(bessel_j(4, float(xi)), abs=1e-14)


def test_bessel_repeated_arguments_match_distinct_values_exactly():
    distinct = np.array([0.0, 0.7, 5.0, 12.0, 12.5, 17.6, 31.5, 59.0])
    rng = np.random.default_rng(3)
    grid = rng.permutation(np.tile(distinct, 7)).reshape(8, 7)
    out = bessel_j(4, grid)
    assert out.shape == grid.shape
    assert np.array_equal(out, bessel_j(4, distinct)[np.searchsorted(distinct, grid)])


def test_bessel_recurrence_sees_each_distinct_argument_once(monkeypatch):
    from iga_explicit import benchmarks

    miller = benchmarks._bessel_miller
    seen = []
    monkeypatch.setattr(benchmarks, "_bessel_miller",
                        lambda n, x: seen.append(x.copy()) or miller(n, x))
    radii = np.linspace(11.0, 17.7, 40)
    bessel_j(4, np.add.outer(radii, np.zeros(64)))  # a radial profile on a polar grid
    (args,) = seen
    assert np.array_equal(args, radii[radii > 12.0])


def annulus_grid_radii():
    """The distinct radii of an annulus run's quadrature grid (p=3, n_r=16)
    that the recurrence sees, above the series cutoff."""
    sol = annulus_solution()
    system = DiscreteSystem(
        [uniform_space(16, 3), uniform_space(32, 3, boundary_kind=PERIODIC)],
        geometry=annulus_map(sol.inner_radius, sol.outer_radius))
    g = system.geometry_grids()
    r = np.unique(np.hypot(g["X"], g["Y"]))
    return r[r > 12.0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 30, 400])
def test_bessel_recurrence_matches_the_per_step_overflow_check_bit_for_bit(n):
    # order 400 grows past 1e250 from the start index down and is rescaled
    from iga_explicit.benchmarks import _bessel_miller

    rng = np.random.default_rng(n)
    for x in (np.array([31.5]), rng.uniform(12.0, 60.0, size=64), annulus_grid_radii()):
        assert np.array_equal(_bessel_miller(n, x), loop_bessel_miller(n, x))


def test_bessel_zero_values():
    lam2 = bessel_zero(4, 2)
    lam4 = bessel_zero(4, 4)
    assert lam2 == pytest.approx(11.065, abs=1e-3)
    assert lam4 == pytest.approx(17.616, abs=1e-3)


def test_bessel_zero_residuals_and_ordering():
    zeros = [bessel_zero(4, k) for k in range(1, 7)]
    for z in zeros:
        assert abs(bessel_j(4, z)) <= 1e-10
    assert np.all(np.diff(zeros) > 0)


def test_manufactured_boundary_values():
    sol = annulus_solution()
    thetas = np.linspace(0.0, 2 * np.pi, 13)
    for t in (0.0, 0.123, sol.period / 3):
        assert np.max(np.abs(sol.value(sol.inner_radius, thetas, t))) <= 5e-13
        assert np.max(np.abs(sol.value(sol.outer_radius, thetas, t))) <= 5e-13


def test_manufactured_initial_velocity_zero():
    sol = annulus_solution()
    r = np.linspace(sol.inner_radius, sol.outer_radius, 7)
    assert np.max(np.abs(sol.velocity(r, 0.3, 0.0))) == 0.0


def test_manufactured_periodicity():
    sol = annulus_solution()
    r = np.linspace(sol.inner_radius, sol.outer_radius, 9)
    th = np.linspace(0.0, 2 * np.pi, 9)
    R, TH = np.meshgrid(r, th, indexing="ij")
    assert_allclose(sol.value(R, TH, sol.period), sol.value(R, TH, 0.0), atol=1e-12)


def test_manufactured_satisfies_wave_equation():
    # u_tt = kappa * Lap(u) with kappa = omega^2, checked with 4th-order
    # finite differences of the polar Laplacian at random points. Spatial
    # steps stay above 1e-2 so radial-profile evaluation noise (~1e-13) is
    # not amplified by the 1/h^2 of the second-difference stencils.
    sol = annulus_solution()
    kappa = sol.kappa
    rng = np.random.default_rng(2)
    h_sp = 1e-2
    h_t = 1e-3
    stencil2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    stencil1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    offs = np.array([-2, -1, 0, 1, 2])
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(sol.inner_radius + 0.1, sol.outer_radius - 0.1)
        th = rng.uniform(0.0, 2 * np.pi)
        t = rng.uniform(0.0, sol.period)
        u_line_r = sol.value(r + offs * h_sp, th, t)
        u_rr = np.dot(stencil2, u_line_r) / h_sp**2
        u_r = np.dot(stencil1, u_line_r) / h_sp
        u_thth = np.dot(stencil2, sol.value(r, th + offs * h_sp, t)) / h_sp**2
        u_tt = np.dot(stencil2, sol.value(r, th, t + offs * h_t)) / h_t**2
        lap = u_rr + u_r / r + u_thth / r**2
        resid = abs(u_tt - kappa * lap)
        scale = abs(u_tt) + abs(kappa * lap) + 1.0
        worst = max(worst, resid / scale)
    assert worst <= 1e-6


def test_string_frequencies():
    assert string_frequencies(1) == pytest.approx(np.pi)
    assert string_frequencies(2) == pytest.approx(2 * np.pi)
    assert_allclose(string_frequencies(np.array([3, 5])), [3 * np.pi, 5 * np.pi])


def annulus_system(p, nel, mass_kind="customized"):
    sol = annulus_solution()
    s1 = uniform_space(nel, p)
    s2 = uniform_space(2 * nel, p, boundary_kind=PERIODIC)
    geo = annulus_map(sol.inner_radius, sol.outer_radius)
    return (
        DiscreteSystem(
            [s1, s2],
            geometry=geo,
            mass_kind=mass_kind,
            kappa=sol.kappa,
            dirichlet=[(True, True), (False, False)],
        ),
        sol,
    )


def param_initial(sol):
    dr = sol.outer_radius - sol.inner_radius

    def u0(x1, x2):
        r = sol.inner_radius + dr * x1
        return sol.radial(r) * np.cos(sol.angular_wavenumber * 2 * np.pi * x2)

    return u0


def exact_xy(sol, t):
    def field(X, Y):
        r = np.hypot(X, Y)
        th = np.arctan2(Y, X)
        return sol.value(r, th, t)

    return field


def test_l2_error_zero_for_same_field():
    # exact field = the spline itself, reconstructed pointwise by a separate
    # evaluation path: the relative error must vanish to roundoff
    from iga_explicit.splinecore import eval_basis

    system, sol = annulus_system(2, 4)
    rng = np.random.default_rng(3)
    d = rng.normal(size=system.free_shape)
    full = system.inject(d)
    s1, s2 = system.spaces
    geo = system.geometry
    dr = sol.outer_radius - sol.inner_radius

    def spline_field(X, Y):
        out = np.zeros_like(X)
        it = np.nditer(X, flags=["multi_index"])
        for _ in it:
            i, j = it.multi_index
            r = np.hypot(X[i, j], Y[i, j])
            th = np.arctan2(Y[i, j], X[i, j]) % (2 * np.pi)
            x1 = (r - sol.inner_radius) / dr
            x2 = th / (2 * np.pi)
            e1 = eval_basis(s1, min(max(x1, 0.0), 1.0))
            e2 = eval_basis(s2, x2)
            block = full[np.ix_(e1.indices, e2.indices)]
            out[i, j] = e1.values[0] @ block @ e2.values[0]
        return out

    assert l2_error(system, d, spline_field) <= 1e-13


def test_l2_error_rejects_zero_norm():
    system, sol = annulus_system(2, 4)
    d = np.zeros(system.free_shape)
    with pytest.raises(ValueError):
        l2_error(system, d, lambda X, Y: np.zeros_like(X))


@pytest.mark.parametrize("p", [3])
def test_projection_error_decays_at_order_p1(p):
    sol = annulus_solution()
    errs = []
    for nel in (8, 16, 32):
        system, _ = annulus_system(p, nel)
        d = project_initial(system, param_initial(sol))
        errs.append(l2_error(system, d, exact_xy(sol, 0.0)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= p  # order >= p (expected p+1)
    assert errs[-1] < 2.0 ** (-p) * errs[-2]

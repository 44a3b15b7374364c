"""Runge-Kutta steppers, stability limits, eigensolver, outlier removal."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracle_utils import (
    allocating_rk_step,
    loop_outlier_end_block,
    resolvent_stability_function,
    stage_rk_step,
)

from iga_explicit.assembly import DiscreteSystem, assembled_stiffness_1d
from iga_explicit.dualbasis import grammian
from iga_explicit.dynamics import (
    PAPER_CMAX,
    RK2,
    RK4,
    RK6,
    ButcherTableau,
    DynamicState,
    OutlierConstraint,
    RunOperator,
    constraints_per_end,
    critical_dt,
    eigensolve,
    max_frequency,
    outlier_removal,
    power_max_frequency,
    rk_step,
    stability_limit,
    stability_polynomial,
)
from iga_explicit.errors import NumericalError
from iga_explicit.splinecore import uniform_space

FORWARD_EULER = ButcherTableau("euler", a=[[0.0]], b=[1.0])


def string_system(p, n_el, mass_kind="galerkin_consistent"):
    space = uniform_space(n_el, p)
    return DiscreteSystem([space], mass_kind=mass_kind, dirichlet=[(True, True)])


def string_dense_matrices(system):
    """Dense (K, M) pairs for all three mass kinds of a 1D string system."""
    space = system.spaces[0]
    lo, hi = system.free_range(0)
    G = grammian(space)
    K = assembled_stiffness_1d(system).toarray()
    M_cons = G.to_dense()[lo:hi, lo:hi]
    M_lump = np.diag(G.rowsums()[lo:hi])
    M_cust = np.linalg.inv(system.constrained_duals[0].S.to_dense())
    return K, {"galerkin_consistent": M_cons, "rowsum_lumped": M_lump, "customized": M_cust}


def test_zero_rhs_translates_linearly():
    state = DynamicState(np.array([1.0, 2.0]), np.array([0.5, -1.0]), 0.0)
    out = rk_step(RK4, lambda d: np.zeros_like(d), state, 0.25)
    assert_allclose(out.d, state.d + 0.25 * state.v, atol=1e-15)
    assert_allclose(out.v, state.v, atol=0)
    assert out.t == pytest.approx(0.25)


def test_harmonic_oscillator_energy_drift():
    state = DynamicState(np.array([1.0]), np.array([0.0]), 0.0)
    e0 = 0.5 * (state.d[0] ** 2 + state.v[0] ** 2)
    for _ in range(100):
        state = rk_step(RK4, lambda d: -d, state, 0.1)
    e1 = 0.5 * (state.d[0] ** 2 + state.v[0] ** 2)
    assert abs(e1 - e0) <= 1e-6


@pytest.mark.parametrize("tableau,expected", [(RK2, 2.0), (RK4, 4.0), (RK6, 6.0)])
def test_convergence_orders(tableau, expected):
    errs = []
    base = 0.25 if expected >= 6 else (0.2 if expected >= 4 else 0.05)
    for dt in (base, base / 2, base / 4):
        n = int(round(2.0 / dt))
        state = DynamicState(np.array([1.0]), np.array([0.0]), 0.0)
        for _ in range(n):
            state = rk_step(tableau, lambda d: -d, state, dt)
        errs.append(abs(state.d[0] - np.cos(2.0)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - expected) <= 0.1


def test_nan_detection():
    state = DynamicState(np.array([1.0]), np.array([0.0]), 0.0)
    with pytest.raises(NumericalError):
        rk_step(RK2, lambda d: d * np.nan, state, 0.1)


def test_stability_coefficients():
    assert_allclose(RK2.coefficients, [1.0, 1.0, 0.5, 0.25], rtol=1e-15)
    factorials = np.cumprod([1.0, *range(1, 8)])
    assert_allclose(RK4.coefficients, 1.0 / factorials[:5], rtol=1e-15)
    # sixth order: 1/k! up to k = 6, and R of degree 7
    assert len(RK6.coefficients) == 8
    assert_allclose(RK6.coefficients[:7], 1.0 / factorials[:7], rtol=1e-14)
    assert_allclose(FORWARD_EULER.coefficients, [1.0, 1.0])


@pytest.mark.parametrize("tableau", [RK2, RK4, RK6, FORWARD_EULER], ids=lambda t: t.name)
def test_stability_polynomial_matches_the_resolvent(tableau):
    for z in (-2.5, -0.7, 0.3, 1.1j, -2.7j, 1.3j, -1.0 + 1.0j, 0.5 - 2.0j, -0.2 + 3.0j):
        want = resolvent_stability_function(tableau, z)
        assert abs(stability_polynomial(tableau, z) - want) <= 1e-14 * max(1.0, abs(want))


def test_stability_limit_rk4():
    assert stability_limit(RK4) == pytest.approx(2 * np.sqrt(2.0), abs=1e-3)


def test_stability_limit_forward_euler_zero():
    assert stability_limit(FORWARD_EULER) == 0.0


def test_stability_limit_rk2_matches_convention():
    # the three-stage second-order scheme is imaginary-axis stable up to 2.0
    assert stability_limit(RK2) == pytest.approx(2.0, abs=1e-3)
    assert PAPER_CMAX["rk2"] == 2.0
    assert PAPER_CMAX["rk4"] == 2.785
    assert PAPER_CMAX["rk6"] == 3.387


def test_critical_dt():
    assert critical_dt(2.0, 4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        critical_dt(2.0, 0.0)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_critical_dt_rejects_what_is_not_positive_and_finite(value):
    with pytest.raises(ValueError, match=rf"maximum frequency .* got {value!r}"):
        critical_dt(2.0, value)
    with pytest.raises(ValueError, match=rf"C_max .* got {value!r}"):
        critical_dt(value, 4.0)


@pytest.mark.parametrize("eigenvalues", [[-1.0, np.nan], [-1.0, np.inf], [0.0, 0.0]])
def test_max_frequency_rejects_an_estimate_that_is_not_positive_and_finite(eigenvalues):
    # raised before a critical step could be computed from it
    from types import SimpleNamespace

    run = SimpleNamespace(omega_method="fourier_blocks",
                          fourier_eigenvalues=np.array(eigenvalues, dtype=complex))
    with pytest.raises(NumericalError, match="omega_max estimate .* is not positive and finite"):
        max_frequency(run)


def test_eigensolve_identity_pair():
    M = np.eye(4)
    freqs = eigensolve(M, M)
    assert_allclose(freqs, np.ones(4), atol=1e-12)


def test_eigensolve_two_by_two():
    K = np.array([[2.0, -1.0], [-1.0, 2.0]])
    freqs = eigensolve(K, np.eye(2))
    assert_allclose(freqs, [1.0, np.sqrt(3.0)], atol=1e-12)


def test_eigensolve_rejects_indefinite_mass():
    # one factorization, LAPACK's, whose failure carries its message
    with pytest.raises(NumericalError, match="not positive definite"):
        eigensolve(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_linear_fem_dispersion():
    n_el = 24
    h = 1.0 / n_el
    system = string_system(1, n_el)
    K, masses = string_dense_matrices(system)
    freqs = eigensolve(K, masses["galerkin_consistent"])
    k = np.arange(1, n_el)
    exact = np.sqrt(6.0 / h**2 * (1 - np.cos(k * np.pi * h)) / (2 + np.cos(k * np.pi * h)))
    assert np.max(np.abs(freqs - exact)) <= 1e-8


def test_power_iteration_diagonal():
    # n <= 2 is below ARPACK's minimum dimension
    for n in (1, 2, 10):
        K = np.diag(np.arange(1.0, n + 1.0))
        omega, applies = power_max_frequency(lambda v: K @ v, n)
        assert omega == pytest.approx(np.sqrt(n), rel=1e-9)
        assert omega >= np.sqrt(n)
        assert applies >= n


def test_dense_branch_carries_the_arnoldi_margin():
    # n <= 2 takes the dense eigenvalues, with the margin of every estimate
    A = np.diag([1.0, 4.0])
    for tol in (1e-10, 1e-4):
        omega, applies = power_max_frequency(lambda v: A @ v, 2, tol)
        assert omega == pytest.approx(np.sqrt(4.0 * (1.0 + tol)), rel=1e-15)
        assert applies == 2


def test_power_iteration_matches_dense_string():
    system = string_system(1, 20)
    K, masses = string_dense_matrices(system)
    M = masses["galerkin_consistent"]
    dense_max = eigensolve(K, M)[-1]
    omega = max_frequency(RunOperator(system))
    assert omega == pytest.approx(dense_max, rel=1e-6)


def test_max_frequency_customized_below_consistent():
    sys_cons = string_system(3, 40, "galerkin_consistent")
    sys_cust = string_system(3, 40, "customized")
    w_cons = max_frequency(RunOperator(sys_cons))
    w_cust = max_frequency(RunOperator(sys_cust))
    assert w_cust < w_cons


@pytest.mark.parametrize("p,expected", [(2, 0), (3, 1), (4, 1), (5, 2)])
def test_outlier_constraint_counts(p, expected):
    system = string_system(p, 30)
    assert constraints_per_end(p) == expected
    if not expected:
        # no constraint below degree 3: no constraint object either
        assert outlier_removal(system) is None
        with pytest.raises(ValueError, match="below degree 3"):
            OutlierConstraint(system)
        return
    con = outlier_removal(system)
    assert con.n_constraints_per_end == expected
    m = system.free_shape[0]
    assert con.T.shape == (m, m - 2 * expected)
    # each end block as the entry-by-entry constraint rows give it
    space, (lo, _), K = system.spaces[0], system.free_range(0), expected
    a, b = space.domain
    left = loop_outlier_end_block(space, a, lo, m, p, K, left=True)
    right = loop_outlier_end_block(space, b, lo, m, p, K, left=False)
    assert np.array_equal(con.T[:p, : p - K], left)
    assert np.array_equal(con.T[m - p :, m - K - p :], right)


def test_outlier_removal_reduces_max_frequency_p4():
    system = string_system(4, 40)
    con = outlier_removal(system)
    w_full = max_frequency(RunOperator(system))
    w_red = max_frequency(RunOperator(system, con))
    assert w_red < w_full


def test_outlier_transform_kills_even_end_derivatives():
    from iga_explicit.splinecore import eval_basis

    system = string_system(5, 25)
    con = outlier_removal(system)
    space = system.spaces[0]
    lo, hi = system.free_range(0)
    rng = np.random.default_rng(0)
    y = rng.normal(size=con.T.shape[1])
    d_free = con.T @ y
    full = np.zeros(space.dimension)
    full[lo:hi] = d_free
    for x_end in (0.0, 1.0):
        ev = eval_basis(space, x_end, max_deriv=4)
        for order in (2, 4):
            val = float(np.dot(full[ev.indices], ev.values[order]))
            assert abs(val) <= 1e-8 * max(1.0, np.max(np.abs(ev.values[order])))


def test_outlier_removal_preserves_low_modes():
    system = string_system(4, 60)
    K, masses = string_dense_matrices(system)
    M = masses["galerkin_consistent"]
    con = outlier_removal(system)
    T = con.T
    full = eigensolve(K, M)
    red = eigensolve(T.T @ K @ T, T.T @ M @ T)
    k = np.arange(1, len(red) + 1)
    exact = k * np.pi
    n_low = max(3, len(red) // 10)
    err_full = np.abs(full[:n_low] / exact[:n_low] - 1.0)
    err_red = np.abs(red[:n_low] / exact[:n_low] - 1.0)
    # low-mode accuracy unchanged to within 5 percent (above the double floor)
    assert np.all(err_red <= 1.05 * np.maximum(err_full, 1e-12))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_outlier_removal_increases_critical_dt(p):
    system = string_system(p, 50)
    K, masses = string_dense_matrices(system)
    M = masses["customized"]
    con = outlier_removal(system)
    T = con.T
    w_full = eigensolve(K, M)[-1]
    w_red = eigensolve(T.T @ K @ T, T.T @ M @ T)[-1]
    assert critical_dt(PAPER_CMAX["rk4"], w_red) > critical_dt(PAPER_CMAX["rk4"], w_full)


RUN_KINDS = ["galerkin_consistent", "customized", "rowsum_lumped"]


def membrane_system(kind, p=3, n_r=8, n_theta=None):
    """An annulus system with the membrane run's Dirichlet sides and dual
    widths, 2 n_r angular elements unless ``n_theta`` says otherwise."""
    from iga_explicit.geometry import annulus_map
    from iga_explicit.splinecore import PERIODIC

    n_theta = 2 * n_r if n_theta is None else n_theta
    return DiscreteSystem(
        [uniform_space(n_r, p), uniform_space(n_theta, p, boundary_kind=PERIODIC)],
        geometry=annulus_map(2.0, 5.0), mass_kind=kind,
        dirichlet=[(True, True), (False, False)], dual_halfwidth=(p, p + 1),
    )


def membrane_field(x1, x2):
    return np.sin(np.pi * x1) * np.cos(4.0 * np.pi * x2)


def count_grammian_calls(monkeypatch):
    from iga_explicit import assembly, dualbasis

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return grammian(*args, **kwargs)

    monkeypatch.setattr(dualbasis, "grammian", counting)
    monkeypatch.setattr(assembly, "grammian", counting)
    return calls


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_outlier_reduced_solve_is_factored_once(kind, monkeypatch):
    system = membrane_system(kind)
    con = outlier_removal(system)
    lo, hi = system.free_range(0)
    if kind == "customized":
        M0, M1 = (np.linalg.inv(cd.S.to_dense()) for cd in system.constrained_duals)
    else:
        G0 = grammian(system.spaces[0], weight=system.geometry.radial_weight,
                      points_per_element=system.mass_points)
        G1 = grammian(system.spaces[1], points_per_element=system.mass_points)
        if kind == "galerkin_consistent":
            M0, M1 = G0.to_dense()[lo:hi, lo:hi], G1.to_dense()
        else:
            M0, M1 = np.diag(G0.rowsums()[lo:hi]), np.diag(G1.rowsums())
    T = con.T
    # (T^T M0 T)^{-1} (x) M1^{-1} on column-major flattened reduced grids
    ref_op = np.kron(np.linalg.inv(M1), np.linalg.inv(T.T @ M0 @ T))

    solve = con.reduce_mass(system)
    calls = count_grammian_calls(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = rng.normal(size=con.shape_reduced)
        ref = (ref_op @ y.reshape(-1, order="F")).reshape(y.shape, order="F")
        out = solve(y)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert calls == []


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_mass_forms_are_built_once_per_system(kind, monkeypatch):
    from iga_explicit import assembly
    from iga_explicit.assembly import mass_operator, project_initial

    system = membrane_system(kind)
    con = outlier_removal(system)
    mass_operator(system)
    calls = count_grammian_calls(monkeypatch)
    mass_operator(system)
    project_initial(system, membrane_field)
    max_frequency(RunOperator(system), tol=1e-4)
    con.reduce_mass(system)
    max_frequency(RunOperator(system, con), tol=1e-4)
    con.project_initial(membrane_field)
    assert calls == []
    assert mass_operator(system) is mass_operator(system)
    tables = [system.tables(k) for k in range(system.ndim)]
    grids = system.geometry_grids()
    evals = []
    monkeypatch.setattr(assembly, "eval_basis", lambda *args, **kwargs: evals.append(args))
    assert all(system.tables(k) is t for k, t in enumerate(tables))
    assert system.geometry_grids() is grids
    assert evals == []


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_outlier_projection_uses_the_reduced_projection(kind):
    from iga_explicit.assembly import moments

    system = membrane_system(kind)
    con = outlier_removal(system)
    y = con.project_initial(membrane_field)
    lo, hi = system.free_range(0)
    # each kind's own projection factors P0, P1 and moment test functions
    weight = None if kind == "customized" else system.geometry.radial_weight
    G0 = grammian(system.spaces[0], weight=weight, points_per_element=system.mass_points)
    G1 = grammian(system.spaces[1], points_per_element=system.mass_points)
    if kind == "rowsum_lumped":
        P0, P1 = np.diag(G0.rowsums()[lo:hi]), np.diag(G1.rowsums())
    else:
        P0, P1 = G0.to_dense()[lo:hi, lo:hi], G1.to_dense()
    # (T^T P0 T (x) P1) y = T^T m with m the moments of the field
    lhs = con.restrict(P0 @ con.prolong(y) @ P1.T)
    rhs = con.restrict(system.extract(moments(system, membrane_field)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_outlier_requires_dirichlet():
    space = uniform_space(20, 3)
    system = DiscreteSystem([space], mass_kind="customized")
    with pytest.raises(ValueError):
        OutlierConstraint(system)


def test_power_iteration_nonconvergence_reports_quotients():
    # an evenly spread spectrum and one restart cycle: the top Ritz value is
    # far from its eigenvalue when the budget runs out
    A = np.diag(np.linspace(0.0, 1.0, 200))
    with pytest.raises(NumericalError, match="Ritz estimate"):
        power_max_frequency(lambda v: A @ v, 200, max_iterations=1)


@pytest.mark.parametrize("n", [12, 2], ids=["arnoldi", "dense"])
def test_power_max_frequency_rejects_a_non_finite_operator(n):
    # before ARPACK or LAPACK sees it, on both paths
    with pytest.raises(NumericalError, match="non-finite operator apply"):
        power_max_frequency(lambda x: x * np.nan, n)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_outlier_reductions_keep_their_explicit_congruences(p):
    # the reduced mass factor and the stacked stiffness factors of a run
    # operator, bit for bit as T^T X T of each factor wrote them out
    from iga_explicit.assembly import by_fill, mass_operator
    from oracle_utils import dense_of

    system = membrane_system("galerkin_consistent", p=p, n_r=8)
    con = outlier_removal(system)
    T = con.T
    n, r = T.shape
    F0 = mass_operator(system).factors[0].to_dense()
    assert np.array_equal(con.reduce(mass_operator(system)).factors[0].to_dense(), T.T @ F0 @ T)
    run = RunOperator(system, con)
    kernel = system.stiffness_kernel
    outer = ((T.T @ kernel.outer).reshape(r, kernel.n_terms, n) @ T).reshape(r, -1)
    want = by_fill(-(run.mass.factors[0].inverse @ outer))
    assert np.array_equal(dense_of(run.terms.outer), dense_of(want))
    assert np.array_equal(dense_of(con.congruence(F0)), T.T @ F0 @ T)


def separate_rhs(system, outlier=None):
    """The state shape and M^{-1} K of a run (or its outlier-reduced form)
    from the separate stiffness apply and mass solve, not the run operator."""
    from iga_explicit.assembly import mass_operator, stiffness_apply

    if outlier is None:
        return system.free_shape, lambda d: mass_operator(system).solve(stiffness_apply(system, d))
    solve = outlier.reduce_mass(system)
    return outlier.shape_reduced, lambda y: solve(
        outlier.restrict(stiffness_apply(system, outlier.prolong(y))))


def dense_omega(system, outlier=None):
    """sqrt(max |eig|) of M^{-1} K (or its outlier-reduced form), formed
    column by column from the separate matrix-free operators."""
    shape, rhs = separate_rhs(system, outlier)
    n = int(np.prod(shape))
    columns = np.column_stack([rhs(e.reshape(shape)).ravel() for e in np.eye(n)])
    return float(np.sqrt(np.max(np.abs(np.linalg.eigvals(columns)))))


@pytest.mark.parametrize(
    "p,n_r,kind,outlier",
    [(p, n_r, kind, False) for p in (3, 5) for n_r in (8, 16) for kind in RUN_KINDS]
    + [(p, 8, kind, True) for p in (3, 5) for kind in ("galerkin_consistent", "customized")],
)
def test_max_frequency_bounds_the_dense_oracle(p, n_r, kind, outlier):
    system = membrane_system(kind, p, n_r)
    con = outlier_removal(system) if outlier else None
    omega = max_frequency(RunOperator(system, con))
    exact = dense_omega(system, con)
    # never an underestimate, which would give an unstable timestep
    assert omega >= exact
    assert omega <= exact * (1.0 + 1e-8)


@pytest.mark.parametrize("p,n_r,outlier",
                         [(3, 32, False), (3, 64, False), (5, 16, False), (5, 8, True)])
def test_fourier_blocks_match_arpack_on_the_same_run_operator(p, n_r, outlier):
    system = membrane_system("customized", p, n_r)
    run = RunOperator(system, outlier_removal(system) if outlier else None)
    omega = max_frequency(run)
    assert run.fourier_eigenvalues is not None
    assert system.counters["stiffness_applies"] == 0
    arnoldi, applies = power_max_frequency(
        lambda v: run.apply(v.reshape(run.shape)).ravel(), run.n)
    assert applies > 0
    # both carry the margin sqrt(1 + tol)
    assert omega == pytest.approx(arnoldi, rel=1e-12)


@pytest.mark.parametrize("outlier", [False, True])
def test_fourier_blocks_hold_the_whole_spectrum(outlier):
    system = membrane_system("customized", 3, 8)
    con = outlier_removal(system) if outlier else None
    run = RunOperator(system, con)
    mu = run.fourier_eigenvalues
    m = system.free_shape[1]
    # complex, although every eigenvalue of these blocks is real
    assert mu.shape == (m // 2 + 1, run.shape[0]) and mu.dtype == complex
    # wavenumbers 1 .. m/2 - 1 stand for m - k too, whose block is the same
    every = np.concatenate([mu.ravel(), mu[1 : m // 2].ravel()])
    shape, rhs = separate_rhs(system, con)
    dense = np.linalg.eigvals(np.column_stack(
        [-rhs(e.reshape(shape)).ravel() for e in np.eye(run.n)]))
    assert len(every) == len(dense)
    scale = np.max(np.abs(dense))
    for part in (np.abs, np.real, np.imag):
        assert np.max(np.abs(np.sort(part(every)) - np.sort(part(dense)))) <= 1e-10 * scale


def test_max_frequency_falls_back_to_arpack_on_a_clamped_petrov_square():
    # the customized kind on a square clamped in both directions: no
    # periodic direction, no Fourier blocks
    space = uniform_space(8, 3)
    system = DiscreteSystem([space, space], mass_kind="customized",
                            dirichlet=[(True, True), (True, True)])
    run = RunOperator(system)
    omega = max_frequency(run)
    assert run.fourier_eigenvalues is None and run.spectral_abscissa is None
    assert system.counters["stiffness_applies"] > 0
    exact = dense_omega(system)
    assert exact <= omega <= exact * (1.0 + 1e-8)


def test_arpack_is_loaded_only_for_an_arnoldi_estimate():
    # a fresh interpreter: the package imports without ARPACK, and the
    # Galerkin membrane's omega_max still comes from it, the same value
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import iga_explicit\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
        "from iga_explicit import DiscreteSystem, annulus_map, uniform_space\n"
        "from iga_explicit.splinecore import PERIODIC\n"
        "from iga_explicit.dynamics import RunOperator, max_frequency\n"
        "system = DiscreteSystem([uniform_space(8, 3), uniform_space(16, 3, "
        "boundary_kind=PERIODIC)], geometry=annulus_map(2.0, 5.0), "
        "mass_kind='galerkin_consistent', dirichlet=[(True, True), (False, False)], "
        "dual_halfwidth=(3, 4))\n"
        "print(repr(max_frequency(RunOperator(system))))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, omega, after = proc.stdout.split()
    run = RunOperator(membrane_system("galerkin_consistent"))
    assert (before, after) == ("False", "True")
    assert float(omega) == max_frequency(run) and run.fourier_eigenvalues is None


@pytest.mark.parametrize("change", ["scale", "drop", "skew"])
@pytest.mark.parametrize("n_theta", [16, 160])  # a dense and a CSR inner
def test_max_frequency_falls_back_to_arpack_off_circulant(n_theta, change):
    import scipy.sparse as sp

    system = membrane_system("customized", 3, 8, n_theta)
    run = RunOperator(system)
    inner = run.terms.inner
    assert sp.issparse(inner) == (n_theta == 160)
    if change == "skew":
        # the whole wrapped diagonal 1 of Q_0 scaled, diagonal m - 1 not: a
        # circulant that is no longer symmetric
        rows = np.arange(n_theta)
        cols = (rows - 1) % n_theta
        inner[rows, cols] = np.asarray(inner[rows, cols]).ravel() * (1.0 + 1e-6)
    else:
        # one entry of Q_0 off its first column's diagonal value, or gone
        inner[3, 5] = 0.0 if change == "drop" else inner[3, 5] * (1.0 + 1e-6)
    if sp.issparse(inner):
        inner.eliminate_zeros()
    max_frequency(run)
    assert run.fourier_eigenvalues is None and run.omega_method == "arnoldi"
    assert system.counters["stiffness_applies"] > 0


@pytest.mark.parametrize("outlier", [False, True])
@pytest.mark.parametrize("n_r", [8, 16, 32])
@pytest.mark.parametrize("p", [3, 5])
def test_circulant_symbols_are_the_real_dft_of_each_first_column(p, n_r, outlier):
    import scipy.sparse as sp

    from iga_explicit.dynamics import _circulant_symbols

    system = membrane_system("customized", p, n_r)
    terms = RunOperator(system, outlier_removal(system) if outlier else None).terms
    m = terms.m
    symbols = _circulant_symbols(terms.inner, m)
    assert symbols.dtype == float and symbols.shape == (terms.n_terms, m // 2 + 1)
    inner = terms.inner.toarray() if sp.issparse(terms.inner) else terms.inner
    dft = np.fft.fft(inner[:, 0].reshape(terms.n_terms, m), axis=1)[:, : m // 2 + 1]
    scale = np.max(np.abs(dft))
    assert np.max(np.abs(symbols - dft.real)) <= 1e-13 * scale
    assert np.max(np.abs(dft.imag)) <= 1e-13 * scale


def test_fourier_blocks_read_a_csr_inner_without_densifying():
    import tracemalloc

    import scipy.sparse as sp

    system = membrane_system("customized", 3, 8, n_theta=160)
    run = RunOperator(system)
    terms = run.terms
    assert sp.issparse(terms.inner)
    tracemalloc.start()
    try:
        max_frequency(run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.fourier_eigenvalues is not None
    assert system.counters["stiffness_applies"] == 0
    assert peak < 8 * terms.m**2, peak  # one m x m float array


def cli_membrane(p, n_r):
    """The customized system of ``annulus --degree p --n_elems n_r``."""
    from iga_explicit.benchmarks import annulus_solution
    from iga_explicit.cli import _annulus_system

    return _annulus_system(annulus_solution(), p, n_r, 2 * n_r, "customized", (p, p + 1))


# max Re sqrt(mu) of the CLI's customized runs: the same to the last digit
# with one and two BLAS threads; the real Fourier blocks keep the eigenvalues
# of a stable mesh real, so its rate is exactly 0 with no round-off floor
@pytest.mark.parametrize("p,n_r,abscissa", [
    (3, 8, 0.0), (3, 16, 0.18728733530272273), (3, 32, 0.26894045065474914),
    (5, 16, 0.0), (5, 32, 0.20912282187382808),
])
def test_spectral_abscissa_of_the_customized_membrane(p, n_r, abscissa):
    run = RunOperator(cli_membrane(p, n_r))
    if abscissa == 0.0:
        assert run.spectral_abscissa == 0.0
    else:
        assert run.spectral_abscissa == pytest.approx(abscissa, rel=1e-8)


@pytest.mark.parametrize("p,n_r", [(3, 8), (5, 16)])
def test_spectral_abscissa_of_the_outlier_reduced_membrane(p, n_r):
    # the stable meshes stay stable under the end constraints: exactly 0
    system = cli_membrane(p, n_r)
    assert RunOperator(system, OutlierConstraint(system)).spectral_abscissa == 0.0


@pytest.mark.parametrize("outlier", [False, True])
@pytest.mark.parametrize("kind", RUN_KINDS)
def test_omega_method_names_the_path_max_frequency_took(kind, outlier):
    # the Fourier blocks apply no operator; ARPACK applies it
    system = membrane_system(kind)
    run = RunOperator(system, outlier_removal(system) if outlier else None)
    max_frequency(run)
    applied = system.counters["stiffness_applies"] > 0
    assert (run.omega_method == "fourier_blocks") == (not applied)
    assert run.omega_method == ("fourier_blocks" if kind == "customized" else "arnoldi")


def assert_matches_separate_rhs(system, outlier):
    run = RunOperator(system, outlier)
    shape, rhs = separate_rhs(system, outlier)
    assert run.shape == shape
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(shape)
        ref = -rhs(x)
        assert np.max(np.abs(run.apply(x) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", RUN_KINDS)
@pytest.mark.parametrize("n_r", [8, 16])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_run_operator_matches_the_separate_rhs(p, n_r, kind):
    system = membrane_system(kind, p, n_r)
    for outlier in (None, outlier_removal(system)):
        assert_matches_separate_rhs(system, outlier)


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_run_operator_matches_the_separate_rhs_1d(kind):
    system = string_system(5, 30, kind)
    for outlier in (None, outlier_removal(system)):
        assert_matches_separate_rhs(system, outlier)


# the run operator's (outer, inner, outlier-reduced outer) storage on the
# membrane of each mesh: dense throughout at n_r = 8, by the operands' fill
# at n_r = 96, where T^T F0 T of the lumped mass is block diagonal
RUN_STORAGE = {
    8: {kind: ("dense", "dense", "dense") for kind in RUN_KINDS},
    96: {"galerkin_consistent": ("dense", "dense", "dense"),
         "customized": ("dense", "csr", "dense"), "rowsum_lumped": ("csr", "csr", "csr")},
}


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_run_operator_storage_follows_the_factor(kind):
    import scipy.sparse as sp

    from iga_explicit.assembly import DENSE_FILL, mass_operator

    for n_r, storage in RUN_STORAGE.items():
        system = membrane_system(kind, n_r=n_r)
        plain = RunOperator(system).terms
        reduced = RunOperator(system, outlier_removal(system)).terms
        outer, inner, reduced_outer = storage[kind]
        assert plain.storage == {"outer": outer, "inner": inner}
        assert reduced.storage == {"outer": reduced_outer, "inner": inner}
        # every operand, the factors' inverses included, is CSR exactly when
        # under a tenth full
        kernel = system.stiffness_kernel
        operands = [plain.outer, plain.inner, reduced.outer, kernel.outer, kernel.inner,
                    *(f.inverse for f in mass_operator(system).factors)]
        for A in operands:
            nonzeros = A.count_nonzero() if sp.issparse(A) else np.count_nonzero(A)
            assert sp.issparse(A) == (nonzeros < DENSE_FILL * A.shape[0] * A.shape[1])


def test_mixed_storage_run_operator_matches_the_oracles():
    # at n_r = 96 the customized factors and the free kernel are CSR, while
    # the P_t are dense and the Q_t CSR
    import scipy.sparse as sp

    from iga_explicit.assembly import mass_operator

    system = membrane_system("customized", n_r=96)
    for outlier in (None, outlier_removal(system)):
        assert_matches_separate_rhs(system, outlier)
    kernel = system.stiffness_kernel
    assert sp.issparse(kernel.outer) and sp.issparse(kernel.inner)
    assert all(sp.issparse(f.inverse) for f in mass_operator(system).factors)
    assert RunOperator(system).terms.storage == {"outer": "dense", "inner": "csr"}
    # -M^{-1} K from the dense factors, one axis at a time: the Kronecker
    # product of the 97 x 192 grid would take 2.8 GB
    inverses = []
    for k, dual in enumerate(system.duals):
        f = slice(*system.free_range(k))
        inverses.append(np.linalg.inv(np.linalg.inv(dual.S.to_dense())[f, f]))
    n0, m = system.free_shape
    A = kernel.outer.toarray().reshape(n0, kernel.n_terms, n0)
    B = kernel.inner.toarray().reshape(kernel.n_terms, m, m)
    x = np.random.default_rng(12).standard_normal(system.free_shape)
    ref = -sum(inverses[0] @ A[:, t] @ x @ (inverses[1] @ B[t]).T for t in range(kernel.n_terms))
    out = RunOperator(system).apply(x)
    assert np.max(np.abs(out - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_run_terms_are_built_on_first_apply_and_kept():
    system = membrane_system("customized")
    run = RunOperator(system, outlier_removal(system))
    assert "stiffness_kernel" not in vars(system)  # nothing of the stiffness before an apply
    assert "terms" not in vars(run)
    max_frequency(run, tol=1e-4)
    terms = run.terms
    run.apply(np.zeros(run.shape))
    assert run.terms is terms


@pytest.mark.parametrize("tableau", [RK2, RK4, RK6], ids=lambda t: t.name)
@pytest.mark.parametrize("outlier", [False, True])
def test_one_rk_step_counts_one_apply_per_stage(tableau, outlier):
    # a step applies the run operator once per power of its stability
    # polynomial: as many times as RK2 and RK4 have stages, once fewer for RK6
    degree = {"rk2": 3, "rk4": 4, "rk6": 7}[tableau.name]
    system = membrane_system("galerkin_consistent")
    run = RunOperator(system, outlier_removal(system) if outlier else None)
    d = np.random.default_rng(4).standard_normal(run.shape)
    state = DynamicState(d, np.zeros_like(d))
    before = dict(system.counters)
    rk_step(tableau, run.apply, state, 1e-3)
    assert system.counters["stiffness_applies"] - before["stiffness_applies"] == degree
    assert system.counters["mac_ops"] - before["mac_ops"] == degree * run.terms.macs


@pytest.mark.parametrize("tableau", [RK2, RK4, RK6, FORWARD_EULER], ids=lambda t: t.name)
@pytest.mark.parametrize("case", ["galerkin_consistent", "customized", "rowsum_lumped",
                                  "customized-outlier", "string"])
def test_rk_step_matches_the_stage_recursion(tableau, case):
    if case == "string":
        run = RunOperator(string_system(3, 40, "customized"))
    else:
        system = membrane_system(case.split("-")[0], p=5)
        run = RunOperator(system, outlier_removal(system) if "outlier" in case else None)
    dt = 0.5 / max_frequency(run)
    rng = np.random.default_rng(5)
    state = oracle = DynamicState(rng.standard_normal(run.shape), rng.standard_normal(run.shape))
    for _ in range(50):
        state = rk_step(tableau, run.apply, state, dt)
        oracle = stage_rk_step(tableau, run.apply, oracle, dt)
    assert state.t == oracle.t
    for got, want in ((state.d, oracle.d), (state.v, oracle.v)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_rk_step_rejects_nonpositive_dt():
    state = DynamicState(np.array([1.0]), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        rk_step(RK4, lambda d: -d, state, 0.0)


@pytest.mark.parametrize("dt", [-0.1, np.nan, np.inf])
def test_rk_step_rejects_a_dt_that_is_not_positive_and_finite(dt):
    state = DynamicState(np.array([1.0]), np.array([0.0]), 0.0)
    calls = []
    with pytest.raises(ValueError, match=rf"time step .* got {dt!r}"):
        rk_step(RK4, lambda d: calls.append(d) or -d, state, dt)
    assert calls == []


@pytest.mark.parametrize("tableau", [RK2, RK4, RK6], ids=lambda t: t.name)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("outlier", [False, True], ids=["plain", "outlier"])
def test_rk_step_leaves_the_given_state_unchanged(tableau, order, outlier):
    # the new state is accumulated in place, in arrays of its own, for a
    # C-ordered rhs (the run operator's) and a Fortran-ordered one
    system = membrane_system("galerkin_consistent")
    run = RunOperator(system, outlier_removal(system) if outlier else None)
    rng = np.random.default_rng(6)
    d, v = (np.asarray(rng.standard_normal(run.shape), order=order) for _ in range(2))
    state = DynamicState(d, v)
    d0, v0 = d.copy(order="K"), v.copy(order="K")
    for rhs in (run.apply, lambda x: np.asfortranarray(run.apply(x))):
        out = rk_step(tableau, rhs, state, 1e-3)
        assert np.array_equal(state.d, d0) and np.array_equal(state.v, v0)
        assert state.d is d and state.v is v
        assert not (np.shares_memory(out.d, d) or np.shares_memory(out.v, v))
        # the allocating step's bits and memory orders
        want = allocating_rk_step(tableau, rhs, state, 1e-3)
        for got, ref in ((out.d, want.d), (out.v, want.v)):
            assert np.array_equal(got, ref)
            assert np.isfortran(got) == np.isfortran(ref)


def test_rk_step_keeps_the_allocating_steps_orders_over_many_steps():
    # mixed memory orders of the state and of the rhs, over RK6 steps
    system = membrane_system("customized")
    run = RunOperator(system)
    dt = 0.5 / max_frequency(run)
    rng = np.random.default_rng(7)
    for d_order, v_order in (("C", "C"), ("F", "F"), ("F", "C"), ("C", "F")):
        for rhs in (run.apply, lambda x: np.asfortranarray(run.apply(x))):
            state = oracle = DynamicState(
                np.asarray(rng.standard_normal(run.shape), order=d_order),
                np.asarray(rng.standard_normal(run.shape), order=v_order))
            for _ in range(5):
                state = rk_step(RK6, rhs, state, dt)
                oracle = allocating_rk_step(RK6, rhs, oracle, dt)
                for got, ref in ((state.d, oracle.d), (state.v, oracle.v)):
                    assert np.array_equal(got, ref)
                    assert np.isfortran(got) == np.isfortran(ref)

"""Acceptance criteria, one test per criterion at the stated tolerances.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
as they complete. The membrane convergence study (criterion 5) dominates the
runtime of the suite.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from iga_explicit.assembly import DiscreteSystem
from iga_explicit.benchmarks import annulus_solution, bessel_zero, string_frequencies
from iga_explicit.cli import annulus_run_single, string_spectra, _scheme_for
from iga_explicit.dualbasis import approximate_dual, constrain_dual, grammian, quasi_project
from iga_explicit.dynamics import (
    PAPER_CMAX,
    RK2,
    RK4,
    RK6,
    DynamicState,
    critical_dt,
    eigensolve,
    rk_step,
)
from iga_explicit.geometry import annulus_map, identity_map
from iga_explicit.splinecore import PERIODIC, monomial_coefficients, uniform_space

from oracle_utils import petrov_mass_dense, spline_l2_error


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] {label}: FAIL")
        raise
    print(f"[criterion {num}] {label}: PASS")


def test_criterion_1_polynomial_duality():
    with criterion(1, "polynomial duality and rowsums"):
        t0 = time.perf_counter()
        for p in (2, 3, 4, 5):
            for n_dim in (12, 25, 40):
                space = uniform_space(n_dim - p, p)
                dual = approximate_dual(space)
                G = dual.G.to_dense()
                S = dual.S.to_dense()
                worst = 0.0
                for q in range(p + 1):
                    c = monomial_coefficients(space, q)
                    worst = max(worst, float(np.max(np.abs(S @ (G @ c) - c))))
                assert worst <= 1e-10, f"duality residual {worst:.2e} (p={p}, N={n_dim})"
                rowsum_dev = float(np.max(np.abs((S @ G).sum(axis=1) - 1.0)))
                assert rowsum_dev <= 1e-12, f"rowsum {rowsum_dev:.2e} (p={p}, N={n_dim})"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"


def test_criterion_2_quasi_projection_exactness():
    with criterion(2, "quasi-projection exactness incl. constraints"):
        t0 = time.perf_counter()
        for p in (2, 3, 4, 5):
            n_dim = 40
            space = uniform_space(n_dim - p, p)
            dual = approximate_dual(space)
            for q in range(p + 1):
                coeffs = quasi_project(dual, lambda x, q=q: x**q)
                err = float(np.max(np.abs(coeffs - monomial_coefficients(space, q))))
                assert err <= 1e-10, f"monomial x^{q} residual {err:.2e} (p={p})"
            # boundary-vanishing degree-p polynomials under end constraints
            cases = [
                ((True, False), lambda x: x**p),
                ((False, True), lambda x: (1.0 - x) ** p),
                ((True, True), lambda x: x ** (p - 1) * (1.0 - x)),
            ]
            for (dl, dr), f in cases:
                con = constrain_dual(dual, left=dl, right=dr)
                coeffs = quasi_project(con, f)
                err = spline_l2_error(space, coeffs, f, n_panels=64, n_pts=6)
                assert err <= 1e-10, f"constrained reproduction {err:.2e} (p={p})"
            # the constrained dual equals the dense submatrix-inverse oracle
            Ghat = np.linalg.inv(dual.S.to_dense())
            for dl, dr in ((True, False), (False, True), (True, True)):
                lo = 1 if dl else 0
                hi = n_dim - 1 if dr else n_dim
                oracle = np.linalg.inv(Ghat[lo:hi, lo:hi])
                got = constrain_dual(dual, left=dl, right=dr).S.to_dense()
                dev = float(np.max(np.abs(got - oracle)))
                assert dev <= 1e-10 * np.max(np.abs(oracle)), f"constrained dual {dev:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"


def test_criterion_3_petrov_mass_geometry_independence():
    with criterion(3, "geometry independence of the Petrov mass"):
        t0 = time.perf_counter()
        p = 3
        spaces = lambda: [
            uniform_space(8, p),
            uniform_space(16, p, boundary_kind=PERIODIC),
        ]
        sys_ann = DiscreteSystem(spaces(), geometry=annulus_map(2.0, 5.0))
        sys_id = DiscreteSystem(spaces(), geometry=identity_map())
        M_ann = petrov_mass_dense(sys_ann)
        M_id = petrov_mass_dense(sys_id)
        dev = float(np.max(np.abs(M_ann - M_id)))
        assert dev <= 1e-10, f"entrywise deviation {dev:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"


def test_criterion_4_spectrum_study():
    with criterion(4, "string spectrum: customized vs lumped accuracy"):
        for p in (2, 3, 4, 5):
            t0 = time.perf_counter()
            _, spectra = string_spectra(p, 250)
            freqs = spectra[False]
            n = len(freqs["galerkin_consistent"])
            exact = string_frequencies(np.arange(1, n + 1))
            floor = 1e-14  # double precision substitutes for extended precision
            err_cust = np.maximum(np.abs(freqs["customized"] / exact - 1.0), floor)
            err_lump = np.maximum(np.abs(freqs["rowsum_lumped"] / exact - 1.0), floor)
            half = n // 2
            assert np.all(err_cust[:half] <= err_lump[:half]), f"p={p} lowest-half ordering"
            if p >= 3:
                tenth = n // 10
                improvement = float(np.median(err_lump[:tenth] / err_cust[:tenth]))
                assert improvement >= 1e3, f"p={p} median improvement {improvement:.1e}"
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, f"p={p} runtime {elapsed:.1f}s over budget"


@pytest.fixture(scope="module")
def annulus_results():
    sol = annulus_solution()
    results = {}
    timings = {}
    for p in (3, 4, 5):
        t0 = time.perf_counter()
        for n_r in (8, 16, 32):
            t_mesh = time.perf_counter()
            for kind in ("galerkin_consistent", "customized", "rowsum_lumped"):
                scheme = _scheme_for(kind, p, "auto")
                res = annulus_run_single(
                    sol, p, n_r, 2 * n_r, kind, scheme, dt_fraction=0.5
                )
                results[(p, n_r, kind)] = res
            timings[(p, n_r)] = time.perf_counter() - t_mesh
        timings[p] = time.perf_counter() - t0
    return results, timings


def test_criterion_5_annulus_convergence(annulus_results):
    results, timings = annulus_results
    with criterion(5, "annulus convergence: accuracy and slopes"):
        meshes = (8, 16, 32)
        for p in (3, 4, 5):
            errs = {
                kind: [results[(p, n_r, kind)]["l2_rel_error"] for n_r in meshes]
                for kind in ("galerkin_consistent", "customized", "rowsum_lumped")
            }
            for vals in errs.values():
                assert all(np.isfinite(v) for v in vals), f"p={p} unstable run flagged"
            # (a) customized within factor 2 of consistent on every mesh
            for i, n_r in enumerate(meshes):
                ratio = errs["customized"][i] / errs["galerkin_consistent"][i]
                assert ratio <= 2.0, f"p={p} mesh {n_r}: customized ratio {ratio:.2f}"
            # (b) finest-pair slopes at least p for consistent and customized
            for kind in ("galerkin_consistent", "customized"):
                slope = float(np.log2(errs[kind][1] / errs[kind][2]))
                assert slope >= p, f"p={p} {kind} finest-pair slope {slope:.2f}"
            # (c) rowsum-lumped slope capped at 2.5 (plain lumping loses accuracy)
            lump = errs["rowsum_lumped"]
            lump_slopes = [float(np.log2(lump[i] / lump[i + 1])) for i in range(2)]
            assert max(lump_slopes) <= 2.5, f"p={p} lumped slopes {lump_slopes}"
        assert timings[3] <= 600.0, f"p=3 sweep took {timings[3]:.0f}s"
        assert timings[(5, 32)] <= 2700.0, f"p=5 finest mesh took {timings[(5, 32)]:.0f}s"


def test_criterion_6_critical_timestep():
    with criterion(6, "critical timestep gains and outlier compound"):
        t0 = time.perf_counter()
        c_ref = PAPER_CMAX["rk4"]
        for p in (2, 3, 4, 5):
            _, spectra = string_spectra(p, 250, None, (False, True))
            omega = {
                (kind, outlier): float(freqs[kind][-1])
                for outlier, freqs in spectra.items()
                for kind in ("galerkin_consistent", "customized", "rowsum_lumped")
            }
            dt = {k: critical_dt(c_ref, w) for k, w in omega.items()}
            base = dt[("galerkin_consistent", False)]
            assert dt[("customized", False)] / base > 1.0, f"p={p} customized ratio"
            if p >= 3:
                for kind in ("galerkin_consistent", "customized", "rowsum_lumped"):
                    gain = dt[(kind, True)] / dt[(kind, False)]
                    assert gain > 1.0, f"p={p} {kind} outlier gain {gain:.3f}"
                compound = dt[("customized", True)] / base
                assert compound >= 1.5, f"p={p} compound {compound:.3f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"


def test_criterion_7_oracles():
    with criterion(7, "Bessel zeros, RK orders, dispersion oracle"):
        t0 = time.perf_counter()
        assert abs(bessel_zero(4, 2) - 11.065) <= 1e-3
        assert abs(bessel_zero(4, 4) - 17.616) <= 1e-3

        for tableau, expected, base in ((RK2, 2.0, 0.05), (RK4, 4.0, 0.2), (RK6, 6.0, 0.25)):
            errs = []
            for dt in (base, base / 2, base / 4):
                n = int(round(2.0 / dt))
                state = DynamicState(np.array([1.0]), np.array([0.0]), 0.0)
                for _ in range(n):
                    state = rk_step(tableau, lambda d: -d, state, dt)
                errs.append(abs(state.d[0] - np.cos(2.0)))
            for i in range(2):
                slope = float(np.log2(errs[i] / errs[i + 1]))
                assert abs(slope - expected) <= 0.1, f"{tableau.name} slope {slope:.3f}"

        n_el = 32
        h = 1.0 / n_el
        space = uniform_space(n_el, 1)
        system = DiscreteSystem([space], mass_kind="galerkin_consistent",
                                dirichlet=[(True, True)])
        from iga_explicit.assembly import assembled_stiffness_1d

        lo, hi = system.free_range(0)
        G = grammian(space)
        K = assembled_stiffness_1d(system).toarray()
        M = G.to_dense()[lo:hi, lo:hi]
        freqs = eigensolve(K, M)
        k = np.arange(1, n_el)
        disp = np.sqrt(6.0 / h**2 * (1 - np.cos(k * np.pi * h)) / (2 + np.cos(k * np.pi * h)))
        assert float(np.max(np.abs(freqs - disp))) <= 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"

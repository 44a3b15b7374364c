"""The benchmark's workloads, their operations and the checks on each result.

Every input is fixed; the seed only shuffles the order of the operations in
a pass. Each operation calls the package through its public functions and
returns an outcome dict; ``check`` compares that outcome with the reference
values in ``reference.json``, which ``make_reference.py`` recorded.

annulus-period    the membrane experiment over one period through
                  ``cli.annulus_run_single``; the ω_max power iteration
                  (``dynamics.max_frequency``) does most of the work.
annulus-longtime  several periods of explicit stepping with ``rk_step``; the
                  timestep comes from a stored dense-oracle ω_max, so the
                  per-step layers (stiffness apply, mass solve) dominate.
string-1d         ``cli.run_stability`` and ``approximate_dual`` on the 1D
                  string; the dense dual construction dominates.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from iga_explicit import assembly, benchmarks, cli, dualbasis, dynamics, geometry, splinecore

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SCRATCH_PARENT = ROOT / ".perfbench-work"

KINDS = ("galerkin_consistent", "customized", "rowsum_lumped")
DT_FRACTION = 0.5
ANGULAR_FACTOR = 2

# Relative tolerances of the checks. One period admits a step count changed
# by a better ω_max estimate: 5% more steps moves the L2 errors by at most
# 0.5%. The long-time runs use a stored timestep, so only round-off differs.
# The clamped dual construction amplifies round-off: at p=5, n=250 its
# coefficients and the customized outlier-removed ω_max move by 1e-5 between
# one and two BLAS threads, so the 1D checks allow a hundred times that.
PERIOD_L2_RTOL = 2e-2
LONGTIME_L2_RTOL = 1e-3
STRING_RTOL = 1e-3
DUAL_NORM_RTOL = 1e-3
DUAL_REPRODUCTION_TOL = 1e-10
CUSTOMIZED_OVER_GALERKIN_MAX = 2.0

SIZES = {
    "full": {
        "annulus-period": [(p, n_r) for p in (3, 5) for n_r in (8, 16)],
        # (p, n_r, kind, outlier removed)
        "annulus-longtime": [(3, 32, kind, False) for kind in KINDS]
        + [(3, 8, "galerkin_consistent", True)],
        "longtime-periods": 3,
        "stability": [(3, 250), (5, 250)],
        "duals": [(3, 250), (5, 250), (3, 500)],
    },
    # small enough for the test suite; n_r >= 8 because coarser periodic
    # directions are too narrow for the angular dual band
    "smoke": {
        "annulus-period": [(3, 8)],
        "annulus-longtime": [(3, 8, kind, False) for kind in KINDS]
        + [(3, 8, "galerkin_consistent", True)],
        "longtime-periods": 1,
        "stability": [(3, 30)],
        "duals": [(3, 30), (5, 30)],
    },
}


@dataclass
class Op:
    """One operation: ``run`` calls the package, ``check`` lists problems."""

    key: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass
class Workload:
    name: str
    ops: list
    # problems found across the outcomes of one pass, keyed by op key
    check_pass: Callable[[dict], dict] = field(default=lambda outcomes: {})


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def auto_scheme(kind, p):
    """The CLI's ``auto`` scheme: rk2 for the lumped mass, else rk4 up to
    degree 4 and rk6 above."""
    if kind == "rowsum_lumped":
        return "rk2"
    return "rk4" if p <= 4 else "rk6"


def period_key(p, n_r, kind):
    return f"p{p}-nr{n_r}-{kind}"


def longtime_key(p, n_r, kind, outlier, periods):
    return f"p{p}-nr{n_r}-{kind}{'-outlier' if outlier else ''}-x{periods}"


def _relative(value, ref):
    return abs(value / ref - 1.0)


# ---------------------------------------------------------------------------
# annulus-period


def _period_op(sol, p, n_r, kind, ref):
    key = period_key(p, n_r, kind)

    def run():
        t0 = time.perf_counter()
        res = cli.annulus_run_single(sol, p, n_r, ANGULAR_FACTOR * n_r, kind,
                                     auto_scheme(kind, p), DT_FRACTION)
        duration = time.perf_counter() - t0
        omega_ref = ref[key]["omega_dense"]
        return {
            "setup_s": duration - res["wall_seconds"],
            "l2_rel_error": res["l2_rel_error"],
            "steps": res["steps"],
            "omega_max": res["omega_max"],
            # signed; negative means the timestep rests on an underestimate
            "omega_rel_err": (res["omega_max"] - omega_ref) / omega_ref,
        }

    def check(out):
        err, want = out["l2_rel_error"], ref[key]["l2_rel_error"]
        if not math.isfinite(err):
            return [f"{key}: L2 error {err}"]
        if _relative(err, want) > PERIOD_L2_RTOL:
            return [f"{key}: L2 error {err:.6e}, reference {want:.6e}"]
        return []

    return Op(key, run, check)


def _check_customized_ratio(outcomes):
    problems = {}
    meshes = {k.rsplit("-", 1)[0] for k in outcomes}
    for mesh in sorted(meshes):
        cust = outcomes.get(f"{mesh}-customized")
        gal = outcomes.get(f"{mesh}-galerkin_consistent")
        if cust is None or gal is None:
            continue
        ratio = cust["l2_rel_error"] / gal["l2_rel_error"]
        if not ratio <= CUSTOMIZED_OVER_GALERKIN_MAX:
            problems[f"{mesh}-customized"] = [
                f"{mesh}: customized/Galerkin L2 error ratio {ratio:.3f}"
            ]
    return problems


def annulus_period(sizes, ref):
    sol = benchmarks.annulus_solution()
    ops = [_period_op(sol, p, n_r, kind, ref)
           for p, n_r in sizes["annulus-period"] for kind in KINDS]
    return Workload("annulus-period", ops, _check_customized_ratio)


# ---------------------------------------------------------------------------
# annulus-longtime


def annulus_system(sol, p, n_r, kind):
    """The membrane system of ``cli.annulus_run_single`` (same dual widths)."""
    return assembly.DiscreteSystem(
        [splinecore.uniform_space(n_r, p),
         splinecore.uniform_space(ANGULAR_FACTOR * n_r, p,
                                  boundary_kind=splinecore.PERIODIC)],
        geometry=geometry.annulus_map(sol.inner_radius, sol.outer_radius),
        mass_kind=kind,
        kappa=sol.kappa,
        dirichlet=[(True, True), (False, False)],
        dual_halfwidth=(p, p + 1),
    )


def initial_field(sol):
    """The membrane's initial displacement on parametric coordinates."""
    dr = sol.outer_radius - sol.inner_radius

    def u0(x1, x2):
        r = sol.inner_radius + dr * x1
        return sol.radial(r) * np.cos(sol.angular_wavenumber * 2.0 * np.pi * x2)

    return u0


def longtime_problem(sol, p, n_r, kind, outlier_removed):
    """System, acceleration map, initial displacement, and the prolongation
    back to the free coefficients (None without outlier removal).

    With outlier removal the state lives in the reduced space; the reduced
    initial data is the restriction of the projected field (the columns of
    the transformation are orthonormal).
    """
    system = annulus_system(sol, p, n_r, kind)
    u0 = initial_field(sol)
    if outlier_removed:
        outlier = dynamics.outlier_removal(system)
        reduced_solve = outlier.reduce_mass(system)

        def rhs(y):
            r = assembly.stiffness_apply(system, outlier.prolong(y))
            return -reduced_solve(outlier.restrict(r))

        d0 = outlier.restrict(assembly.project_initial(system, u0))
        return system, rhs, d0, outlier.prolong
    mass = assembly.mass_operator(system)

    def rhs(d):
        return -mass.solve(assembly.stiffness_apply(system, d))

    return system, rhs, assembly.project_initial(system, u0), None


def run_longtime(sol, p, n_r, kind, outlier_removed, omega, periods):
    """``periods`` periods of stepping at DT_FRACTION of the critical step
    for the given ω_max."""
    scheme = auto_scheme(kind, p)
    dt_crit = dynamics.critical_dt(dynamics.PAPER_CMAX[scheme], omega)
    steps = max(int(math.ceil(periods * sol.period / (DT_FRACTION * dt_crit))), 1)
    dt = periods * sol.period / steps
    t0 = time.perf_counter()
    system, rhs, d0, prolong = longtime_problem(sol, p, n_r, kind, outlier_removed)
    t1 = time.perf_counter()
    state = dynamics.DynamicState(d0, np.zeros_like(d0), 0.0)
    tableau = dynamics.TABLEAUS[scheme]
    for _ in range(steps):
        state = dynamics.rk_step(tableau, rhs, state, dt)
    t2 = time.perf_counter()
    t_end = steps * dt

    def exact(X, Y):
        return sol.value(np.hypot(X, Y), np.arctan2(Y, X), t_end)

    d_final = state.d if prolong is None else prolong(state.d)
    err = benchmarks.l2_error(system, d_final, exact)
    return {
        "setup_s": t1 - t0,
        "stepping_s": t2 - t1,
        "dof_steps": steps * d0.size,
        "steps": steps,
        "l2_rel_error": err,
    }


def _longtime_op(sol, p, n_r, kind, outlier_removed, periods, ref):
    key = longtime_key(p, n_r, kind, outlier_removed, periods)

    def run():
        return run_longtime(sol, p, n_r, kind, outlier_removed,
                            ref[key]["omega_dense"], periods)

    def check(out):
        err, want = out["l2_rel_error"], ref[key]["l2_rel_error"]
        if not (math.isfinite(err) and _relative(err, want) <= LONGTIME_L2_RTOL):
            return [f"{key}: final L2 error {err:.6e}, reference {want:.6e}"]
        return []

    return Op(key, run, check)


def annulus_longtime(sizes, ref):
    sol = benchmarks.annulus_solution()
    periods = sizes["longtime-periods"]
    ops = [_longtime_op(sol, p, n_r, kind, outlier, periods, ref)
           for p, n_r, kind, outlier in sizes["annulus-longtime"]]
    return Workload("annulus-longtime", ops)


# ---------------------------------------------------------------------------
# string-1d


def read_stability_csv(path):
    """{"kind/outlier_removed": {"omega_max", "dt_crit"}} from a stability CSV."""
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {
        f"{r['mass_kind']}/{r['outlier_removed']}": {
            "omega_max": float(r["omega_max"]), "dt_crit": float(r["dt_crit"])
        }
        for r in rows
    }


def run_stability(p, n):
    """``cli.run_stability`` with its CSV in a temporary directory of the
    checkout."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH_PARENT) as out_dir:
        config = cli.build_config(
            "stability", overrides={"degree": p, "n": n, "output_dir": out_dir}
        )
        path = cli.run_stability(config)
        return {"setup_s": 0.0, "rows": read_stability_csv(path)}


def _stability_op(p, n, ref):
    key = f"stability-p{p}-n{n}"

    def check(out):
        want = ref[key]
        if set(out["rows"]) != set(want):
            return [f"{key}: rows {sorted(out['rows'])}, reference {sorted(want)}"]
        problems = []
        for row, values in want.items():
            for name, value in values.items():
                got = out["rows"][row][name]
                if not _relative(got, value) <= STRING_RTOL:
                    problems.append(f"{key} {row}: {name} {got!r}, reference {value!r}")
        return problems

    return Op(key, lambda: run_stability(p, n), check)


def dual_reproduction_residual(dual):
    """max over q <= p of |S G c_q - c_q| / |c_q| with c_q the B-spline
    coefficients of x^q: the quasi-projection must reproduce monomials."""
    space = dual.space
    worst = 0.0
    for q in range(space.degree + 1):
        c = splinecore.monomial_coefficients(space, q)
        r = dual.S.matvec(dual.G.matvec(c)) - c
        worst = max(worst, float(np.max(np.abs(r)) / np.max(np.abs(c))))
    return worst


def _dual_op(p, n, ref):
    key = f"dual-p{p}-n{n}"

    def run():
        t0 = time.perf_counter()
        dual = dualbasis.approximate_dual(splinecore.uniform_space(n - p, p))
        return {"setup_s": time.perf_counter() - t0, "dual": dual}

    def check(out):
        dual = out.pop("dual")  # checked once, then released
        problems = []
        residual = dual_reproduction_residual(dual)
        if not residual <= DUAL_REPRODUCTION_TOL:
            problems.append(f"{key}: monomial reproduction residual {residual:.3e}")
        norm, want = float(np.linalg.norm(dual.S.bands)), ref[key]["s_norm"]
        if not _relative(norm, want) <= DUAL_NORM_RTOL:
            problems.append(f"{key}: |S| {norm!r}, reference {want!r}")
        out["reproduction_residual"] = residual
        return problems

    return Op(key, run, check)


def string_1d(sizes, ref):
    ops = [_stability_op(p, n, ref) for p, n in sizes["stability"]]
    ops += [_dual_op(p, n, ref) for p, n in sizes["duals"]]
    return Workload("string-1d", ops)


BUILDERS = {
    "annulus-period": annulus_period,
    "annulus-longtime": annulus_longtime,
    "string-1d": string_1d,
}


def build(name, smoke=False, ref=None):
    """The named workload at full or smoke size."""
    sizes = SIZES["smoke" if smoke else "full"]
    return BUILDERS[name](sizes, load_reference() if ref is None else ref)


def remove_scratch():
    """Drop the temporary-directory parent if nothing else is left in it."""
    try:
        os.rmdir(SCRATCH_PARENT)
    except OSError:  # absent, or still holding another run's files
        pass

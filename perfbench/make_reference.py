"""Record the reference values the benchmark checks against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json`` from the package in this checkout, for
the full and the smoke sizes of every workload:

- the dense-oracle ω_max of each annulus configuration: the square root of
  the largest eigenvalue modulus of M^{-1}K, formed column by column from
  the matrix-free operators (the reduced operator for outlier removal);
- the L2 errors of the one-period and the long-time runs, the latter
  stepped with the oracle ω_max;
- ``omega_max`` and ``dt_crit`` of every stability CSV row, and the
  Frobenius norm of each approximate dual coefficient matrix.

BLAS is pinned to one thread as in the benchmark: the approximate dual's
coefficients move by about 1e-5 (relative) between one and two threads.
Run it only when the package's results are meant to change; the checks
then compare against the new values.
"""

from __future__ import annotations

import json
import os
import sys

import run

run.pin_blas_threads()  # the dual construction's round-off depends on it
run.load_package()

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (needs the package on the path)
from iga_explicit import assembly, benchmarks, dualbasis, dynamics, splinecore  # noqa: E402


def dense_omega(system, outlier=None):
    if outlier is None:
        mass = assembly.mass_operator(system)
        shape = system.free_shape

        def apply(vec):
            d = vec.reshape(shape)
            return mass.solve(assembly.stiffness_apply(system, d)).ravel()

        n = system.n_free
    else:
        solve = outlier.reduce_mass(system)

        def apply(vec):
            d = outlier.prolong(outlier.unflatten(vec))
            return solve(outlier.restrict(assembly.stiffness_apply(system, d))).ravel()

        n = outlier.n_reduced
    columns = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        columns[:, j] = apply(e)
    return float(np.sqrt(np.max(np.abs(np.linalg.eigvals(columns)))))


def main():
    sol = benchmarks.annulus_solution()
    ref = {}
    for size in ("smoke", "full"):
        sizes = workloads.SIZES[size]
        for p, n_r in sizes["annulus-period"]:
            for kind in workloads.KINDS:
                key = workloads.period_key(p, n_r, kind)
                if key in ref:
                    continue
                system = workloads.annulus_system(sol, p, n_r, kind)
                ref[key] = {"omega_dense": dense_omega(system)}
                result = workloads._period_op(sol, p, n_r, kind, ref).run()
                ref[key]["l2_rel_error"] = result["l2_rel_error"]
                print(key, ref[key], f"power {result['omega_max']}", flush=True)
        periods = sizes["longtime-periods"]
        for p, n_r, kind, outlier_removed in sizes["annulus-longtime"]:
            key = workloads.longtime_key(p, n_r, kind, outlier_removed, periods)
            system = workloads.annulus_system(sol, p, n_r, kind)
            outlier = dynamics.outlier_removal(system) if outlier_removed else None
            omega = dense_omega(system, outlier)
            result = workloads.run_longtime(sol, p, n_r, kind, outlier_removed, omega, periods)
            ref[key] = {"omega_dense": omega, "l2_rel_error": result["l2_rel_error"]}
            print(key, ref[key], f"steps {result['steps']}", flush=True)
        for p, n in sizes["stability"]:
            ref[f"stability-p{p}-n{n}"] = workloads.run_stability(p, n)["rows"]
        for p, n in sizes["duals"]:
            dual = dualbasis.approximate_dual(splinecore.uniform_space(n - p, p))
            ref[f"dual-p{p}-n{n}"] = {"s_norm": float(np.linalg.norm(dual.S.bands))}
    workloads.remove_scratch()
    path = workloads.REFERENCE_PATH
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Which package functions are traced, and the per-layer metrics of a pass.

The layers are the package modules. Each layer function is rebound in every
module that calls it (methods are replaced on their class), so calls made
inside the package are traced as well as the benchmark's own calls.
``quadrature`` has no span: its cost falls inside ``tables`` and
``grammian``. ``eval_basis`` is only counted; a span per call would cost
more than the call.
"""

from __future__ import annotations

import statistics

from tracing import ancestors, summarize

# Per-layer metrics: unit, better direction, and the end-to-end metric each
# should move, on which workload. BENCHMARK.json lists the same names, units
# and directions; it has no field for the last two columns.
PER_LAYER = [
    # name, unit, better, moves, on
    ("dynamics.max_frequency_s", "s", "lower", "wall_s", "annulus-period (no change on annulus-longtime)"),
    ("dynamics.power_iterations", "count", "lower", "wall_s", "annulus-period (no change on annulus-longtime)"),
    ("dynamics.applies_per_estimate", "count", "lower", "wall_s", "annulus-period (no change on annulus-longtime)"),
    ("dynamics.omega_rel_err", "fraction", "higher", "none (safety: negative is an underestimate)", "annulus-period"),
    ("assembly.stiffness_apply_s", "s", "lower", "dof_steps_per_s; wall_s", "annulus-longtime; annulus-period"),
    ("assembly.stiffness_apply_calls", "count", "lower", "dof_steps_per_s; wall_s", "annulus-longtime; annulus-period"),
    ("assembly.stiffness_apply_ms", "ms", "lower", "dof_steps_per_s; wall_s", "annulus-longtime; annulus-period"),
    ("assembly.mac_ops", "count", "lower", "dof_steps_per_s; wall_s", "annulus-longtime; annulus-period"),
    ("assembly.mass_solve_s", "s", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("assembly.mass_solve_calls", "count", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("banded.solve_s", "s", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("banded.solve_calls", "count", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("dynamics.outlier_solve_s", "s", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("dynamics.rk_step_self_s", "s", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("dynamics.rk_steps", "count", "lower", "dof_steps_per_s", "annulus-longtime"),
    ("dualbasis.approximate_dual_s", "s", "lower", "setup_s; wall_s; peak_rss_mb", "string-1d"),
    ("dualbasis.approximate_dual_calls", "count", "lower", "setup_s; wall_s; peak_rss_mb", "string-1d"),
    ("dualbasis.grammian_s", "s", "lower", "setup_s; wall_s; peak_rss_mb", "string-1d; annulus-longtime (outlier case)"),
    ("dualbasis.grammian_calls", "count", "lower", "setup_s; wall_s; peak_rss_mb", "string-1d; annulus-longtime (outlier case)"),
    ("splinecore.eval_basis_calls", "count", "lower", "setup_s; wall_s; peak_rss_mb", "string-1d"),
    ("assembly.mass_operator_s", "s", "lower", "setup_s", "annulus-period; annulus-longtime"),
    ("assembly.project_initial_s", "s", "lower", "setup_s", "annulus-period; annulus-longtime"),
    ("assembly.tables_s", "s", "lower", "setup_s", "annulus-period; annulus-longtime"),
    ("geometry.grids_s", "s", "lower", "setup_s", "annulus-period; annulus-longtime"),
    ("dynamics.eigensolve_s", "s", "lower", "wall_s", "string-1d"),
    ("benchmarks.l2_error_s", "s", "lower", "wall_s", "annulus-period; annulus-longtime"),
    ("cli.self_s", "s", "lower", "wall_s", "annulus-period; annulus-longtime"),
    ("trace.overhead_frac", "fraction", "lower", "none (traced over untraced wall_s, minus one)", "all"),
]

# span name -> [(module name, attribute)] or [(module name, class, method)]
SPANS = {
    "cli.annulus_run_single": [("cli", "annulus_run_single")],
    "cli.run_stability": [("cli", "run_stability")],
    "cli.string_spectra": [("cli", "string_spectra")],
    "dynamics.max_frequency": [("cli", "max_frequency"), ("dynamics", "max_frequency")],
    "dynamics.rk_step": [("cli", "rk_step"), ("dynamics", "rk_step")],
    "dynamics.eigensolve": [("cli", "eigensolve"), ("dynamics", "eigensolve")],
    "assembly.mass_operator": [("assembly", "mass_operator"), ("cli", "mass_operator")],
    "assembly.mass_solve": [("assembly", "MassOperator", "solve")],
    "assembly.project_initial": [("assembly", "project_initial"), ("cli", "project_initial")],
    "assembly.assembled_stiffness_1d": [("assembly", "assembled_stiffness_1d"),
                                        ("cli", "assembled_stiffness_1d")],
    "assembly.tables": [("assembly", "DiscreteSystem", "tables")],
    "geometry.grids": [("assembly", "DiscreteSystem", "geometry_grids")],
    "dualbasis.approximate_dual": [("assembly", "approximate_dual"),
                                   ("dualbasis", "approximate_dual")],
    "dualbasis.constrain_dual": [("assembly", "constrain_dual"), ("dualbasis", "constrain_dual")],
    "dualbasis.grammian": [("assembly", "grammian"), ("cli", "grammian"),
                           ("dualbasis", "grammian")],
    "banded.solve": [("banded", "BandedSymmetricMatrix", "solve")],
    "benchmarks.l2_error": [("benchmarks", "l2_error"), ("cli", "l2_error")],
}
STIFFNESS_APPLY = [("assembly", "stiffness_apply"), ("cli", "stiffness_apply")]
POWER_ITERATION = [("dynamics", "power_max_frequency")]
REDUCE_MASS = [("dynamics", "OutlierConstraint", "reduce_mass")]
EVAL_BASIS = [(m, "eval_basis")
              for m in ("splinecore", "quadrature", "dualbasis", "assembly", "dynamics")]


def _owner(pkg, where):
    owner = getattr(pkg, where[0])
    if len(where) == 3:
        owner = getattr(owner, where[1])
    return owner, where[-1]


def bindings(pkg, tracer):
    """``(owner, attribute, factory)`` triples for ``tracing.instrument``, and
    the places that no longer exist in the package (left untraced)."""
    counts = tracer.counts

    def stiffness_apply(fn):
        def counting(system, *args, **kwargs):
            before = system.counters["mac_ops"]
            out = fn(system, *args, **kwargs)
            if not tracer.paused:
                counts["assembly.mac_ops"] += system.counters["mac_ops"] - before
            return out

        return tracer.wrap("assembly.stiffness_apply", counting)

    def power_iteration(fn):
        def add_iterations(args, result):
            counts["dynamics.power_iterations"] += result[1]

        return tracer.wrap("dynamics.power_max_frequency", fn, add_iterations)

    def reduce_mass(fn):
        def traced(*args, **kwargs):
            return tracer.wrap("dynamics.outlier_solve", fn(*args, **kwargs))

        return tracer.wrap("dynamics.outlier_reduce_mass", traced)

    def eval_basis(fn):
        return tracer.counted("splinecore.eval_basis_calls", fn)

    groups = [(places, (lambda fn, name=name: tracer.wrap(name, fn)))
              for name, places in SPANS.items()]
    groups += [(STIFFNESS_APPLY, stiffness_apply), (POWER_ITERATION, power_iteration),
               (REDUCE_MASS, reduce_mass), (EVAL_BASIS, eval_basis)]
    out, missing = [], []
    for places, factory in groups:
        for where in places:
            try:
                owner, attr = _owner(pkg, where)
                getattr(owner, attr)
            except AttributeError:
                missing.append(".".join(where))
                continue
            out.append((owner, attr, factory))
    return out, missing


def pass_metrics(spans, counts, outcomes):
    """Per-layer metrics of one traced pass (``trace.overhead_frac`` aside)."""
    table = summarize(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    estimates = calls("dynamics.max_frequency")
    applies_in_estimates = sum(
        1 for i, s in enumerate(spans)
        if s.name == "assembly.stiffness_apply"
        and "dynamics.max_frequency" in ancestors(spans, i)
    )
    apply_calls = calls("assembly.stiffness_apply")
    omega_errors = [o["omega_rel_err"] for o in outcomes if "omega_rel_err" in o]
    return {
        "dynamics.max_frequency_s": total("dynamics.max_frequency"),
        "dynamics.power_iterations": counts["dynamics.power_iterations"],
        "dynamics.applies_per_estimate": applies_in_estimates / estimates if estimates else 0,
        # the most unsafe configuration; 0 where no estimate is made
        "dynamics.omega_rel_err": min(omega_errors) if omega_errors else 0.0,
        "assembly.stiffness_apply_s": total("assembly.stiffness_apply"),
        "assembly.stiffness_apply_calls": apply_calls,
        "assembly.stiffness_apply_ms": (
            1e3 * total("assembly.stiffness_apply") / apply_calls if apply_calls else 0.0
        ),
        "assembly.mac_ops": counts["assembly.mac_ops"],
        "assembly.mass_solve_s": total("assembly.mass_solve"),
        "assembly.mass_solve_calls": calls("assembly.mass_solve"),
        "banded.solve_s": total("banded.solve"),
        "banded.solve_calls": calls("banded.solve"),
        "dynamics.outlier_solve_s": total("dynamics.outlier_solve"),
        "dynamics.rk_step_self_s": table.get("dynamics.rk_step", {}).get("self_s", 0.0),
        "dynamics.rk_steps": calls("dynamics.rk_step"),
        "dualbasis.approximate_dual_s": total("dualbasis.approximate_dual"),
        "dualbasis.approximate_dual_calls": calls("dualbasis.approximate_dual"),
        "dualbasis.grammian_s": total("dualbasis.grammian"),
        "dualbasis.grammian_calls": calls("dualbasis.grammian"),
        "splinecore.eval_basis_calls": counts["splinecore.eval_basis_calls"],
        "assembly.mass_operator_s": total("assembly.mass_operator"),
        "assembly.project_initial_s": total("assembly.project_initial"),
        "assembly.tables_s": total("assembly.tables"),
        "geometry.grids_s": total("geometry.grids"),
        "dynamics.eigensolve_s": total("dynamics.eigensolve"),
        "benchmarks.l2_error_s": total("benchmarks.l2_error"),
        "cli.self_s": sum(row["self_s"] for name, row in table.items()
                          if name.startswith("cli.")),
    }


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

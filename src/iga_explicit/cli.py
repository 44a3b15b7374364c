"""Experiment drivers with config files, CSV emission, and run metadata.

Four experiments are exposed through the ``iga-explicit`` entry point:

``spectrum``   discrete frequency spectra of the fixed-fixed string for the
               consistent, customized, and rowsum-lumped mass matrices;
``project``    quasi-projection exactness and convergence tables;
``stability``  maximum frequencies and critical timesteps per mass kind,
               with and without outlier removal;
``annulus``    explicit dynamics of the vibrating annular membrane over one
               period with mesh refinement and L2 errors.

Configs are flat ``key = value`` text files; every key can be overridden by a
command-line flag of the identical name. CSV outputs carry ``# key=value``
metadata lines before the header row.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import typing
from dataclasses import dataclass

import numpy as np

# stiffness_apply and grammian are not called here; perfbench traces them
# under this module's name
from .assembly import (  # noqa: F401
    DiscreteSystem,
    MASS_KINDS,
    assembled_stiffness_1d,
    mass_operator,
    project_initial,
    stiffness_apply,
)
from .benchmarks import annulus_solution, l2_error, string_frequencies
from .dualbasis import constrain_dual, grammian, quasi_project  # noqa: F401
from .dynamics import (
    EIGENSOLVE_MAX_N,
    PAPER_CMAX,
    TABLEAUS,
    DynamicState,
    RunOperator,
    constraints_per_end,
    critical_dt,
    eigensolve,
    max_frequency,
    outlier_removal,
    rk_step,
    stability_limit,
)
from .errors import ConfigError, NumericalError
from .splinecore import PERIODIC, uniform_space
from .geometry import annulus_map

# the experiments, in the order of the subcommands; ``main`` runs each with
# the module's ``run_<name>`` as it is bound at the call
EXPERIMENTS = ("spectrum", "annulus", "project", "stability")
RUN_MASS_KINDS = tuple(MASS_KINDS)
# mass_kind value -> the kinds a run covers
KIND_SELECTIONS = {"all": RUN_MASS_KINDS, **{kind: (kind,) for kind in RUN_MASS_KINDS}}

# The largest inputs accepted; README gives the peak RSS measured at each.
# DUAL_MAX_N bounds the dimension of the project and annulus radial clamped
# duals: each mirror block of a dual's constraint matrix is factored in its
# own memory, one block at a time, and the blocks and their SVD factors grow
# with the square of the dimension (spectrum and stability take the bound of
# their dense eigensolver, EIGENSOLVE_MAX_N). The periodic angular mass
# factors are inverted densely, and the quadrature grids grow with the
# number of functions, radial times angular.
DUAL_MAX_N = 500
ANNULUS_MAX_ANGULAR = 2000
ANNULUS_MAX_FUNCTIONS = 32768
# The most time steps one annulus run may take over a period (17 at p=3,
# n_elems 8 and the default dt_fraction 0.5). The count follows from
# dt_fraction and the omega_max estimate, so it is checked once that is known.
ANNULUS_MAX_STEPS = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one experiment invocation."""

    experiment: str
    degree: int = 3
    n: int = 250  # spectrum / stability space dimension
    n_elems: tuple = (8, 16, 32)  # annulus radial element counts
    angular_factor: int = 2
    n_values: tuple = (10, 20, 40)  # project space dimensions
    mass_kind: str = "all"
    outlier_removed: bool = False
    rk_scheme: str = "auto"
    dt_fraction: float = 0.5
    beta: int | None = None
    output_dir: str = "results"

    def validate(self):
        problems = []
        if self.experiment not in EXPERIMENTS:
            problems.append(f"unknown experiment {self.experiment!r}")
        if self.degree not in (2, 3, 4, 5):
            problems.append(f"degree must be one of 2, 3, 4, 5 (got {self.degree})")
        if not 0.0 < self.dt_fraction <= 1.0:
            problems.append(f"dt_fraction must be in (0, 1] (got {self.dt_fraction})")
        if self.n <= self.degree + 2:
            problems.append(f"space dimension n={self.n} too small for degree {self.degree}")
        elif self.experiment in ("spectrum", "stability") and self.n - 2 > EIGENSOLVE_MAX_N:
            problems.append(
                f"space dimension n={self.n} too large: the dense eigensolver takes at "
                f"most {EIGENSOLVE_MAX_N} free functions, n - 2"
            )
        if any(m <= 0 for m in self.n_elems):
            problems.append("mesh counts must be positive")
        if any(m <= self.degree for m in self.n_values):
            problems.append(f"project dimensions must exceed the degree {self.degree}")
        elif self.experiment == "project" and max(self.n_values) > DUAL_MAX_N:
            problems.append(f"project dimensions must be at most {DUAL_MAX_N} "
                            f"(got {max(self.n_values)})")
        if self.mass_kind not in KIND_SELECTIONS:
            problems.append(f"unknown mass kind {self.mass_kind!r}")
        elif self.experiment == "spectrum" and self.mass_kind != "all":
            problems.append("spectrum compares every mass kind; mass_kind must be 'all'")
        if self.beta is not None and not self.degree <= self.beta <= 2 * self.degree:
            problems.append(
                f"beta must be in [degree, 2 * degree] = [{self.degree}, {2 * self.degree}] "
                f"(got {self.beta})"
            )
        if self.rk_scheme not in ("auto", "rk2", "rk4", "rk6"):
            problems.append(f"unknown rk scheme {self.rk_scheme!r}")
        if self.angular_factor <= 0:
            problems.append("angular_factor must be positive")
        elif self.experiment == "annulus":
            # the periodic angular space and its dual band both need more
            # than twice their halfwidth in elements
            band = max(self.degree, annulus_dual_halfwidths(self.degree, self.beta)[1])
            too_coarse = [m for m in self.n_elems if self.angular_factor * m <= 2 * band]
            if too_coarse:
                problems.append(
                    f"n_elems {too_coarse} too coarse: angular_factor * n_elems must "
                    f"exceed {2 * band} at degree {self.degree}"
                )
            too_large = [m for m in self.n_elems
                         if m + self.degree > DUAL_MAX_N
                         or self.angular_factor * m > ANNULUS_MAX_ANGULAR
                         or (m + self.degree) * self.angular_factor * m > ANNULUS_MAX_FUNCTIONS]
            if too_large:
                problems.append(
                    f"n_elems {too_large} too large: at most {DUAL_MAX_N} radial functions "
                    f"(n_elems + degree), {ANNULUS_MAX_ANGULAR} angular elements "
                    f"(angular_factor * n_elems) and {ANNULUS_MAX_FUNCTIONS} functions in all "
                    f"(their product)"
                )
        if constraints_per_end(self.degree) and (self.outlier_removed
                                                 or self.experiment == "stability"):
            # the end constraints act on the p free functions at each end of
            # direction 0 (stability always computes the outlier case)
            free = {
                "spectrum": [self.n - 2],
                "stability": [self.n - 2],
                "annulus": [m + self.degree - 2 for m in self.n_elems],
            }.get(self.experiment, [])
            if any(f < 2 * self.degree for f in free):
                problems.append(
                    f"outlier removal needs {2 * self.degree} free functions in direction 0 "
                    f"at degree {self.degree} (got {min(free)})"
                )
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def kinds(self):
        return KIND_SELECTIONS[self.mass_kind]


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}

# the keys of a config file and the command-line flags, typed by RunConfig
FIELD_TYPES = typing.get_type_hints(RunConfig)
CONFIG_KEYS = [k for k in FIELD_TYPES if k != "experiment"]


def parse_config_file(path):
    """Flat key=value UTF-8 file with # comments; errors carry the path and
    line numbers, and a file that cannot be read is a ConfigError too."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        try:
            values[key] = _convert(key, val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def _convert(key, val):
    kind = FIELD_TYPES[key]
    if kind is bool:
        if val.lower() not in _BOOL_VALUES:
            raise ValueError(f"expected a boolean for {key}, got {val!r}")
        return _BOOL_VALUES[val.lower()]
    if kind is tuple:
        return tuple(int(v) for v in val.split(","))
    return int(val) if kind == int | None else kind(val)


def build_config(experiment, file_values=None, overrides=None):
    values = dict(file_values or {})
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    values.pop("experiment", None)
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        cfg = RunConfig(experiment=experiment, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return cfg.validate()


# ---------------------------------------------------------------------------
# CSV helpers


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, metadata, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={metadata[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


@functools.cache
def computed_cmax(scheme):
    """Imaginary-axis stability limit of a scheme's tableau, unrounded;
    computed once per process."""
    return stability_limit(TABLEAUS[scheme])


def _system_metadata(system):
    """The CSV metadata a run takes from its discrete system."""
    return {
        "dual_halfwidth": system.dual_halfwidths,
        "quad_points_mass": system.mass_points,
        "quad_points_stiffness": system.stiffness_points,
        "dirichlet_sides": list(system.dirichlet),
        "kappa": system.kappa,
    }


def _base_metadata(config, system_md, extra):
    md = {
        "experiment": config.experiment,
        "degree": config.degree,
        "mass_kind": config.mass_kind,
        "outlier_removed": config.outlier_removed,
        "rk_scheme": config.rk_scheme,
        "dt_fraction": config.dt_fraction,
        "tableau_rk2": "3-stage order-2 (iterated midpoint)",
        "tableau_rk4": "classical 4-stage",
        "tableau_rk6": "Verner 8-stage",
        "cmax_paper": PAPER_CMAX,
        "cmax_computed": {k: round(computed_cmax(k), 6) for k in TABLEAUS},
    }
    md.update(system_md)
    md.update(extra)
    return md


# ---------------------------------------------------------------------------
# spectrum


def string_spectra(p, n_dim, beta=None, outlier_choices=(False,)):
    """Dense string frequencies for the three mass kinds.

    Returns (system, {outlier_removed: {kind: frequencies}}) with Dirichlet
    ends imposed, the system being the customized one. There is one system
    per kind on the same space, and only the customized one builds a dual;
    the stiffness and the masses are built once for all
    ``outlier_choices``, and where the choice is True the outlier
    constraint's congruence reduces them all. Below degree 3 no constraint
    exists, and a True choice takes the plain spectra, solved once.
    """
    space = uniform_space(n_dim - p, p)
    systems = {kind: DiscreteSystem([space], mass_kind=kind, dirichlet=[(True, True)],
                                    dual_halfwidth=beta)
               for kind in RUN_MASS_KINDS}
    system = systems["customized"]
    # the customized kind's dual test functions B/c are the B-splines at unit
    # density, so its stiffness is the symmetric one of every kind
    K = assembled_stiffness_1d(system).toarray()
    masses = {kind: mass_operator(s).factors[0].to_dense() for kind, s in systems.items()}
    spectra, plain = {}, None
    for outlier_removed in outlier_choices:
        outlier = outlier_removal(system) if outlier_removed else None
        if outlier is None and plain is not None:
            spectra[outlier_removed] = plain
            continue
        reduce = (lambda A: A) if outlier is None else outlier.congruence
        K_red = reduce(K)
        spectra[outlier_removed] = {
            kind: eigensolve(K_red, reduce(M))
            for kind, M in masses.items()
        }
        if outlier is None:
            plain = spectra[outlier_removed]
    return system, spectra


def run_spectrum(config):
    p = config.degree
    system, spectra = string_spectra(p, config.n, config.beta, (config.outlier_removed,))
    freqs = spectra[config.outlier_removed]
    n_modes = len(freqs["galerkin_consistent"])
    k = np.arange(1, n_modes + 1)
    exact = string_frequencies(k)
    rows = []
    for i in range(n_modes):
        row = [int(k[i]), k[i] / n_modes, exact[i]]
        for kind in RUN_MASS_KINDS:
            row.append(freqs[kind][i])
        for kind in RUN_MASS_KINDS:
            row.append(abs(freqs[kind][i] / exact[i] - 1.0))
        rows.append(row)
    header = [
        "mode_index",
        "mode_fraction",
        "omega_exact",
        "omega_consistent",
        "omega_customized",
        "omega_lumped",
        "err_consistent",
        "err_customized",
        "err_lumped",
    ]
    md = _base_metadata(config, _system_metadata(system),
                        {"n_dimension": config.n, "n_modes": n_modes})
    path = os.path.join(config.output_dir, f"spectrum_p{p}.csv")
    return write_csv(path, md, header, rows)


# ---------------------------------------------------------------------------
# project


def run_project(config):
    p = config.degree
    rows = []
    for n_dim in config.n_values:
        # one unconstrained system (and dual) per dimension: quasi_project
        # returns zeros at the constrained slots of each target
        system = DiscreteSystem(
            [uniform_space(n_dim - p, p)], mass_kind="customized", dual_halfwidth=config.beta
        )
        targets = []
        for q in range(p + 1):
            targets.append((f"x^{q}", lambda x, q=q: x**q, (False, False)))
        targets.append((f"x^{p}", lambda x: x**p, (True, False)))
        targets.append((f"(1-x)^{p}", lambda x: (1.0 - x) ** p, (False, True)))
        targets.append(
            (
                f"x^{p - 1}(1-x)",
                lambda x: x ** (p - 1) * (1.0 - x),
                (True, True),
            )
        )
        targets.append(("sin(pi x)", lambda x: np.sin(np.pi * x), (False, False)))
        targets.append(("sin(pi x)", lambda x: np.sin(np.pi * x), (True, True)))
        for name, f, (dl, dr) in targets:
            op = constrain_dual(system.duals[0], left=dl, right=dr)
            err = l2_error(system, quasi_project(op, f), f)
            constrained = {
                (False, False): "none",
                (True, False): "left",
                (False, True): "right",
                (True, True): "both",
            }[(dl, dr)]
            rows.append([name, p, n_dim, constrained, err])
    header = ["function", "p", "N", "constrained", "l2_error"]
    md = _base_metadata(config, _system_metadata(system), {"n_values": list(config.n_values)})
    path = os.path.join(config.output_dir, f"project_p{p}.csv")
    return write_csv(path, md, header, rows)


# ---------------------------------------------------------------------------
# stability


def run_stability(config):
    p = config.degree
    scheme = config.rk_scheme if config.rk_scheme != "auto" else "rk4"
    c_paper = PAPER_CMAX[scheme]
    c_computed = computed_cmax(scheme)
    rows = []
    system, spectra = string_spectra(p, config.n, config.beta, (False, True))
    base_dt = critical_dt(c_paper, float(spectra[False]["galerkin_consistent"][-1]))
    for outlier in (False, True):
        for kind in config.kinds():
            omega = float(spectra[outlier][kind][-1])
            dt = critical_dt(c_paper, omega)
            rows.append([p, kind, outlier, omega, c_paper, c_computed, dt, dt / base_dt])
    header = [
        "p",
        "mass_kind",
        "outlier_removed",
        "omega_max",
        "C_max_paper",
        "C_max_computed",
        "dt_crit",
        "ratio_vs_consistent",
    ]
    md = _base_metadata(config, _system_metadata(system),
                        {"n_dimension": config.n, "scheme": scheme})
    path = os.path.join(config.output_dir, f"stability_p{p}.csv")
    return write_csv(path, md, header, rows)


# ---------------------------------------------------------------------------
# annulus


@functools.cache
def _annulus_geometry(inner_radius, outer_radius):
    """One annulus map per pair of radii, so the systems of a sweep share it
    and its weight checks run once per process."""
    return annulus_map(inner_radius, outer_radius)


def annulus_dual_halfwidths(p, beta=None):
    """Dual halfwidths (radial, angular) of an annulus run: ``beta`` in both
    directions, else degree and degree+1. At the angular resolution limit of
    the coarse meshes the extra band keeps the customized-mass evolution
    within a factor two of the consistent mass (asymptotically identical);
    the radial default is where the construction is SPD on all meshes."""
    return (p, p + 1) if beta is None else (beta, beta)


def _annulus_system(sol, p, n_r, n_theta, kind, beta=None):
    s1 = uniform_space(n_r, p)
    s2 = uniform_space(n_theta, p, boundary_kind=PERIODIC)
    return DiscreteSystem(
        [s1, s2],
        geometry=_annulus_geometry(sol.inner_radius, sol.outer_radius),
        mass_kind=kind,
        kappa=sol.kappa,
        dirichlet=[(True, True), (False, False)],
        dual_halfwidth=beta,
    )


def _scheme_for(kind, p, requested):
    if requested != "auto":
        return requested
    if kind == "rowsum_lumped":
        return "rk2"
    return "rk4" if p in (2, 3, 4) else "rk6"


# The columns of an annulus CSV row and the fields of a run in the annulus
# report, in their order: keys of the record of ``annulus_run_single``
CSV_FIELDS = ("p", "n_elem_radial", "n_elem_angular", "sqrt_dofs", "mass_kind", "rk_scheme",
              "outlier_removed", "dt", "steps", "l2_rel_error", "wall_seconds")
REPORT_FIELDS = ("n_elem_radial", "n_elem_angular", "mass_kind", "rk_scheme",
                 "outlier_removed", "omega_max", "omega_method", "steps", "phases",
                 "counters", "storage", "macs_per_apply", "spectral_abscissa",
                 "amplitude_drift")


def annulus_run_single(sol, p, n_r, n_theta, kind, scheme, dt_fraction,
                       outlier_removed=False, beta=None):
    """One explicit run over a full period; returns its record, a dict with
    every key of ``CSV_FIELDS`` and ``REPORT_FIELDS``, and the CSV metadata
    of its system (``system_metadata``) in place of the system itself.

    ``phases`` holds the seconds of setup (before the timed run), of the
    omega_max estimate with its operator applies, of the initial projection,
    of the stepping and of the error evaluation; ``counters`` is a copy of
    the system's operator counters at the end of the run.
    ``amplitude_drift`` is the largest max|d| over the steps relative to
    max|d0|: about 1 for a stable run, above 1e6 for a flagged one, whose
    ``l2_rel_error`` is infinite. ``outlier_removed`` records the request,
    a no-op below degree 3.
    """
    t_setup = time.perf_counter()
    system = _annulus_system(sol, p, n_r, n_theta, kind, annulus_dual_halfwidths(p, beta))
    outlier = outlier_removal(system) if outlier_removed else None
    run = RunOperator(system, outlier)
    dr = sol.outer_radius - sol.inner_radius

    def u0_param(x1, x2):
        r = sol.inner_radius + dr * x1
        return sol.radial(r) * np.cos(sol.angular_wavenumber * 2.0 * np.pi * x2)

    t0 = time.perf_counter()
    applies = system.counters["stiffness_applies"]
    omega_max = max_frequency(run)
    applies = system.counters["stiffness_applies"] - applies
    t_omega = time.perf_counter()
    d0 = outlier.project_initial(u0_param) if outlier else project_initial(system, u0_param)
    t_project = time.perf_counter()

    period = sol.period
    dt_crit = critical_dt(PAPER_CMAX[scheme], omega_max)
    dt_max = dt_fraction * dt_crit  # may underflow to 0
    if not period <= ANNULUS_MAX_STEPS * dt_max:
        raise ConfigError(f"dt_fraction {dt_fraction!r} needs "
                          f"{period / dt_fraction / dt_crit:.3g} steps per period at "
                          f"n_elems {n_r}, above the maximum of {ANNULUS_MAX_STEPS}")
    steps = max(int(np.ceil(period / dt_max)), 1)
    dt = period / steps
    state = DynamicState(d0, np.zeros_like(d0), 0.0)
    init_scale = float(np.max(np.abs(d0))) + 1e-30
    tableau = TABLEAUS[scheme]
    unstable = False
    peak = 0.0  # the largest max|d| after any step
    try:
        for step in range(steps):
            state = rk_step(tableau, run.apply, state, dt)
            amplitude = float(np.max(np.abs(state.d)))
            peak = max(peak, amplitude)
            if amplitude > 1e6 * init_scale:
                unstable = True
                break
    except NumericalError:
        unstable = True
    t_step = time.perf_counter()

    if unstable:
        err = float("inf")
    else:
        d_final = run.prolong(state.d)

        def exact(X, Y):
            r = np.hypot(X, Y)
            th = np.arctan2(Y, X)
            return sol.value(r, th, period)

        err = l2_error(system, d_final, exact)
    t_end = time.perf_counter()
    return {
        "p": p,
        "n_elem_radial": n_r,
        "n_elem_angular": n_theta,
        "sqrt_dofs": float(np.sqrt(run.n)),
        "mass_kind": kind,
        "rk_scheme": scheme,
        "outlier_removed": bool(outlier_removed),
        "dt": dt,
        "steps": steps,
        "l2_rel_error": err,
        "wall_seconds": t_end - t0,
        "omega_max": omega_max,
        "omega_method": run.omega_method,
        "phases": {
            "setup_s": t0 - t_setup,
            "omega_s": t_omega - t0,
            "omega_applies": applies,
            "project_s": t_project - t_omega,
            "stepping_s": t_step - t_project,
            "error_s": t_end - t_step,
        },
        "counters": dict(system.counters),
        "storage": run.terms.storage,
        "macs_per_apply": run.terms.macs,
        "spectral_abscissa": run.spectral_abscissa,
        "amplitude_drift": peak / init_scale,
        "system_metadata": _system_metadata(system),
    }


def run_annulus(config):
    sol = annulus_solution()
    p = config.degree
    records = []
    paths = []
    for n_r in config.n_elems:
        n_theta = config.angular_factor * n_r
        mesh = [annulus_run_single(sol, p, n_r, n_theta, kind,
                                   _scheme_for(kind, p, config.rk_scheme),
                                   config.dt_fraction, config.outlier_removed, config.beta)
                for kind in config.kinds()]
        records += mesh
        md = _base_metadata(
            config, mesh[-1]["system_metadata"],
            {"inner_radius": sol.inner_radius, "outer_radius": sol.outer_radius,
             "period": sol.period, "angular_wavenumber": sol.angular_wavenumber},
        )
        path = os.path.join(config.output_dir, f"annulus_p{p}_mesh{n_r}x{n_theta}.csv")
        rows = [[rec[f] for f in CSV_FIELDS] for rec in mesh]
        paths.append(write_csv(path, md, CSV_FIELDS, rows))

    # summary with pairwise convergence slopes per mass kind
    sum_rows = []
    for kind in config.kinds():
        prev_err = None
        for rec in [r for r in records if r["mass_kind"] == kind]:
            err = rec["l2_rel_error"]
            slope = ""
            if prev_err is not None and np.isfinite(err) and prev_err > 0:
                slope = repr(float(np.log2(prev_err / err)))
            sum_rows.append([rec[f] for f in CSV_FIELDS] + [slope])
            prev_err = err
    md = _base_metadata(
        config, records[-1]["system_metadata"],
        {"inner_radius": sol.inner_radius, "outer_radius": sol.outer_radius,
         "period": sol.period, "meshes": list(config.n_elems)},
    )
    path = os.path.join(config.output_dir, f"annulus_p{p}_summary.csv")
    paths.append(write_csv(path, md, CSV_FIELDS + ("slope_vs_previous_mesh",), sum_rows))
    write_annulus_report(os.path.join(config.output_dir, f"annulus_p{p}_report.json"), records)
    return paths


def write_annulus_report(path, records):
    """The ``REPORT_FIELDS`` of each run record of an annulus sweep, as a
    JSON sidecar of its CSVs, which it leaves byte-identical: omega_max,
    phases and operator counters, each run's amplitude drift, the storage
    ("dense" or "csr") of its run operator's ``outer`` and ``inner``, and the
    multiply-adds of one apply of it (``macs_per_apply``), so ``mac_ops`` is
    ``stiffness_applies`` times that. ``omega_method`` names the omega_max
    path (``RunOperator.omega_method``); ``spectral_abscissa``, the largest
    growth rate max Re sqrt(mu) over the run operator's eigenvalues mu,
    comes from the Fourier blocks and is null where ARPACK ran."""
    runs = [{f: rec[f] for f in REPORT_FIELDS} for rec in records]
    with open(path, "w") as fh:
        json.dump({"experiment": "annulus", "degree": records[0]["p"], "runs": runs},
                  fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="iga-explicit",
        description="Explicit spline dynamics experiments with dual-basis mass lumping.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="flat key=value config file")
        for key in CONFIG_KEYS:
            sp.add_argument(f"--{key}", type=lambda v, k=key: _convert(k, v), default=None)
    args = parser.parse_args(argv)

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {k: getattr(args, k) for k in CONFIG_KEYS}
        config = build_config(args.experiment, file_values, overrides)
        try:
            os.makedirs(config.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir {config.output_dir}: "
                              f"{exc.strerror or exc}") from None
        out = globals()[f"run_{config.experiment}"](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:  # writing the results
        print(f"resource failure: {exc}", file=sys.stderr)
        return 3
    paths = out if isinstance(out, list) else [out]
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())

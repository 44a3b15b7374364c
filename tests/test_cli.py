"""Config parsing, experiment drivers, CSV output, and exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from iga_explicit.cli import (
    RunConfig,
    build_config,
    main,
    parse_config_file,
    run_annulus,
    run_project,
    run_spectrum,
    run_stability,
)
from iga_explicit.errors import ConfigError


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def split_csv(path):
    lines = read_lines(path)
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body


def test_parse_config_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
# spectrum run
degree = 3
n = 40
outlier_removed = true
mass_kind = customized
dt_fraction = 0.25
n_elems = 4,8
"""
    )
    vals = parse_config_file(cfg)
    assert vals == {
        "degree": 3,
        "n": 40,
        "outlier_removed": True,
        "mass_kind": "customized",
        "dt_fraction": 0.25,
        "n_elems": (4, 8),
    }


def test_parse_config_line_precise_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("degree = 3\nnot a valid line\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_file(cfg)
    cfg.write_text("degree = three\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        parse_config_file(cfg)


def test_build_config_validation():
    with pytest.raises(ConfigError, match="degree"):
        build_config("spectrum", {"degree": 7})
    with pytest.raises(ConfigError, match="dt_fraction"):
        build_config("annulus", {"dt_fraction": 0.0})
    with pytest.raises(ConfigError, match="unknown config keys"):
        build_config("spectrum", {"degrees": 3})
    cfg = build_config("spectrum", {"degree": 4})
    assert cfg.degree == 4 and cfg.experiment == "spectrum"


def test_overrides_beat_file_values():
    cfg = build_config("project", {"degree": 2}, {"degree": 5})
    assert cfg.degree == 5


def count_dual_builds(monkeypatch):
    """The argument tuples of every ``approximate_dual`` call a system makes."""
    from iga_explicit import assembly

    duals = []
    build = assembly.approximate_dual
    monkeypatch.setattr(assembly, "approximate_dual",
                        lambda *args, **kwargs: duals.append(args) or build(*args, **kwargs))
    return duals


def test_run_project_exactness_and_determinism(tmp_path, monkeypatch):
    duals = count_dual_builds(monkeypatch)
    cfg = build_config(
        "project", {}, {"degree": 2, "n_values": (10, 20), "output_dir": str(tmp_path / "a")}
    )
    path_a = run_project(cfg)
    # one dual per dimension serves every target and its end constraints
    assert len(duals) == len(cfg.n_values)
    meta, body = split_csv(path_a)
    assert body[0] == "function,p,N,constrained,l2_error"
    # monomial rows at the 1e-10 floor
    for line in body[1:]:
        name, p, n, constrained, err = line.split(",")
        if name.startswith("x^") or name.startswith("(1-x)"):
            assert float(err) <= 1e-10
    # identical config -> byte-identical body
    cfg_b = build_config(
        "project", {}, {"degree": 2, "n_values": (10, 20), "output_dir": str(tmp_path / "b")}
    )
    path_b = run_project(cfg_b)
    assert split_csv(path_b)[1] == body


def test_run_spectrum_small(tmp_path, monkeypatch):
    duals = count_dual_builds(monkeypatch)
    cfg = build_config("spectrum", {}, {"degree": 2, "n": 40, "output_dir": str(tmp_path)})
    path = run_spectrum(cfg)
    # one system per kind, and only the customized one builds a dual
    assert len(duals) == 1
    meta, body = split_csv(path)
    header = body[0].split(",")
    assert header == [
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
    assert len(body) - 1 == 38  # N - 2 Dirichlet dofs
    meta_keys = {l.split("=")[0][2:] for l in meta}
    for needed in ("kappa", "dual_halfwidth", "quad_points_mass", "dirichlet_sides",
                   "tableau_rk2", "cmax_paper"):
        assert needed in meta_keys


def test_run_spectrum_outlier_reduces_rows(tmp_path):
    cfg = build_config(
        "spectrum", {}, {"degree": 3, "n": 40, "outlier_removed": True,
                         "output_dir": str(tmp_path)}
    )
    path = run_spectrum(cfg)
    _, body = split_csv(path)
    assert len(body) - 1 == 36  # two extra end constraints


def test_run_stability_ratios(tmp_path, monkeypatch):
    duals = count_dual_builds(monkeypatch)
    cfg = build_config("stability", {}, {"degree": 3, "n": 60, "output_dir": str(tmp_path)})
    path = run_stability(cfg)
    # one string system serves the runs with and without outlier removal
    assert len(duals) == 1
    _, body = split_csv(path)
    header = body[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in body[1:]]
    by = {(r["mass_kind"], r["outlier_removed"]): r for r in rows}
    assert float(by[("customized", "False")]["ratio_vs_consistent"]) > 1.0
    assert float(by[("rowsum_lumped", "False")]["ratio_vs_consistent"]) > 1.0
    assert float(by[("customized", "True")]["dt_crit"]) > float(
        by[("customized", "False")]["dt_crit"]
    )


@pytest.mark.parametrize("degree, solves", [(2, 3), (3, 6)])
def test_stability_solves_each_string_problem_once(degree, solves, tmp_path, monkeypatch):
    # three mass kinds, with and without outlier removal; below degree 3 no
    # constraint exists, and the outlier-removed rows take the plain spectra
    import iga_explicit.cli as cli_mod

    calls = []
    eigensolve = cli_mod.eigensolve
    monkeypatch.setattr(cli_mod, "eigensolve", lambda *args: calls.append(1) or eigensolve(*args))
    run_stability(build_config("stability", {}, {"degree": degree, "n": 40,
                                                 "output_dir": str(tmp_path)}))
    assert len(calls) == solves


def test_run_annulus_smoke(tmp_path, monkeypatch):
    duals = count_dual_builds(monkeypatch)
    cfg = build_config(
        "annulus",
        {},
        {"degree": 3, "n_elems": (6,), "mass_kind": "customized",
         "output_dir": str(tmp_path)},
    )
    paths = run_annulus(cfg)
    assert len(duals) == 2  # radial and angular
    assert len(paths) == 2  # per-mesh + summary
    _, body = split_csv(paths[0])
    header = body[0].split(",")
    assert "l2_rel_error" in header and "wall_seconds" in header
    row = dict(zip(header, body[1].split(",")))
    assert float(row["l2_rel_error"]) < 1.0
    assert row["rk_scheme"] == "rk4"
    _, sum_body = split_csv(paths[1])
    assert sum_body[0].endswith("slope_vs_previous_mesh")
    # the other kinds build no dual, their metadata included
    for kind in ("galerkin_consistent", "rowsum_lumped"):
        run_annulus(build_config("annulus", {}, {"degree": 3, "n_elems": (6,), "mass_kind": kind,
                                                 "output_dir": str(tmp_path / kind)}))
    assert len(duals) == 2


# rows of `annulus --degree 3 --n_elems 8 --mass_kind all` before the run
# operator fused the mass solve into the stiffness, without wall_seconds
ANNULUS_P3_ROWS = [
    "3,8,16,12.0,galerkin_consistent,rk4,False,0.02581173346135623,22,0.012464653064916715",
    "3,8,16,12.0,customized,rk4,False,0.03340341977351983,17,0.013168610325408036",
    "3,8,16,12.0,rowsum_lumped,rk2,False,0.04056129543927407,14,1.289817317502596",
]


def test_run_annulus_report_and_unchanged_csvs(tmp_path):
    from iga_explicit.dynamics import TABLEAUS

    cfg = build_config("annulus", {}, {"degree": 3, "n_elems": (8,), "mass_kind": "all",
                                       "output_dir": str(tmp_path)})
    paths = run_annulus(cfg)
    # every column but wall_seconds as before; the L2 errors up to round-off
    for path in paths:
        _, body = split_csv(path)
        header = body[0].split(",")
        wall = header.index("wall_seconds")
        for line, want in zip(body[1:], ANNULUS_P3_ROWS):
            row = line.split(",")
            row.pop(wall)
            *fields, err = want.split(",")
            assert row[:len(fields)] == fields
            assert float(row[len(fields)]) == pytest.approx(float(err), rel=1e-12)
    with open(tmp_path / "annulus_p3_report.json") as fh:
        report = json.load(fh)
    assert report["degree"] == 3 and len(report["runs"]) == 3
    for run, want in zip(report["runs"], ANNULUS_P3_ROWS):
        assert run["mass_kind"] == want.split(",")[4]
        # stable runs: the amplitude stays of the order of the initial one
        assert 0.5 < run["amplitude_drift"] < 2.0
        phases = run["phases"]
        # the Petrov (customized) run's omega_max comes from its angular
        # Fourier blocks, with no operator apply, and so does its spectral
        # abscissa, 0 at this stable mesh; the others run ARPACK
        if run["mass_kind"] == "customized":
            assert run["omega_method"] == "fourier_blocks"
            assert phases["omega_applies"] == 0
            assert run["spectral_abscissa"] == 0.0
        else:
            assert run["omega_method"] == "arnoldi"
            assert phases["omega_applies"] > 0
            assert run["spectral_abscissa"] is None
        assert all(phases[k] > 0.0 for k in
                   ("setup_s", "omega_s", "project_s", "stepping_s", "error_s"))
        # the ω_max estimate, then one run-operator apply per power of the
        # stability polynomial R and step
        degree = len(TABLEAUS[run["rk_scheme"]].coefficients) - 1
        assert run["counters"]["stiffness_applies"] == (
            phases["omega_applies"] + degree * run["steps"])
        # at 9 x 16 free functions both run-operator operands are over a tenth
        # full: an apply multiplies the 9 x 18 P_t and the 32 x 16 Q_t
        assert run["storage"] == {"outer": "dense", "inner": "dense"}
        assert run["macs_per_apply"] == 9 * 18 * 16 + 32 * 16 * 9
        assert run["counters"]["mac_ops"] == (
            run["counters"]["stiffness_applies"] * run["macs_per_apply"])


def test_main_exit_codes(tmp_path):
    out = str(tmp_path / "out")
    assert main(["project", "--degree", "2", "--n_values", "8", "--output_dir", out]) == 0
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("degree = 9\n")
    assert main(["spectrum", "--config", str(bad_cfg), "--output_dir", out]) == 2
    # a dual halfwidth above the degree on a clamped space
    assert main(["project", "--degree", "2", "--n_values", "8", "--beta", "4",
                 "--output_dir", out]) == 0


def test_main_reports_numerical_failure(tmp_path, monkeypatch):
    # a negative tolerance makes every constraint residual count as infeasible
    from iga_explicit import dualbasis

    monkeypatch.setattr(dualbasis, "FEASIBILITY_TOL", -1.0)
    assert main(["project", "--degree", "2", "--n_values", "8",
                 "--output_dir", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["stability", "--mass_kind", "petrov_consistent"],
        ["annulus", "--n_elems", "4", "--degree", "3"],
        ["annulus", "--n_elems", "4", "--degree", "2", "--beta", "4"],
        ["project", "--n_values", "3"],
        ["project", "--degree", "3", "--n_values", "10", "--beta", "-1"],
        ["project", "--degree", "3", "--n_values", "10", "--beta", "1"],
        ["project", "--degree", "3", "--n_values", "10", "--beta", "7"],
        ["project", "--degree", "2", "--n_values", "8", "--beta", "9"],
        ["spectrum", "--degree", "2", "--n", "20", "--mass_kind", "customized"],
        # outlier removal needs 2p free functions in direction 0
        ["stability", "--degree", "3", "--n", "7"],
        ["stability", "--degree", "5", "--n", "10"],
        ["spectrum", "--degree", "5", "--n", "9", "--outlier_removed", "true"],
        ["annulus", "--degree", "3", "--n_elems", "2", "--angular_factor", "8",
         "--outlier_removed", "true"],
        # the dense eigensolver takes at most 2000 free functions, n - 2
        ["spectrum", "--n", "2003"],
        ["stability", "--n", "2003"],
        # size rules: at most 500 radial functions or project dimensions (the
        # clamped dual), 2000 angular elements and 32768 functions in all
        ["annulus", "--degree", "3", "--n_elems", "8", "--angular_factor", "100000000"],
        ["annulus", "--degree", "3", "--n_elems", "498", "--angular_factor", "1"],
        ["annulus", "--degree", "2", "--n_elems", "8", "--angular_factor", "251"],
        ["annulus", "--degree", "5", "--n_elems", "126", "--angular_factor", "2"],
        ["project", "--n_values", "10,501"],
        # config files that cannot be read, output directories that cannot be
        # made ({tmp} is the test's directory)
        ["spectrum", "--n", "40", "--config", "{tmp}/missing.cfg"],
        ["spectrum", "--n", "40", "--config", "{tmp}"],
        ["spectrum", "--n", "40", "--config", "{tmp}/latin1.cfg"],
        ["spectrum", "--n", "40", "--output_dir", "{tmp}/file"],
        # a time step so small that the step count overflows to infinity or
        # exceeds the maximum
        ["annulus", "--degree", "3", "--n_elems", "8", "--dt_fraction", "1e-320"],
        ["annulus", "--degree", "3", "--n_elems", "8", "--dt_fraction", "1e-300"],
    ],
)
def test_main_rejects_bad_input_without_traceback(tmp_path, capfd, args):
    (tmp_path / "latin1.cfg").write_bytes("degree = 3  # é\n".encode("latin-1"))
    (tmp_path / "file").write_text("")
    experiment, *flags = (a.format(tmp=tmp_path) for a in args)
    code = main([experiment, "--output_dir", str(tmp_path), *flags])
    err = capfd.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("configuration error:")
    assert len(err.splitlines()) == 1, err


def test_module_entry_rejects_bad_input_without_traceback(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "iga_explicit.cli", "project", "--output_dir", str(tmp_path),
         "--n_values", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error:")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("message", ["Unable to allocate 1.21 GiB for an array", ""])
def test_main_reports_memory_failure_without_traceback(tmp_path, monkeypatch, capsys, message):
    import iga_explicit.cli as cli_mod

    def exhausted(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli_mod, "run_spectrum", exhausted)
    assert main(["spectrum", "--degree", "3", "--n", "40", "--output_dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("resource failure: ") and len(err.splitlines()) == 1
    assert (message or "out of memory") in err


def test_main_reports_a_failed_dual_svd_without_traceback(tmp_path, monkeypatch, capsys):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
    assert main(["project", "--degree", "3", "--n_values", "10",
                 "--output_dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("numerical failure: constraint SVD of the ") and len(err.splitlines()) == 1
    assert "block failed: SVD did not converge" in err


def test_main_reports_a_failed_eigensolve_without_traceback(tmp_path, monkeypatch, capsys):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
    assert main(["stability", "--degree", "3", "--n", "40",
                 "--output_dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == ("numerical failure: generalized eigensolve failed: "
                   "eigenvalues did not converge\n")


def test_main_reports_a_non_finite_omega_max_without_traceback(tmp_path, monkeypatch, capsys):
    from iga_explicit.dynamics import RunOperator

    monkeypatch.setattr(RunOperator, "fourier_eigenvalues",
                        property(lambda self: np.array([np.nan], dtype=complex)))
    assert main(["annulus", "--degree", "3", "--n_elems", "8", "--mass_kind", "customized",
                 "--output_dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "numerical failure: omega_max estimate nan is not positive and finite\n"


@pytest.mark.parametrize("kind", ["customized", "galerkin_consistent"])
def test_main_reports_a_non_finite_run_operator_without_traceback(tmp_path, monkeypatch, capsys,
                                                                  kind):
    # a NaN in the stiffness kernel stops the Fourier-block (customized) and
    # the ARPACK (Galerkin) omega_max path alike, before either runs
    from iga_explicit import assembly

    build = assembly._stiffness_kernel
    monkeypatch.setattr(assembly, "_stiffness_kernel", lambda system: assembly.KroneckerSum(
        build(system).outer * np.nan, build(system).inner))
    assert main(["annulus", "--degree", "3", "--n_elems", "8", "--mass_kind", kind,
                 "--output_dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "numerical failure: the run operator -M^{-1} K has non-finite entries\n"


def test_every_config_key_takes_its_declared_type(tmp_path, monkeypatch):
    # from a config file and from its flag alike
    import iga_explicit.cli as cli_mod

    want = {"degree": 3, "n": 40, "n_elems": (8, 16), "angular_factor": 3, "n_values": (10, 20),
            "mass_kind": "customized", "outlier_removed": True, "rk_scheme": "rk4",
            "dt_fraction": 0.25, "beta": 4, "output_dir": str(tmp_path)}

    def spelled(value):
        if isinstance(value, tuple):
            return ",".join(map(str, value))
        return str(value).lower() if isinstance(value, bool) else str(value)

    text = {k: spelled(v) for k, v in want.items()}
    assert sorted(want) == sorted(cli_mod.CONFIG_KEYS)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
    configs = []
    monkeypatch.setattr(cli_mod, "run_annulus", lambda config: configs.append(config) or [])
    assert main(["annulus", "--config", str(cfg)]) == 0
    assert main(["annulus", *[arg for k, v in text.items() for arg in (f"--{k}", v)]]) == 0
    for config in configs:
        got = {k: getattr(config, k) for k in want}
        assert got == want
        assert all(type(got[k]) is type(v) for k, v in want.items())
        assert all(type(m) is int for k in ("n_elems", "n_values") for m in got[k])


def test_string_spectra_ignore_outlier_removal_below_degree_3():
    from iga_explicit.cli import string_spectra

    _, spectra = string_spectra(2, 30, outlier_choices=(False, True))
    assert all(np.array_equal(spectra[True][kind], freqs) for kind, freqs in spectra[False].items())


def test_string_spectra_build_the_unweighted_grammian_once(monkeypatch):
    # the Galerkin and the lumped system share the space's one Grammian; the
    # customized one builds its own with its dual
    from iga_explicit import assembly, dualbasis
    from iga_explicit.cli import string_spectra

    grams = []
    grammian = dualbasis.grammian
    counting = (lambda *args, **kwargs: grams.append(grammian(*args, **kwargs)) or grams[-1])
    monkeypatch.setattr(dualbasis, "grammian", counting)
    monkeypatch.setattr(assembly, "grammian", counting)
    string_spectra(3, 30)
    assert len(grams) == 2 and len({id(G) for G in grams}) == 1


@pytest.mark.parametrize("p", [3, 4, 5])
def test_string_spectra_reduce_by_the_explicit_congruence(p):
    # the outlier-reduced string K and M, bit for bit as T^T X T
    from iga_explicit.assembly import DiscreteSystem, assembled_stiffness_1d, mass_operator
    from iga_explicit.cli import string_spectra
    from iga_explicit.dynamics import eigensolve, outlier_removal

    system, spectra = string_spectra(p, 40, outlier_choices=(True,))
    T = outlier_removal(system).T
    K = assembled_stiffness_1d(system).toarray()
    for kind, freqs in spectra[True].items():
        M = mass_operator(DiscreteSystem(system.spaces, mass_kind=kind, dirichlet=system.dirichlet)
                          ).factors[0].to_dense()
        assert np.array_equal(freqs, eigensolve(T.T @ K @ T, T.T @ M @ T))


def test_annulus_records_the_requested_outlier_removal_below_degree_3(tmp_path):
    # no constraint exists at p=2: the run is the plain one, and its rows,
    # report and metadata all record the request
    outputs = {}
    for flag in (False, True):
        out = tmp_path / str(flag)
        run_annulus(build_config("annulus", {}, {"degree": 2, "n_elems": (8,),
                                                 "outlier_removed": flag, "output_dir": str(out)}))
        meta, body = split_csv(out / "annulus_p2_mesh8x16.csv")
        header, rows = body[0].split(","), [line.split(",") for line in body[1:]]
        with open(out / "annulus_p2_report.json") as fh:
            runs = json.load(fh)["runs"]
        assert f"# outlier_removed={flag}" in meta
        assert [row[header.index("outlier_removed")] for row in rows] == [str(flag)] * 3
        assert [run["outlier_removed"] for run in runs] == [flag] * 3
        outputs[flag] = [run["steps"] for run in runs], [row[header.index("l2_rel_error")]
                                                          for row in rows]
    assert outputs[True] == outputs[False]


def test_main_reports_a_failed_write_without_traceback(tmp_path, monkeypatch, capsys):
    import errno

    import iga_explicit.cli as cli_mod

    def full_disk(path, *args):
        raise OSError(errno.ENOSPC, "No space left on device", path)

    monkeypatch.setattr(cli_mod, "write_csv", full_disk)
    assert main(["spectrum", "--degree", "3", "--n", "40", "--output_dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("resource failure: ") and len(err.splitlines()) == 1
    assert "No space left on device" in err


def test_main_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["frequencies"])


def test_run_spectrum_full_size_first_row(tmp_path):
    # at the production dimension the lowest mode is accurate for every kind
    cfg = build_config("spectrum", {}, {"degree": 2, "output_dir": str(tmp_path)})
    path = run_spectrum(cfg)
    _, body = split_csv(path)
    header = body[0].split(",")
    first = dict(zip(header, body[1].split(",")))
    assert len(body) - 1 == 248
    for col in ("err_consistent", "err_customized", "err_lumped"):
        assert float(first[col]) <= 1e-4


def test_run_annulus_outlier_reduced_path(tmp_path, monkeypatch):
    from iga_explicit.assembly import InverseFactor

    built = []
    init = InverseFactor.__init__

    def counting_init(self, n, inverse, dense):
        built.append(n)
        init(self, n, inverse, dense)

    monkeypatch.setattr(InverseFactor, "__init__", counting_init)
    cfg = build_config(
        "annulus",
        {},
        {"degree": 3, "n_elems": (8,), "mass_kind": "customized",
         "outlier_removed": True, "output_dir": str(tmp_path)},
    )
    paths = run_annulus(cfg)
    _, body = split_csv(paths[0])
    header = body[0].split(",")
    row = dict(zip(header, body[1].split(",")))
    assert row["outlier_removed"] == "True"
    assert float(row["l2_rel_error"]) < 0.1
    # two radial end constraints removed from the dof count
    full = (8 + 3 - 2) * 16
    assert float(row["sqrt_dofs"]) == pytest.approx(np.sqrt(full - 2 * 16), rel=1e-12)
    # one reduced radial mass, shared by the run and its ω_max estimate, and
    # one reduced projection
    assert built.count(7) == 2


@pytest.mark.parametrize("outlier_removed", [False, True])
def test_annulus_run_builds_its_run_operator_once(outlier_removed, monkeypatch):
    # the ω_max estimate and the stepping share one set of run terms
    from iga_explicit import assembly
    from iga_explicit.benchmarks import annulus_solution
    from iga_explicit.cli import annulus_run_single

    built = []
    build = assembly.mass_inverse_stiffness
    monkeypatch.setattr(assembly, "mass_inverse_stiffness",
                        lambda *args: built.append(args) or build(*args))
    res = annulus_run_single(annulus_solution(), 3, 8, 16, "customized", "rk4", 0.5,
                             outlier_removed)
    assert res["outlier_removed"] == outlier_removed
    assert res["steps"] > 0 and len(built) == 1


def _leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize("kind", ["galerkin_consistent", "customized"])
def test_annulus_record_holds_every_field_and_no_system(kind, monkeypatch):
    # the CSV rows and the report runs are read off one record, which
    # carries its system's metadata and keeps no system alive
    import gc
    import weakref

    import iga_explicit.cli as cli_mod
    from iga_explicit.assembly import DiscreteSystem
    from iga_explicit.benchmarks import annulus_solution
    from iga_explicit.dynamics import RunOperator

    systems = []
    build = cli_mod._annulus_system

    def tracked(*args):
        system = build(*args)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(cli_mod, "_annulus_system", tracked)
    rec = cli_mod.annulus_run_single(annulus_solution(), 3, 8, 16, kind, "rk4", 0.5)
    assert set(cli_mod.CSV_FIELDS) | set(cli_mod.REPORT_FIELDS) <= set(rec)
    assert not any(isinstance(v, (DiscreteSystem, RunOperator)) for v in _leaves(rec))
    assert rec["system_metadata"]["kappa"] == annulus_solution().kappa
    gc.collect()
    assert len(systems) == 1 and systems[0]() is None


def test_annulus_sweep_shares_one_map(monkeypatch):
    # the systems of a sweep hold one map, whose weight checks run once
    import iga_explicit.cli as cli_mod
    from iga_explicit import geometry
    from iga_explicit.benchmarks import annulus_solution

    checks = []
    weight_field = geometry.weight_field
    monkeypatch.setattr(geometry, "weight_field",
                        lambda geo: checks.append(geo) or weight_field(geo))
    cli_mod._annulus_geometry.cache_clear()
    sol = annulus_solution()
    systems = [cli_mod._annulus_system(sol, 3, n_r, 2 * n_r, kind, (3, 4))
               for n_r, kind in ((8, "customized"), (16, "galerkin_consistent"))]
    assert systems[0].geometry is systems[1].geometry
    for system in systems:
        system.geometry.radial_weight
    assert len(checks) == 1


def test_stability_limits_are_computed_once_per_process(tmp_path, monkeypatch):
    import iga_explicit.cli as cli_mod

    calls = []
    limit = cli_mod.stability_limit
    monkeypatch.setattr(cli_mod, "stability_limit",
                        lambda tableau: calls.append(tableau.name) or limit(tableau))
    cli_mod.computed_cmax.cache_clear()
    for scheme in ("rk4", "rk6"):
        run_stability(build_config("stability", {}, {"degree": 3, "n": 40, "rk_scheme": scheme,
                                                     "output_dir": str(tmp_path)}))
    assert sorted(calls) == ["rk2", "rk4", "rk6"]


def test_run_annulus_instability_flagged_not_crash(tmp_path, monkeypatch):
    # force a timestep far beyond any stability interval: the run must emit a
    # flagged row instead of raising
    import iga_explicit.cli as cli_mod

    monkeypatch.setitem(cli_mod.PAPER_CMAX, "rk4", 8.0)
    cfg = build_config(
        "annulus",
        {},
        {"degree": 3, "n_elems": (16,), "mass_kind": "customized",
         "rk_scheme": "rk4", "dt_fraction": 1.0, "output_dir": str(tmp_path)},
    )
    paths = run_annulus(cfg)
    _, body = split_csv(paths[0])
    header = body[0].split(",")
    row = dict(zip(header, body[1].split(",")))
    assert row["l2_rel_error"] == "inf"
    with open(tmp_path / "annulus_p3_report.json") as fh:
        (run,) = json.load(fh)["runs"]
    assert run["amplitude_drift"] > 1e6


def test_run_stability_single_kind(tmp_path):
    cfg = build_config(
        "stability", {}, {"degree": 3, "n": 50, "mass_kind": "customized",
                          "output_dir": str(tmp_path)}
    )
    path = run_stability(cfg)
    _, body = split_csv(path)
    rows = [dict(zip(body[0].split(","), l.split(","))) for l in body[1:]]
    assert all(r["mass_kind"] == "customized" for r in rows)
    assert all(float(r["ratio_vs_consistent"]) > 1.0 for r in rows)

"""Every number of a fixed set of CLI commands against the stored golden
outputs, and the step counts, outlier records and apply counts those runs
must keep (``make_golden_outputs.py`` runs the commands and rewrites the
file)."""

import json
import math

import pytest
from make_golden_outputs import COMMANDS, GOLDEN_PATH, RTOL, changes, run_commands

# the degree of R(z) per scheme: the run-operator applies of one step
RK_DEGREE = {"rk2": 3, "rk4": 4, "rk6": 7}

# steps per n_elems 8, 16, 32 of each kind: plain, then with outlier removal
SWEEP_STEPS = {
    3: ({"galerkin_consistent": [22, 43, 85], "customized": [17, 34, 67], "rowsum_lumped": [14, 27, 54]},
        {"galerkin_consistent": [16, 35, 70], "customized": [11, 22, 43], "rowsum_lumped": [9, 17, 34]}),
    5: ({"galerkin_consistent": [29, 58, 114], "customized": [23, 46, 91], "rowsum_lumped": [20, 39, 78]},
        {"galerkin_consistent": [13, 28, 57], "customized": [10, 19, 38], "rowsum_lumped": [8, 16, 32]}),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(str(tmp_path_factory.mktemp("golden")))


def runs(outputs, name):
    """The runs of an annulus report as dicts of its stored columns."""
    report = outputs[name]
    return [dict(zip(report["columns"], row)) for row in report["rows"]]


def test_outputs_match_the_golden_file(outputs):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert golden["commands"] == [[label, args] for label, args in COMMANDS]
    moved = {f"{name}: {column}": change
             for (name, column), change in changes(outputs, golden["outputs"]).items()
             if change > RTOL}
    assert not moved, moved


@pytest.mark.parametrize("p", [3, 5])
def test_annulus_sweep_keeps_its_step_counts(outputs, p):
    for suffix, expected in zip(("", "-outlier"), SWEEP_STEPS[p]):
        got = runs(outputs, f"annulus-p{p}{suffix}/annulus_p{p}_report.json")
        assert len(got) == 9
        assert {kind: [run["steps"] for run in got if run["mass_kind"] == kind]
                for kind in expected} == expected
        # the customized omega_max from the Fourier blocks, with no operator apply
        assert all(run["omega_method"] == "fourier_blocks" and run["phases.omega_applies"] == 0
                   for run in got if run["mass_kind"] == "customized")


def test_p2_outputs_record_the_requested_outlier_removal(outputs):
    # below degree 3 outlier removal has no constraint: every output still
    # records the outlier_removed that was asked for
    for name in ("annulus_p2_mesh8x16.csv", "annulus_p2_summary.csv"):
        out = outputs[f"annulus-p2-outlier/{name}"]
        assert out["metadata"]["outlier_removed"] == "True"
        column = out["columns"].index("outlier_removed")
        assert [row[column] for row in out["rows"]] == ["True"] * 3
    assert [run["outlier_removed"]
            for run in runs(outputs, "annulus-p2-outlier/annulus_p2_report.json")] == [True] * 3
    # stability asks for both: one row per kind and choice
    out = outputs["stability-p2/stability_p2.csv"]
    column = out["columns"].index("outlier_removed")
    assert sorted(row[column] for row in out["rows"]) == ["False"] * 3 + ["True"] * 3


def test_annulus_reports_keep_their_apply_counts(outputs):
    reports = [name for name in outputs if name.endswith("_report.json")]
    assert len(reports) == 5
    for name in reports:
        for run in runs(outputs, name):
            where = (name, run["mass_kind"], run["n_elem_radial"])
            assert isinstance(run["amplitude_drift"], float), where
            assert math.isfinite(run["amplitude_drift"]), where
            stepping = run["counters.stiffness_applies"] - run["phases.omega_applies"]
            assert stepping == run["steps"] * RK_DEGREE[run["rk_scheme"]], where
            assert run["counters.mac_ops"] == (run["counters.stiffness_applies"]
                                               * run["macs_per_apply"]), where

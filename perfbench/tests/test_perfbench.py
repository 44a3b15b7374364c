"""Tests of the benchmark's own files, on the smoke sizes."""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from iga_explicit import assembly, banded  # noqa: E402

REPEATED_COUNTS = (
    "assembly.mac_ops",
    "assembly.stiffness_apply_calls",
    "dynamics.power_iterations",
    "dynamics.rk_steps",
    "splinecore.eval_basis_calls",
)


def smoke_trace(name, seed):
    tracers = []
    passes = run.run_workload(name, seed, 0, trace=1, smoke=True, tracers=tracers)
    return passes, tracers


@pytest.fixture(scope="module")
def traced():
    return {name: smoke_trace(name, seed=1) for name in run.WORKLOADS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(traced, name):
    passes, tracers = traced[name]
    assert [p["traced"] for p in passes] == [False, True]
    result = run.result_json(passes, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.build(name, smoke=True).ops)
    want = {m[0]: m[1] for m in layers.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_span_tree_is_well_formed(traced, name):
    _, tracers = traced[name]
    spans = tracers[0].spans
    assert spans and tracing.check_tree(spans) == []
    assert min(tracing.self_times(spans)) >= -1e-9
    roots = [s for s in spans if s.parent == -1]
    assert {s.name for s in roots} == {"bench.op"}


def test_power_iteration_dominates_the_period_trace(traced):
    _, tracers = traced["annulus-period"]
    table = tracing.summarize(tracers[0].spans)
    layer_totals = {k: v["total_s"] for k, v in table.items()
                    if not k.startswith(("bench.", "cli."))}
    assert max(layer_totals, key=layer_totals.get) == "dynamics.max_frequency"


def test_layers_are_bypassed_where_the_workload_says(traced):
    period = traced["annulus-period"][0][1]["layers"]
    longtime = traced["annulus-longtime"][0][1]["layers"]
    string = traced["string-1d"][0][1]["layers"]
    assert period["dynamics.power_iterations"] > 0
    assert period["dynamics.omega_rel_err"] != 0.0
    assert longtime["dynamics.max_frequency_s"] == 0.0
    assert longtime["dynamics.outlier_solve_s"] > 0.0
    assert longtime["dynamics.rk_steps"] > 0
    assert string["assembly.stiffness_apply_calls"] == 0
    assert string["dynamics.eigensolve_s"] > 0.0


def test_timings_carry_the_speed_probe_scale(traced):
    for passes, _ in traced.values():
        scales = [t["scale"] for p in passes for t in p["times"].values()]
        assert scales and all(0.0 < s < 100.0 for s in scales)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly_between_runs(traced, name):
    first = traced[name][0][1]["layers"]
    second = smoke_trace(name, seed=2)[0][1]["layers"]
    for count in REPEATED_COUNTS:
        assert first[count] == second[count], count


def test_instrumentation_is_removed_after_a_traced_pass(traced):
    assert not hasattr(assembly.stiffness_apply, "__wrapped__")
    assert not hasattr(assembly.MassOperator.solve, "__wrapped__")
    assert not hasattr(banded.BandedSymmetricMatrix.solve, "__wrapped__")
    bound, missing = layers.bindings(sys.modules["iga_explicit"], tracing.Tracer())
    assert missing == []
    assert all(not hasattr(getattr(o, a), "__wrapped__") for o, a, _ in bound)


def test_failed_check_counts_and_the_run_goes_on():
    ref = copy.deepcopy(workloads.load_reference())
    ref["dual-p5-n30"]["s_norm"] *= 1.5
    workload = workloads.build("string-1d", smoke=True, ref=ref)
    record = run.run_pass(workload, random.Random(0), run.SpeedProbe())
    assert record["attempted"] == len(workload.ops)
    assert record["failed"] == 1
    assert any("dual-p5-n30" in msg for msg in record["problems"])


def test_customized_over_galerkin_ratio_is_checked():
    def outcome(err):
        return {"l2_rel_error": err}

    outcomes = {"p3-nr8-galerkin_consistent": outcome(1.0),
                "p3-nr8-customized": outcome(2.5),
                "p3-nr16-galerkin_consistent": outcome(1.0),
                "p3-nr16-customized": outcome(1.5)}
    assert list(workloads._check_customized_ratio(outcomes)) == ["p3-nr8-customized"]


def test_self_time_and_tree_checks():
    S = tracing.Span
    spans = [S("a", 0.0, 10.0, -1, False), S("b", 1.0, 4.0, 0, False),
             S("a", 2.0, 3.0, 1, True), S("c", 5.0, 9.0, 0, False)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = tracing.summarize(spans)
    assert table["a"] == {"calls": 2, "total_s": 10.0, "self_s": 4.0}
    assert tracing.check_tree(spans) == []
    spans[3] = S("c", 5.0, 11.0, 0, False)
    assert any("outside its parent" in p for p in tracing.check_tree(spans))


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "string-1d", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {m[0]: m[1] for m in run.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: units[k] for k in run.REPORTED_END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = proc.stdout
    for name, unit, _, _ in run.END_TO_END:
        assert f"  {name} " in text
    env_line = next(line for line in text.splitlines() if line.startswith("environment "))
    threads = json.loads(env_line.split(" ", 1)[1])["blas_threads"]
    assert threads == "unverified" or set(threads.values()) == {1}


def test_benchmark_json_agrees_with_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER
    ]
    e2e = {m[0]: m[1:3] for m in run.END_TO_END}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED_END_TO_END)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == e2e[m["name"]]
    assert spec["paths"] == ["perfbench"]


def test_exits_with_an_error_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "string-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

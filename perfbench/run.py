"""Benchmark of the iga_explicit package in this checkout.

    python3 perfbench/run.py --workload annulus-period --seed 1 --seconds 40 --trace 0

A pass runs the workload's operations in an order shuffled by ``--seed``.
The run makes one whole pass, then repeats the operations that still fit
within ``--seconds``. ``wall_s`` and ``setup_s`` are seconds per pass: the
sum over operations of each one's median repetition, scaled to the
reference speed of ``SpeedProbe``. With
``--trace 1`` whole untraced and traced passes alternate (at least one of
each). Every operation's result is checked
against stored reference values; a failed check or an exception counts as a
failed operation and does not stop the run. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. ``--smoke`` runs tiny sizes for tests.

BLAS runs on one thread so that timings do not depend on how many cores are
free. The package is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("annulus-period", "annulus-longtime", "string-1d")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics: name, unit, better, workloads. BENCHMARK.json lists the
# ones that are measured, and non-zero, on every workload: string-1d does no
# time stepping, and ops_failed_frac is zero on a healthy run, so it reaches
# the JSON result as "attempted" and "failed" instead.
END_TO_END = [
    ("wall_s", "s", "lower", "all"),
    ("setup_s", "s", "lower", "all"),
    ("peak_rss_mb", "MB", "lower", "all"),
    ("dof_steps_per_s", "1/s", "higher", "annulus-longtime"),
    ("ops_failed_frac", "fraction", "lower", "all"),
]
REPORTED_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


class PackageMissing(RuntimeError):
    pass


def load_package():
    """Import iga_explicit from this checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "iga_explicit" / "__init__.py").is_file():
        raise PackageMissing(f"no iga_explicit package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import iga_explicit

    if Path(iga_explicit.__file__).resolve().parent != (src / "iga_explicit").resolve():
        raise PackageMissing(f"iga_explicit was imported from {iga_explicit.__file__}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return iga_explicit


def pin_blas_threads():
    """One BLAS thread; effective only before numpy is first imported."""
    for var in BLAS_THREAD_VARIABLES:
        os.environ[var] = "1"


def blas_threads():
    """Threads each loaded OpenBLAS reports ({} when none can be queried)."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads() or "unverified",
    }


class SpeedProbe:
    """A fixed kernel shaped like the annulus layers, timed around each
    operation: sparse evaluation-matrix products on a coefficient grid, a
    pointwise weighting, and a banded Cholesky solve.

    The machine this benchmark was written on runs such code up to 1.8
    times slower when other tenants load it, switching within seconds, which
    moved one-run timings by 16-30% (interquartile range over seeds).
    Scaling each operation's time by REFERENCE_S over the probe's time
    around it brought the annulus workloads to 3-8% and string-1d from 21%
    to 8%; a plain matrix-vector loop as the probe only reached 11-13%.
    """

    REFERENCE_S = 0.004  # the probe's typical time on that 2-vCPU x86-64 VM

    def __init__(self):
        import numpy as np
        import scipy.sparse

        def evaluation(n_points, n_functions):
            # four neighbouring functions per point, like cubic B-splines
            first = np.arange(n_points) * (n_functions - 3) // n_points
            cols = (first[:, None] + np.arange(4)).ravel()
            rows = np.repeat(np.arange(n_points), 4)
            return scipy.sparse.csr_matrix((np.full(rows.size, 0.25), (rows, cols)),
                                           shape=(n_points, n_functions))

        rng = np.random.default_rng(0)
        self.e1, self.e2 = evaluation(160, 36), evaluation(320, 64)
        self.weights = rng.standard_normal((160, 320))
        self.grid = rng.standard_normal((36, 64))
        self.bands = np.vstack([np.full(36, 0.1)] * 3 + [np.full(36, 4.0)])

    def _kernel(self):
        import scipy.linalg

        out = None
        for _ in range(6):
            values = (self.e2 @ (self.e1 @ self.grid).T).T
            weighted = self.weights * values
            moments = self.e1.T @ (self.e2.T @ weighted.T).T
            factor = scipy.linalg.cholesky_banded(self.bands)
            out = scipy.linalg.cho_solve_banded((factor, False), moments)
        return out

    def sample(self, reps=5):
        """Median time of ``reps`` kernel runs."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return sorted(times)[reps // 2]


def run_pass(workload, rng, probe, tracer=None, fits=None):
    """One pass over the shuffled operations; returns its record.

    ``fits(op)``, if given, decides whether an operation still fits in the
    run; operations that do not are skipped. Each operation's timings carry
    the factor that scales them to the probe's reference speed.
    """
    import layers
    from tracing import instrument

    order = list(workload.ops)
    rng.shuffle(order)
    outcomes, times, durations, problems, failed = {}, {}, {}, [], set()
    speed_before = probe.sample()
    traced = tracer is not None
    if traced:
        bound, _ = layers.bindings(sys.modules["iga_explicit"], tracer)
        scope = instrument(tracer, bound)
    else:
        scope = contextlib.nullcontext()
    with scope:
        for op in order:
            if fits is not None and not fits(op):
                continue
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op") if traced else contextlib.nullcontext():
                    out = op.run()
                wall = durations[op.key] = time.perf_counter() - t0
                with tracer.pause() if traced else contextlib.nullcontext():
                    found = op.check(out)
            except Exception:  # one operation's failure must not end the run
                durations.setdefault(op.key, time.perf_counter() - t0)
                traceback.print_exc(file=sys.stderr)
                problems.append(f"{op.key}: raised")
                failed.add(op.key)
                continue
            finally:
                speed_after = probe.sample()
                scale = probe.REFERENCE_S / (0.5 * (speed_before + speed_after))
                speed_before = speed_after
            outcomes[op.key] = out
            times[op.key] = {"wall_s": wall, "setup_s": out["setup_s"],
                             "stepping_s": out.get("stepping_s", 0.0),
                             "dof_steps": out.get("dof_steps", 0), "scale": scale}
            if found:
                problems.extend(found)
                failed.add(op.key)
    for key, found in workload.check_pass(outcomes).items():
        problems.extend(found)
        failed.add(key)
    record = {
        "traced": traced,
        "times": times,  # operations that returned
        "durations": durations,  # every attempt, failed ones too
        "attempted": len(durations),
        "failed": len(failed),
        "problems": problems,
        "outcomes": outcomes,
    }
    if traced:
        record["layers"] = layers.pass_metrics(tracer.spans, tracer.counts,
                                               list(outcomes.values()))
    return record


def run_workload(name, seed, seconds, trace, smoke=False, tracers=None):
    """All passes of one run. ``tracers``, if a list, receives each traced
    pass's Tracer (for inspection by tests).

    Untraced runs make one whole pass, then keep drawing shuffled passes and
    run each operation whose fastest time so far still fits before the end
    of ``seconds``. Traced runs alternate whole untraced and traced passes.
    """
    import workloads
    from tracing import Tracer

    workload = workloads.build(name, smoke)
    probe = SpeedProbe()
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    deadline = start + seconds

    def fits(op):
        fastest = min(p["durations"][op.key] for p in passes if op.key in p["durations"])
        return time.perf_counter() + fastest <= deadline

    try:
        if not trace:
            passes.append(run_pass(workload, rng, probe))
            while passes[-1]["attempted"]:
                passes.append(run_pass(workload, rng, probe, fits=fits))
            passes.pop()  # nothing fitted any more
        while trace:
            t0 = time.perf_counter()
            for tracer in (None, Tracer()):
                passes.append(run_pass(workload, rng, probe, tracer))
                if tracers is not None and tracer is not None:
                    tracers.append(tracer)
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    finally:
        workloads.remove_scratch()
    return passes


def per_pass(passes, scaled=True):
    """Seconds per pass: sums over operations of each one's median
    repetition, scaled to the probe's reference speed unless ``scaled`` is
    false; and the dof-steps of one pass."""
    samples = {}
    for p in passes:
        for key, t in p["times"].items():
            samples.setdefault(key, []).append(t)
    out = {
        m: sum(statistics.median(t[m] * (t["scale"] if scaled else 1.0) for t in ts)
               for ts in samples.values())
        for m in ("wall_s", "setup_s", "stepping_s")
    }
    out["dof_steps"] = sum(ts[0]["dof_steps"] for ts in samples.values())
    return out


def end_to_end(passes):
    one = per_pass([p for p in passes if not p["traced"]])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": one["wall_s"],
        "setup_s": one["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dof_steps_per_s": (one["dof_steps"] / one["stepping_s"]
                            if one["stepping_s"] else None),
        "ops_failed_frac": failed / attempted,
    }


def per_layer(passes):
    import layers

    traced = [p for p in passes if p["traced"]]
    metrics = layers.median_metrics([p["layers"] for p in traced])
    untraced_wall = per_pass([p for p in passes if not p["traced"]])["wall_s"]
    metrics["trace.overhead_frac"] = (
        per_pass(traced)["wall_s"] / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    return metrics


def report(name, args, env, passes, tracers):
    """Human-readable lines before the JSON result."""
    import layers
    from tracing import summarize

    lines = [f"workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
             + (" smoke" if args.smoke else ""),
             "environment " + json.dumps(env, sort_keys=True)]
    for i, p in enumerate(passes, 1):
        wall = sum(t["wall_s"] for t in p["times"].values())
        setup = sum(t["setup_s"] for t in p["times"].values())
        lines.append(f"pass {i} {'traced' if p['traced'] else 'untraced'}: "
                     f"wall {wall:.4f} s, setup {setup:.4f} s, "
                     f"ops {p['attempted']}, failed {p['failed']}")
        lines.extend(f"  problem: {msg}" for msg in p["problems"])
    latest = {}
    for p in passes:
        latest.update(p["outcomes"])
    for key, out in sorted(latest.items()):
        shown = {k: v for k, v in out.items() if isinstance(v, (int, float))}
        lines.append(f"op {key} " + " ".join(f"{k}={v:.6g}" for k, v in shown.items()))
    e2e = end_to_end(passes)
    untraced = sum(not p["traced"] for p in passes)
    lines.append("end-to-end metrics (each operation's median over "
                 f"{untraced} untraced passes, summed; times scaled to the speed probe):")
    for metric, unit, _, _ in END_TO_END:
        value = e2e[metric]
        shown = "n/a (no stepping on this workload)" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {metric:<18} {shown}")
    raw = per_pass([p for p in passes if not p["traced"]], scaled=False)
    lines.append(f"  unscaled: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s")
    if args.trace:
        table = summarize(tracers[-1].spans)
        traced_wall = sum(t["wall_s"] for t in passes[-1]["times"].values())
        lines.append("spans of the last traced pass: calls, total s, self s, share of wall")
        for span, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
            lines.append(f"  {span:<34} {row['calls']:>8} {row['total_s']:>10.4f} "
                         f"{row['self_s']:>10.4f} {row['total_s'] / traced_wall:>7.1%}")
        _, missing = layers.bindings(sys.modules["iga_explicit"], tracers[-1])
        if missing:
            lines.append("untraced (absent in the package): " + ", ".join(missing))
        lines.append(f"per-layer metrics (medians of {len(passes) - untraced} traced passes; "
                     "times unscaled):")
        units = {m[0]: m[1] for m in layers.PER_LAYER}
        for metric, value in per_layer(passes).items():
            lines.append(f"  {metric:<34} {value:.6g} {units[metric]}")
    return lines


def result_json(passes, trace):
    import layers

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        values = per_layer(passes)
        specs = [(m[0], m[1]) for m in layers.PER_LAYER]
    else:
        values = end_to_end(passes)
        specs = [(m[0], m[1]) for m in END_TO_END if m[0] in REPORTED_END_TO_END]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    try:
        load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    env = environment()
    tracers = []
    passes = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke,
                          tracers)
    for line in report(args.workload, args, env, passes, tracers):
        print(line)
    print(json.dumps(result_json(passes, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

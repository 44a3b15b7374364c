"""The golden outputs: every number of a fixed set of CLI commands.

    PYTHONPATH=src python3 tests/make_golden_outputs.py

runs ``COMMANDS`` in this process through ``cli.main``, rewrites
``tests/golden_outputs.json`` and prints, for each output and column, the
largest relative change against the file it replaces. Run it only when the
package's numbers are meant to change; ``tests/test_golden_outputs.py``
compares every later run against the file.

Stored per output: the CSV metadata lines and every CSV cell but
``wall_seconds``; for the annulus reports every run field that is not a
timing (the ``phases`` ending in ``_s`` are left out), nested fields as
``field.key`` columns. Cells are parsed as int, then float, else kept as
strings. Compared: strings, integers, booleans and nulls exactly, floats to
``RTOL`` relative.

Run as a script, it sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before numpy loads: the stored numbers are those of
one BLAS thread, and at two threads 12 of the 881 ``stability-p5`` columns
(``dt_crit`` and ``ratio_vs_consistent``) move by 4.1e-13. Imported by the
test, it leaves the environment alone.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import math
import os
import sys
import tempfile

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

from iga_explicit import cli  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")
RTOL = 1e-11

# (label, arguments): each command writes into its own directory ``label``
COMMANDS = [
    *((f"annulus-p{p}{suffix}", ["annulus", "--degree", str(p), "--n_elems", "8,16,32",
                                 "--mass_kind", "all", *extra])
      for p in (3, 5)
      for suffix, extra in (("", []), ("-outlier", ["--outlier_removed", "true"]))),
    ("annulus-p2-outlier", ["annulus", "--degree", "2", "--n_elems", "8", "--mass_kind", "all",
                            "--outlier_removed", "true"]),
    *((f"spectrum-p{p}{suffix}", ["spectrum", "--degree", str(p), "--n", "40", *extra])
      for p in (3, 5)
      for suffix, extra in (("", []), ("-outlier", ["--outlier_removed", "true"]))),
    *((f"project-p{p}", ["project", "--degree", str(p), "--n_values", "10,20,40"])
      for p in (3, 5)),
    *((f"stability-p{p}", ["stability", "--degree", str(p), "--n", "120"])
      for p in (2, 3, 4, 5)),
]


def cell(text):
    """A CSV cell or metadata value as int, float or string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    metadata = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    keep = [k for k, name in enumerate(header) if name != "wall_seconds"]
    return {"metadata": {key: cell(value) for key, value in metadata.items()},
            "columns": [header[k] for k in keep],
            "rows": [[cell(row[k]) for k in keep] for row in rows]}


def flatten(run):
    """A report run's fields, nested ones as ``field.key``, timings left out."""
    out = {}
    for field, value in run.items():
        if isinstance(value, dict):
            out.update((f"{field}.{key}", v) for key, v in value.items()
                       if not (field == "phases" and key.endswith("_s")))
        else:
            out[field] = value
    return out


def read_report(path):
    with open(path) as fh:
        runs = [flatten(run) for run in json.load(fh)["runs"]]
    columns = list(runs[0])
    return {"metadata": {}, "columns": columns,
            "rows": [[run[c] for c in columns] for run in runs]}


def run_commands(out_dir):
    """Run every command into ``out_dir``; its outputs keyed ``label/file``."""
    outputs = {}
    for label, args in COMMANDS:
        where = os.path.join(out_dir, label)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*args, "--output_dir", where])
        if code != 0:
            raise RuntimeError(f"{' '.join(args)} exited {code}")
        for path in sorted(glob.glob(os.path.join(where, "*"))):
            name = os.path.basename(path)
            read = read_report if name.endswith(".json") else read_csv
            outputs[f"{label}/{name}"] = read(path)
    return outputs


def relative_change(got, want):
    """0 for equal cells, the relative change of two floats, inf otherwise."""
    if type(got) is not type(want):
        return math.inf
    if isinstance(want, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return 0.0
        return abs(got - want) / abs(want) if want not in (0.0, math.inf, -math.inf) else math.inf
    return 0.0 if got == want else math.inf


def changes(got, want):
    """{(output, column): largest relative change}, over the outputs and
    columns of either; a missing output, column or row is an inf change."""
    table = {}
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            table[name, "(output)"] = math.inf
            continue
        g, w = got[name], want[name]
        for key in sorted(set(g["metadata"]) | set(w["metadata"])):
            if key in g["metadata"] and key in w["metadata"]:
                change = relative_change(g["metadata"][key], w["metadata"][key])
            else:
                change = math.inf
            table[name, f"# {key}"] = change
        if g["columns"] != w["columns"] or len(g["rows"]) != len(w["rows"]):
            table[name, "(columns or rows)"] = math.inf
            continue
        for k, column in enumerate(w["columns"]):
            table[name, column] = max(relative_change(gr[k], wr[k])
                                      for gr, wr in zip(g["rows"], w["rows"]))
    return table


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        outputs = run_commands(out_dir)
    old = None
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            old = json.load(fh)["outputs"]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"commands": [[label, args] for label, args in COMMANDS], "rtol": RTOL,
                   "outputs": outputs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(outputs)} outputs to {GOLDEN_PATH}")
    if old is None:
        return 0
    table = changes(outputs, old)
    print("largest relative change per output and column (0 where identical):")
    for (name, column), change in table.items():
        print(f"  {name}  {column}: {change:.3g}")
    moved = sum(change > 0.0 for change in table.values())
    print(f"{moved} of {len(table)} columns changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run a fixed list of rissync sweeps on two source trees and report the drift.

    python3 tools/compare_sweeps.py PARENT_TREE CHANGE_TREE

Each tree is a checkout that holds ``src/rissync``. Every spec in ``SPECS``
and the ``convergence`` traces in ``TRACES`` run once per tree, with
``PYTHONPATH=TREE/src`` and ``OPENBLAS_NUM_THREADS=1``. For each output file
the script prints ``identical`` when the bytes match; otherwise, for every
(metric, column) that moved, the largest relative drift
``|a - b| / max(|a|, |b|)`` over its rows. It exits 1 when an output's row
keys, ``trials`` or ``excluded`` differ between the trees, and 0 otherwise;
when a trace's length differs it also prints both iteration counts and the
relative drift of the final objective. Standard library only.
"""
from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tempfile

_ESTIMATION = ["--kind", "estimation", "--scenario", "rayleigh", "--surfaces", "2",
               "--nx", "4", "--ny", "4", "--offset-model", "uniform",
               "--snr-db", "0,10,20,30", "--trials", "1"]
_DESIGN = ["--kind", "design", "--nx", "4", "--ny", "2", "--offset-model", "common-delta",
           "--trials", "20", "--seed", "77"]
_ASYNC = ["--kind", "async", "--surfaces", "2", "--nx", "2", "--ny", "1",
          "--delta-max", "0.3", "--snr-db", "0,10,20", "--trials", "5", "--seed", "7"]

# output name -> arguments of `rissync sweep`
SPECS = {
    "estimation-101": _ESTIMATION + ["--seed", "101"],
    "estimation-102": _ESTIMATION + ["--seed", "102"],
    "estimation-103": _ESTIMATION + ["--seed", "103"],
    "estimation-a11": ["--kind", "estimation", "--surfaces", "2", "--nx", "2", "--ny", "1",
                       "--snr-db", "0,10", "--trials", "3", "--seed", "42"],
    "estimation-mmwave-k4": ["--kind", "estimation", "--scenario", "mmwave", "--surfaces", "4",
                             "--nx", "2", "--ny", "1", "--snr-db", "0,20", "--trials", "3",
                             "--seed", "5"],
    "estimation-common-delta-k3": ["--kind", "estimation", "--surfaces", "3", "--nx", "2",
                                   "--ny", "1", "--offset-model", "common-delta",
                                   "--delta-max", "0.3", "--snr-db", "0,20", "--trials", "3",
                                   "--seed", "9"],
    "crlb-bench": ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "4", "--nx", "4",
                   "--ny", "4", "--offset-model", "uniform", "--snr-db", "0,10,20,30",
                   "--trials", "25", "--seed", "101"],
    "crlb-mmwave-nonsquare": ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "3",
                              "--nx", "8", "--ny", "2", "--snr-db", "0,20", "--trials", "10",
                              "--seed", "3"],
    "crlb-grid": ["--kind", "crlb", "--surfaces", "2", "--nx", "4", "--ny", "2",
                  "--snr-db=-10,0,5,10,15,20,25,30,40", "--trials", "200", "--seed", "1"],
    "async-uniform": _ASYNC + ["--offset-model", "uniform"],
    "async-common-delta": _ASYNC + ["--offset-model", "common-delta"],
    "async-k3": ["--kind", "async", "--surfaces", "3", "--nx", "2", "--ny", "2",
                 "--snr-db", "0,10,20,30", "--trials", "20", "--seed", "13"],
    "design-bench": ["--kind", "design", "--scenario", "rayleigh", "--surfaces", "2",
                     "--nx", "8", "--ny", "4", "--offset-model", "common-delta",
                     "--delta-max", "0.3", "--algorithm", "accelerated", "--snr-db", "10",
                     "--trials", "1", "--seed", "0"],
    "design-B": _DESIGN + ["--surfaces", "2", "--snr-db", "0,10,20"],
    "design-C": _DESIGN + ["--surfaces", "4", "--snr-db", "10"],
}

# output-name prefix -> arguments of `rissync convergence`; it writes the
# design loop's trace to PREFIX-accelerated.csv.
TRACES = {
    "convergence": ["--surfaces", "2", "--nx", "4", "--ny", "1", "--snr-db", "0",
                    "--seed", "4"],
    "convergence-bench": ["--surfaces", "2", "--nx", "8", "--ny", "4",
                          "--offset-model", "common-delta", "--delta-max", "0.3",
                          "--snr-db", "10", "--seed", "0"],
}


def _run(tree: str, args: list, out: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "rissync.cli", *args, "--out", out]
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {tree} (exit {done.returncode}):\n{done.stderr}")


def outputs(tree: str, work: str) -> dict:
    """Run every spec on one tree; output name -> CSV text."""
    texts = {}
    for name, args in SPECS.items():
        path = os.path.join(work, f"{name}.csv")
        _run(tree, ["sweep", *args], path)
        with open(path, encoding="utf-8") as fh:
            texts[name] = fh.read()
    for name, args in TRACES.items():
        prefix = os.path.join(work, name)
        _run(tree, ["convergence", *args], prefix)
        with open(f"{prefix}-accelerated.csv", encoding="utf-8") as fh:
            texts[f"{name}-accelerated"] = fh.read()
    return texts


def _drift(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def compare(old: str, new: str) -> tuple[list, dict]:
    """Structural differences and {(metric, column): largest relative drift}.

    Sweep CSVs are keyed by (snr_db, metric) and must agree exactly on
    ``trials`` and ``excluded``; trace CSVs are keyed by iteration.
    """
    old_rows = list(csv.DictReader(io.StringIO(old)))
    new_rows = list(csv.DictReader(io.StringIO(new)))
    sweep = "metric" in (old_rows[0] if old_rows else {})
    keys, exact, values = ((("snr_db", "metric"), ("trials", "excluded"), ("mean", "stderr"))
                           if sweep else (("iteration",), (), ("objective",)))
    if [[r[k] for k in keys] for r in old_rows] != [[r[k] for k in keys] for r in new_rows]:
        if sweep or not (old_rows and new_rows):
            return ["row keys differ"], {}
        last, now = old_rows[-1], new_rows[-1]
        drift = _drift(float(last["objective"]), float(now["objective"]))
        return [f"row keys differ: {last['iteration']} -> {now['iteration']} iterations, "
                f"final objective drift {drift:.3e}"], {}
    problems = [f"{r['snr_db']} dB {r['metric']}: {col} {r[col]} -> {s[col]}"
                for r, s in zip(old_rows, new_rows) for col in exact if r[col] != s[col]]
    drifts = {}
    for r, s in zip(old_rows, new_rows):
        for col in values:
            moved = _drift(float(r[col]), float(s[col]))
            group = (r["metric"] if sweep else "trace", col)
            if moved > 0.0:
                drifts[group] = max(drifts.get(group, 0.0), moved)
    return problems, drifts


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        runs = []
        for i, tree in enumerate(argv):
            os.mkdir(os.path.join(work, str(i)))
            runs.append(outputs(tree, os.path.join(work, str(i))))
    failed = False
    for name, old in runs[0].items():
        new = runs[1][name]
        if old == new:
            print(f"{name}: identical")
            continue
        problems, drifts = compare(old, new)
        failed = failed or bool(problems)
        if not (problems or drifts):
            print(f"{name}: bytes differ, values equal")
        for problem in problems:
            print(f"{name}: DIFFERS {problem}")
        for (metric, col), moved in sorted(drifts.items()):
            print(f"{name}: {metric} {col} {moved:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

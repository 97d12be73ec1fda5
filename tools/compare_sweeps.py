#!/usr/bin/env python3
"""Run a fixed list of rissync sweeps on two source trees and report the drift.

    python3 tools/compare_sweeps.py PARENT_TREE CHANGE_TREE

Each tree is a checkout that holds ``src/rissync``. Per tree, one child
process (``write_outputs``) runs in the tree's directory with
``PYTHONPATH=TREE/src`` and ``OPENBLAS_NUM_THREADS=1``, so the
``config-example`` spec reads each tree's own ``configs/example.cfg``.
Through ``cli.main`` it runs every spec in ``SPECS`` and every
``convergence`` trace in ``TRACES`` once, and counts two outputs as they run:

- ``design-loops``: per ``--kind design`` spec, the iterations of every
  design loop it runs, in call order, each marked ``*`` when that loop
  stopped without converging;
- ``work``: per spec and trace, the ``WORK_COUNTERS`` that moved from 0:
  pulse values evaluated, surrogate anchors, Wiener solves, ``crlb`` calls
  and the bound rows they hold, trial streams, and calls of numpy's ``fft``
  and ``ifft`` (wrapped in ``numpy.fft`` itself, which the child's
  ``rissync`` reaches as ``np.fft``). One process per tree means that a
  cache fills, and counts, in the first run that needs it.

Last it writes the ``pulse`` output: the raw float64 bytes of the functions
in ``PULSE_FUNCTIONS`` at fixed points and of those in
``STEERING_FUNCTIONS`` at fixed offsets, with an index of how many values
each function wrote (``write_pulse_values``); a function the tree lacks
writes nothing. A run that fails stops the script with the child's error.

For each output the script prints ``identical`` when the bytes match;
otherwise, for every (metric, column) that moved, or every pulse function,
the largest relative drift ``|a - b| / max(|a|, |b|)`` over its rows or
values. It exits 1 when an output's row keys, ``trials`` or ``excluded``
differ between the trees, or the pulse index or a pulse value's finiteness,
and 0 otherwise; when a trace's length differs it also prints both
iteration counts and the relative drift of the final objective. When
``design-loops`` or ``work`` differ it prints each moved line before and
after, for example ``design-loops: design-bench 20 17 -> 20 29``; that does
not affect the exit status either. Last it prints
``src/rissync lines: PARENT -> CHANGE``, the newlines in each tree's
``src/rissync/*.py`` as ``wc -l`` counts them; they do not affect the exit
status. Standard library only; the child imports the tree's ``rissync`` and
numpy.
"""
from __future__ import annotations

import bisect
import csv
import glob
import importlib
import io
import math
import os
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from pathlib import Path

_ESTIMATION = ["--kind", "estimation", "--scenario", "rayleigh", "--surfaces", "2",
               "--nx", "4", "--ny", "4", "--offset-model", "uniform",
               "--snr-db", "0,10,20,30", "--trials", "1"]
_DESIGN = ["--kind", "design", "--nx", "4", "--ny", "2", "--offset-model", "common-delta",
           "--trials", "20", "--seed", "77"]

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
    "estimation-k4-4x4": ["--kind", "estimation", "--scenario", "rayleigh", "--surfaces", "4",
                          "--nx", "4", "--ny", "4", "--offset-model", "uniform",
                          "--snr-db", "0,20", "--trials", "3", "--seed", "21"],
    "estimation-k4-8x8": ["--kind", "estimation", "--surfaces", "4", "--nx", "8", "--ny", "8",
                          "--snr-db", "0,20", "--trials", "2"],
    "estimation-common-delta-k3": ["--kind", "estimation", "--surfaces", "3", "--nx", "2",
                                   "--ny", "1", "--offset-model", "common-delta",
                                   "--delta-max", "0.3", "--snr-db", "0,20", "--trials", "3",
                                   "--seed", "9"],
    "estimation-grid9": ["--kind", "estimation", "--surfaces", "2", "--nx", "2", "--ny", "1",
                         "--snr-db=-10,0,5,10,15,20,25,30,40", "--trials", "5"],
    # the ML threshold region: at K=2, 4x4 the estimate rows leave their
    # bound rows below about -20 dB (README, Metrics)
    "estimation-threshold": ["--kind", "estimation", "--surfaces", "2", "--nx", "4", "--ny", "4",
                             "--snr-db=-30,-20,-10,0", "--trials", "20"],
    "estimation-k1": ["--kind", "estimation", "--surfaces", "1", "--nx", "4", "--ny", "2",
                      "--snr-db", "10", "--trials", "3"],
    # N*K = 13, a prime: the training's FFTs take numpy's Bluestein path
    "estimation-prime-13": ["--kind", "estimation", "--surfaces", "1", "--nx", "13", "--ny", "1",
                            "--snr-db", "0,20", "--trials", "3"],
    # 70 trials span three of the sweeps' blocks of trials bounded together
    "estimation-blocks": ["--kind", "estimation", "--surfaces", "2", "--nx", "2", "--ny", "1",
                          "--snr-db", "0,20", "--trials", "70"],
    "crlb-bench": ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "4", "--nx", "4",
                   "--ny", "4", "--offset-model", "uniform", "--snr-db", "0,10,20,30",
                   "--trials", "25", "--seed", "101"],
    "crlb-mmwave-nonsquare": ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "3",
                              "--nx", "8", "--ny", "2", "--snr-db", "0,20", "--trials", "10",
                              "--seed", "3"],
    # 70 trials span three blocks: the one crlb spec whose mmWave draws cross a block boundary
    "crlb-mmwave-blocks": ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "4",
                           "--nx", "4", "--ny", "4", "--offset-model", "common-delta",
                           "--snr-db", "0,20", "--trials", "70"],
    # N*K = 1024 over 40 trials, two blocks: the factored mmWave draw and the
    # stacked bound at the largest size any spec reaches
    "crlb-mmwave-16x16": ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "4",
                          "--nx", "16", "--ny", "16", "--snr-db", "0,20", "--trials", "40"],
    "crlb-grid": ["--kind", "crlb", "--surfaces", "2", "--nx", "4", "--ny", "2",
                  "--snr-db=-10,0,5,10,15,20,25,30,40", "--trials", "200", "--seed", "1"],
    "async-mmwave": ["--kind", "async", "--scenario", "mmwave", "--surfaces", "3", "--nx", "2",
                     "--ny", "2", "--delta-max", "0.3", "--snr-db", "0,20", "--trials", "5",
                     "--seed", "11"],
    "async-common-delta": ["--kind", "async", "--surfaces", "2", "--nx", "2", "--ny", "1",
                           "--offset-model", "common-delta", "--delta-max", "0.3",
                           "--snr-db", "0,10,20", "--trials", "5", "--seed", "7"],
    "async-k3": ["--kind", "async", "--surfaces", "3", "--nx", "2", "--ny", "2",
                 "--snr-db", "0,10,20,30", "--trials", "20", "--seed", "13"],
    # K=1: the joint and single-offset estimators are the same estimator
    "async-k1": ["--kind", "async", "--surfaces", "1", "--nx", "4", "--ny", "2",
                 "--snr-db", "0,20", "--trials", "5"],
    "design-bench": ["--kind", "design", "--scenario", "rayleigh", "--surfaces", "2",
                     "--nx", "8", "--ny", "4", "--offset-model", "common-delta",
                     "--delta-max", "0.3", "--algorithm", "accelerated", "--snr-db", "10",
                     "--trials", "1", "--seed", "0"],
    "design-B": _DESIGN + ["--surfaces", "2", "--snr-db", "0,10,20"],
    "design-C": _DESIGN + ["--surfaces", "4", "--snr-db", "10"],
    # N*K = 256, where random phases beat phase-aligned ones
    "design-k4-8x8": ["--kind", "design", "--surfaces", "4", "--nx", "8", "--ny", "8",
                      "--offset-model", "common-delta", "--delta-max", "0.3", "--snr-db", "10",
                      "--trials", "8", "--seed", "77"],
    # N*K = 1024, trial 0 only (trial 1 alone runs about ten times longer):
    # the design trial at the largest size any spec reaches
    "design-k4-16x16": ["--kind", "design", "--surfaces", "4", "--nx", "16", "--ny", "16",
                        "--offset-model", "common-delta", "--delta-max", "0.3",
                        "--snr-db", "10", "--trials", "1", "--seed", "0"],
    "config-example": ["--config", "configs/example.cfg", "--trials", "3"],
}

# output-name prefix -> arguments of `rissync convergence`; it writes the
# design loop's trace to PREFIX-accelerated.csv.
TRACES = {
    "convergence": ["--surfaces", "2", "--nx", "4", "--ny", "1", "--snr-db", "0",
                    "--seed", "4"],
    "convergence-bench": ["--surfaces", "2", "--nx", "8", "--ny", "4",
                          "--offset-model", "common-delta", "--delta-max", "0.3",
                          "--snr-db", "10", "--seed", "0"],
    "convergence-grid": ["--surfaces", "2", "--nx", "4", "--ny", "1", "--snr-db", "20,0,10",
                         "--seed", "4"],
}

# The `pulse` output holds each of these functions of `rissync.pulse`, in
# turn, at every rolloff and span below, on the points of `_pulse_points`.
PULSE_FUNCTIONS = ("rrc_impulse", "rrc_impulse_deriv")
PULSE_ROLLOFFS = (0.1, 0.22, 0.25, 0.35, 0.5, 1.0)
PULSE_SPANS = (2, 4, 6)
# ... then each of these, at every oversampling below, on one stack of these
# offsets: the edges are rissync.pulse._OFFSET_EDGE, the largest accepted.
STEERING_FUNCTIONS = ("steering_matrix", "steering_matrix_deriv")
STEERING_OVERSAMPLINGS = (2, 3)
STEERING_OFFSETS = (0.0, 0.3, -0.77, 0.5, 1.0 / 3.0, -(1.0 - 1e-9), 1.0 - 1e-9)

# The `work` output: (counter, module, function, the work one call of the
# function adds, read off the call's arguments).
WORK_COUNTERS = (
    ("pulse_values", "rissync.pulse", "rrc_impulse", lambda t, *_, **__: getattr(t, "size", 1)),
    ("pulse_values", "rissync.pulse", "rrc_impulse_deriv",
     lambda t, *_, **__: getattr(t, "size", 1)),
    ("anchors", "rissync.design", "surrogate_anchor", lambda *_, **__: 1),
    ("wiener_solves", "rissync.design", "_wiener", lambda *_, **__: 1),
    ("crlb_calls", "rissync.crlb", "crlb", lambda *_, **__: 1),
    ("bound_rows", "rissync.crlb", "crlb",
     lambda offsets, *_, **__: math.prod(getattr(offsets, "shape", (0,))[:-1])),
    ("streams", "rissync.harness", "_stream", lambda *_, **__: 1),
    ("ffts", "numpy.fft", "fft", lambda *_, **__: 1),
    ("ffts", "numpy.fft", "ifft", lambda *_, **__: 1),
)

def _pulse_points(rolloff: float, span: int):
    """A 1e-3 grid one symbol past the support; around 0, both removable
    singularities and the support's end, a 5e-6 grid over twice the
    series switch radius and the nearest three floats on each side; then all
    of it mirrored, which makes -0.0 one of the points."""
    import numpy as np

    centres = np.array([0.0, 1.0 / (4.0 * rolloff), 1.0 / (2.0 * rolloff), float(span)])
    neighbours = [centres]
    for direction in (np.inf, -np.inf):
        step = centres
        for _ in range(3):
            step = np.nextafter(step, direction)
            neighbours.append(step)
    near = (centres[:, None] + np.linspace(-2e-3, 2e-3, 801)).ravel()
    grid = np.arange(-(span + 1) * 1000, (span + 1) * 1000 + 1) / 1000.0
    points = np.concatenate([grid, near, *neighbours])
    return np.concatenate([points, -points])


def _pulse_values():
    """(function name, values) of the ``pulse`` output, in order."""
    import numpy as np
    from rissync import PulseConfig, pulse

    for name in (name for name in PULSE_FUNCTIONS if hasattr(pulse, name)):
        for rolloff in PULSE_ROLLOFFS:
            for span in PULSE_SPANS:
                yield name, getattr(pulse, name)(_pulse_points(rolloff, span),
                                                 PulseConfig(rolloff=rolloff, span=span))
    for name in (name for name in STEERING_FUNCTIONS if hasattr(pulse, name)):
        for oversampling in STEERING_OVERSAMPLINGS:
            yield name, getattr(pulse, name)(np.array(STEERING_OFFSETS),
                                             PulseConfig(oversampling=oversampling))


def write_pulse_values(path: str):
    """Write the ``pulse`` output of the ``rissync`` on the import path: the
    values to ``path`` and one line ``name count`` per function to
    ``path.txt``."""
    counts = {}
    with open(path, "wb") as fh:
        for name, values in _pulse_values():
            fh.write(values.tobytes())
            counts[name] = counts.get(name, 0) + values.size
    with open(f"{path}.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {count}\n" for name, count in counts.items())


def _wrap(module: str, name: str, wrapper):
    """Point every reference to ``<module>.<name>`` that ``module`` or a
    ``rissync`` module holds at ``wrapper(function)``; a name the tree lacks
    is skipped. The module comes through ``importlib``, since ``rissync.crlb``
    is also the name of a function."""
    original = getattr(importlib.import_module(module), name, None)
    if original is None:
        return
    replacement = wrapper(original)
    for key, held in list(sys.modules.items()):
        if key in (module, "rissync") or key.startswith("rissync."):
            for attr, value in list(vars(held).items()):
                if value is original:
                    setattr(held, attr, replacement)


def write_outputs(work: str):
    """Write every output of the ``rissync`` on the import path into the
    directory ``work``, in this one process: each spec's CSV and each trace
    through ``cli.main``, then ``design-loops.txt`` and ``work.txt`` (one line
    per run, as counted while it ran), then ``pulse.bin``."""
    from rissync import cli

    loops, counts = [], Counter()

    def looped(design):
        def counted(problem):
            result = design(problem)
            loops.append(f"{result.iterations}{'' if result.converged else '*'}")
            return result
        return counted

    def counting(counter, measure):
        def wrapper(function):
            def counted(*args, **kwargs):
                counts[counter] += measure(*args, **kwargs)
                return function(*args, **kwargs)
            return counted
        return wrapper

    _wrap("rissync.harness", "design_accelerated", looped)
    for counter, module, name, measure in WORK_COUNTERS:
        _wrap(module, name, counting(counter, measure))
    runs = [("sweep", name, args, os.path.join(work, f"{name}.csv"))
            for name, args in SPECS.items()]
    runs += [("convergence", name, args, os.path.join(work, name))
             for name, args in TRACES.items()]
    with open(os.path.join(work, "design-loops.txt"), "w", encoding="utf-8") as design_loops, \
            open(os.path.join(work, "work.txt"), "w", encoding="utf-8") as work_counts:
        for command, name, args, out in runs:
            loops.clear()
            counts.clear()
            if cli.main([command, *args, "--out", out]) != 0:
                sys.exit(f"{command} {name} failed")
            if "--kind" in args and args[args.index("--kind") + 1] == "design":
                design_loops.write(f"{name} {' '.join(loops)}\n")
            work_counts.write(" ".join([name, *(f"{k}={v}" for k, v in sorted(counts.items()))])
                              + "\n")
    write_pulse_values(os.path.join(work, "pulse.bin"))


# run in a child with the tree's rissync: argv is this directory and the
# directory to write the outputs to
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import compare_sweeps; "
          "compare_sweeps.write_outputs(sys.argv[2])")


def outputs(tree: str, work: str) -> dict:
    """Run the child on one tree and read what it wrote; output name -> CSV
    text, (index, bytes) for ``pulse``, or the text of ``design-loops`` or
    ``work``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", _CHILD, os.path.dirname(os.path.abspath(__file__)), work]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {tree} (exit {done.returncode}):\n{done.stderr}")
    csvs = [*SPECS, *(f"{name}-accelerated" for name in TRACES)]
    texts = {name: Path(work, f"{name}.csv").read_text(encoding="utf-8") for name in csvs}
    texts["pulse"] = (Path(work, "pulse.bin.txt").read_text(encoding="utf-8"),
                      Path(work, "pulse.bin").read_bytes())
    for name in ("design-loops", "work"):
        texts[name] = Path(work, f"{name}.txt").read_text(encoding="utf-8")
    return texts


def source_lines(tree: str) -> int:
    """Newlines in ``tree``'s ``src/rissync/*.py``, summed as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "rissync", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


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


def compare_values(old: tuple, new: tuple) -> tuple[list, dict]:
    """The ``pulse`` output's structural differences and
    {(function, "value"): largest relative drift}.

    The indexes must agree (functions and value counts), and each pair of
    values in finiteness; two NaNs agree.
    """
    if old[0] != new[0]:
        return [f"index {old[0].split()} -> {new[0].split()}"], {}
    names, ends = [], []
    for line in old[0].splitlines():
        name, count = line.split()
        names.append(name)
        ends.append((ends[-1] if ends else 0) + int(count))
    old_values, new_values = array("d", old[1]), array("d", new[1])
    turned, drifts = {}, {}
    for i, (a, b) in enumerate(zip(old_values, new_values)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        name = names[bisect.bisect_right(ends, i)]
        if math.isfinite(a) and math.isfinite(b):
            drifts[(name, "value")] = max(drifts.get((name, "value"), 0.0), _drift(a, b))
        else:
            turned[name] = turned.get(name, 0) + 1
    return [f"{name}: {count} values change finiteness" for name, count in turned.items()], drifts


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
        if name in ("design-loops", "work"):
            for before, after in zip(old.splitlines(), new.splitlines()):
                if before != after:
                    spec, _, counts = before.partition(" ")
                    print(f"{name}: {spec} {counts} -> {after.partition(' ')[2]}")
            continue
        problems, drifts = (compare_values if name == "pulse" else compare)(old, new)
        failed = failed or bool(problems)
        if not (problems or drifts):
            print(f"{name}: bytes differ, values equal")
        for problem in problems:
            print(f"{name}: DIFFERS {problem}")
        for (metric, col), moved in sorted(drifts.items()):
            print(f"{name}: {metric} {col} {moved:.3e}")
    print("src/rissync lines: {} -> {}".format(*map(source_lines, argv)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

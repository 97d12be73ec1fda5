"""Benchmark of the rissync Monte Carlo sweeps, end to end and layer by layer.

Run from the root of the repository:

    python3 bench/run.py --workload {estimation,design,bounds} --seed N \
        --seconds S --trace {0,1}

A run repeats rounds until S seconds have passed (at least one round). A
round is one `rissync sweep` process (see child.py), closed loop, trials in
sequence, with BLAS pinned to one thread. Before the rounds, set-up probes
start the same sweep and stop it where the first trial would begin.

With ``--trace 0`` the run reports the end-to-end metrics: trials completed
per second of sweep wall time, the sweep process's peak resident memory and
the set-up time (process start until the sweep is ready to run its first
trial), each the median over the run's samples. With ``--trace 1`` every
round is run twice, untraced and then traced, and the run reports the
per-layer metrics of the traced rounds and the tracing overhead.

Every round's CSV is checked against properties the method must have; the
traced rounds add checks against the package's reference routes. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Attempted counts trials times SNR
points; failed counts excluded trials, or all of a round's trials when its
sweep exits non-zero.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / "_out"

PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 8
ROUND_TIMEOUT_S = 150.0
CSV_HEADER = "snr_db,metric,mean,stderr,trials,excluded"

# The CRLB is exactly proportional to the noise variance, so every bound row
# times 10^(snr/10) must agree across the grid; rows are printed with 12
# significant digits.
BOUND_SCALING_RTOL = 1e-9
# a03's efficiency band for channel_nmse / channel_crlb at high SNR, set for
# 200 trials. A run pools far fewer, so each edge moves out by EFFICIENCY_Z
# standard errors of the pooled ratio; the per-trial standard deviation of the
# ratio was 0.19 over 60 trials at K=2, N=16, 30 dB.
EFFICIENCY_BAND = (0.9, 2.0)
EFFICIENCY_TRIAL_SD = 0.19
EFFICIENCY_Z = 5.0


@dataclass(frozen=True)
class Workload:
    kind: str                      # rissync sweep --kind
    flags: tuple                   # further sweep flags, as (flag, value) pairs
    snr_db: tuple
    trials: int                    # trials per round
    fixed_seed: int | None = None  # base seed of every round, ignoring --seed

    def base_seed(self, seed: int, round_index: int) -> int:
        if self.fixed_seed is not None:
            return self.fixed_seed
        return seed * 1000 + round_index

    def sweep_args(self, base_seed: int, out: Path) -> list:
        args = ["sweep", "--kind", self.kind]
        for flag, value in self.flags:
            args += [flag, str(value)]
        args += ["--snr-db", ",".join(f"{s:g}" for s in self.snr_db),
                 "--trials", str(self.trials), "--seed", str(base_seed), "--out", str(out)]
        return args

    @property
    def attempted(self) -> int:
        return self.trials * len(self.snr_db)


WORKLOADS = {
    # ML estimation dominates; no design code runs.
    "estimation": Workload(
        "estimation",
        (("--scenario", "rayleigh"), ("--surfaces", 2), ("--nx", 4), ("--ny", 4),
         ("--offset-model", "uniform")),
        (0.0, 10.0, 20.0, 30.0), trials=1),
    # The only workload that builds design operators at a realistic size. Its
    # inputs are fixed: the accelerated loop's iteration count varies about
    # fourfold between draws and a run holds two trials, so seed-drawn inputs
    # would make trials_per_s differ between runs by far more than its bound.
    "design": Workload(
        "design",
        (("--scenario", "rayleigh"), ("--surfaces", 2), ("--nx", 8), ("--ny", 4),
         ("--offset-model", "common-delta"), ("--delta-max", 0.3),
         ("--algorithm", "accelerated")),
        (10.0,), trials=1, fixed_seed=0),
    # Short trials: per-trial overhead and the closed-form bound dominate.
    "bounds": Workload(
        "crlb",
        (("--scenario", "mmwave"), ("--surfaces", 4), ("--nx", 4), ("--ny", 4),
         ("--offset-model", "uniform")),
        (0.0, 10.0, 20.0, 30.0), trials=25),
}

END_TO_END = {"trials_per_s": "trials/s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYERS = ("pulse", "channel", "estimator", "crlb", "design", "check")
CALLS = ("pulse.steering_matrix", "estimator.residual_cost", "crlb.crlb",
         "design.build_problem", "design.recovered_energy", "design.surrogate_anchor")
TIMES = ("pulse.steering_matrix", "estimator.mle_alternating", "estimator.residual_cost",
         "estimator.simulate_training", "crlb.crlb", "design.build_problem",
         "design.design_accelerated", "design.design_perfect", "design.design_phase_aligned",
         "design.mmse_equalizer", "design.mse_compact")
COUNTS = {"estimator.sweeps": "count", "estimator.not_converged": "count",
          "design.iterations": "count", "design.not_converged": "count",
          "design.problem_mb": "MB"}

PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.s": "s" for name in TIMES},
    "estimator.mle_alternating.p50_s": "s",
    "channel.draw.s": "s",
    **COUNTS,
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "harness.self_s": "s",
    "harness.traced_wall_s": "s",
    "harness.trace_overhead_s": "s",
}


# -- sweep output and its checks -----------------------------------------------


@dataclass(frozen=True)
class Row:
    snr_db: float
    metric: str
    mean: float
    stderr: float
    trials: int
    excluded: int


def parse_rows(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("sweep output does not start with the CSV header")
    rows = []
    for line in lines[1:]:
        snr, metric, mean, stderr, trials, excluded = line.split(",")
        rows.append(Row(float(snr), metric, float(mean), float(stderr),
                        int(trials), int(excluded)))
    return rows


def _series(rows, metric) -> list:
    return sorted((r for r in rows if r.metric == metric), key=lambda r: r.snr_db)


def excluded_trials(rows) -> int:
    """Excluded trials summed over SNR points (each point's rows share it)."""
    per_snr = defaultdict(int)
    for r in rows:
        per_snr[r.snr_db] = max(per_snr[r.snr_db], r.excluded)
    return sum(per_snr.values())


def check_no_exclusions(rows) -> list:
    return [f"{r.metric} at {r.snr_db:g} dB excluded {r.excluded} trials"
            for r in rows if r.excluded]


def check_bound_scaling(rows) -> list:
    problems = []
    for metric in ("channel_crlb", "timing_crlb"):
        series = _series(rows, metric)
        if len(series) < 2:
            problems.append(f"{metric}: fewer than two SNR points")
            continue
        scaled = [r.mean * 10.0 ** (r.snr_db / 10.0) for r in series]
        spread = (max(scaled) - min(scaled)) / max(abs(v) for v in scaled)
        if not spread <= BOUND_SCALING_RTOL:
            problems.append(f"{metric} x 10^(snr/10) varies by {spread:.3e} relative")
    return problems


def check_nmse_falls(rows) -> list:
    series = _series(rows, "channel_nmse")
    if len(series) < 2:
        return ["channel_nmse: fewer than two SNR points"]
    return [f"channel_nmse rises from {a.snr_db:g} dB to {b.snr_db:g} dB"
            for a, b in zip(series, series[1:]) if not b.mean < a.mean]


def check_design(rows) -> list:
    problems = []
    for snr in sorted({r.snr_db for r in rows}):
        at = {r.metric: r.mean for r in rows if r.snr_db == snr}
        names = ("nmse_proposed", "nmse_phase_aligned", "nmse_perfect", "nmse_random")
        missing = [n for n in names if n not in at]
        if missing:
            problems.append(f"{snr:g} dB: missing {missing}")
            continue
        problems += [f"{snr:g} dB: {n} = {at[n]!r} is not finite and positive"
                     for n in names if not (math.isfinite(at[n]) and at[n] > 0.0)]
        if not at["nmse_perfect"] <= 1.0:
            problems.append(f"{snr:g} dB: nmse_perfect {at['nmse_perfect']!r} > 1")
        if not at["nmse_random"] > at["nmse_proposed"]:
            problems.append(f"{snr:g} dB: nmse_random does not exceed nmse_proposed")
    return problems


ROUND_CHECKS = {
    "estimation": (check_no_exclusions, check_bound_scaling, check_nmse_falls),
    "crlb": (check_no_exclusions, check_bound_scaling),
    "design": (check_design,),
}


def check_efficiency(row_sets) -> list:
    """Pooled channel_nmse / channel_crlb at the top SNR, over a run's rounds."""
    nmse = crlb = 0.0
    n = 0
    for rows in row_sets:
        top = max(r.snr_db for r in rows)
        at = {r.metric: r for r in rows if r.snr_db == top}
        nmse += at["channel_nmse"].mean * at["channel_nmse"].trials
        crlb += at["channel_crlb"].mean * at["channel_crlb"].trials
        n += at["channel_nmse"].trials
    if n == 0:
        return []
    ratio = nmse / crlb
    margin = EFFICIENCY_Z * EFFICIENCY_TRIAL_SD / math.sqrt(n)
    low, high = EFFICIENCY_BAND[0] - margin, EFFICIENCY_BAND[1] + margin
    if low <= ratio <= high:
        return []
    return [f"channel_nmse / channel_crlb = {ratio:.4f} over {n} trials, "
            f"outside [{low:.3f}, {high:.3f}]"]


RUN_CHECKS = {"estimation": (check_efficiency,), "crlb": (), "design": ()}

# Oracle checks a traced round of each kind must have made at least once.
TRACE_CHECKS = {
    "estimation": ("crlb_vs_fim",),
    "crlb": ("crlb_vs_fim",),
    "design": ("crlb_vs_fim", "objective_monotone", "mse_vs_direct"),
}


# -- per-layer metrics from a traced round ---------------------------------------


def layer_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced round, from its spans and counts.

    A span's self time is its duration minus its direct children's; summed by
    layer (the part of the name before the first dot) these add up to the
    runner's duration, the traced wall time.
    """
    spans = report["spans"]
    duration = {s[0]: s[4] - s[3] for s in spans}
    layer = {s[0]: s[2].split(".", 1)[0] for s in spans}
    children = defaultdict(float)
    by_name = defaultdict(list)
    for sid, parent, name, _, _ in spans:
        by_name[name].append(duration[sid])
        if parent >= 0:
            children[parent] += duration[sid]
    self_time = defaultdict(float)
    for sid in duration:
        self_time[layer[sid]] += duration[sid] - children[sid]
    roots = [s[0] for s in spans if s[1] < 0]
    if len(roots) != 1 or layer[roots[0]] != "harness":
        raise ValueError("a traced round must have one harness span at the root")

    out = {f"{name}.calls": len(by_name[name]) for name in CALLS}
    out.update({f"{name}.s": sum(by_name[name]) for name in TIMES})
    estimates = by_name["estimator.mle_alternating"]
    out["estimator.mle_alternating.p50_s"] = statistics.median(estimates) if estimates else 0.0
    out["channel.draw.s"] = sum(duration[s[0]] for s in spans
                                if layer[s[0]] == "channel" and layer.get(s[1]) != "channel")
    out.update({name: report["counts"].get(name, 0) for name in COUNTS})
    out.update({f"{name}.self_s": self_time[name] for name in LAYERS})
    out["harness.self_s"] = self_time["harness"]
    out["harness.traced_wall_s"] = duration[roots[0]]
    return out


# -- running rounds ----------------------------------------------------------------


@dataclass
class Round:
    spawned: float
    report: dict
    rows: list | None

    @property
    def setup_s(self) -> float:
        return self.report["ready"] - self.spawned

    @property
    def wall_s(self) -> float:
        return self.report["done"] - self.report["ready"]


def run_child(mode: str, sweep_args: list, report_path: Path) -> tuple:
    """Start one sweep process and wait for it. Returns (exit code, spawn time,
    report or None)."""
    env = {**os.environ, **PINNED_BLAS, "PYTHONPATH": str(SOURCE)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(report_path), mode, *sweep_args],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"sweep ({mode}) timed out after {ROUND_TIMEOUT_S:g} s", file=sys.stderr)
        return -1, spawned, None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    return proc.returncode, spawned, report


def setup_probe(workload: Workload, tmp_dir: Path) -> float:
    code, spawned, report = run_child(
        "setup", workload.sweep_args(workload.base_seed(0, 0), tmp_dir / "setup.csv"),
        tmp_dir / "setup.json")
    if code != 0 or report is None or "ready" not in report:
        raise RuntimeError("the sweep could not be set up; is this a rissync checkout?")
    return report["ready"] - spawned


def run_round(workload: Workload, base_seed: int, mode: str, tmp_dir: Path, tag: str) -> Round:
    out = tmp_dir / f"{tag}.csv"
    code, spawned, report = run_child(mode, workload.sweep_args(base_seed, out),
                                      tmp_dir / f"{tag}.json")
    if code != 0 or report is None:
        print(f"{tag}: sweep failed (exit {code})", file=sys.stderr)
        return Round(spawned, {}, None)
    rnd = Round(spawned, report, parse_rows(out.read_text()))
    print(f"{tag}: seed {base_seed} setup {rnd.setup_s:.3f} s, sweep {rnd.wall_s:.3f} s "
          f"({report['cpu_s']:.3f} s CPU), "
          f"peak {report['maxrss_kb'] / 1024.0:.1f} MB", file=sys.stderr)
    return rnd


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list
    metrics: dict


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tmp_dir: Path, trace_dir: Path, label: str) -> Outcome:
    setup_probe(workload, tmp_dir)  # warm-up: byte-compiles and fills the file cache
    setups = [] if trace else [setup_probe(workload, tmp_dir) for _ in range(SETUP_PROBES)]
    rounds, traced = [], []
    start = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() - start < seconds:
        base = workload.base_seed(seed, index)
        rounds.append(run_round(workload, base, "sweep", tmp_dir, f"r{index}"))
        if trace:
            traced.append(run_round(workload, base, "trace", tmp_dir, f"t{index}"))
        index += 1

    attempted, failed = tally(workload, rounds + traced)
    # traced rounds repeat the untraced rounds' draws, so each set is pooled apart
    problems = check_rounds(workload.kind, rounds) + check_rounds(workload.kind, traced)

    if not trace:
        ok = [rnd for rnd in rounds if rnd.rows is not None]
        setups += [rnd.setup_s for rnd in ok]
        rates = [(workload.attempted - excluded_trials(rnd.rows)) / rnd.wall_s for rnd in ok]
        rss = [rnd.report["maxrss_kb"] / 1024.0 for rnd in ok]
        metrics = {
            "trials_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "setup_s": statistics.median(setups),
        }
        return Outcome(attempted, failed, problems, metrics)

    per_round, overheads = [], []
    for index, (plain, rnd) in enumerate(zip(rounds, traced)):
        if rnd.rows is None:
            continue
        problems += trace_problems(workload.kind, rnd.report)
        values = layer_metrics(rnd.report)
        if plain.rows is not None:
            overheads.append(rnd.wall_s - values["check.self_s"] - plain.wall_s)
        per_round.append(values)
        path = trace_dir / f"trace-{label}-r{index}.json"
        path.write_text(json.dumps(rnd.report))
    metrics = {name: statistics.median(v[name] for v in per_round) if per_round else 0.0
               for name in PER_LAYER if name != "harness.trace_overhead_s"}
    metrics["harness.trace_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return Outcome(attempted, failed, problems, metrics)


def tally(workload: Workload, rounds) -> tuple:
    """(attempted, failed) trials over rounds: a round whose sweep failed
    counts all its trials as failed, otherwise its excluded trials."""
    attempted = workload.attempted * len(rounds)
    failed = sum(workload.attempted if rnd.rows is None else excluded_trials(rnd.rows)
                 for rnd in rounds)
    return attempted, failed


def check_rounds(kind: str, rounds) -> list:
    """Problems found by the per-round checks and the run-level checks."""
    good = [rnd.rows for rnd in rounds if rnd.rows is not None]
    problems = [p for rows in good for check in ROUND_CHECKS[kind] for p in check(rows)]
    for check in RUN_CHECKS[kind]:
        problems += check(good)
    return problems


def trace_problems(kind: str, report: dict) -> list:
    """Failed oracle checks of a traced round, and required checks it lacks."""
    made = {name for name, _, _ in report["checks"]}
    return ([f"traced check {name}: {detail}"
             for name, passed, detail in report["checks"] if not passed]
            + [f"traced round made no {name} check"
               for name in TRACE_CHECKS[kind] if name not in made])


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "rissync" / "__init__.py").is_file():
        print(f"error: no rissync package under {SOURCE}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}"
    try:
        outcome = measure(workloads[args.workload], args.seed, args.seconds,
                          bool(args.trace), tmp_dir, OUT_DIR, label)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one `rissync sweep` in this process and time it from outside the package.

    python child.py REPORT MODE SWEEP-ARGS...

SWEEP-ARGS are handed unchanged to ``rissync.cli.main``. MODE is one of

- ``setup``: stop as soon as the sweep is ready to run its first trial;
- ``sweep``: run the sweep;
- ``trace``: run the sweep with every call into the layers below wrapped in
  a span, count what the calls return, and check sampled results against
  the package's own reference routes.

The harness runner that the CLI dispatches to is wrapped in every mode, so
``ready`` and ``done`` (``time.monotonic``, a clock shared by all processes
on the machine) mark where trials start and end. The JSON report written to
REPORT holds those two times, the runner's CPU time, the exit code, the
peak resident set in KiB and, for ``trace``, the spans, counts and check
results.
"""
from __future__ import annotations

import inspect
import json
import resource
import sys
import time
import weakref
from collections import Counter

# Harness runner behind each `sweep --kind` the benchmark runs.
RUNNERS = {
    "estimation": "run_estimation_sweep",
    "crlb": "run_crlb_sweep",
    "design": "run_design_sweep",
}

# Public functions wrapped in trace mode, by layer (= rissync module). A name
# a later version of the package no longer defines is skipped.
LAYER_FUNCTIONS = {
    "pulse": ("steering_matrix",),
    "channel": ("gen_rayleigh", "gen_mmwave", "cascade"),
    "estimator": ("simulate_training", "mle_alternating", "residual_cost"),
    "crlb": ("crlb",),
    "design": ("build_problem", "design_accelerated", "design_mm", "design_perfect",
               "design_phase_aligned", "recovered_energy", "surrogate_anchor",
               "mmse_equalizer", "mse_compact"),
}

# Oracle comparisons: how many calls per process are checked, and the
# tolerances of the acceptance tests that pin the same identities.
CRLB_SAMPLES = 3
CRLB_RTOL = 1e-8
MSE_SAMPLES = 2
MSE_RTOL = 1e-10
MONOTONE_RTOL = 1e-12


class SetupDone(BaseException):
    """Raised by the runner wrapper in setup mode; not an error of the sweep."""


def rebind(original, replacement):
    """Point every reference to ``original`` held by a rissync module, directly
    or as a value of a module-level dict, at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != "rissync" and not name.startswith("rissync."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def array_mb(obj) -> float:
    """Bytes of the numpy arrays an object holds as attributes, in MB (2**20)."""
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values()) / 2**20


class Tracer:
    """Spans, counts and oracle checks recorded at the layer boundaries.

    A span is ``[id, parent id, name, start, end]`` with ``perf_counter``
    times; the parent is the span open when the call began (-1 for none).
    Oracle checks run inside spans named ``check.*`` so that their cost is
    accounted for apart from the layers they check.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.checks = []
        self.sampled = Counter()  # oracle comparisons made, per check
        self.problems = {}   # id(DesignProblem) -> (weakref, inputs, cfg)
        self.paused = False

    def wrap(self, name, fn, after=None):
        signature = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def check(self, name, compare):
        """Run ``compare() -> (ok, detail)`` inside a ``check.<name>`` span,
        with recording paused so the reference route adds no layer spans."""
        record = self._open(f"check.{name}")
        self.paused = True
        try:
            ok, detail = compare()
        finally:
            self.paused = False
            self._close(record)
        self.checks.append([name, bool(ok), detail])

    def _open(self, name):
        record = [len(self.spans), self.stack[-1] if self.stack else -1,
                  name, time.perf_counter(), None]
        self.spans.append(record)
        self.stack.append(record[0])
        return record

    def _close(self, record):
        record[4] = time.perf_counter()
        self.stack.pop()

    # -- hooks run after a wrapped call returns ------------------------------

    def after_estimate(self, _args, result):
        self.counts["estimator.sweeps"] += int(result.sweeps)
        self.counts["estimator.not_converged"] += int(not result.converged)

    def after_design_loop(self, _args, result):
        self.counts["design.iterations"] += int(result.iterations)
        self.counts["design.not_converged"] += int(not result.converged)

        def monotone():
            trace = [float(v) for v in result.objective_trace]
            worst = max((b - a - MONOTONE_RTOL * max(1.0, abs(a))
                         for a, b in zip(trace, trace[1:])), default=0.0)
            return worst <= 0.0, f"largest rise beyond tolerance {worst:.3e}"
        self.check("objective_monotone", monotone)

    def after_build(self, args, problem):
        self.counts["design.problem_mb"] = max(self.counts["design.problem_mb"],
                                               array_mb(problem))
        if "inputs" in args and "cfg" in args:
            self.problems[id(problem)] = (weakref.ref(problem), args["inputs"], args["cfg"])

    def after_crlb(self, args, result, reference):
        if self.sampled["crlb"] >= CRLB_SAMPLES:
            return
        self.sampled["crlb"] += 1

        def agree():
            brute = reference(**args)
            worst = 0.0
            for field in ("timing_cov", "channel_cov"):
                ref = getattr(result, field)
                diff = abs(getattr(brute, field) - ref).max()
                worst = max(worst, float(diff / abs(ref).max()))
            return worst <= CRLB_RTOL, f"relative difference {worst:.3e}"
        self.check("crlb_vs_fim", agree)

    def after_mse(self, args, value, reference):
        known = self.problems.get(id(args.get("problem")))
        if known is None or known[0]() is not args["problem"]:
            return
        if self.sampled["mse"] >= MSE_SAMPLES:
            return
        self.sampled["mse"] += 1
        _, inputs, cfg = known

        def agree():
            direct = reference(args["theta"], args["equalizer"], inputs, cfg)
            gap = abs(direct - value)
            return gap <= MSE_RTOL * (1.0 + abs(direct)), f"absolute gap {gap:.3e}"
        self.check("mse_vs_direct", agree)

    def install(self, package):
        hooks = {
            "mle_alternating": self.after_estimate,
            "design_accelerated": self.after_design_loop,
            "design_mm": self.after_design_loop,
            "build_problem": self.after_build,
            "crlb": lambda a, r: self.after_crlb(a, r, package.crlb_from_fim),
            "mse_compact": lambda a, r: self.after_mse(a, r, package.mse_direct),
        }
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"rissync.{layer}"]
            for name in names:
                fn = vars(module).get(name)
                if fn is not None:
                    rebind(fn, self.wrap(f"{layer}.{name}", fn, hooks.get(name)))

    def report(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "checks": self.checks}


def main(argv) -> int:
    report_path, mode, sweep_args = argv[0], argv[1], argv[2:]
    if mode not in ("setup", "sweep", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    import rissync
    import rissync.cli
    import rissync.harness

    kind = sweep_args[sweep_args.index("--kind") + 1]
    runner = getattr(rissync.harness, RUNNERS[kind])
    report = {}
    tracer = Tracer() if mode == "trace" else None
    run = runner
    if tracer is not None:
        tracer.install(rissync)
        run = tracer.wrap(f"harness.{RUNNERS[kind]}", runner)

    def timed_runner(*args, **kwargs):
        report["ready"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        cpu = time.process_time()
        try:
            return run(*args, **kwargs)
        finally:
            report["done"] = time.monotonic()
            report["cpu_s"] = time.process_time() - cpu

    rebind(runner, timed_runner)

    try:
        code = rissync.cli.main(sweep_args)
    except SetupDone:
        code = 0
    report["exit"] = code
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report.update(tracer.report())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

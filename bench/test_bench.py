"""Quick tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import child
import run

sys.path.insert(0, str(run.SOURCE))
import rissync  # noqa: E402  (the package under test, from this checkout)
from rissync import harness  # noqa: E402

TINY = {
    "estimation": run.Workload("estimation", (("--surfaces", 2), ("--nx", 2)),
                               (10.0, 20.0, 30.0), trials=4),
    "design": run.Workload("design", (("--surfaces", 2), ("--nx", 2),
                                      ("--offset-model", "common-delta")),
                           (10.0,), trials=1, fixed_seed=0),
    "bounds": run.Workload("crlb", (("--scenario", "mmwave"), ("--surfaces", 2), ("--nx", 2)),
                           (0.0, 10.0), trials=2),
}


def _result(capsys, monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _rows(kind, snr_grid):
    spec = harness.ExperimentSpec(n_surfaces=2, n_x=2, snr_grid_db=snr_grid, trials=4,
                                  base_seed=5)
    runner = {"estimation": harness.run_estimation_sweep, "crlb": harness.run_crlb_sweep,
              "design": harness.run_design_sweep}[kind]
    return run.parse_rows(harness.format_sweep_rows(runner(spec)))


def _edit(rows, metric, snr_db=None, **changes):
    return [replace(r, **changes) if r.metric == metric and snr_db in (None, r.snr_db) else r
            for r in rows]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit_and_counts_add_up(capsys, monkeypatch, name,
                                                                  trace):
    result = _result(capsys, monkeypatch, name, trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    # seconds=0 runs one round; a traced run adds its traced twin
    assert result["attempted"] == TINY[name].attempted * (1 + trace)
    assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_self_times_account_for_the_traced_wall_time(capsys, monkeypatch):
    _result(capsys, monkeypatch, "design", 1)
    report = json.loads((run.OUT_DIR / "trace-design-seed3-r0.json").read_text())
    values = run.layer_metrics(report)
    total = sum(values[f"{layer}.self_s"] for layer in run.LAYERS) + values["harness.self_s"]
    assert total == pytest.approx(values["harness.traced_wall_s"], rel=1e-9)
    assert values["design.build_problem.calls"] == 4
    assert values["design.problem_mb"] > 0


def test_failed_sweeps_count_all_their_trials():
    workload = TINY["bounds"]
    rows = _rows("crlb", (0.0, 10.0))
    excluded = _edit(rows, "channel_crlb", 10.0, excluded=1)
    excluded = _edit(excluded, "timing_crlb", 10.0, excluded=1)
    rounds = [run.Round(0.0, {}, rows), run.Round(0.0, {}, None), run.Round(0.0, {}, excluded)]
    assert run.tally(workload, rounds) == (3 * workload.attempted, workload.attempted + 1)


def test_round_checks_pass_clean_output_and_reject_corrupted_output():
    estimation = _rows("estimation", (10.0, 20.0, 30.0))
    bounds = _rows("crlb", (0.0, 10.0))
    design = _rows("design", (10.0,))
    for kind, rows in (("estimation", estimation), ("crlb", bounds), ("design", design)):
        assert run.check_rounds(kind, [run.Round(0.0, {}, rows)]) == []

    top = max(r.snr_db for r in estimation)
    nmse = {r.snr_db: r.mean for r in estimation if r.metric == "channel_nmse"}
    corrupted = [
        (run.check_no_exclusions, _edit(bounds, "timing_crlb", 0.0, excluded=1)),
        (run.check_bound_scaling, _edit(bounds, "channel_crlb", 10.0, mean=1.001 * [
            r.mean for r in bounds if r.metric == "channel_crlb" and r.snr_db == 10.0][0])),
        (run.check_nmse_falls, _edit(estimation, "channel_nmse", 20.0, mean=nmse[10.0] * 2)),
        (lambda rows: run.check_efficiency([rows]),
         _edit(estimation, "channel_nmse", top, mean=nmse[top] * 20)),
        (lambda rows: run.check_efficiency([rows]),
         _edit(estimation, "channel_nmse", top, mean=nmse[top] / 20)),
        (run.check_design, _edit(design, "nmse_perfect", mean=1.5)),
        (run.check_design, _edit(design, "nmse_random", mean=1e-9)),
        (run.check_design, _edit(design, "nmse_proposed", mean=float("nan"))),
        (run.check_design, _edit(design, "nmse_phase_aligned", mean=0.0)),
        (run.check_design, [r for r in design if r.metric != "nmse_perfect"]),
    ]
    for check, rows in corrupted:
        assert check(rows), check


def test_parse_rows_rejects_output_without_the_header():
    with pytest.raises(ValueError):
        run.parse_rows("snr_db,metric\n0,x\n")


class _Loop:
    def __init__(self, trace):
        self.objective_trace = trace
        self.iterations = len(trace) - 1
        self.converged = True


def _crlb_args():
    spec = harness.ExperimentSpec(n_surfaces=2, n_x=2)
    cfg = spec.system_config()
    streams = harness._trial_streams(0, 0)
    chans = rissync.gen_rayleigh(cfg, streams["channel"])
    tp = rissync.gen_training(cfg, streams["pilot"])
    return {"offsets": [0.2, -0.3], "channel": rissync.cascade(chans), "tp": tp,
            "noise_var": 0.1, "cfg": cfg}


def _design_args():
    cfg = rissync.SystemConfig(n_surfaces=2, n_elements=2)
    rng = np.random.default_rng(1)
    channel = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    inputs = rissync.DesignInputs(offsets=[0.1, -0.2], channel=channel,
                                  channel_cov=0.01 * np.eye(4),
                                  noise_cov=rissync.white_noise_cov(0.1, cfg))
    problem = rissync.build_problem(inputs, cfg)
    theta = rissync.random_phases(4, 2)
    return inputs, cfg, problem, theta, rissync.mmse_equalizer(theta, problem)


def test_traced_checks_pass_clean_results_and_reject_corrupted_ones():
    tracer = child.Tracer()
    tracer.after_design_loop({}, _Loop([3.0, 2.0, 2.0]))
    tracer.after_design_loop({}, _Loop([3.0, 2.0, 2.5]))

    args = _crlb_args()
    good = rissync.crlb(**args)
    bad = replace(good, timing_cov=good.timing_cov * (1 + 1e-6))
    tracer.after_crlb(args, good, rissync.crlb_from_fim)
    tracer.after_crlb(args, bad, rissync.crlb_from_fim)

    inputs, cfg, problem, theta, eq = _design_args()
    tracer.after_build({"inputs": inputs, "cfg": cfg}, problem)
    value = rissync.mse_compact(theta, eq, problem)
    mse_args = {"theta": theta, "equalizer": eq, "problem": problem}
    tracer.after_mse(mse_args, value, rissync.mse_direct)
    tracer.after_mse(mse_args, value + 1e-6, rissync.mse_direct)

    verdicts = [(name, ok) for name, ok, _ in tracer.checks]
    assert verdicts == [("objective_monotone", True), ("objective_monotone", False),
                        ("crlb_vs_fim", True), ("crlb_vs_fim", False),
                        ("mse_vs_direct", True), ("mse_vs_direct", False)]
    report = tracer.report()
    assert len(run.trace_problems("design", report)) == 3
    assert run.trace_problems("design", {"checks": []}) == [
        f"traced round made no {name} check" for name in run.TRACE_CHECKS["design"]]


def test_a_tree_without_the_package_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SOURCE", tmp_path / "src")
    assert run.main(["--workload", "bounds", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_rebind_reaches_module_globals_and_dict_values():
    import rissync.cli as cli
    original = harness.run_crlb_sweep
    runners = [d for d in vars(cli).values() if type(d) is dict and original in d.values()]

    def wrapper(spec):
        return original(spec)

    try:
        child.rebind(original, wrapper)
        assert harness.run_crlb_sweep is wrapper and cli.run_crlb_sweep is wrapper
        assert all(wrapper in d.values() and original not in d.values() for d in runners)
    finally:
        child.rebind(wrapper, original)
    assert harness.run_crlb_sweep is original

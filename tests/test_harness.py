"""Tests for the Monte Carlo experiment runner."""
import numpy as np
import pytest

import rissync.harness as harness
from rissync.errors import FailureRateError, SingularSystemError
from rissync.estimator import EstimationResult
from rissync.harness import (
    ExperimentSpec,
    SweepRow,
    format_sweep_rows,
    format_trace,
    run_async_impact,
    run_convergence,
    run_crlb_sweep,
    run_design_sweep,
    run_estimation_sweep,
)

TINY = dict(n_surfaces=2, n_x=2, n_y=1, trials=3, base_seed=7)


# ---------------------------------------------------------------- spec


def test_spec_defaults_and_coercion():
    spec = ExperimentSpec(snr_grid_db=[0, 10], trials=5)
    assert spec.snr_grid_db == (0.0, 10.0)
    assert isinstance(spec.snr_grid_db[0], float)
    assert spec.n_elements == 4
    cfg = spec.system_config()
    assert cfg.n_surfaces == 2 and cfg.n_elements == 4


@pytest.mark.parametrize("kwargs", [
    dict(scenario="awgn"),
    dict(offset_model="gaussian"),
    dict(algorithm="newton"),
    dict(trials=0),
    dict(snr_grid_db=()),
    dict(snr_grid_db=(np.inf,)),
    dict(n_surfaces=0),
    dict(n_x=0),
    dict(delta_max=-0.1),
    dict(delta_max=2.5),
])
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        ExperimentSpec(**kwargs)


# ------------------------------------------------------- trial streams


def test_trial_streams_are_named_and_reproducible():
    a = harness._trial_streams(3, 0)
    b = harness._trial_streams(3, 0)
    assert list(a) == list(harness._STREAM_NAMES)
    for name in a:
        draw_a = np.random.default_rng(a[name]).random(4)
        draw_b = np.random.default_rng(b[name]).random(4)
        np.testing.assert_array_equal(draw_a, draw_b)


def test_trial_streams_differ_between_trials_and_seeds():
    base = np.random.default_rng(harness._trial_streams(3, 0)["noise"]).random(4)
    other_trial = np.random.default_rng(harness._trial_streams(3, 1)["noise"]).random(4)
    other_seed = np.random.default_rng(harness._trial_streams(4, 0)["noise"]).random(4)
    assert not np.array_equal(base, other_trial)
    assert not np.array_equal(base, other_seed)


def test_offset_draws_respect_models():
    spec_u = ExperimentSpec(n_surfaces=6, offset_model="uniform")
    eps = harness._draw_offsets(spec_u, 5)
    assert eps.shape == (6,)
    assert np.all(np.abs(eps) < 1.0)

    spec_c = ExperimentSpec(n_surfaces=6, offset_model="common-delta", delta_max=0.2)
    eps = harness._draw_offsets(spec_c, 5)
    # all values cluster within 2*delta_max of each other around a common base
    assert eps.max() - eps.min() <= 0.4 + 1e-12
    assert np.all(np.abs(eps) < 1.0)

    spec_z = ExperimentSpec(n_surfaces=4, offset_model="common-delta", delta_max=0.0)
    eps = harness._draw_offsets(spec_z, 9)
    assert np.ptp(eps) == 0.0
    assert abs(eps[0]) <= 0.5


# -------------------------------------------------------- estimation


def test_estimation_sweep_rows_and_determinism():
    spec = ExperimentSpec(snr_grid_db=(10.0,), **TINY)
    rows = run_estimation_sweep(spec)
    assert [r.metric for r in rows] == [
        "channel_nmse", "timing_nmse", "channel_crlb", "timing_crlb"]
    for row in rows:
        assert row.snr_db == 10.0
        assert row.trials == 3 and row.excluded == 0
        assert np.isfinite(row.mean) and row.mean > 0
        assert row.stderr >= 0
    assert run_estimation_sweep(spec) == rows


def test_estimation_error_drops_steeply_with_snr():
    spec = ExperimentSpec(snr_grid_db=(0.0, 30.0), trials=4,
                          n_surfaces=2, n_x=2, n_y=1, base_seed=7)
    rows = {(r.snr_db, r.metric): r.mean for r in run_estimation_sweep(spec)}
    assert rows[(30.0, "channel_nmse")] * 100 < rows[(0.0, "channel_nmse")]
    # bound rows reuse the same trial draws, so the 30 dB point is exactly
    # a factor 1000 below the 0 dB point
    assert rows[(30.0, "channel_crlb")] == pytest.approx(
        rows[(0.0, "channel_crlb")] / 1000, rel=1e-12)


def test_estimation_tracks_bound_at_high_snr():
    spec = ExperimentSpec(snr_grid_db=(30.0,), trials=6,
                          n_surfaces=2, n_x=2, n_y=1, base_seed=2)
    rows = {r.metric: r.mean for r in run_estimation_sweep(spec)}
    ratio = rows["channel_nmse"] / rows["channel_crlb"]
    assert 0.5 < ratio < 4.0


def test_mmwave_scenario_runs():
    spec = ExperimentSpec(scenario="mmwave", n_surfaces=2, n_x=2, n_y=2,
                          snr_grid_db=(20.0,), trials=2, base_seed=0)
    rows = run_estimation_sweep(spec)
    assert all(np.isfinite(r.mean) and r.mean > 0 for r in rows)


# -------------------------------------------------------------- bounds


def test_crlb_sweep_scales_linearly_with_noise_power():
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0), trials=5, **{
        k: v for k, v in TINY.items() if k != "trials"})
    rows = {(r.snr_db, r.metric): r.mean for r in run_crlb_sweep(spec)}
    for metric in ("channel_crlb", "timing_crlb"):
        assert rows[(10.0, metric)] == pytest.approx(
            rows[(0.0, metric)] / 10, rel=1e-12)


def test_crlb_sweep_matches_estimation_sweep_bounds():
    kwargs = dict(snr_grid_db=(15.0,), **TINY)
    bound_only = {r.metric: r for r in run_crlb_sweep(ExperimentSpec(**kwargs))}
    full = {r.metric: r for r in run_estimation_sweep(ExperimentSpec(**kwargs))}
    for metric in ("channel_crlb", "timing_crlb"):
        assert bound_only[metric].mean == full[metric].mean
        assert bound_only[metric].stderr == full[metric].stderr


# --------------------------------------------------------------- async


def test_async_impact_penalizes_single_offset_fit():
    spec = ExperimentSpec(n_surfaces=2, n_x=4, n_y=1, snr_grid_db=(20.0,),
                          trials=4, offset_model="common-delta",
                          delta_max=0.3, base_seed=11)
    rows = {r.metric: r.mean for r in run_async_impact(spec)}
    assert rows["channel_nmse_sync_naive"] > 10 * rows["channel_nmse"]


def test_async_impact_estimators_coincide_without_spread():
    spec = ExperimentSpec(n_surfaces=2, n_x=4, n_y=1, snr_grid_db=(20.0,),
                          trials=4, offset_model="common-delta",
                          delta_max=0.0, base_seed=11)
    rows = {r.metric: r.mean for r in run_async_impact(spec)}
    assert rows["channel_nmse_sync_naive"] == pytest.approx(
        rows["channel_nmse"], rel=0.05)


def test_async_impact_always_uses_clustered_offsets():
    # the offset_model field is ignored by this operation; the comparison is
    # only defined for clustered draws
    base = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(20.0,),
                          trials=2, offset_model="common-delta",
                          delta_max=0.2, base_seed=4)
    swapped = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(20.0,),
                             trials=2, offset_model="uniform",
                             delta_max=0.2, base_seed=4)
    assert run_async_impact(base) == run_async_impact(swapped)


# -------------------------------------------------------------- design


def test_design_sweep_orders_schemes():
    spec = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(10.0,),
                          trials=3, offset_model="common-delta",
                          delta_max=0.3, base_seed=5)
    rows = {r.metric: r.mean for r in run_design_sweep(spec)}
    assert set(rows) == {"nmse_proposed", "nmse_phase_aligned",
                         "nmse_perfect", "nmse_random"}
    for value in rows.values():
        assert np.isfinite(value) and value > 0
    assert rows["nmse_random"] > rows["nmse_proposed"]
    assert rows["nmse_perfect"] <= rows["nmse_proposed"] * 1.05


def test_design_sweep_deterministic():
    spec = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(10.0,),
                          trials=2, base_seed=9)
    assert run_design_sweep(spec) == run_design_sweep(spec)


def test_design_sweep_respects_algorithm_choice():
    common = dict(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(10.0,),
                  trials=2, base_seed=9)
    fast = {r.metric: r.mean
            for r in run_design_sweep(ExperimentSpec(algorithm="accelerated", **common))}
    plain = {r.metric: r.mean
             for r in run_design_sweep(ExperimentSpec(algorithm="mm", **common))}
    # only the proposed scheme depends on the loop choice; the plain loop may
    # stop at its iteration cap before converging, so the accelerated design
    # is at least as good with this seed
    assert plain["nmse_random"] == fast["nmse_random"]
    assert plain["nmse_perfect"] == fast["nmse_perfect"]
    assert fast["nmse_proposed"] <= plain["nmse_proposed"] * 1.05


# ---------------------------------------------------------- convergence


def test_convergence_traces_are_monotone_and_comparable():
    spec = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(0.0,),
                          trials=1, base_seed=1)
    traces = run_convergence(spec)
    assert set(traces) == {"mm", "accelerated"}
    for trace in traces.values():
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
    assert traces["mm"][0] == traces["accelerated"][0]
    assert traces["accelerated"][-1] <= traces["mm"][-1] + 1e-6
    assert len(traces["accelerated"]) < len(traces["mm"])


# ----------------------------------------------------------- exclusion


def _fake_estimate(n_surfaces, n_total):
    return EstimationResult(
        offsets=np.zeros(n_surfaces), channel=np.ones(n_total, dtype=complex),
        final_cost=0.0, sweeps=1, cost_trace=np.zeros(1), converged=True)


def test_exclusion_rate_above_limit_aborts(monkeypatch):
    def always_fails(y, tp, cfg, **kwargs):
        raise SingularSystemError("forced failure", 1e99)

    monkeypatch.setattr(harness, "mle_alternating", always_fails)
    spec = ExperimentSpec(snr_grid_db=(10.0,), **TINY)
    with pytest.raises(FailureRateError):
        run_estimation_sweep(spec)


def test_exclusion_rate_aborts_as_soon_as_the_limit_is_passed(monkeypatch):
    calls = {"n": 0}

    def always_fails(y, tp, cfg, **kwargs):
        calls["n"] += 1
        raise SingularSystemError("forced failure", 1e99)

    monkeypatch.setattr(harness, "mle_alternating", always_fails)
    spec = ExperimentSpec(n_surfaces=2, n_x=1, n_y=1, snr_grid_db=(0.0, 10.0),
                          trials=100, base_seed=0)
    with pytest.raises(FailureRateError) as info:
        run_estimation_sweep(spec)
    # one exclusion per 100 trials is allowed, so the second one aborts
    assert info.value.excluded == 2 and calls["n"] == 3


def test_exclusion_at_limit_is_tolerated(monkeypatch):
    calls = {"n": 0}

    def flaky(y, tp, cfg, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SingularSystemError("forced failure", 1e99)
        return _fake_estimate(2, 2)

    monkeypatch.setattr(harness, "mle_alternating", flaky)
    spec = ExperimentSpec(n_surfaces=2, n_x=1, n_y=1, snr_grid_db=(10.0,),
                          trials=100, base_seed=0)
    rows = run_estimation_sweep(spec)
    for row in rows:
        assert row.excluded == 1
        assert row.trials == 99


# ------------------------------------------------------- trial driver

RUNNERS = [run_estimation_sweep, run_crlb_sweep, run_async_impact, run_design_sweep]


def _counting(monkeypatch, name):
    calls = {"n": 0}
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("runner", [run_crlb_sweep, run_estimation_sweep])
def test_bound_is_evaluated_once_per_trial(monkeypatch, runner):
    calls = _counting(monkeypatch, "crlb")
    runner(ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY))
    assert calls["n"] == TINY["trials"]


@pytest.mark.parametrize("runner", RUNNERS)
def test_each_trial_is_drawn_once(monkeypatch, runner):
    calls = _counting(monkeypatch, "gen_training")
    runner(ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY))
    assert calls["n"] == TINY["trials"]


def test_failure_at_one_point_excludes_the_trial_there_only(monkeypatch):
    seen = {}
    simulate = harness.simulate_training

    def recording(ch, offsets, tp, noise_var, cfg, noise_seed):
        seen["var"] = noise_var
        return simulate(ch, offsets, tp, noise_var, cfg, noise_seed)

    def fails_once_at_10db(y, tp, cfg, **kwargs):
        if seen["var"] == 0.1 and not seen.get("failed"):
            seen["failed"] = True
            raise SingularSystemError("forced failure", 1e99)
        return _fake_estimate(2, 2)

    monkeypatch.setattr(harness, "simulate_training", recording)
    monkeypatch.setattr(harness, "mle_alternating", fails_once_at_10db)
    spec = ExperimentSpec(n_surfaces=2, n_x=1, n_y=1, snr_grid_db=(0.0, 10.0, 20.0),
                          trials=100, base_seed=0)
    for row in run_estimation_sweep(spec):
        dropped = 1 if row.snr_db == 10.0 else 0
        assert (row.excluded, row.trials) == (dropped, 100 - dropped)


@pytest.mark.parametrize("runner", RUNNERS)
def test_points_share_trials_whatever_the_grid(runner):
    alone = runner(ExperimentSpec(snr_grid_db=(20.0,), **TINY))
    in_grid = runner(ExperimentSpec(snr_grid_db=(0.0, 20.0), **TINY))
    assert [r for r in in_grid if r.snr_db == 20.0] == alone


# ------------------------------------------------------------- output


def test_sweep_csv_format_is_exact():
    rows = [
        SweepRow(snr_db=0.0, metric="channel_nmse", mean=0.125,
                 stderr=0.0625, trials=4, excluded=0),
        SweepRow(snr_db=12.5, metric="timing_nmse", mean=1.0 / 3.0,
                 stderr=0.0, trials=1, excluded=2),
    ]
    text = format_sweep_rows(rows)
    assert text == ("snr_db,metric,mean,stderr,trials,excluded\n"
                    "0,channel_nmse,0.125,0.0625,4,0\n"
                    "12.5,timing_nmse,0.333333333333,0,1,2\n")


def test_trace_csv_format_is_exact():
    assert format_trace([2.0, 0.5]) == "iteration,objective\n0,2\n1,0.5\n"


def test_single_trial_has_zero_stderr():
    spec = ExperimentSpec(snr_grid_db=(20.0,), n_surfaces=2, n_x=1, n_y=1,
                          trials=1, base_seed=3)
    rows = run_crlb_sweep(spec)
    assert all(r.stderr == 0.0 and r.trials == 1 for r in rows)

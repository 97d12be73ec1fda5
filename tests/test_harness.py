"""Tests for the Monte Carlo experiment runner."""
import numpy as np
import pytest

import rissync.estimator as estimator
import rissync.harness as harness
import rissync.pulse as pulse
from rissync.channel import cascade, gen_mmwave, gen_rayleigh
from rissync.crlb import crlb
from rissync.errors import FailureRateError, SingularSystemError
from rissync.estimator import _point, gen_training
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
    sized = ExperimentSpec(n_surfaces=np.int64(3), n_x=np.int32(2), trials=np.int64(4))
    assert all(type(v) is int for v in (sized.n_surfaces, sized.n_x, sized.trials))
    assert type(ExperimentSpec(base_seed=np.int64(0)).base_seed) is int
    reals = ExperimentSpec(snr_grid_db=np.array([0, 10], dtype=np.int32),
                           delta_max=np.float32(0.25))
    assert reals.snr_grid_db == (0.0, 10.0) and reals.delta_max == 0.25
    assert all(type(v) is float for v in (*reals.snr_grid_db, reals.delta_max))


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
    dict(algorithm="mm"),
    dict(n_x=2.5),
    dict(n_surfaces=2.0),
    dict(n_y="2"),
    dict(trials=2.7),
    dict(base_seed=2.7),
    dict(base_seed=-1),
    dict(base_seed="3"),
    dict(delta_max="0.3"),
    dict(delta_max=None),
    dict(delta_max=0.3 + 0j),
    dict(delta_max=np.nan),
    dict(snr_grid_db=["10", "20"]),
    dict(snr_grid_db=[0.0, "10"]),
    dict(snr_grid_db=(10.0, 1j)),
    dict(snr_grid_db=(0.0, np.nan)),
    dict(snr_grid_db=None),
    dict(snr_grid_db=(-4000.0,)),       # noise variance 10**400 overflows
    dict(snr_grid_db=(0.0, 4000.0)),    # noise variance underflows to 0.0
])
def test_spec_rejects_bad_fields(kwargs):
    # every message names the field it rejects
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
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


@pytest.mark.parametrize("base_seed, trial", [(0, 0), (3, 17), (2**32 - 1, 70)])
def test_each_stream_is_its_spawned_child_built_alone(base_seed, trial):
    children = harness._trial_streams(base_seed, trial)
    for name in harness._STREAM_NAMES:
        direct = harness._stream(base_seed, trial, name).bit_generator
        np.testing.assert_array_equal(direct.seed_seq.generate_state(8),
                                      children[name].generate_state(8))
        assert direct.state == np.random.default_rng(children[name]).bit_generator.state


def _bytes(*arrays) -> list:
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("scenario, n_surfaces, n_x, n_y", [("rayleigh", 2, 4, 2),
                                                          ("mmwave", 4, 4, 4)])
@pytest.mark.parametrize("offset_model", ["uniform", "common-delta"])
def test_block_rows_are_the_per_seed_draws(scenario, n_surfaces, n_x, n_y, offset_model):
    # the blocks of a sweep of _BLOCK + 1 trials, row for row against the
    # public functions on each trial's spawned streams
    spec = ExperimentSpec(scenario=scenario, n_surfaces=n_surfaces, n_x=n_x, n_y=n_y,
                          offset_model=offset_model, trials=harness._BLOCK + 1, base_seed=11)
    cfg = spec.system_config()
    for start in range(0, spec.trials, harness._BLOCK):
        block = harness._Block(spec, range(start, min(start + harness._BLOCK, spec.trials)))
        for row, trial in enumerate(block.trials):
            streams = harness._trial_streams(spec.base_seed, trial)
            gains = cascade(gen_rayleigh(cfg, streams["channel"]) if scenario == "rayleigh"
                            else gen_mmwave(cfg, n_x, streams["channel"]))
            draws = harness._offset_draws(spec, np.random.default_rng(streams["offsets"]))
            offsets = np.clip(draws, -pulse._OFFSET_EDGE, pulse._OFFSET_EDGE)
            expected = [gains, offsets, gen_training(cfg, streams["pilot"]),
                        np.sum(np.abs(gains) ** 2), np.sum(offsets ** 2)]
            assert _bytes(block.gains[row], block.offsets[row], block.pilots[row],
                          block.channel_norms[row], block.timing_norms[row]) == _bytes(*expected)


def test_offset_draws_respect_models():
    spec_u = ExperimentSpec(n_surfaces=6, offset_model="uniform")
    eps = harness._draw_trial(spec_u, 5).offsets
    assert eps.shape == (6,)
    assert np.all(np.abs(eps) < 1.0)

    spec_c = ExperimentSpec(n_surfaces=6, offset_model="common-delta", delta_max=0.2)
    eps = harness._draw_trial(spec_c, 5).offsets
    # all values cluster within 2*delta_max of each other around a common base
    assert eps.max() - eps.min() <= 0.4 + 1e-12
    assert np.all(np.abs(eps) < 1.0)

    spec_z = ExperimentSpec(n_surfaces=4, offset_model="common-delta", delta_max=0.0)
    eps = harness._draw_trial(spec_z, 9).offsets
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


def test_channel_estimate_meets_its_bound_row_in_the_linear_regime():
    # At 10 dB the joint ML channel estimate is efficient, so the sweep's
    # own channel_nmse / channel_crlb lies within 3 standard errors of 1.
    # Both rows are means of paired per-trial values x_i and b_i, so the
    # ratio's standard error is the delta method's for a ratio of means:
    # sd(x_i - ratio * b_i) / (sqrt(n) * mean(b)).
    spec = ExperimentSpec(n_surfaces=2, n_x=4, n_y=4, snr_grid_db=(10.0,), trials=200,
                          base_seed=0)
    rows = {r.metric: r.mean for r in run_estimation_sweep(spec)}
    scores = [harness._score_estimation(harness._draw_trial(spec, t))[0]
              for t in range(spec.trials)]
    x, b = (np.array([s[metric][0] for s in scores])
            for metric in ("channel_nmse", "channel_crlb"))
    ratio = rows["channel_nmse"] / rows["channel_crlb"]
    stderr = np.std(x - ratio * b, ddof=1) / (np.sqrt(spec.trials) * b.mean())
    assert abs(ratio - 1.0) <= 3.0 * stderr
    assert rows["channel_nmse"] == pytest.approx(x.mean(), rel=1e-12)
    assert rows["channel_crlb"] == pytest.approx(b.mean(), rel=1e-12)


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


def test_crlb_rows_are_means_of_per_trial_bounds_over_their_own_norms():
    # A bound row takes its estimate row's normalization: the mean over
    # trials of var * trace_i / norm_i, with each trial bounded alone.
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0), **{**TINY, "trials": 6})
    cfg = spec.system_config()
    rows = {(r.snr_db, r.metric): r for r in run_crlb_sweep(spec)}
    trials = [harness._draw_trial(spec, t) for t in range(spec.trials)]
    for snr_db in spec.snr_grid_db:
        bounds = [crlb(t.offsets, t.gains, t.pilot, 10.0 ** (-snr_db / 10.0), cfg) for t in trials]
        per_trial = {
            "channel_crlb": [b.channel_trace / np.sum(np.abs(t.gains) ** 2)
                             for b, t in zip(bounds, trials)],
            "timing_crlb": [b.timing_trace / np.sum(t.offsets ** 2) for b, t in zip(bounds, trials)],
        }
        for metric, values in per_trial.items():
            row = rows[(snr_db, metric)]
            assert row.mean == pytest.approx(np.mean(values), rel=1e-12)
            assert row.stderr == pytest.approx(np.std(values, ddof=1) / np.sqrt(spec.trials),
                                               rel=1e-9)


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


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_async_impact_estimators_are_one_estimator_on_one_surface(seed):
    # with K=1 the one shared offset is the joint search's only offset, so
    # both columns must be the same numbers at every point
    spec = ExperimentSpec(n_surfaces=1, n_x=4, n_y=2, snr_grid_db=(0.0, 20.0), trials=3,
                          base_seed=seed)
    rows = run_async_impact(spec)
    for snr_db in spec.snr_grid_db:
        at = {r.metric: r for r in rows if r.snr_db == snr_db}
        joint, naive = at["channel_nmse"], at["channel_nmse_sync_naive"]
        assert (naive.mean, naive.stderr, naive.trials) == (joint.mean, joint.stderr,
                                                              joint.trials)


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


def test_proposed_design_beats_both_baselines_at_nk_256():
    # At K=4, 8x8 random phases mostly beat phase-aligned ones, the reverse
    # of small arrays; the proposed design must still beat each baseline,
    # paired per trial: the mean log NMSE ratio exceeds 3 standard errors.
    spec = ExperimentSpec(n_surfaces=4, n_x=8, n_y=8, snr_grid_db=(10.0,), trials=8,
                          offset_model="common-delta", delta_max=0.3, base_seed=77)
    scores = [harness._score_design(harness._draw_trial(spec, t), 0) for t in range(spec.trials)]
    proposed = np.log([s["nmse_proposed"] for s in scores])
    for baseline in ("nmse_phase_aligned", "nmse_random"):
        gain = np.log([s[baseline] for s in scores]) - proposed
        assert gain.mean() > 3.0 * gain.std(ddof=1) / np.sqrt(gain.size), baseline


# ---------------------------------------------------------- convergence


def test_convergence_traces_are_monotone_and_comparable():
    spec = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(0.0,),
                          trials=1, base_seed=1)
    result = run_convergence(spec)
    trace = result.objective_trace
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
    assert result.converged and len(trace) == result.iterations + 1
    np.testing.assert_array_equal(run_convergence(spec).objective_trace, trace)


def test_convergence_on_a_grid_uses_the_first_point_listed():
    def run(grid):
        result = run_convergence(ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=grid,
                                                trials=1, base_seed=1))
        return np.asarray(result.objective_trace).tobytes(), result.iterations

    assert run((20.0, 0.0)) == run((20.0,))
    assert run((0.0, 20.0)) == run((0.0,)) != run((20.0,))


# ----------------------------------------------------------- exclusion


def _kept(values):
    # the conditioning check's verdict on every row of a trial's fits: kept
    return np.full(values.shape[:-1], np.nan)


def test_exclusion_rate_above_limit_aborts(monkeypatch):
    def always_fails(values):
        return np.full(values.shape[:-1], 1e99)

    monkeypatch.setattr(harness, "_excess", always_fails)
    spec = ExperimentSpec(snr_grid_db=(10.0,), **TINY)
    with pytest.raises(FailureRateError):
        run_estimation_sweep(spec)


def test_exclusion_rate_aborts_as_soon_as_the_limit_is_passed(monkeypatch):
    calls = {"n": 0}

    def always_fails(values):
        calls["n"] += 1
        return np.full(values.shape[:-1], 1e99)

    monkeypatch.setattr(harness, "_excess", always_fails)
    spec = ExperimentSpec(n_surfaces=2, n_x=1, n_y=1, snr_grid_db=(0.0, 10.0),
                          trials=100, base_seed=0)
    with pytest.raises(FailureRateError) as info:
        run_estimation_sweep(spec)
    # one exclusion per 100 trials is allowed, so the second trial aborts
    assert info.value.excluded == 2 and calls["n"] == 2


def test_exclusion_at_limit_is_tolerated(monkeypatch):
    calls = {"n": 0}

    def flaky(values):
        calls["n"] += 1
        if calls["n"] == 1:
            return np.full(values.shape[:-1], 1e99)
        return _kept(values)

    monkeypatch.setattr(harness, "_excess", flaky)
    spec = ExperimentSpec(n_surfaces=2, n_x=1, n_y=1, snr_grid_db=(10.0,),
                          trials=100, base_seed=0)
    rows = run_estimation_sweep(spec)
    for row in rows:
        assert row.excluded == 1
        assert row.trials == 99


# ------------------------------------------------------- trial driver

RUNNERS = [run_estimation_sweep, run_crlb_sweep, run_async_impact, run_design_sweep]


def _counting(monkeypatch, name, module=harness):
    calls = {"n": 0}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _bound_stacks(monkeypatch) -> list:
    # the offsets' shape of every crlb call the harness makes
    shapes, original = [], harness.crlb

    def recorded(offsets, *args, **kwargs):
        shapes.append(np.shape(offsets))
        return original(offsets, *args, **kwargs)

    monkeypatch.setattr(harness, "crlb", recorded)
    return shapes


@pytest.mark.parametrize("runner", [run_crlb_sweep, run_estimation_sweep])
def test_bound_is_evaluated_once_per_trial(monkeypatch, runner):
    # every trial is one row of its block's one stacked call
    shapes = _bound_stacks(monkeypatch)
    runner(ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY))
    assert shapes == [(TINY["trials"], TINY["n_surfaces"])]


@pytest.mark.parametrize("runner", [run_design_sweep, run_async_impact])
def test_design_and_async_sweeps_make_no_stacked_bound_call(monkeypatch, runner):
    # design bounds each point's estimate alone; async reads no bound
    shapes = _bound_stacks(monkeypatch)
    runner(ExperimentSpec(snr_grid_db=(0.0, 10.0), **TINY))
    assert all(len(shape) == 1 for shape in shapes)
    assert len(shapes) == (2 * TINY["trials"] if runner is run_design_sweep else 0)


def _zero_channel_at(monkeypatch, trial):
    # the given trial of the sweep draws an all-zero cascaded channel, so its
    # bound is unidentifiable; the other trials are unchanged. Blocks are
    # drawn in trial order, each cascading its links in one call, so the
    # trial is the row of its block that follows the rows drawn before it.
    drawn, original = [0], harness.cascade

    def cascade(links):
        gains = original(links)
        if 0 <= trial - drawn[0] < len(gains):
            gains[trial - drawn[0]] = 0.0
        drawn[0] += len(gains)
        return gains

    monkeypatch.setattr(harness, "cascade", cascade)


def test_unidentifiable_trial_is_excluded_alone_at_every_point(monkeypatch):
    # blocks of 2 over 5 trials: the failing trial's block is bounded again
    # trial by trial, and the rows are those of bounding every trial alone
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **{**TINY, "trials": 5})
    monkeypatch.setattr(harness, "EXCLUSION_LIMIT", 1.0)
    _zero_channel_at(monkeypatch, 2)
    shapes = _bound_stacks(monkeypatch)
    monkeypatch.setattr(harness, "_BLOCK", 2)
    blocked = run_crlb_sweep(spec)
    assert shapes == [(2, 2), (2, 2), (2,), (2,), (1, 2)]
    _zero_channel_at(monkeypatch, 2)
    monkeypatch.setattr(harness, "_BLOCK", 1)
    assert run_crlb_sweep(spec) == blocked
    for row in blocked:
        assert (row.excluded, row.trials) == (1, 4)


@pytest.mark.parametrize("runner", [run_crlb_sweep, run_estimation_sweep])
def test_rows_do_not_depend_on_the_block_size(monkeypatch, runner):
    # 70 trials cross the default block's boundary; blocks of one bound every
    # trial alone
    spec = ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, snr_grid_db=(0.0, 20.0), trials=70)
    assert spec.trials > harness._BLOCK
    blocked = runner(spec)
    monkeypatch.setattr(harness, "_BLOCK", 1)
    assert runner(spec) == blocked


@pytest.mark.parametrize("runner, searches", [(run_estimation_sweep, 1),
                                              (run_async_impact, 2)])
def test_timing_search_runs_once_per_trial_over_every_point(monkeypatch, runner, searches):
    # one simulation per trial, and one search per estimator (joint, and for
    # async the common-offset one) over all points, however many there are
    simulated = _counting(monkeypatch, "simulate_training")
    searched = _counting(monkeypatch, "_search_offsets", estimator)
    runner(ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY))
    assert simulated["n"] == TINY["trials"]
    assert searched["n"] == searches * TINY["trials"]


@pytest.mark.parametrize("runner, sets", [(run_estimation_sweep, 1), (run_async_impact, 2)])
def test_fits_make_one_steering_evaluation_per_offset_set_per_trial(monkeypatch, runner, sets):
    # Every point's fit at one set of searched offsets (joint, and for async
    # the common one) comes from one steering evaluation of the stacked
    # offsets; the others are the simulation's, one per trial at its true
    # offsets. The estimation sweep's bound makes none: its filtered pilots
    # come from the lag-pilot matrix. Every steering matrix and derivative,
    # whichever module asks for it, is a ``pulse._shifted`` evaluation.
    stacked, single = [], []
    shifted = pulse._shifted

    def counting(pulse_fn, offsets, pulse_cfg):
        (stacked if np.ndim(offsets) == 2 else single).append(np.shape(offsets))
        return shifted(pulse_fn, offsets, pulse_cfg)

    monkeypatch.setattr(pulse, "_shifted", counting)
    grid = (0.0, 20.0)
    runner(ExperimentSpec(snr_grid_db=grid, **TINY))
    fits = [(len(grid), TINY["n_surfaces"])] * (sets * TINY["trials"])
    assert sorted(stacked) == sorted(fits)
    assert len(single) == TINY["trials"]


def test_conditioning_failure_at_one_point_excludes_that_point_only(monkeypatch):
    # The real check, with its limit lowered between the worst and the next
    # worst spread of the sweep's joint fits, fails at one (trial, point)
    # only: every point is fitted in one stack, but checked on its own.
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), offset_model="common-delta", **TINY)
    spreads = []
    for index in range(spec.trials):
        trial = harness._draw_trial(spec, index)
        root = np.sqrt(trial.joint[1])
        spreads += [(s, p) for p, s in enumerate(root.max(axis=-1) / root.min(axis=-1))]
    (worst, point), (next_worst, _) = sorted(spreads, reverse=True)[:2]
    assert worst > next_worst > 1.0
    monkeypatch.setattr(estimator, "COND_LIMIT", (worst + next_worst) / 2.0)
    monkeypatch.setattr(harness, "EXCLUSION_LIMIT", 1.0)
    for row in run_async_impact(spec):
        dropped = 1 if row.snr_db == spec.snr_grid_db[point] else 0
        assert (row.excluded, row.trials) == (dropped, spec.trials - dropped)


@pytest.mark.parametrize("runner", RUNNERS)
def test_each_trial_is_drawn_once(monkeypatch, runner):
    calls = _counting(monkeypatch, "_pilot_draws")
    runner(ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY))
    assert calls["n"] == TINY["trials"]


def test_failure_at_one_point_excludes_the_trial_there_only(monkeypatch):
    seen = {}

    def fails_once_at_10db(values):
        conds = _kept(values)
        if not seen.get("failed"):
            seen["failed"] = True
            conds[1] = 1e99
        return conds

    monkeypatch.setattr(harness, "_excess", fails_once_at_10db)
    spec = ExperimentSpec(n_surfaces=2, n_x=1, n_y=1, snr_grid_db=(0.0, 10.0, 20.0),
                          trials=100, base_seed=0)
    for row in run_estimation_sweep(spec):
        dropped = 1 if row.snr_db == 10.0 else 0
        assert (row.excluded, row.trials) == (dropped, 100 - dropped)


@pytest.mark.parametrize("geometry", [TINY, dict(n_surfaces=2, n_x=4, n_y=4, trials=3,
                                                  base_seed=5)])
def test_records_are_the_per_point_values_bit_for_bit(geometry):
    # Column p of a record has the bytes of point p scored alone: row p of
    # the stacked fits taken by ``_point`` and summed in 1-D, and each bound
    # the scalar var * trace / norm of the trial's traces at unit variance.
    spec = ExperimentSpec(snr_grid_db=(-10.0, 0.0, 10.0, 20.0, 30.0),
                          offset_model="common-delta", **geometry)
    noise_vars = tuple(map(harness._noise_var, spec.snr_grid_db))
    block = harness._Block(spec, range(spec.trials))
    for row in range(spec.trials):
        trial = harness._Trial(block, row)
        unit = crlb(trial.offsets, trial.gains, trial.pilot, 1.0, trial.cfg)
        estimation, asynchrony = harness._score_estimation(trial), harness._score_async(trial)
        assert list(estimation[0]) == ["channel_nmse", "timing_nmse", "channel_crlb",
                                       "timing_crlb"]
        assert list(asynchrony[0]) == ["channel_nmse", "channel_nmse_sync_naive"]
        assert np.isnan(estimation[1]).all() and np.isnan(asynchrony[1]).all()
        for p, var in enumerate(noise_vars):
            joint, naive = _point(trial.joint, p), _point(trial.naive, p)
            expected = {
                "channel_nmse": np.sum(np.abs(joint.channel - trial.gains) ** 2)
                / trial.channel_norm,
                "timing_nmse": np.sum((joint.offsets - trial.offsets) ** 2) / trial.timing_norm,
                "channel_crlb": var * unit.channel_trace / trial.channel_norm,
                "timing_crlb": var * unit.timing_trace / trial.timing_norm,
                "channel_nmse_sync_naive": np.sum(np.abs(naive.channel - trial.gains) ** 2)
                / trial.channel_norm,
            }
            for metric, values in (*estimation[0].items(), *asynchrony[0].items()):
                assert values[p].tobytes() == np.float64(expected[metric]).tobytes(), metric


def test_a_failed_bound_excludes_its_trial_with_the_cond_it_raises_alone(monkeypatch):
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY)
    cfg = spec.system_config()
    _zero_channel_at(monkeypatch, 1)
    block = harness._Block(spec, range(spec.trials))
    with pytest.raises(SingularSystemError) as err:
        crlb(block.offsets[1], block.gains[1], block.pilots[1], 1.0, cfg)
    for row in range(spec.trials):
        expected = np.full(3, err.value.cond if row == 1 else np.nan)
        with np.errstate(divide="ignore"):  # the zero channel's own error over its zero norm
            for score in (harness._score_bounds, harness._score_estimation):
                np.testing.assert_array_equal(score(harness._Trial(block, row))[1], expected)
    # where the fit check fails too, the record keeps the larger cond
    monkeypatch.setattr(harness, "_excess", lambda values: np.full(values.shape[:-1], 1e20))
    for row in range(spec.trials):
        expected = np.full(3, err.value.cond if row == 1 else 1e20)
        with np.errstate(divide="ignore"):
            np.testing.assert_array_equal(
                harness._score_estimation(harness._Trial(block, row))[1], expected)


def test_a_failed_fit_is_excluded_with_the_spread_of_its_row(monkeypatch):
    # the limit lowered as in the conditioning test above: one (trial, point)
    # of the joint fits fails, with its own spread; the naive fits share one
    # offset, so every element's Gram entry is equal and their spread is 1
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), offset_model="common-delta", **TINY)
    trials = [harness._draw_trial(spec, i) for i in range(spec.trials)]
    roots = [np.sqrt(trial.joint[1]) for trial in trials]
    spreads = np.array([root.max(axis=-1) / root.min(axis=-1) for root in roots])
    worst, next_worst = np.sort(spreads, axis=None)[:-3:-1]
    assert worst > next_worst > 1.0
    assert all(np.ptp(trial.naive[1], axis=-1).max() == 0.0 for trial in trials)
    monkeypatch.setattr(estimator, "COND_LIMIT", (worst + next_worst) / 2.0)
    for trial, spread in zip(trials, spreads):
        expected = np.where(spread == worst, spread, np.nan)
        np.testing.assert_array_equal(harness._score_async(trial)[1], expected)
    assert np.sum(spreads == worst) == 1


def test_a_design_point_that_raises_stores_its_cond_there_only(monkeypatch):
    spec = ExperimentSpec(snr_grid_db=(0.0, 10.0, 20.0), **TINY)
    trial = harness._draw_trial(spec, 0)
    alone = [harness._score_design(trial, p) for p in range(3)]
    original = harness._score_design

    def fails_at_10db(trial, p):
        if p == 1:
            raise SingularSystemError("forced failure", 1e99)
        return original(trial, p)

    monkeypatch.setattr(harness, "_score_design", fails_at_10db)
    values, conds = harness._score_design_points(trial)
    np.testing.assert_array_equal(conds, [np.nan, 1e99, np.nan])
    assert list(values) == list(harness._DESIGN_METRICS)
    for metric, column in values.items():
        np.testing.assert_array_equal(column, [alone[0][metric], np.nan, alone[2][metric]])


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

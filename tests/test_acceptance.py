"""Acceptance suite: eleven end-to-end guarantees, one test each (the
eleventh, byte determinism, also across BLAS thread counts).

Run ``pytest tests/test_acceptance.py -v`` for a one-line verdict per
guarantee. The two Monte Carlo studies (estimator efficiency, design-scheme
ordering) dominate the runtime; their wall-clock budgets are asserted inside
the tests themselves.
"""
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import rissync.harness as harness
from rissync.channel import cascade
from rissync.config import SystemConfig
from rissync.crlb import crlb, crlb_from_fim
from rissync.design import (
    DesignInputs,
    build_problem,
    design_accelerated,
    mmse_equalizer,
    mse_compact,
    mse_direct,
    phase_update,
    recovered_energy,
    surrogate_anchor,
    surrogate_value,
    white_noise_cov,
)
from rissync.estimator import gen_training, mle_alternating, simulate_training
from rissync.harness import ExperimentSpec


def _unit_phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _design_instance(seed, k, n, noise_var=0.1, cov_scale=0.05):
    """Random design problem: offsets, channel, a PSD uncertainty, white noise."""
    cfg = SystemConfig(n_surfaces=k, n_elements=n)
    rng = np.random.default_rng(seed)
    nk = cfg.total_elements
    offsets = rng.uniform(-0.9, 0.9, k)
    channel = _complex_normal(rng, nk)
    basis = _complex_normal(rng, (nk, nk))
    cov = cov_scale * (basis @ basis.conj().T) / nk
    inputs = DesignInputs(offsets=offsets, channel=channel, channel_cov=cov,
                          noise_cov=white_noise_cov(noise_var, cfg))
    return cfg, inputs


def _estimated_design_problem(seed, trial, k, n_x, n_y, snr_db):
    """The shipped pipeline: simulate, estimate, bound, assemble the problem."""
    spec = ExperimentSpec(n_surfaces=k, n_x=n_x, n_y=n_y,
                          snr_grid_db=(snr_db,), trials=trial + 1, base_seed=seed)
    cfg = spec.system_config()
    var = 10.0 ** (-snr_db / 10.0)
    streams = harness._trial_streams(seed, trial)
    chans = harness._draw_channels(spec, cfg, streams["channel"])
    eps = harness._draw_offsets(spec, streams["offsets"])
    tp = gen_training(cfg, streams["pilot"])
    obs = simulate_training(chans, eps, tp, var, cfg, streams["noise"])
    est = mle_alternating(obs, tp, cfg)
    bounds = crlb(est.offsets, est.channel, tp, var, cfg)
    believed = DesignInputs(offsets=est.offsets, channel=est.channel,
                            channel_cov=bounds.channel_cov,
                            noise_cov=white_noise_cov(var, cfg))
    return build_problem(believed, cfg)


# --------------------------------------------------------------------------
# 1. Noiseless exact recovery
# --------------------------------------------------------------------------


def test_a01_noiseless_joint_recovery_is_exact():
    spec = ExperimentSpec(n_surfaces=2, n_x=4, n_y=1)
    cfg = spec.system_config()
    start = time.perf_counter()
    for i in range(50):
        streams = harness._trial_streams(101, i)
        chans = harness._draw_channels(spec, cfg, streams["channel"])
        eps = harness._draw_offsets(spec, streams["offsets"])
        tp = gen_training(cfg, streams["pilot"])
        obs = simulate_training(chans, eps, tp, 0.0, cfg, streams["noise"])
        est = mle_alternating(obs, tp, cfg)
        gains = cascade(chans)
        assert np.max(np.abs(est.offsets - eps)) <= 1e-4
        assert (np.linalg.norm(est.channel - gains)
                <= 1e-6 * np.linalg.norm(gains))
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# 2. The two bound routes agree
# --------------------------------------------------------------------------


def test_a02_bound_routes_agree():
    sizes = [(1, 2), (2, 2), (2, 4), (3, 2), (4, 1)]
    for i in range(50):
        k, n = sizes[i % len(sizes)]
        spec = ExperimentSpec(n_surfaces=k, n_x=n, n_y=1)
        cfg = spec.system_config()
        streams = harness._trial_streams(202, i)
        gains = cascade(harness._draw_channels(spec, cfg, streams["channel"]))
        eps = harness._draw_offsets(spec, streams["offsets"])
        tp = gen_training(cfg, streams["pilot"])
        var = 10.0 ** np.random.default_rng(streams["noise"]).uniform(-3.0, 0.0)
        closed = crlb(eps, gains, tp, var, cfg)
        brute = crlb_from_fim(eps, gains, tp, var, cfg)
        for name in ("timing_cov", "channel_cov"):
            ref = getattr(closed, name)
            diff = getattr(brute, name) - ref
            assert np.max(np.abs(diff)) <= 1e-8 * np.max(np.abs(ref)), name


# --------------------------------------------------------------------------
# 3 & 4. Estimator efficiency against the bounds (shared Monte Carlo study)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def efficiency_study():
    spec = ExperimentSpec(n_surfaces=2, n_x=4, n_y=4, snr_grid_db=(25.0,),
                          trials=200, base_seed=33)
    cfg = spec.system_config()
    var = 10.0 ** (-25.0 / 10.0)
    ch_err, ch_norm, bound_ch = [], [], []
    eps_sq, bound_eps = [], []
    start = time.perf_counter()
    for trial in range(spec.trials):
        streams = harness._trial_streams(spec.base_seed, trial)
        chans = harness._draw_channels(spec, cfg, streams["channel"])
        eps = harness._draw_offsets(spec, streams["offsets"])
        tp = gen_training(cfg, streams["pilot"])
        gains = cascade(chans)
        obs = simulate_training(chans, eps, tp, var, cfg, streams["noise"])
        est = mle_alternating(obs, tp, cfg)
        bounds = crlb(eps, gains, tp, var, cfg)
        ch_err.append(np.sum(np.abs(est.channel - gains) ** 2))
        ch_norm.append(np.sum(np.abs(gains) ** 2))
        bound_ch.append(np.trace(bounds.channel_cov).real)
        eps_sq.append((est.offsets - eps) ** 2)
        bound_eps.append(np.trace(bounds.timing_cov))
    elapsed = time.perf_counter() - start
    return {
        "elapsed": elapsed,
        "n_surfaces": spec.n_surfaces,
        "channel_nmse": float(np.mean(np.array(ch_err) / np.array(ch_norm))),
        "channel_bound": float(np.mean(bound_ch) / np.mean(ch_norm)),
        "timing_mse_per_entry": np.asarray(eps_sq).mean(axis=0),
        "timing_bound_trace": float(np.mean(bound_eps)),
    }


def test_a03_estimator_reaches_channel_bound(efficiency_study):
    ratio = efficiency_study["channel_nmse"] / efficiency_study["channel_bound"]
    assert 0.9 <= ratio <= 2.0
    assert efficiency_study["elapsed"] < 300.0


def test_a04_timing_errors_respect_bound_at_high_snr(efficiency_study):
    floor = 0.8 * efficiency_study["timing_bound_trace"] / efficiency_study["n_surfaces"]
    for entry_mse in efficiency_study["timing_mse_per_entry"]:
        assert entry_mse >= floor


# --------------------------------------------------------------------------
# 5. The direct and stacked objective forms agree
# --------------------------------------------------------------------------


def test_a05_direct_and_stacked_objectives_agree():
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]
    for i in range(100):
        k, n = sizes[i % len(sizes)]
        cfg, inputs = _design_instance(505 + i, k, n)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(1000 + i)
        theta = _unit_phases(rng, cfg.total_elements)
        eq = _complex_normal(rng, (problem.window.shape[0], problem.block))
        full = mse_direct(theta, eq, inputs, cfg)
        stacked = mse_compact(theta, eq, problem)
        assert abs(full - stacked) <= 1e-10 * (1.0 + abs(full))


# --------------------------------------------------------------------------
# 6. The closed-form equalizer is a stationary point
# --------------------------------------------------------------------------


def test_a06_equalizer_is_stationary():
    sizes = [(1, 2), (2, 2), (2, 1), (3, 1)]
    step = 1e-6
    for i in range(50):
        k, n = sizes[i % len(sizes)]
        cfg, inputs = _design_instance(606 + i, k, n)
        problem = build_problem(inputs, cfg)
        theta = _unit_phases(np.random.default_rng(2000 + i), cfg.total_elements)
        eq = mmse_equalizer(theta, problem)
        worst = 0.0
        for r in range(eq.shape[0]):
            for c in range(eq.shape[1]):
                for bump in (step, 1j * step):
                    hi, lo = eq.copy(), eq.copy()
                    hi[r, c] += bump
                    lo[r, c] -= bump
                    deriv = (mse_compact(theta, hi, problem)
                             - mse_compact(theta, lo, problem)) / (2.0 * step)
                    worst = max(worst, abs(deriv))
        assert worst <= 1e-6


# --------------------------------------------------------------------------
# 7. Monotone descent and the surrogate axioms
# --------------------------------------------------------------------------


def test_a07_descent_is_monotone_and_surrogate_is_valid():
    sizes = [(1, 2), (2, 2), (2, 3), (3, 2)]
    for i in range(100):
        k, n = sizes[i % len(sizes)]
        cfg, inputs = _design_instance(707 + i, k, n)
        problem = build_problem(inputs, cfg)
        for result in (design_accelerated(problem),):
            trace = result.objective_trace
            steps = np.diff(trace)
            assert np.all(steps <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

        rng = np.random.default_rng(3000 + i)
        anchor_point = _unit_phases(rng, cfg.total_elements)
        anchor = surrogate_anchor(anchor_point, problem)
        at_anchor = surrogate_value(anchor_point, anchor, problem)
        touched = recovered_energy(anchor_point, problem)
        assert abs(at_anchor - touched) <= 1e-10 * (1.0 + abs(touched))
        for _ in range(10):
            probe = _unit_phases(rng, cfg.total_elements)
            lower = surrogate_value(probe, anchor, problem)
            actual = recovered_energy(probe, problem)
            assert lower <= actual + 1e-10 * (1.0 + abs(actual))


# --------------------------------------------------------------------------
# 8. The per-element update is a global argmax of the surrogate
# --------------------------------------------------------------------------


def test_a08_closed_form_update_beats_phase_grid():
    sizes = [(1, 2), (2, 2), (2, 3), (3, 2)]
    grid = np.arange(0.0, 2.0 * np.pi, 1e-3)
    spins = np.exp(1j * grid)
    for i in range(20):
        k, n = sizes[i % len(sizes)]
        cfg, inputs = _design_instance(808 + i, k, n)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(4000 + i)
        anchor_point = _unit_phases(rng, cfg.total_elements)
        anchor = surrogate_anchor(anchor_point, problem)
        best = phase_update(anchor_point, problem)

        # the surrogate is linear in each phase entry, so sweeping one element
        # changes it by exactly this per-element term
        scores = anchor.slice_scores
        for idx in range(cfg.total_elements):
            closed = 2.0 * np.real(np.conj(scores[idx]) * best[idx])
            swept = 2.0 * np.real(np.conj(scores[idx]) * spins)
            assert swept.max() <= closed + 1e-12 * (1.0 + abs(closed))

        # and the full-vector surrogate agrees the update is no worse than
        # any single-element grid deviation from it
        base = surrogate_value(best, anchor, problem)
        for idx in range(cfg.total_elements):
            trial = best.copy()
            trial[idx] = spins[int(np.random.default_rng(5000 + i + idx).integers(len(spins)))]
            assert surrogate_value(trial, anchor, problem) <= base + 1e-12 * (1.0 + abs(base))


# --------------------------------------------------------------------------
# 9. Design-scheme ordering under clustered offsets
# --------------------------------------------------------------------------


def test_a09_design_scheme_ordering():
    start = time.perf_counter()
    for k in (2, 4):
        spec = ExperimentSpec(n_surfaces=k, n_x=4, n_y=2, snr_grid_db=(10.0,),
                              trials=100, offset_model="common-delta",
                              delta_max=0.3, algorithm="accelerated", base_seed=77)
        cfg = spec.system_config()
        per_trial = {m: [] for m in harness._DESIGN_METRICS}
        for trial in range(spec.trials):
            scored = harness._design_trial(spec, cfg, 10.0, trial)
            for m in harness._DESIGN_METRICS:
                per_trial[m].append(scored[m])
        arr = {m: np.asarray(v) for m, v in per_trial.items()}
        for worse, better in [("nmse_random", "nmse_phase_aligned"),
                              ("nmse_phase_aligned", "nmse_proposed"),
                              ("nmse_proposed", "nmse_perfect")]:
            gap = arr[worse] - arr[better]
            stderr = gap.std(ddof=1) / np.sqrt(gap.size)
            assert gap.mean() > 2.0 * stderr, (k, worse, better, gap.mean(), stderr)
    assert time.perf_counter() - start < 900.0


# --------------------------------------------------------------------------
# 10. Acceleration reaches the plain loop's level in fewer iterations
# --------------------------------------------------------------------------


def test_a10_accelerated_loop_matches_plain_within_budget():
    for i in range(20):
        problem = _estimated_design_problem(110, i, k=2, n_x=4, n_y=1, snr_db=0.0)
        # plain minorize-maximize reference: 500 steps of the phase_update map
        # from all-ones phases, each iterate solved once through its anchor
        anchor = surrogate_anchor(np.ones(problem.n_parts, dtype=complex), problem)
        plain = [problem.window_energy - anchor.recovered]
        for _ in range(500):
            anchor = surrogate_anchor(np.exp(1j * np.angle(anchor.slice_scores)), problem)
            plain.append(problem.window_energy - anchor.recovered)
        plain = np.asarray(plain)
        assert np.all(np.diff(plain) <= 1e-12 * np.maximum(1.0, np.abs(plain[:-1])))
        fast = design_accelerated(problem)
        target = plain[-1]
        reached = np.nonzero(fast.objective_trace <= target * 1.01)[0]
        assert reached.size > 0
        assert reached[0] <= len(plain) - 1
        assert fast.objective_trace[-1] <= target + 1e-6


# --------------------------------------------------------------------------
# 11. The sweep command is byte-deterministic
# --------------------------------------------------------------------------


def test_a11_sweep_cli_is_byte_deterministic(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rissync.cli", "sweep", "--kind", "estimation",
             "--surfaces", "2", "--nx", "2", "--ny", "1", "--snr-db", "0,10",
             "--trials", "3", "--seed", "42", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"snr_db,metric,mean,stderr,trials,excluded\n")


@pytest.mark.parametrize("args", [
    # 40 trials: a full block of trials bounded in one stacked call, then the rest
    ["--kind", "crlb", "--scenario", "mmwave", "--surfaces", "4", "--nx", "4", "--ny", "4",
     "--trials", "40"],
    ["--kind", "estimation", "--surfaces", "2", "--nx", "4", "--ny", "2", "--trials", "3"],
], ids=["crlb", "estimation"])
def test_a11_sweep_bytes_do_not_depend_on_blas_threads(tmp_path, args):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rissync.cli", "sweep", *args, "--snr-db", "0,20",
             "--seed", "5", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

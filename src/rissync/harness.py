"""Monte Carlo experiment runner: SNR sweeps, bound curves, design comparisons.

Every trial owns its own random streams, derived from (base seed, trial
index), so results do not depend on execution order and identical
experiment settings reproduce identical output byte for byte. Each trial is
drawn once and scored at every SNR point, so the points share common random
numbers. A trial that dies in an ill-conditioned linear solve is excluded at
that point and counted; an exclusion rate above one percent aborts the run.

Reported metrics are normalized mean-squared errors. For estimates the
normalizer is that trial's own squared true-parameter norm; for the matching
error-bound traces it is the empirical mean of those norms over the point's
included trials. The bounds are exactly proportional to the noise variance,
so each trial's are evaluated once at unit variance and scaled.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import ChannelSet, MmWaveParams, cascade, gen_mmwave, gen_rayleigh
from .config import SystemConfig
from .crlb import crlb
from .design import (
    DesignInputs,
    build_problem,
    design_accelerated,
    design_mm,
    design_phase_aligned,
    mmse_equalizer,
    mse_compact,
    random_phases,
    white_noise_cov,
)
from .errors import FailureRateError, SingularSystemError
from .estimator import (TrainingPattern, gen_training, mle_alternating,
                        mle_common_offset, simulate_training)

__all__ = [
    "ExperimentSpec",
    "SweepRow",
    "run_estimation_sweep",
    "run_async_impact",
    "run_design_sweep",
    "run_crlb_sweep",
    "run_convergence",
    "format_sweep_rows",
    "format_trace",
]

SCENARIOS = ("rayleigh", "mmwave")
OFFSET_MODELS = ("uniform", "common-delta")
ALGORITHMS = ("mm", "accelerated")

# Fraction of trials that may be excluded before the run is declared failed.
EXCLUSION_LIMIT = 0.01

# Spawn order of the per-trial child streams; changing it changes every draw.
_STREAM_NAMES = ("channel", "offsets", "pilot", "noise", "design")

# Keep drawn offsets strictly inside the open unit interval.
_OFFSET_EDGE = 1.0 - 1e-9


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one Monte Carlo experiment."""

    scenario: str = "rayleigh"
    n_surfaces: int = 2
    n_x: int = 4
    n_y: int = 1
    snr_grid_db: tuple = (0.0, 10.0, 20.0, 30.0)
    trials: int = 100
    offset_model: str = "uniform"
    delta_max: float = 0.3
    algorithm: str = "accelerated"
    base_seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.offset_model not in OFFSET_MODELS:
            raise ValueError(
                f"offset_model must be one of {OFFSET_MODELS}, got {self.offset_model!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        for name in ("n_surfaces", "n_x", "n_y"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if int(self.trials) < 1:
            raise ValueError("trials must be >= 1")
        grid = tuple(float(s) for s in np.atleast_1d(self.snr_grid_db))
        if not grid:
            raise ValueError("snr_grid_db must not be empty")
        if not all(np.isfinite(grid)):
            raise ValueError("snr_grid_db entries must be finite")
        if not 0.0 <= float(self.delta_max) < 2.0:
            raise ValueError("delta_max must lie in [0, 2)")
        object.__setattr__(self, "snr_grid_db", grid)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "delta_max", float(self.delta_max))

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    def system_config(self) -> SystemConfig:
        return SystemConfig(n_surfaces=self.n_surfaces, n_elements=self.n_elements)


@dataclass(frozen=True)
class SweepRow:
    """One aggregated curve point: a metric at one SNR."""

    snr_db: float
    metric: str
    mean: float
    stderr: float
    trials: int      # trials the mean was computed over (exclusions removed)
    excluded: int


def _trial_streams(base_seed: int, trial: int) -> dict:
    """Independent named child streams for one trial."""
    root = np.random.SeedSequence((base_seed, trial))
    return dict(zip(_STREAM_NAMES, root.spawn(len(_STREAM_NAMES))))


def _noise_var(snr_db: float) -> float:
    # unit-power symbols, so the SNR fixes the noise variance directly
    return 10.0 ** (-snr_db / 10.0)


def _draw_offsets(spec: ExperimentSpec, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    k = spec.n_surfaces
    if spec.offset_model == "uniform":
        eps = rng.uniform(-1.0, 1.0, k)
    else:
        base = rng.uniform(-0.5, 0.5)
        eps = base + rng.uniform(-spec.delta_max, spec.delta_max, k)
    return np.clip(eps, -_OFFSET_EDGE, _OFFSET_EDGE)


def _draw_channels(spec: ExperimentSpec, cfg: SystemConfig, seed):
    if spec.scenario == "rayleigh":
        return gen_rayleigh(cfg, seed)
    return gen_mmwave(cfg, MmWaveParams(n_x=spec.n_x), seed)


def _aggregate(snr_db: float, metric: str, vals: np.ndarray, excluded: int) -> SweepRow:
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return SweepRow(snr_db=float(snr_db), metric=metric, mean=float(vals.mean()),
                    stderr=stderr, trials=int(vals.size), excluded=excluded)


# Bound metrics -> the per-trial norm their sweep mean is divided by.
_BOUND_NORMS = {"channel_crlb": "channel_norm", "timing_crlb": "timing_norm"}
_ESTIMATION_METRICS = ("channel_nmse", "timing_nmse", *_BOUND_NORMS)
_ASYNC_METRICS = ("channel_nmse", "channel_nmse_sync_naive")
_DESIGN_METRICS = ("nmse_proposed", "nmse_phase_aligned", "nmse_perfect", "nmse_random")


@dataclass(frozen=True)
class _Trial:
    """One trial's draws, shared by every SNR point of a sweep."""

    spec: ExperimentSpec
    cfg: SystemConfig
    streams: dict
    channels: ChannelSet
    offsets: np.ndarray
    pattern: TrainingPattern
    gains: np.ndarray
    channel_norm: float  # squared norms of the true parameters
    timing_norm: float

    @cached_property
    def unit_bound_traces(self) -> tuple:
        """Channel and timing bound traces at unit noise variance.

        Both bounds are exactly proportional to the noise variance and their
        conditioning checks do not depend on it, so one evaluation serves
        every SNR point; a trial that fails here fails at every point.
        """
        bounds = crlb(self.offsets, self.gains, self.pattern, 1.0, self.cfg)
        return np.trace(bounds.channel_cov).real, np.trace(bounds.timing_cov)


def _draw_trial(spec: ExperimentSpec, cfg: SystemConfig, trial: int) -> _Trial:
    streams = _trial_streams(spec.base_seed, trial)
    channels = _draw_channels(spec, cfg, streams["channel"])
    offsets, gains = _draw_offsets(spec, streams["offsets"]), cascade(channels)
    return _Trial(spec=spec, cfg=cfg, streams=streams, channels=channels, offsets=offsets,
                  pattern=gen_training(cfg, streams["pilot"]), gains=gains,
                  channel_norm=float(np.sum(np.abs(gains) ** 2)),
                  timing_norm=float(np.sum(offsets ** 2)))


def _sweep(spec: ExperimentSpec, score, metrics) -> list:
    """Score every trial at every SNR point; one row per (SNR, metric).

    Each trial is drawn once, scored by ``score(trial, noise_var) -> {metric:
    value}`` at every point, and dropped before the next is drawn. A trial
    whose scoring raises :class:`SingularSystemError` is excluded at that
    point only; the run aborts once one point's exclusions pass the limit.
    """
    cfg = spec.system_config()
    noise_vars = [_noise_var(snr_db) for snr_db in spec.snr_grid_db]
    scored = [[] for _ in noise_vars]
    for index in range(spec.trials):
        trial = _draw_trial(spec, cfg, index)
        for results, var in zip(scored, noise_vars):
            try:
                results.append(score(trial, var))
            except SingularSystemError:
                excluded = index + 1 - len(results)
                if excluded > EXCLUSION_LIMIT * spec.trials:
                    raise FailureRateError(excluded, spec.trials, EXCLUSION_LIMIT) from None
    rows = []
    for snr_db, results in zip(spec.snr_grid_db, scored):
        excluded = spec.trials - len(results)
        for metric in metrics:
            values = np.array([r[metric] for r in results], dtype=float)
            if metric in _BOUND_NORMS:
                values = values / np.mean([r[_BOUND_NORMS[metric]] for r in results])
            rows.append(_aggregate(snr_db, metric, values, excluded))
    return rows


def _observe(trial: _Trial, var: float):
    """Simulate the trial's training block at noise variance ``var`` and run
    the joint estimator on it; returns (observation, estimate)."""
    obs = simulate_training(trial.channels, trial.offsets, trial.pattern, var,
                            trial.cfg, trial.streams["noise"])
    return obs, mle_alternating(obs, trial.pattern, trial.cfg)


def _believed(trial: _Trial, var: float, est) -> DesignInputs:
    """Design inputs as the receiver sees them after training: the estimates,
    the bound at the estimates as their uncertainty, and the noise."""
    bounds = crlb(est.offsets, est.channel, trial.pattern, var, trial.cfg)
    return DesignInputs(offsets=est.offsets, channel=est.channel,
                        channel_cov=bounds.channel_cov,
                        noise_cov=white_noise_cov(var, trial.cfg))


def _channel_nmse(estimate: np.ndarray, trial: _Trial) -> float:
    return np.sum(np.abs(estimate - trial.gains) ** 2) / trial.channel_norm


def _score_bounds(trial: _Trial, var: float) -> dict:
    channel_trace, timing_trace = trial.unit_bound_traces
    return {"channel_crlb": var * channel_trace, "timing_crlb": var * timing_trace,
            "channel_norm": trial.channel_norm, "timing_norm": trial.timing_norm}


def _score_estimation(trial: _Trial, var: float) -> dict:
    bounds = _score_bounds(trial, var)
    _, est = _observe(trial, var)
    return {"channel_nmse": _channel_nmse(est.channel, trial),
            "timing_nmse": np.sum((est.offsets - trial.offsets) ** 2) / trial.timing_norm,
            **bounds}


def _score_async(trial: _Trial, var: float) -> dict:
    obs, joint = _observe(trial, var)
    naive = mle_common_offset(obs, trial.pattern, trial.cfg)
    return {"channel_nmse": _channel_nmse(joint.channel, trial),
            "channel_nmse_sync_naive": _channel_nmse(naive.channel, trial)}


def _score_design(trial: _Trial, var: float) -> dict:
    """Full pipeline for one trial: estimate, bound, design, score.

    Every scheme is scored under the true channel and offsets (zero
    uncertainty), normalized by the window energy, so the comparison measures
    what each design would actually achieve.
    """
    cfg = trial.cfg
    _, est = _observe(trial, var)
    believed = _believed(trial, var, est)
    belief_problem = build_problem(believed, cfg)

    truth = DesignInputs(
        offsets=trial.offsets, channel=trial.gains,
        channel_cov=np.zeros((cfg.total_elements,) * 2, dtype=complex),
        noise_cov=believed.noise_cov)
    true_problem = build_problem(truth, cfg)
    energy = true_problem.window_energy

    optimize = design_accelerated if trial.spec.algorithm == "accelerated" else design_mm
    tuned = optimize(belief_problem)
    aligned = design_phase_aligned(believed, cfg)
    genie = design_accelerated(true_problem)  # perfect knowledge of offsets and channel
    scrambled = random_phases(cfg.total_elements, trial.streams["design"])
    scrambled_eq = mmse_equalizer(scrambled, belief_problem)

    return {
        "nmse_proposed": mse_compact(tuned.theta, tuned.equalizer, true_problem) / energy,
        "nmse_phase_aligned": mse_compact(aligned.theta, aligned.equalizer,
                                          true_problem) / energy,
        "nmse_perfect": mse_compact(genie.theta, genie.equalizer, true_problem) / energy,
        "nmse_random": mse_compact(scrambled, scrambled_eq, true_problem) / energy,
    }


def _design_trial(spec: ExperimentSpec, cfg: SystemConfig, snr_db: float,
                  trial: int) -> dict:
    return _score_design(_draw_trial(spec, cfg, trial), _noise_var(snr_db))


def run_estimation_sweep(spec: ExperimentSpec) -> list:
    """Estimator error and matching bounds across the SNR grid.

    Per trial: draw channels and offsets, simulate one training block per SNR
    point, run the timing/channel estimator, and record the channel and timing
    errors next to the bound traces evaluated at the true parameters.
    """
    return _sweep(spec, _score_estimation, _ESTIMATION_METRICS)


def run_crlb_sweep(spec: ExperimentSpec) -> list:
    """Bound curves only — no estimator, so it is fast at any SNR."""
    return _sweep(spec, _score_bounds, tuple(_BOUND_NORMS))


def run_async_impact(spec: ExperimentSpec) -> list:
    """Joint offset estimation versus a single-offset fit, under clustered
    offsets (a shared base value plus per-surface deviations up to delta_max),
    whatever the spec's offset model.
    """
    return _sweep(replace(spec, offset_model="common-delta"), _score_async, _ASYNC_METRICS)


def run_design_sweep(spec: ExperimentSpec) -> list:
    """Compare reflection-design schemes end to end across the SNR grid."""
    return _sweep(spec, _score_design, _DESIGN_METRICS)


def run_convergence(spec: ExperimentSpec) -> dict:
    """Objective-versus-iteration traces of both design loops on one matched
    instance (trial zero of the experiment, at the first SNR of the grid)."""
    trial = _draw_trial(spec, spec.system_config(), 0)
    var = _noise_var(spec.snr_grid_db[0])
    _, est = _observe(trial, var)
    problem = build_problem(_believed(trial, var, est), trial.cfg)
    return {
        "mm": design_mm(problem).objective_trace,
        "accelerated": design_accelerated(problem).objective_trace,
    }


def format_sweep_rows(rows) -> str:
    """Render sweep rows as the canonical CSV text (trailing newline)."""
    lines = ["snr_db,metric,mean,stderr,trials,excluded"]
    for row in rows:
        lines.append(f"{row.snr_db:.12g},{row.metric},{row.mean:.12g},"
                     f"{row.stderr:.12g},{row.trials},{row.excluded}")
    return "\n".join(lines) + "\n"


def format_trace(trace) -> str:
    """Render one objective trace as CSV text (trailing newline)."""
    values = np.asarray(trace, dtype=float)
    lines = ["iteration,objective"]
    lines.extend(f"{i},{v:.12g}" for i, v in enumerate(values))
    return "\n".join(lines) + "\n"

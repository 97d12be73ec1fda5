"""Monte Carlo experiment runner: SNR sweeps, bound curves, design comparisons.

Every trial owns its own random streams, derived from (base seed, trial
index), so results do not depend on execution order and identical
experiment settings reproduce identical output byte for byte. Trials that die in
an ill-conditioned linear solve are excluded and counted; an exclusion rate
above one percent aborts the whole run.

Reported metrics are normalized mean-squared errors. For estimates the
normalizer is that trial's own squared true-parameter norm; for the matching
error-bound traces the normalizer is the empirical mean of those norms over
the sweep's included trials.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import MmWaveParams, cascade, gen_mmwave, gen_rayleigh
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
from .estimator import gen_training, mle_alternating, mle_common_offset, simulate_training

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


def _check_exclusions(excluded: int, total: int):
    if excluded > EXCLUSION_LIMIT * total:
        raise FailureRateError(excluded, total, EXCLUSION_LIMIT)


def _aggregate(snr_db: float, metric: str, values, excluded: int) -> SweepRow:
    vals = np.asarray(values, dtype=float)
    mean = float(vals.mean()) if vals.size else float("nan")
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return SweepRow(snr_db=float(snr_db), metric=metric, mean=mean,
                    stderr=stderr, trials=int(vals.size), excluded=excluded)


def _bound_rows(snr_db: float, name: str, traces, norms, excluded: int) -> SweepRow:
    """Bound trace normalized by the empirical mean of the true-squared norms."""
    traces = np.asarray(traces, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if traces.size == 0:
        return SweepRow(float(snr_db), name, float("nan"), 0.0, 0, excluded)
    normalizer = norms.mean()
    return _aggregate(snr_db, name, traces / normalizer, excluded)


def run_estimation_sweep(spec: ExperimentSpec) -> list:
    """Estimator error and matching bounds across the SNR grid.

    Per trial: draw channels and offsets, simulate one training block, run
    the timing/channel estimator, and record the channel and timing errors next
    to the bound traces evaluated at the true parameters.
    """
    cfg = spec.system_config()
    rows = []
    for snr_db in spec.snr_grid_db:
        var = _noise_var(snr_db)
        nmse_ch, nmse_eps = [], []
        bound_ch, bound_eps, norm_ch, norm_eps = [], [], [], []
        excluded = 0
        for trial in range(spec.trials):
            streams = _trial_streams(spec.base_seed, trial)
            chans = _draw_channels(spec, cfg, streams["channel"])
            eps = _draw_offsets(spec, streams["offsets"])
            pattern = gen_training(cfg, streams["pilot"])
            gains = cascade(chans)
            try:
                obs = simulate_training(chans, eps, pattern, var, cfg, streams["noise"])
                est = mle_alternating(obs, pattern, cfg)
                bounds = crlb(eps, gains, pattern, var, cfg)
            except SingularSystemError:
                excluded += 1
                continue
            ch_norm = float(np.sum(np.abs(gains) ** 2))
            eps_norm = float(np.sum(eps ** 2))
            nmse_ch.append(np.sum(np.abs(est.channel - gains) ** 2) / ch_norm)
            nmse_eps.append(np.sum((est.offsets - eps) ** 2) / eps_norm)
            bound_ch.append(np.trace(bounds.channel_cov).real)
            bound_eps.append(np.trace(bounds.timing_cov))
            norm_ch.append(ch_norm)
            norm_eps.append(eps_norm)
        _check_exclusions(excluded, spec.trials)
        rows.append(_aggregate(snr_db, "channel_nmse", nmse_ch, excluded))
        rows.append(_aggregate(snr_db, "timing_nmse", nmse_eps, excluded))
        rows.append(_bound_rows(snr_db, "channel_crlb", bound_ch, norm_ch, excluded))
        rows.append(_bound_rows(snr_db, "timing_crlb", bound_eps, norm_eps, excluded))
    return rows


def run_crlb_sweep(spec: ExperimentSpec) -> list:
    """Bound curves only — no estimator, so it is fast at any SNR."""
    cfg = spec.system_config()
    rows = []
    for snr_db in spec.snr_grid_db:
        var = _noise_var(snr_db)
        bound_ch, bound_eps, norm_ch, norm_eps = [], [], [], []
        excluded = 0
        for trial in range(spec.trials):
            streams = _trial_streams(spec.base_seed, trial)
            chans = _draw_channels(spec, cfg, streams["channel"])
            eps = _draw_offsets(spec, streams["offsets"])
            pattern = gen_training(cfg, streams["pilot"])
            gains = cascade(chans)
            try:
                bounds = crlb(eps, gains, pattern, var, cfg)
            except SingularSystemError:
                excluded += 1
                continue
            bound_ch.append(np.trace(bounds.channel_cov).real)
            bound_eps.append(np.trace(bounds.timing_cov))
            norm_ch.append(float(np.sum(np.abs(gains) ** 2)))
            norm_eps.append(float(np.sum(eps ** 2)))
        _check_exclusions(excluded, spec.trials)
        rows.append(_bound_rows(snr_db, "channel_crlb", bound_ch, norm_ch, excluded))
        rows.append(_bound_rows(snr_db, "timing_crlb", bound_eps, norm_eps, excluded))
    return rows


def run_async_impact(spec: ExperimentSpec) -> list:
    """Joint offset estimation versus a single-offset fit, under clustered
    offsets (a shared base value plus per-surface deviations up to delta_max),
    whatever the spec's offset model.
    """
    cfg = spec.system_config()
    clustered = replace(spec, offset_model="common-delta")
    rows = []
    for snr_db in spec.snr_grid_db:
        var = _noise_var(snr_db)
        nmse_joint, nmse_common = [], []
        excluded = 0
        for trial in range(spec.trials):
            streams = _trial_streams(spec.base_seed, trial)
            chans = _draw_channels(spec, cfg, streams["channel"])
            eps = _draw_offsets(clustered, streams["offsets"])
            pattern = gen_training(cfg, streams["pilot"])
            gains = cascade(chans)
            try:
                obs = simulate_training(chans, eps, pattern, var, cfg, streams["noise"])
                joint = mle_alternating(obs, pattern, cfg)
                naive = mle_common_offset(obs, pattern, cfg)
            except SingularSystemError:
                excluded += 1
                continue
            ch_norm = float(np.sum(np.abs(gains) ** 2))
            nmse_joint.append(np.sum(np.abs(joint.channel - gains) ** 2) / ch_norm)
            nmse_common.append(np.sum(np.abs(naive.channel - gains) ** 2) / ch_norm)
        _check_exclusions(excluded, spec.trials)
        rows.append(_aggregate(snr_db, "channel_nmse", nmse_joint, excluded))
        rows.append(_aggregate(snr_db, "channel_nmse_sync_naive", nmse_common, excluded))
    return rows


def _design_trial(spec: ExperimentSpec, cfg: SystemConfig, snr_db: float,
                  trial: int) -> dict:
    """Full pipeline for one trial: estimate, bound, design, score.

    Every scheme is scored under the true channel and offsets (zero
    uncertainty), normalized by the window energy, so the comparison measures
    what each design would actually achieve.
    """
    var = _noise_var(snr_db)
    streams = _trial_streams(spec.base_seed, trial)
    chans = _draw_channels(spec, cfg, streams["channel"])
    eps = _draw_offsets(spec, streams["offsets"])
    pattern = gen_training(cfg, streams["pilot"])
    gains = cascade(chans)
    noise_cov = white_noise_cov(var, cfg)

    obs = simulate_training(chans, eps, pattern, var, cfg, streams["noise"])
    est = mle_alternating(obs, pattern, cfg)
    bounds = crlb(est.offsets, est.channel, pattern, var, cfg)
    believed = DesignInputs(offsets=est.offsets, channel=est.channel,
                            channel_cov=bounds.channel_cov, noise_cov=noise_cov)
    belief_problem = build_problem(believed, cfg)

    truth = DesignInputs(
        offsets=eps, channel=gains,
        channel_cov=np.zeros((cfg.total_elements,) * 2, dtype=complex),
        noise_cov=noise_cov)
    true_problem = build_problem(truth, cfg)
    energy = true_problem.window_energy

    optimize = design_accelerated if spec.algorithm == "accelerated" else design_mm
    tuned = optimize(belief_problem)
    aligned = design_phase_aligned(believed, cfg)
    genie = design_accelerated(true_problem)  # perfect knowledge of offsets and channel
    scrambled = random_phases(cfg.total_elements, streams["design"])
    scrambled_eq = mmse_equalizer(scrambled, belief_problem)

    return {
        "nmse_proposed": mse_compact(tuned.theta, tuned.equalizer, true_problem) / energy,
        "nmse_phase_aligned": mse_compact(aligned.theta, aligned.equalizer,
                                          true_problem) / energy,
        "nmse_perfect": mse_compact(genie.theta, genie.equalizer, true_problem) / energy,
        "nmse_random": mse_compact(scrambled, scrambled_eq, true_problem) / energy,
    }


_DESIGN_METRICS = ("nmse_proposed", "nmse_phase_aligned", "nmse_perfect", "nmse_random")


def run_design_sweep(spec: ExperimentSpec) -> list:
    """Compare reflection-design schemes end to end across the SNR grid."""
    cfg = spec.system_config()
    rows = []
    for snr_db in spec.snr_grid_db:
        values = {name: [] for name in _DESIGN_METRICS}
        excluded = 0
        for trial in range(spec.trials):
            try:
                scored = _design_trial(spec, cfg, snr_db, trial)
            except SingularSystemError:
                excluded += 1
                continue
            for name in _DESIGN_METRICS:
                values[name].append(scored[name])
        _check_exclusions(excluded, spec.trials)
        for name in _DESIGN_METRICS:
            rows.append(_aggregate(snr_db, name, values[name], excluded))
    return rows


def run_convergence(spec: ExperimentSpec) -> dict:
    """Objective-versus-iteration traces of both design loops on one matched
    instance (trial zero of the experiment, at the first SNR of the grid)."""
    cfg = spec.system_config()
    snr_db = spec.snr_grid_db[0]
    var = _noise_var(snr_db)
    streams = _trial_streams(spec.base_seed, 0)
    chans = _draw_channels(spec, cfg, streams["channel"])
    eps = _draw_offsets(spec, streams["offsets"])
    pattern = gen_training(cfg, streams["pilot"])
    obs = simulate_training(chans, eps, pattern, var, cfg, streams["noise"])
    est = mle_alternating(obs, pattern, cfg)
    bounds = crlb(est.offsets, est.channel, pattern, var, cfg)
    believed = DesignInputs(offsets=est.offsets, channel=est.channel,
                            channel_cov=bounds.channel_cov,
                            noise_cov=white_noise_cov(var, cfg))
    problem = build_problem(believed, cfg)
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

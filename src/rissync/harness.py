"""Monte Carlo experiment runner: SNR sweeps, bound curves, design comparisons.

Every trial owns its own random streams, derived from (base seed, trial
index), so results do not depend on execution order and identical
experiment settings reproduce identical output byte for byte. Each trial is
drawn once and scored at every SNR point, so the points share common random
numbers: one noise draw, scaled per point. A trial's training blocks are
therefore simulated and correlated together, and each estimate a scorer
needs (the joint one, and for the asynchrony study the one shared offset)
is one timing search and one stacked least-squares fit over every point and
surface, through the estimator's one route (``estimator._estimate``).
A scorer takes one trial and returns its record ``(values, conds)`` for the
grid: ``values`` maps each metric, in the rows' order, to its value at every
point, and ``conds`` holds per point NaN, or the cond of the ill-conditioned
solve that excludes the trial there. An exclusion rate above one percent at
some point aborts the run.

Trials are drawn in blocks of ``_BLOCK`` and scored in order, so a sweep
holds one block's draws: arrays with one row per trial (``_Block``). Per
trial only the random calls run, on its channel, offsets and pilot streams
(``_stream``); the maps of the draws run once on their stack, each row the
bytes of its trial drawn alone. A trial (``_Trial``) is a row, whose noise
and design streams are built when its scorer reads them. The bounds are
exactly proportional to the noise variance, so each trial's are evaluated
once at unit variance and scaled: when a scorer first reads a trial's
bounds, the block's arrays are bounded in one stacked ``crlb`` call, whose
traces come from the bound's diagonal and per-surface parts without forming
the dense channel bound. If that call finds some row ill-conditioned, the
block's trials are bounded one at a time, so only the failing trial is
excluded, at every point, with the cond its bound raised.

Every reported metric is the mean, over a point's included trials, of one
per-trial value: an error and its bound's trace are both divided by that
trial's own squared true norm, |h|^2 or |eps|^2, so their rows compare like
with like. Timing keeps this rule although its ratios are heavy-tailed (README).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
# numpy loads its random module on first use; every sweep draws from it, so
# load it with the package rather than inside the first trial.
import numpy.random  # noqa: F401

from .channel import _mmwave_draws, _mmwave_links, _rayleigh_draws, _rayleigh_links, cascade
from .config import SystemConfig, finite_real, int_at_least, positive_int
from .crlb import crlb
from .design import (
    DesignInputs,
    DesignResult,
    build_problem,
    design_accelerated,
    design_phase_aligned,
    mmse_equalizer,
    mse_compact,
    random_phases,
    white_noise_cov,
)
from .errors import FailureRateError, SingularSystemError
from .estimator import (_estimate, _excess, _pattern_correlation, _pilot_draws, _point,
                        _qpsk, simulate_training)
from .pulse import _OFFSET_EDGE

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
ALGORITHMS = ("accelerated",)

# Fraction of trials that may be excluded before the run is declared failed.
EXCLUSION_LIMIT = 0.01

# Spawn order of the per-trial child streams; changing it changes every draw.
_STREAM_NAMES = ("channel", "offsets", "pilot", "noise", "design")

# Trials drawn, and bounded in one crlb call, together. For 25 trials at
# mmWave, K=4, 4x4, a process's first block drew in 5.4 ms and was bounded
# in one 2.0 ms call, against 8.9 ms for 25 single calls (medians over 20
# fresh processes, one core). 32 bounds such a round in one call. At
# N*K = 1024 a block's draws hold 1.6 MB; drawing an mmWave one peaks at
# 2.3 MB (Rayleigh: 2.8 MB).
_BLOCK = 32


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
        for name in ("n_surfaces", "n_x", "n_y", "trials"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))
        grid = tuple(finite_real(s, "snr_grid_db entry") for s in np.atleast_1d(self.snr_grid_db))
        if not grid:
            raise ValueError("snr_grid_db must not be empty")
        for snr_db in grid:
            try:
                representable = _noise_var(snr_db) > 0.0  # not underflowed to 0
            except OverflowError:
                representable = False
            if not representable:
                raise ValueError(f"snr_grid_db entry {snr_db} gives a noise variance "
                                 "that is not a positive finite float")
        object.__setattr__(self, "delta_max", finite_real(self.delta_max, "delta_max"))
        if not 0.0 <= self.delta_max < 2.0:
            raise ValueError("delta_max must lie in [0, 2)")
        object.__setattr__(self, "snr_grid_db", grid)
        object.__setattr__(self, "base_seed", int_at_least(self.base_seed, "base_seed", 0))

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


def _stream(base_seed: int, trial: int, name: str) -> np.random.Generator:
    """A new generator on the ``_trial_streams`` child ``name``, whose seed
    is built alone, without spawning the other children."""
    seed = np.random.SeedSequence((base_seed, trial), spawn_key=(_STREAM_NAMES.index(name),))
    return np.random.Generator(np.random.PCG64(seed))


def _noise_var(snr_db: float) -> float:
    # unit-power symbols, so the SNR fixes the noise variance directly
    return 10.0 ** (-snr_db / 10.0)


def _offset_draws(spec: ExperimentSpec, rng: np.random.Generator) -> np.ndarray:
    """The offsets before their clip to [-_OFFSET_EDGE, _OFFSET_EDGE]."""
    k = spec.n_surfaces
    if spec.offset_model == "uniform":
        return rng.uniform(-1.0, 1.0, k)
    base = rng.uniform(-0.5, 0.5)
    return base + rng.uniform(-spec.delta_max, spec.delta_max, k)


def _aggregate(snr_db: float, metric: str, vals: np.ndarray, excluded: int) -> SweepRow:
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return SweepRow(snr_db=float(snr_db), metric=metric, mean=float(vals.mean()),
                    stderr=stderr, trials=int(vals.size), excluded=excluded)


_DESIGN_METRICS = ("nmse_proposed", "nmse_phase_aligned", "nmse_perfect", "nmse_random")


class _Block:
    """Trials ``trials`` (a range) of a sweep, drawn and bounded together:
    offsets (B, K), cascaded gains (B, NK), pilots (B, seq_len) and squared
    norms, one row per trial, each the bytes of that trial drawn alone."""

    def __init__(self, spec: ExperimentSpec, trials: range):
        self.spec, self.trials, self.cfg = spec, trials, spec.system_config()
        self.noise_vars = tuple(map(_noise_var, spec.snr_grid_db))
        cfg, rayleigh, seed = self.cfg, spec.scenario == "rayleigh", spec.base_seed
        channel_draws = _rayleigh_draws if rayleigh else _mmwave_draws
        rows = [(*channel_draws(cfg, _stream(seed, t, "channel")),
                 _offset_draws(spec, _stream(seed, t, "offsets")),
                 _pilot_draws(cfg, _stream(seed, t, "pilot"))) for t in trials]
        *channel, offsets, quadrants = map(np.array, zip(*rows))
        del rows  # the per-trial draws, now stacked: not held while the links are mapped
        self.gains = cascade(_rayleigh_links(*channel) if rayleigh
                             else _mmwave_links(cfg.n_elements, spec.n_x, *channel))
        self.offsets, self.pilots = np.clip(offsets, -_OFFSET_EDGE, _OFFSET_EDGE), _qpsk(quadrants)
        self.channel_norms = np.sum(np.abs(self.gains) ** 2, axis=-1)
        self.timing_norms = np.sum(self.offsets ** 2, axis=-1)

    @cached_property
    def bound_records(self) -> tuple:
        """Every trial's bound record, one row each (module docstring): one
        stacked call, and one call per trial only if that one raises."""
        try:
            bounds = crlb(self.offsets, self.gains, self.pilots, 1.0, self.cfg)
            traces = bounds.channel_trace, bounds.timing_trace, np.full(len(self.trials), np.nan)
        except SingularSystemError:
            traces = tuple(map(np.array, zip(*map(self._alone, range(len(self.trials))))))
        (channel, timing, conds), var = (part[:, None] for part in traces), np.array(self.noise_vars)
        return ({"channel_crlb": var * channel / self.channel_norms[:, None],
                 "timing_crlb": var * timing / self.timing_norms[:, None]},
                conds.repeat(var.size, axis=1))

    def _alone(self, row: int) -> tuple:
        try:
            bounds = crlb(self.offsets[row], self.gains[row], self.pilots[row], 1.0, self.cfg)
        except SingularSystemError as err:
            return np.nan, np.nan, err.cond
        return bounds.channel_trace, bounds.timing_trace, np.nan


class _Trial:
    """One trial's draws, shared by every SNR point of a sweep: row ``row``
    of its block."""

    def __init__(self, block: _Block, row: int):
        self.block, self.row, self.cfg, self.noise_vars = block, row, block.cfg, block.noise_vars
        self.offsets, self.gains = block.offsets[row], block.gains[row]
        self.pilot = block.pilots[row]
        self.channel_norm, self.timing_norm = block.channel_norms[row], block.timing_norms[row]

    def stream(self, name: str) -> np.random.Generator:
        """A new generator at the start of the trial's stream ``name``."""
        return _stream(self.block.spec.base_seed, self.block.trials[self.row], name)

    @cached_property
    def training(self) -> np.ndarray:
        """The training blocks' correlations ``Z`` at the sweep's noise
        variances, one row per point (one noise draw, scaled per point): one
        simulation and one transform over every point, the blocks not kept."""
        obs = simulate_training(self.gains, self.offsets, self.pilot, np.array(self.noise_vars),
                                self.cfg, self.stream("noise"))
        return _pattern_correlation(obs, self.cfg)

    @cached_property
    def joint(self) -> tuple:
        """Every point's joint estimate, one offset searched per surface, as
        stacked fits (row ``p`` is point ``p``'s)."""
        return _estimate(self.training, self.pilot, self.cfg, self.cfg.n_elements)

    @cached_property
    def naive(self) -> tuple:
        """Every point's offset-synchronization-naive estimate, one offset
        searched over all surfaces' elements and shared, as stacked fits."""
        return _estimate(self.training, self.pilot, self.cfg, self.cfg.total_elements)


def _draw_trial(spec: ExperimentSpec, trial: int) -> _Trial:
    """Trial ``trial`` alone: the one row of a block of its own."""
    return _Trial(_Block(spec, range(trial, trial + 1)), 0)


def _sweep(spec: ExperimentSpec, score) -> list:
    """Score every trial over the SNR grid; one row per (SNR, metric).

    Trials are drawn a block of ``_BLOCK`` at a time and each is scored by
    ``score(trial)``, its record (module docstring). The run aborts after the
    trial whose exclusions pass the limit at some point; a row aggregates
    its point's kept values in trial order.
    """
    records, excluded = [], np.zeros(len(spec.snr_grid_db), dtype=int)
    for start in range(0, spec.trials, _BLOCK):
        block = _Block(spec, range(start, min(start + _BLOCK, spec.trials)))
        for row in range(len(block.trials)):
            records.append(score(_Trial(block, row)))
            counted = np.isnan(records[-1][1])
            if not counted.all():  # rare: most trials skip the count's array updates
                excluded += ~counted
                if excluded.max() > EXCLUSION_LIMIT * spec.trials:
                    raise FailureRateError(int(excluded.max()), spec.trials, EXCLUSION_LIMIT)
    kept = np.isnan([conds for _, conds in records])
    stacks = {m: np.array([values[m] for values, _ in records]) for m in records[0][0]}
    return [_aggregate(snr_db, metric, stack[kept[:, p], p], int(excluded[p]))
            for p, snr_db in enumerate(spec.snr_grid_db) for metric, stack in stacks.items()]


def _believed(trial: _Trial, p: int) -> DesignInputs:
    """Design inputs as the receiver sees them after training at point ``p``:
    the joint estimates, the bound at them as their uncertainty, and the
    noise."""
    est, var = _point(trial.joint, p), trial.noise_vars[p]
    bounds = crlb(est.offsets, est.channel, trial.pilot, var, trial.cfg)
    return DesignInputs(offsets=est.offsets, channel=est.channel,
                        channel_cov=bounds.channel_cov,
                        noise_cov=white_noise_cov(var, trial.cfg))


def _channel_nmse(estimate: np.ndarray, trial: _Trial) -> np.ndarray:
    return np.sum(np.abs(estimate - trial.gains) ** 2, axis=-1) / trial.channel_norm


def _score_bounds(trial: _Trial) -> tuple:
    values, conds = trial.block.bound_records
    return {metric: rows[trial.row] for metric, rows in values.items()}, conds[trial.row]


def _score_estimation(trial: _Trial) -> tuple:
    eps, gram, channel = trial.joint
    bounds, bound_conds = _score_bounds(trial)
    return ({"channel_nmse": _channel_nmse(channel, trial),
             "timing_nmse": np.sum((eps - trial.offsets) ** 2, axis=-1) / trial.timing_norm,
             **bounds}, np.fmax(_excess(np.sqrt(gram)), bound_conds))


def _score_async(trial: _Trial) -> tuple:
    (_, joint_gram, joint), (_, naive_gram, naive) = trial.joint, trial.naive
    return ({"channel_nmse": _channel_nmse(joint, trial),
             "channel_nmse_sync_naive": _channel_nmse(naive, trial)},
            np.fmax(_excess(np.sqrt(joint_gram)), _excess(np.sqrt(naive_gram))))


def _score_design(trial: _Trial, p: int) -> dict:
    """Full pipeline for one trial: estimate, bound, design, score.

    What each scheme knows, for its phases and for its equalizer:

    - proposed: the design loop on the belief problem, i.e. the estimated
      per-surface offsets, the estimated channel and its bound as channel
      covariance; its equalizer is the loop's, on that belief.
    - phase_aligned: phases conjugate to the estimated channel; its equalizer
      assumes every offset at the mean of the estimates, with the estimated
      channel and the bound covariance.
    - perfect: the design loop on the true offsets and channel with zero
      covariance; its equalizer is the loop's, on that truth.
    - random: uniform phases from the trial's ``design`` stream; its
      equalizer is the belief problem's, so it knows the estimated
      per-surface offsets, channel and covariance.

    Every scheme is scored under the true channel and offsets (zero
    uncertainty), normalized by the window energy, so the comparison measures
    what each design would actually achieve.
    """
    cfg = trial.cfg
    believed = _believed(trial, p)
    belief_problem = build_problem(believed, cfg)

    truth = DesignInputs(
        offsets=trial.offsets, channel=trial.gains,
        channel_cov=np.zeros((cfg.total_elements,) * 2, dtype=complex),
        noise_cov=believed.noise_cov)
    true_problem = build_problem(truth, cfg)
    energy = true_problem.window_energy

    tuned = design_accelerated(belief_problem)
    aligned_theta, aligned_eq = design_phase_aligned(belief_problem, believed.offsets, cfg)
    genie = design_accelerated(true_problem)  # perfect knowledge of offsets and channel
    scrambled = random_phases(cfg.total_elements, trial.stream("design"))
    scrambled_eq = mmse_equalizer(scrambled, belief_problem)

    return {
        "nmse_proposed": mse_compact(tuned.theta, tuned.equalizer, true_problem) / energy,
        "nmse_phase_aligned": mse_compact(aligned_theta, aligned_eq, true_problem) / energy,
        "nmse_perfect": mse_compact(genie.theta, genie.equalizer, true_problem) / energy,
        "nmse_random": mse_compact(scrambled, scrambled_eq, true_problem) / energy,
    }


def _score_design_points(trial: _Trial) -> tuple:
    """The record of :func:`_score_design`, its values NaN where it raised."""
    values = {metric: np.full(len(trial.noise_vars), np.nan) for metric in _DESIGN_METRICS}
    conds = np.full(len(trial.noise_vars), np.nan)
    for p in range(conds.size):
        try:
            for metric, value in _score_design(trial, p).items():
                values[metric][p] = value
        except SingularSystemError as err:
            conds[p] = err.cond
    return values, conds


def run_estimation_sweep(spec: ExperimentSpec) -> list:
    """Estimator error and matching bounds across the SNR grid.

    Per trial: draw channels and offsets, simulate one training block per SNR
    point, run the timing/channel estimator, and record the channel and timing
    errors next to the bound traces evaluated at the true parameters.
    """
    return _sweep(spec, _score_estimation)


def run_crlb_sweep(spec: ExperimentSpec) -> list:
    """Bound curves only — no estimator, so it is fast at any SNR."""
    return _sweep(spec, _score_bounds)


def run_async_impact(spec: ExperimentSpec) -> list:
    """Joint offset estimation versus a single-offset fit, under clustered
    offsets (a shared base value plus per-surface deviations up to delta_max),
    whatever the spec's offset model.
    """
    return _sweep(replace(spec, offset_model="common-delta"), _score_async)


def run_design_sweep(spec: ExperimentSpec) -> list:
    """Compare reflection-design schemes end to end across the SNR grid."""
    return _sweep(spec, _score_design_points)


def run_convergence(spec: ExperimentSpec) -> DesignResult:
    """The design loop's run, objective trace included, on one matched
    instance (trial zero of the experiment, at the first SNR of the grid)."""
    trial = _draw_trial(spec, 0)
    return design_accelerated(build_problem(_believed(trial, 0), trial.cfg))


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

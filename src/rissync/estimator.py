"""Training-phase simulation and joint timing/channel maximum-likelihood estimation.

The training observation stacks M reflection patterns; under pattern m every
surface applies one column block of a scaled-DFT phase matrix while a known
pilot sequence is transmitted. Timing offsets enter through each surface's
pulse steering matrix, and the cascaded channel enters linearly.

The offsets are recovered by maximum likelihood on the profiled residual (the
channel projected out). The training phases have orthogonal columns, so the
observation matrix has orthogonal columns too and the residual splits into
one term per surface: each offset is the solution of its own 1-D search
against ``Z = Phi^H Y``, the observation correlated with every phase column,
and the channel and residual are per-element closed forms. Other training is
rejected; ``residual_cost`` keeps a dense QR as the reference.

``gen_training``'s scaled-DFT phases depend only on N*K, so they are built
and checked for orthogonality once per N*K (``_dft_phases``) and
shared, read-only; a hand-built ``TrainingPattern`` is checked once per
pattern, on first use.

The surfaces' searches run together (``_search_offsets``): a coarse grid, its
pulse table cached per pulse config, then zoom levels shared by all surfaces,
each one pulse call at the reachable lag times, multiplied by the lag-pilot
matrix formed once per estimate. The truncated pulse is still about 0.025 at
``+-span``, so the objective jumps at every offset that is a multiple of
``1/oversampling``; its best value can lie at the open end of such a step.

Observations stack on leading axes. Given a 1-D array of noise variances,
``simulate_training`` returns one row per variance from one noise draw; the
correlation ``Z`` and the search then serve every row in one pass, and the
least-squares fit (``_result_at``) takes one row at a time. A one-shot
estimator is the one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelSet, cascade
from .config import PulseConfig, SystemConfig
from .errors import SingularSystemError
from .pulse import _OFFSET_EDGE, lag_pilot_matrix, rrc_impulse, steering_matrix

__all__ = [
    "TrainingPattern",
    "EstimationResult",
    "gen_training",
    "observation_matrix",
    "simulate_training",
    "ls_channel",
    "residual_cost",
    "mle_alternating",
    "mle_common_offset",
]

COND_LIMIT = 1e12
GRID_STEP = 0.02
# Offset spacing of the timing search's last zoom level; at 30 dB an offset
# error of 2e-8 raised the residual by under 5e-11, relative (1e-6: 8e-8).
FINAL_SPACING = 2e-8
# Largest off-diagonal entry of phases^H phases, relative to its smallest
# diagonal entry, that still counts as orthogonal training.
ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class TrainingPattern:
    """Known training side information: per-pattern phases and the pilot.

    ``phases`` is (M, N*K) with unit-modulus entries; row m holds the
    reflection coefficients all surfaces apply during pattern m. ``pilot`` is
    the transmitted symbol sequence covering one observation block plus both
    pulse tails.
    """

    phases: np.ndarray
    pilot: np.ndarray

    def __post_init__(self):
        if self.phases.ndim != 2:
            raise ValueError("phases must be a 2-D (patterns x elements) array")
        if self.pilot.ndim != 1:
            raise ValueError("pilot must be a 1-D sequence")

    @property
    def n_patterns(self) -> int:
        return self.phases.shape[0]

    @cached_property
    def column_energies(self) -> np.ndarray:
        """Diagonal |Phi_i|^2 of ``phases^H phases``, formed once per pattern
        (``gen_training`` fills it in with the energies shared by its size).
        Raises ValueError, on every read, unless that Gram is diagonal."""
        return _column_energies(self.phases)


@dataclass(frozen=True)
class EstimationResult:
    """Output of the timing/channel estimators: the searched offsets and the
    least-squares fit at them. Every search runs its fixed zoom levels, so
    there is no iteration count or convergence flag to report."""

    offsets: np.ndarray          # one timing estimate per surface, in (-1, 1)
    channel: np.ndarray          # cascaded-channel estimate, length N*K
    final_cost: float            # residual energy at the returned offsets


def gen_training(cfg: SystemConfig, seed) -> TrainingPattern:
    """Scaled-DFT reflection patterns plus a random QPSK pilot.

    With M = N*K patterns, entry (m, i) of the phase matrix is
    exp(-2j*pi*m*i/M), so the patterns satisfy phases @ phases^H =
    NK * identity. The phases and their checked column energies are built
    once per N*K and shared, read-only, by every pattern of that size; only
    the pilot is drawn here: unit-modulus symbols, deterministic per seed.
    """
    phases, energies = _dft_phases(cfg.total_elements)
    rng = np.random.default_rng(seed)
    quadrants = rng.integers(0, 4, cfg.pulse.seq_len)
    pilot = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quadrants))
    tp = TrainingPattern(phases=phases, pilot=pilot)
    vars(tp)["column_energies"] = energies  # fill the cached_property: already checked
    return tp


@lru_cache(maxsize=4)
def _dft_phases(nk: int) -> tuple[np.ndarray, np.ndarray]:
    """The (nk, nk) scaled-DFT phase matrix and its column energies, both
    read-only; ValueError unless its columns are orthogonal."""
    index = np.arange(nk)
    phases = np.exp(-2j * np.pi * index[:, None] * index[None, :] / nk)
    phases.flags.writeable = False
    return phases, _column_energies(phases)


def _pilot_rows(steer, offsets, tp: TrainingPattern, cfg: SystemConfig) -> np.ndarray:
    """``steer(offset_k) @ pilot`` for each surface k, one row per surface,
    from one pulse evaluation over all surfaces."""
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != (cfg.n_surfaces,):
        raise ValueError(f"expected {cfg.n_surfaces} offsets, got {offsets.shape}")
    return steer(offsets, cfg.pulse) @ tp.pilot


def _stack_columns(tp: TrainingPattern, rows: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Column i (element i, on surface k) is phase column i kron ``rows[k]``;
    rows are pattern-major (pattern index varies slowest)."""
    columns = np.repeat(rows.T, cfg.n_elements, axis=1)
    return (tp.phases[:, None, :] * columns[None]).reshape(-1, cfg.total_elements)


def observation_matrix(offsets: np.ndarray, tp: TrainingPattern,
                       cfg: SystemConfig) -> np.ndarray:
    """Linear map from the cascaded channel to the stacked training output:
    each element's phase column times its surface's filtered pilot."""
    return _stack_columns(tp, _pilot_rows(steering_matrix, offsets, tp, cfg), cfg)


def simulate_training(ch: ChannelSet, offsets, tp: TrainingPattern, noise_var,
                      cfg: SystemConfig, noise_seed) -> np.ndarray:
    """One noisy training observation: signal through the true offsets plus
    white complex Gaussian noise of total variance ``noise_var`` per sample.

    ``noise_var`` may also be a 1-D array of variances. Row p of the result is
    then the observation at ``noise_var[p]``: every row holds the same clean
    signal and the same noise draw, scaled by ``sqrt(noise_var[p] / 2)``, so
    each row is bit for bit the observation a scalar call at that variance
    returns. A zero variance gives the clean signal itself.
    """
    var = np.asarray(noise_var, dtype=float)
    if var.ndim > 1 or not np.all((0.0 <= var) & (var < np.inf)):
        raise ValueError(f"noise_var must be finite and >= 0 (a scalar or 1-D array), "
                         f"got {noise_var}")
    clean = observation_matrix(offsets, tp, cfg) @ cascade(ch)
    rng = np.random.default_rng(noise_seed)
    noise = (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))
    scale = np.sqrt(var / 2.0)[..., None]
    return np.where(scale > 0.0, clean + scale * noise, clean)


def _check_spread(values: np.ndarray, what: str) -> None:
    """Raise SingularSystemError unless ``values``, a matrix's singular values or
    positive diagonal, are positive with max/min (its cond) <= COND_LIMIT.
    In ``design`` it is reached only when the cheap cond bound on the
    equalizer normal matrix fails, so the SVD it needs runs only then."""
    low = values.min()
    cond = values.max() / low if low > 0 else np.inf
    if not cond <= COND_LIMIT:
        raise SingularSystemError(what, float(cond))


def _column_energies(phases: np.ndarray) -> np.ndarray:
    """Diagonal |Phi_i|^2 of ``phases^H phases``. Raises ValueError unless that
    Gram is diagonal: the timing search, the channel and the bound rest on it."""
    gram = phases.conj().T @ phases
    energy = gram.diagonal().real.copy()
    off_diag = np.abs(gram - np.diag(gram.diagonal()))
    if not (energy.min() > 0.0 and off_diag.max() <= ORTHO_TOL * energy.min()):
        raise ValueError("orthogonal-training estimation and bounds need phases with "
                         "orthogonal nonzero columns (phases^H phases diagonal)")
    energy.flags.writeable = False
    return energy


def _pattern_correlation(y: np.ndarray, tp: TrainingPattern, cfg: SystemConfig) -> np.ndarray:
    """``Z = Phi^H Y``, one row per element; a stack of observations (leading
    axes of ``y``) gives one ``Z`` each, from one broadcast product."""
    y = y.reshape(*y.shape[:-1], tp.n_patterns, cfg.pulse.n_samples)
    return tp.phases.conj().T @ y


def _training_gram(offsets, tp: TrainingPattern,
                   cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Filtered pilots f_k (one row per surface) and the diagonal observation
    Gram N^H N, G_i = |Phi_i|^2 |f_k|^2 for element i of surface k."""
    pilots = _pilot_rows(steering_matrix, offsets, tp, cfg)
    pilot_energy = np.repeat(np.sum(np.abs(pilots) ** 2, axis=1), cfg.n_elements)
    return pilots, tp.column_energies * pilot_energy


def ls_channel(offsets, y: np.ndarray, tp: TrainingPattern,
               cfg: SystemConfig) -> np.ndarray:
    """Least-squares cascaded-channel estimate at the given offsets, one
    element at a time (orthogonal training only; ValueError otherwise)."""
    return _result_at(offsets, _pattern_correlation(y, tp, cfg), y, tp, cfg).channel


def residual_cost(offsets, y: np.ndarray, tp: TrainingPattern,
                  cfg: SystemConfig) -> float:
    """Energy of y outside the observation matrix's column space.

    This is the profile objective for timing estimation: the channel has been
    eliminated by projecting onto the orthogonal complement. A QR of the dense
    observation matrix, for any training: the reference for the closed forms.
    """
    q, r = np.linalg.qr(observation_matrix(offsets, tp, cfg))
    _check_spread(np.linalg.svd(r, compute_uv=False), "training observation matrix")
    total = float(np.vdot(y, y).real)
    captured = float(np.vdot(q.conj().T @ y, q.conj().T @ y).real)
    return max(total - captured, 0.0)


_GRID = np.arange(-0.99, 0.991, GRID_STEP)
# 21 points across +-one spacing of the level before: tenfold finer per level
# (float arange and math.log10: an int/float division or np.log10 here paged
# in numpy loops that nothing else loads, about 0.1 MB of resident memory each)
_ZOOM = np.arange(-10.0, 11.0) * 0.1
_LEVELS = math.ceil(math.log10(GRID_STEP / FINAL_SPACING))


@lru_cache(maxsize=4)
def _grid_table(cfg: PulseConfig) -> np.ndarray:
    """``rrc_impulse(times - _GRID[:, None])`` at the lag-pilot matrix's times,
    one row per coarse-grid offset. No pilot enters it, so it is built once
    per pulse config, on first use, and shared read-only."""
    table = rrc_impulse(lag_pilot_matrix(np.zeros(cfg.seq_len), cfg)[0] - _GRID[:, None], cfg)
    table.flags.writeable = False
    return table


def _unit_rows(f: np.ndarray) -> np.ndarray:
    return f / np.sqrt(np.sum(np.abs(f) ** 2, axis=-1))[..., None]


def _unit_pilots(offsets: np.ndarray, lag_pilots: tuple, cfg: SystemConfig) -> np.ndarray:
    """Unit-norm filtered pilots f(x) / |f(x)|, one row per offset x (one stack
    per row of a 2-D ``offsets``: one per surface), from one pulse call;
    ``lag_pilots`` is :func:`~rissync.pulse.lag_pilot_matrix`'s (times, A)."""
    times, a = lag_pilots
    # a complex product: a real one would page in a second BLAS kernel
    return _unit_rows(rrc_impulse(times - offsets[..., None], cfg.pulse) @ a.T)


def _captured(z: np.ndarray, energy: np.ndarray, unit_pilots: np.ndarray) -> np.ndarray:
    """Energy captured by the orthogonal columns of the elements whose rows of
    ``Z`` and phase-column energies are given, sum_i |Z_i u^*|^2 / |Phi_i|^2, for
    each unit filtered pilot u (row of ``unit_pilots``); leading axes broadcast."""
    scores = np.abs(z @ np.swapaxes(unit_pilots.conj(), -1, -2)) ** 2
    return np.sum(scores / energy[..., None], axis=-2)


def _search_offsets(z: np.ndarray, tp: TrainingPattern, cfg: SystemConfig,
                    group: int) -> np.ndarray:
    """Searched offsets of every surface, shape (..., K), for each ``Z`` of a
    stack (leading axes of ``z``). Each run of ``group`` consecutive elements
    (N: one search per surface; N*K: one shared by all) gets the offset that
    maximizes its captured energy (:func:`_captured`): the cached coarse grid
    over (-1, 1), then a zoom that scores 21 offsets across the group's
    winning +-GRID_STEP cell, re-centres on its best point seen and shrinks
    the cell to one spacing, down to FINAL_SPACING. All groups of the stack
    share each level's pulse call. The first level also holds offset 0, a
    truncation-jump point the zoom need not reach, so a result is never
    worse than it or any point scored for it.
    """
    stack, energy = z.shape[:-2], tp.column_energies.reshape(-1, group)
    z = z.reshape(-1, group, z.shape[-1])
    energy = np.tile(energy, (z.shape[0] // energy.shape[0], 1))
    lag_pilots, groups = lag_pilot_matrix(tp.pilot, cfg.pulse), np.arange(z.shape[0])
    grid_pilots = _unit_rows(_grid_table(cfg.pulse) @ lag_pilots[1].T)
    centre = _GRID[np.argmax(_captured(z, energy, grid_pilots), axis=-1)]
    points = np.clip(centre[:, None] + GRID_STEP * _ZOOM, -_OFFSET_EDGE, _OFFSET_EDGE)
    points = np.concatenate([np.zeros((groups.size, 1)), points], axis=1)
    best_x, best, half = np.zeros(groups.size), np.full(groups.size, -np.inf), GRID_STEP
    for _ in range(_LEVELS):
        scores = _captured(z, energy, _unit_pilots(points, lag_pilots, cfg))
        i = np.argmax(scores, axis=-1)
        better = scores[groups, i] > best
        best_x = np.where(better, points[groups, i], best_x)
        best = np.where(better, scores[groups, i], best)
        half /= 10.0
        points = np.clip(best_x[:, None] + half * _ZOOM, -_OFFSET_EDGE, _OFFSET_EDGE)
    return np.repeat(best_x, group // cfg.n_elements).reshape(*stack, cfg.n_surfaces)


def _result_at(eps, z: np.ndarray, y: np.ndarray, tp: TrainingPattern,
               cfg: SystemConfig) -> EstimationResult:
    """Least-squares fit of one observation ``y``, with its ``Z``, at the
    offsets ``eps``: the channel Z_i f_k^* / G_i of each element i (on surface
    k) and the residual, the energy of ``y`` less the sum |Z_i f_k^*|^2 / G_i
    that channel captures. Raises SingularSystemError where the observation
    matrix, whose singular values are sqrt(G), is ill-conditioned."""
    pilots, gram = _training_gram(eps, tp, cfg)
    _check_spread(np.sqrt(gram), "training observation matrix")
    z = z.reshape(cfg.n_surfaces, cfg.n_elements, -1)
    corr = np.einsum("kns,ks->kn", z, pilots.conj()).reshape(-1)
    captured = float(np.sum(np.abs(corr) ** 2 / gram))
    return EstimationResult(offsets=eps, channel=corr / gram,
                            final_cost=max(float(np.vdot(y, y).real) - captured, 0.0))


def mle_alternating(y: np.ndarray, tp: TrainingPattern, cfg: SystemConfig) -> EstimationResult:
    """Joint timing/channel maximum-likelihood estimate.

    With orthogonal training the profile objective is a sum of per-surface
    terms, so each offset comes from its own 1-D search (grid plus zoom to
    ``FINAL_SPACING``; the surfaces share each level's pulse call). The
    channel estimate is the least-squares solve at the returned offsets.
    """
    z = _pattern_correlation(y, tp, cfg)
    return _result_at(_search_offsets(z, tp, cfg, cfg.n_elements), z, y, tp, cfg)


def mle_common_offset(y: np.ndarray, tp: TrainingPattern,
                      cfg: SystemConfig) -> EstimationResult:
    """Offset-synchronization-naive variant: fits a single shared timing value
    for all surfaces (one 1-D search over every element), then the
    least-squares channel."""
    z = _pattern_correlation(y, tp, cfg)
    return _result_at(_search_offsets(z, tp, cfg, cfg.total_elements), z, y, tp, cfg)

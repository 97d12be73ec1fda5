"""Training-phase simulation and joint timing/channel maximum-likelihood estimation.

The training observation stacks NK reflection patterns, one per element:
under pattern m element i applies exp(-2j pi m i / NK), row m of the scaled
DFT Phi, while a known pilot sequence is transmitted: Phi follows from the
configuration, so the pilot array (:func:`gen_training`) is the training's
only side information. Timing offsets enter through each surface's pulse
steering matrix, and the cascaded channel enters linearly. Training is this
DFT by definition, so its products are FFTs: the simulation's Phi X is
``fft(X)`` and ``Z = Phi^H Y`` is the unscaled inverse transform, so training
forms no NK x NK matrix; ``_training_phases`` builds the dense Phi only for
the oracles.

The offsets are recovered by maximum likelihood on the profiled residual (the
channel projected out). Every column of Phi is orthogonal to the others and
has energy NK, so the residual splits into one term per surface: each offset
comes from its own 1-D search against Z, and the channel and residual are
per-element closed forms. ``residual_cost`` keeps a QR of the dense
``observation_matrix`` as the reference.

A filtered pilot is f(x) = A g(x), A the lag-pilot matrix and g(x) the real
pulse at its T reachable lag times, so a search group's captured energy is a
Rayleigh quotient in g (``_forms``): a zoom level costs one pulse call and
T x T forms. The truncated pulse is still about 0.025 at ``+-span``, so the
objective jumps at every multiple of ``1/oversampling``; the search also
scores both sides of each jump.

Observations stack on leading axes: given a 1-D array of noise variances,
``simulate_training`` returns one row per variance from one noise draw, and
``Z``, the search and the least-squares fit (``_fits``) serve every row in
one pass, and ``_excess`` checks each row's conditioning.
``_estimate`` is the one route from ``Z`` to fits, a search and then a fit
at its offsets: ``mle_alternating`` takes it with one search per surface,
and the sweeps take it for every point of a trial at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy loads its fft module on first use; every simulation and estimate
# transforms, so load it with the package rather than inside the first trial.
import numpy.fft  # noqa: F401

from .config import PulseConfig, SystemConfig
from .errors import SingularSystemError
from .pulse import _OFFSET_EDGE, _layout, lag_pilot_matrix, rrc_impulse, steering_matrix

__all__ = [
    "EstimationResult",
    "gen_training",
    "observation_matrix",
    "simulate_training",
    "residual_cost",
    "mle_alternating",
]

COND_LIMIT = 1e12
GRID_STEP = 0.02
# Offset spacing of the timing search's last zoom level; at 30 dB an offset
# error of 2e-8 raised the residual by under 5e-11, relative (1e-6: 8e-8).
FINAL_SPACING = 2e-8


@dataclass(frozen=True)
class EstimationResult:
    """The searched offsets and the least-squares fit at them. Every search
    runs its fixed zoom levels: there is no iteration count to report."""

    offsets: np.ndarray          # one timing estimate per surface, |x| <= _OFFSET_EDGE
    channel: np.ndarray          # cascaded-channel estimate, length N*K


def gen_training(cfg: SystemConfig, seed) -> np.ndarray:
    """The training pilot: ``seq_len`` random QPSK symbols, covering one
    observation block plus both pulse tails; unit modulus, deterministic per
    seed. It does not depend on N*K: the reflection patterns are the scaled
    DFT of size N*K by definition (:func:`_training_phases`)."""
    return _qpsk(_pilot_draws(cfg, np.random.default_rng(seed)))


def _pilot_draws(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """The pilot's random call: its ``seq_len`` QPSK quadrants."""
    return rng.integers(0, 4, cfg.pulse.seq_len)


def _qpsk(quadrants: np.ndarray) -> np.ndarray:
    """QPSK symbols of quadrant indices, elementwise: stacks map row for row."""
    return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quadrants))


def _training_phases(cfg: SystemConfig) -> np.ndarray:
    """The (NK, NK) phase matrix Phi, entry (m, i) exp(-2j*pi*m*i/NK): row m
    holds the reflection coefficients all surfaces apply during pattern m.
    Built on each call, for the dense oracles only."""
    index = np.arange(cfg.total_elements)
    return np.exp(-2j * np.pi * index[:, None] * index[None, :] / cfg.total_elements)


def _pilot(pilot: np.ndarray, cfg: SystemConfig, lead: tuple = ()) -> np.ndarray:
    """The pilot, once checked against ``cfg``: every route that simulates,
    searches, fits or bounds reads it here. ValueError unless its shape is
    ``(*lead, seq_len)``: one pilot, or one per index of a bound's stack."""
    if np.shape(pilot) != (*lead, cfg.pulse.seq_len):
        raise ValueError(f"pilot has shape {np.shape(pilot)}; the configuration needs "
                         f"seq_len = {cfg.pulse.seq_len} symbols")
    return np.asarray(pilot)


def _channel(channel, cfg: SystemConfig, lead: tuple = ()) -> np.ndarray:
    """The cascaded channel as an array, for simulating or bounding; ValueError
    unless it is a finite vector of N*K entries (one per index of ``lead``)."""
    h = np.asarray(channel)
    if h.shape != (*lead, cfg.total_elements) or not np.all(np.isfinite(h)):
        raise ValueError(f"channel has shape {h.shape}; the configuration needs a finite "
                         f"vector of {cfg.total_elements} entries")
    return h


def _pilot_rows(steer, offsets, pilot: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """``steer(offset_k) @ pilot`` for each surface k, one row per surface
    (one stack per row of a 2-D ``offsets``), from one pulse evaluation of
    one pilot shared by every row; each row has the bits of its call alone."""
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape[-1:] != (cfg.n_surfaces,):
        raise ValueError(f"expected {cfg.n_surfaces} offsets, got {offsets.shape}")
    return (steer(offsets, cfg.pulse) @ _pilot(pilot, cfg)[:, None])[..., 0]


def _stack_columns(rows: np.ndarray, phases: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Column i (element i, on surface k) is phase column i kron ``rows[k]``;
    rows are pattern-major (pattern index varies slowest)."""
    columns = np.repeat(rows.T, cfg.n_elements, axis=1)
    return (phases[:, None, :] * columns[None]).reshape(-1, cfg.total_elements)


def observation_matrix(offsets: np.ndarray, pilot: np.ndarray,
                       cfg: SystemConfig) -> np.ndarray:
    """Linear map from the cascaded channel to the stacked training output:
    each element's phase column times its surface's filtered pilot."""
    return _stack_columns(_pilot_rows(steering_matrix, offsets, pilot, cfg),
                          _training_phases(cfg), cfg)


def simulate_training(channel, offsets, pilot: np.ndarray, noise_var,
                      cfg: SystemConfig, noise_seed) -> np.ndarray:
    """One noisy training observation of the cascaded (NK,) ``channel``:
    signal through the true offsets plus white complex Gaussian noise of
    total variance ``noise_var`` per sample.

    ``noise_var`` may also be a 1-D array of variances. Row p of the result is
    then the observation at ``noise_var[p]``: every row holds the same clean
    signal and the same noise draw, scaled by ``sqrt(noise_var[p] / 2)``, so
    each row is bit for bit the observation a scalar call at that variance
    returns. A zero variance gives the clean signal itself. That is Phi (h * F),
    F the filtered pilots repeated per element, formed as one FFT over the
    elements: neither Phi nor the observation matrix is formed.
    """
    var = np.asarray(noise_var, dtype=float)
    if var.ndim > 1 or not np.all((0.0 <= var) & (var < np.inf)):
        raise ValueError(f"noise_var must be finite and >= 0 (a scalar or 1-D array), "
                         f"got {noise_var}")
    pilots = np.repeat(_pilot_rows(steering_matrix, offsets, pilot, cfg), cfg.n_elements, axis=0)
    clean = np.fft.fft(_channel(channel, cfg)[:, None] * pilots, axis=0).reshape(-1)
    rng = np.random.default_rng(noise_seed)
    noise = (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))
    scale = np.sqrt(var / 2.0)[..., None]
    return np.where(scale > 0.0, clean + scale * noise, clean)


def _excess(values: np.ndarray) -> np.ndarray:
    """Per row of ``values`` (singular values or a positive diagonal, one row
    per matrix of a stack, on the last axis): NaN where its cond max/min is
    <= COND_LIMIT, else that cond, inf unless all are positive and finite."""
    low = values.min(axis=-1)
    usable = (low > 0) & (low < np.inf)  # inf / inf would read NaN: a pass
    cond = np.where(usable, values.max(axis=-1), np.inf) / np.where(usable, low, 1.0)
    return np.where(cond <= COND_LIMIT, np.nan, cond)


def _check_spread(values: np.ndarray, what: str) -> None:
    """Raise SingularSystemError, with the worst row's cond, unless every row
    of ``values`` passes :func:`_excess`."""
    excess = _excess(values)
    if not np.isnan(excess).all():
        raise SingularSystemError(what, float(np.nanmax(excess)))


def _observation(y, cfg: SystemConfig) -> np.ndarray:
    """A training observation (or a stack, on leading axes) as an array, once
    checked: ValueError unless its last axis holds NK patterns of
    ``n_samples`` samples each and every sample is finite."""
    y = np.asarray(y)
    size = cfg.total_elements * cfg.pulse.n_samples
    if y.shape[-1:] != (size,):
        raise ValueError(f"training observation has shape {y.shape}; the configuration needs "
                         f"{cfg.total_elements} patterns x {cfg.pulse.n_samples} samples = "
                         f"{size} on its last axis")
    if not np.all(np.isfinite(y)):
        raise ValueError("training observation has non-finite samples")
    return y


def _pattern_correlation(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """``Z = Phi^H Y``, one row per element: the inverse DFT over the patterns,
    unscaled; a stack of observations (leading axes of ``y``) gives one ``Z``
    each, from one transform. ``y`` is read through :func:`_observation`."""
    y = _observation(y, cfg)
    return np.fft.ifft(y.reshape(*y.shape[:-1], cfg.total_elements, cfg.pulse.n_samples),
                       axis=-2, norm="forward")


def _training_gram(pilots: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The diagonal observation Gram N^H N of filtered pilots f_k (one row per
    surface): G_i = NK |f_k|^2 for element i of surface k (every DFT column
    has energy NK); a stack of pilot rows gives a stack."""
    pilot_energy = np.repeat(np.sum(np.abs(pilots) ** 2, axis=-1), cfg.n_elements, axis=-1)
    return cfg.total_elements * pilot_energy


def residual_cost(offsets, y: np.ndarray, pilot: np.ndarray,
                  cfg: SystemConfig) -> float:
    """Energy of y outside the observation matrix's column space: the profile
    objective of timing estimation, the channel projected out. A QR of the
    dense observation matrix: the closed forms' reference. ``y`` is read
    through the same check as every estimate's (:func:`_observation`)."""
    y = _observation(y, cfg)
    q, r = np.linalg.qr(observation_matrix(offsets, pilot, cfg))
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
def _grid_table(cfg: PulseConfig) -> tuple[np.ndarray, np.ndarray]:
    """Offsets x and ``rrc_impulse(times - x)`` at the reachable times (``_layout``),
    one row per x: the coarse grid, then each truncation jump j/oversampling
    in (-1, 1) and 1e-9 either side of it. No pilot enters it, so it is built
    once per pulse config, on first use, and shared read-only."""
    jumps = np.arange(1.0 - cfg.oversampling, cfg.oversampling) / cfg.oversampling
    offsets = np.concatenate([_GRID, (jumps[:, None] + [-1e-9, 0.0, 1e-9]).reshape(-1)])
    table = rrc_impulse(_layout(cfg)[0] - offsets[:, None], cfg)
    offsets.flags.writeable = table.flags.writeable = False
    return offsets, table


def _forms(z: np.ndarray, pilot: np.ndarray, cfg: SystemConfig, group: int) -> tuple:
    """Lag-pilot times and quadratic forms for each run of ``group`` rows of each
    ``Z`` of a stack: P = Re(B^T conj(B)) / NK per run, B = Z conj(A), and
    Q = Re(A^H A). The run's captured energy sum_i |Z_i f(x)^*|^2 / (NK
    |f(x)|^2) is g^T P g / g^T Q g, g = ``rrc_impulse(times - x)``."""
    times, a = lag_pilot_matrix(_pilot(pilot, cfg), cfg.pulse)
    b = (z @ a.conj()).reshape(-1, group, times.size)
    p = (np.swapaxes(b, -1, -2) @ b.conj()).real / cfg.total_elements
    return times, p, (a.conj().T @ a).real


def _quotient(rows: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rayleigh quotients r^T P r / r^T Q r of the pulse rows r (last axis):
    rows shared by every P of a stack, or one stack of rows per P."""
    return np.sum((rows @ p) * rows, axis=-1) / np.sum((rows @ q) * rows, axis=-1)


def _search_offsets(z: np.ndarray, pilot: np.ndarray, cfg: SystemConfig,
                    group: int) -> np.ndarray:
    """Searched offsets of every surface, shape (..., K), for each ``Z`` of a
    stack (leading axes of ``z``). Each run of ``group`` consecutive elements
    (N: one search per surface; N*K: one shared by all) gets the offset that
    maximizes its captured energy (:func:`_forms`): the cached table's coarse
    grid, then a zoom that scores 21 offsets across the group's winning cell,
    re-centres on its best point seen and shrinks the cell tenfold, down to
    FINAL_SPACING, one pulse call per level for all groups. The table's jump
    points, which the zoom need not reach, seed the best point seen."""
    times, p, q = _forms(z, pilot, cfg, group)
    offsets, table = _grid_table(cfg.pulse)
    scores, groups = _quotient(table, p, q), np.arange(p.shape[0])
    centre = _GRID[np.argmax(scores[:, :_GRID.size], axis=-1)]
    jump = _GRID.size + np.argmax(scores[:, _GRID.size:], axis=-1)
    best_x, best, half = offsets[jump], scores[groups, jump], GRID_STEP
    points = np.clip(centre[:, None] + GRID_STEP * _ZOOM, -_OFFSET_EDGE, _OFFSET_EDGE)
    for _ in range(_LEVELS):
        scores = _quotient(rrc_impulse(times - points[..., None], cfg.pulse), p, q)
        i = np.argmax(scores, axis=-1)
        better = scores[groups, i] > best
        best_x = np.where(better, points[groups, i], best_x)
        best = np.where(better, scores[groups, i], best)
        half /= 10.0
        points = np.clip(best_x[:, None] + half * _ZOOM, -_OFFSET_EDGE, _OFFSET_EDGE)
    return np.repeat(best_x, group // cfg.n_elements).reshape(*z.shape[:-2], cfg.n_surfaces)


def _fits(eps, z: np.ndarray, pilot: np.ndarray, cfg: SystemConfig) -> tuple:
    """Least-squares fits of a stack of correlations ``Z``, each at its row of
    offsets ``eps``, from one pulse call: the offsets, the Gram G and the
    channel Z_i f_k^* / G_i of each element i (on surface k)."""
    pilots = _pilot_rows(steering_matrix, eps, pilot, cfg)
    gram = _training_gram(pilots, cfg)
    z = z.reshape(*gram.shape[:-1], cfg.n_surfaces, cfg.n_elements, -1)
    corr = (z @ pilots.conj()[..., None]).reshape(gram.shape)
    return np.asarray(eps, dtype=float), gram, corr / gram


def _estimate(z: np.ndarray, pilot: np.ndarray, cfg: SystemConfig, group: int) -> tuple:
    """Search, then fit: the stacked fits (:func:`_fits`) of correlations ``Z``
    at the offsets searched over runs of ``group`` elements
    (:func:`_search_offsets`; N gives the joint estimate, N*K the one offset
    shared by every surface). The only route from correlations to fits."""
    return _fits(_search_offsets(z, pilot, cfg, group), z, pilot, cfg)


def _point(fits: tuple, p) -> EstimationResult:
    """Fit ``p`` of :func:`_fits` (``()`` for a lone one); SingularSystemError
    where its observation matrix (singular values sqrt(G)) is ill-conditioned."""
    eps, gram, channel = (part[p] for part in fits)
    _check_spread(np.sqrt(gram), "training observation matrix")
    return EstimationResult(offsets=eps, channel=channel)


def mle_alternating(y: np.ndarray, pilot: np.ndarray, cfg: SystemConfig) -> EstimationResult:
    """Joint timing/channel maximum-likelihood estimate of one observation.

    The DFT training's columns are orthogonal, so the profile objective is a
    sum of per-surface terms and each offset comes from its own 1-D search;
    the channel estimate is the least-squares solve at the returned offsets.
    ValueError unless ``y`` is 1-D: stacks go through ``_estimate``.
    """
    if np.ndim(y) != 1:
        raise ValueError(f"training observation has shape {np.shape(y)}; "
                         "mle_alternating estimates one 1-D observation")
    return _point(_estimate(_pattern_correlation(y, cfg), pilot, cfg, cfg.n_elements), ())

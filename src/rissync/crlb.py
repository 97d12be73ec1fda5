"""Fisher information and closed-form error bounds for the training estimator.

The training observation is linear in the cascaded channel and smooth in the
timing offsets. The scaled-DFT training's columns are orthogonal with energy
NK, so the observation Gram is diagonal and :func:`crlb` profiles the channel
out one surface at a time in closed form. The dense route (:func:`fim`,
:func:`crlb_from_fim`) builds the training's phase matrix from the
configuration and inverts the full information matrix over (offsets,
Re channel, Im channel); it is the reference the closed forms must agree
with. Every route takes the training pilot (``gen_training``'s array);
:func:`crlb` and :func:`crlb_from_fim` share one signature, naming it
``tp``, so one set of bound arguments serves both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import block_gains
from .config import SystemConfig
from .estimator import (_channel, _check_spread, _pilot_rows, _stack_columns, _training_gram,
                        _training_phases)
from .pulse import steering_matrix, steering_matrix_deriv

__all__ = [
    "CrlbResult",
    "observation_matrix_deriv",
    "fim",
    "crlb",
    "crlb_from_fim",
]


@dataclass(frozen=True)
class CrlbResult:
    """Lower bounds on estimator error covariance.

    ``timing_cov`` is the K x K real bound for the offset estimates;
    ``channel_cov`` is the NK x NK complex Hermitian bound for the cascaded
    channel.
    """

    timing_cov: np.ndarray
    channel_cov: np.ndarray


def observation_matrix_deriv(offsets, pilot: np.ndarray,
                             cfg: SystemConfig) -> np.ndarray:
    """Entrywise derivative of the observation matrix: column block k is
    differentiated with respect to offset k (other blocks' derivatives are
    zero there, so the result stacks each block's own derivative)."""
    return _stack_columns(_pilot_rows(steering_matrix_deriv, offsets, pilot, cfg),
                          _training_phases(cfg), cfg)


def fim(offsets, channel: np.ndarray, pilot: np.ndarray, noise_var: float,
        cfg: SystemConfig) -> np.ndarray:
    """Fisher information over (offsets, Re channel, Im channel).

    Built as (2/noise_var) * Re{G^H G} where G stacks the mean's derivative
    with respect to each real coordinate; explicitly symmetrized so roundoff
    cannot break J = J^T. The observation matrix and its derivative share
    one build of the training's phase matrix.
    """
    if not 0.0 < noise_var < np.inf:
        raise ValueError(f"noise_var must be positive and finite, got {noise_var}")
    he = block_gains(_channel(channel, cfg), cfg.n_surfaces)
    rows = _pilot_rows(steering_matrix, offsets, pilot, cfg)
    slopes = _pilot_rows(steering_matrix_deriv, offsets, pilot, cfg)
    phases = _training_phases(cfg)
    nmat, nd = _stack_columns(rows, phases, cfg), _stack_columns(slopes, phases, cfg)
    jc = np.concatenate([nd @ he.T, nmat, 1j * nmat], axis=1)
    j = (2.0 / noise_var) * (jc.conj().T @ jc).real
    return 0.5 * (j + j.T)


def crlb(offsets, channel: np.ndarray, tp: np.ndarray, noise_var: float,
         cfg: SystemConfig) -> CrlbResult:
    """Closed-form bounds for the DFT training, with the channel profiled out.

    With f_k surface k's filtered pilot, f'_k its offset derivative and
    c_k = f_k^H f'_k / |f_k|^2, surface k's profiled timing information is
    J_k = sum_{i in k} NK |h_i|^2 (|f'_k|^2 - |c_k|^2 |f_k|^2), so
    timing_cov = (noise_var/2) diag(1/J). channel_cov = noise_var diag(1/G),
    with G_i = NK |f_k|^2 the diagonal training Gram, plus the rank-one
    block (noise_var/2) c_k h_k (c_k h_k)^H / J_k for each surface. ``tp``
    is the training pilot. Raises ValueError when the pilot or the channel
    does not fit ``cfg``, and SingularSystemError when G or J is not
    positive or its max/min ratio exceeds COND_LIMIT.
    """
    if not 0.0 < noise_var < np.inf:
        raise ValueError(f"noise_var must be positive and finite, got {noise_var}")
    h = _channel(channel, cfg).reshape(cfg.n_surfaces, cfg.n_elements)
    pilots, gram = _training_gram(offsets, tp, cfg)
    _check_spread(gram, "training Gram matrix")
    slopes = _pilot_rows(steering_matrix_deriv, offsets, tp, cfg)
    pilot_energy = np.sum(np.abs(pilots) ** 2, axis=1)
    c = np.sum(pilots.conj() * slopes, axis=1) / pilot_energy
    info = (np.sum(gram.reshape(h.shape) * np.abs(h) ** 2, axis=1)
            * (np.sum(np.abs(slopes) ** 2, axis=1) / pilot_energy - np.abs(c) ** 2))
    _check_spread(info, "profiled timing information (unidentifiable configuration)")
    reaction = block_gains((c[:, None] * h / np.sqrt(info)[:, None]).reshape(-1), cfg.n_surfaces)
    channel_cov = np.diag(noise_var / gram) + (noise_var / 2.0) * (reaction.T @ reaction.conj())
    return CrlbResult(timing_cov=np.diag(noise_var / (2.0 * info)), channel_cov=channel_cov)


def crlb_from_fim(offsets, channel: np.ndarray, tp: np.ndarray,
                  noise_var: float, cfg: SystemConfig) -> CrlbResult:
    """Brute-force route: invert the full information matrix over the real
    coordinates, then map the (Re, Im) channel blocks back to a complex
    covariance. Must agree with :func:`crlb` to solver accuracy."""
    j = fim(offsets, channel, tp, noise_var, cfg)
    _check_spread(np.linalg.svd(j, compute_uv=False), "Fisher information matrix")
    jinv = np.linalg.solve(j, np.eye(j.shape[0]))
    kdim = cfg.n_surfaces
    nk = cfg.total_elements
    timing_cov = 0.5 * (jinv[:kdim, :kdim] + jinv[:kdim, :kdim].T)
    rr = jinv[kdim:kdim + nk, kdim:kdim + nk]
    ii = jinv[kdim + nk:, kdim + nk:]
    ri = jinv[kdim:kdim + nk, kdim + nk:]
    channel_cov = rr + ii + 1j * (ri.T - ri)
    channel_cov = 0.5 * (channel_cov + channel_cov.conj().T)
    return CrlbResult(timing_cov=timing_cov, channel_cov=channel_cov)

"""Fisher information and closed-form error bounds for the training estimator.

The training observation is linear in the cascaded channel and smooth in the
timing offsets. The scaled-DFT training's columns are orthogonal with energy
NK, so the observation Gram is diagonal and :func:`crlb` profiles the channel
out one surface at a time in closed form. It reads each surface's filtered
pilot and offset slope as ``f = A g`` and ``f' = -A g'``: A the pilot's
lag-pilot matrix (``lag_pilot_matrix``) and g, g' the pulse and its
derivative at A's T reachable times, so it forms no steering matrix or
derivative and no complex copy of one. The channel bound it returns is a
diagonal plus one rank-one block per surface: :class:`CrlbResult` keeps those
parts, forms the dense NK x NK matrix only when ``channel_cov`` is read, and
gives the traces a sweep reads from the parts in O(NK). The dense route
(:func:`fim`, :func:`crlb_from_fim`) builds the training's phase matrix from
the configuration and inverts the full information matrix over (offsets,
Re channel, Im channel); it is the reference the closed forms must agree
with. Every route takes the training pilot (``gen_training``'s array);
:func:`crlb` and :func:`crlb_from_fim` share one signature, naming it
``tp``, so one set of bound arguments serves both. Both also bound a stack of
trials in one call: offsets (..., K), channel (..., NK) and pilot
(..., seq_len) with one leading shape, row r bounded as if alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import block_gains
from .config import SystemConfig
from .estimator import (_channel, _check_spread, _pilot, _pilot_rows, _stack_columns,
                        _training_gram, _training_phases)
from .pulse import (_offsets, lag_pilot_matrix, rrc_impulse, rrc_impulse_deriv, steering_matrix,
                    steering_matrix_deriv)

__all__ = [
    "CrlbResult",
    "DenseBounds",
    "fim",
    "crlb",
    "crlb_from_fim",
]


@dataclass(frozen=True)
class CrlbResult:
    """Lower bounds on estimator error covariance, for one trial or a stack
    (leading axes, as :func:`crlb` was given them).

    ``timing_cov`` (..., K, K) is the real diagonal bound for the offset
    estimates. The complex Hermitian channel bound is held in parts:
    ``channel_diag`` (..., NK) is noise_var / G, and row k of
    ``channel_factor`` (..., K, N) is surface k's vector r_k, so the bound is
    diag(channel_diag) plus (noise_var / 2) r_k r_k^H on surface k's block.
    ``channel_cov`` forms that (..., NK, NK) matrix on first read and keeps
    it; ``channel_trace`` and ``timing_trace`` come from the parts.
    """

    timing_cov: np.ndarray
    channel_diag: np.ndarray
    channel_factor: np.ndarray
    noise_var: float

    @cached_property
    def channel_cov(self) -> np.ndarray:
        reaction = block_gains(self.channel_factor.reshape(*self.channel_diag.shape),
                               self.channel_factor.shape[-2])
        diagonal = self.channel_diag[..., None] * np.eye(self.channel_diag.shape[-1])
        return diagonal + (self.noise_var / 2.0) * (np.swapaxes(reaction, -1, -2) @ reaction.conj())

    @property
    def channel_trace(self) -> np.ndarray:
        """The channel bound's trace, in O(NK): one value per trial."""
        return (np.sum(self.channel_diag, axis=-1) + (self.noise_var / 2.0)
                * np.sum(np.abs(self.channel_factor) ** 2, axis=(-2, -1)))

    @property
    def timing_trace(self) -> np.ndarray:
        """The timing bound's trace: one value per trial."""
        return np.trace(self.timing_cov, axis1=-2, axis2=-1)


@dataclass(frozen=True)
class DenseBounds:
    """The bounds as :func:`crlb_from_fim` reads them off the inverse
    information matrix: ``timing_cov`` (..., K, K) and ``channel_cov``
    (..., NK, NK), both dense."""

    timing_cov: np.ndarray
    channel_cov: np.ndarray


def _stacks(offsets, channel, pilot, cfg: SystemConfig) -> tuple:
    """The bounds' inputs as arrays, one trial per index of their shared
    leading shape. ValueError naming the three shapes when the leading shapes
    differ, and the channel's or pilot's own error when it does not fit."""
    offsets, channel = np.asarray(offsets, dtype=float), np.asarray(channel)
    pilot, lead = np.asarray(pilot), offsets.shape[:-1]
    if (not channel.shape[:-1] == pilot.shape[:-1] == lead
            or offsets.shape[-1:] != (cfg.n_surfaces,)):
        raise ValueError(f"offsets {offsets.shape}, channel {channel.shape} and pilot "
                         f"{pilot.shape} must share one leading shape; per trial the "
                         f"configuration needs {cfg.n_surfaces} offsets, a finite vector of "
                         f"{cfg.total_elements} entries and seq_len = {cfg.pulse.seq_len} "
                         "symbols")
    return offsets, _channel(channel, cfg, lead), _pilot(pilot, cfg, lead)


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

    With f_k surface k's filtered pilot, f'_k its offset derivative (both
    from the lag-pilot matrix: the module docstring) and
    c_k = f_k^H f'_k / |f_k|^2, surface k's profiled timing information is
    J_k = sum_{i in k} NK |h_i|^2 (|f'_k|^2 - |c_k|^2 |f_k|^2), so
    timing_cov = (noise_var/2) diag(1/J). The channel bound is noise_var
    diag(1/G), with G_i = NK |f_k|^2 the diagonal training Gram, plus the
    rank-one block (noise_var/2) r_k r_k^H, r_k = c_k h_k / sqrt(J_k), for
    each surface; :class:`CrlbResult` keeps 1/G and r. ``tp`` is the
    training pilot. A stack of trials (see the module docstring) is bounded
    in one pass, each row bit for bit as alone. Raises ValueError when the
    inputs do not fit ``cfg`` or each other, and SingularSystemError when
    some row's G or J is not positive or its max/min ratio exceeds
    COND_LIMIT.
    """
    if not 0.0 < noise_var < np.inf:
        raise ValueError(f"noise_var must be positive and finite, got {noise_var}")
    offsets, channel, tp = _stacks(offsets, channel, tp, cfg)
    h = channel.reshape(*channel.shape[:-1], cfg.n_surfaces, cfg.n_elements)
    times, a = lag_pilot_matrix(tp, cfg.pulse)
    lags, a = times - _offsets(offsets)[..., None], np.swapaxes(a, -1, -2)
    pilots, slopes = rrc_impulse(lags, cfg.pulse) @ a, -(rrc_impulse_deriv(lags, cfg.pulse) @ a)
    gram = _training_gram(pilots, cfg)
    _check_spread(gram, "training Gram matrix")
    pilot_energy = np.sum(np.abs(pilots) ** 2, axis=-1)
    c = np.sum(pilots.conj() * slopes, axis=-1) / pilot_energy
    info = (np.sum(gram.reshape(h.shape) * np.abs(h) ** 2, axis=-1)
            * (np.sum(np.abs(slopes) ** 2, axis=-1) / pilot_energy - np.abs(c) ** 2))
    _check_spread(info, "profiled timing information (unidentifiable configuration)")
    return CrlbResult(timing_cov=(noise_var / (2.0 * info))[..., None] * np.eye(cfg.n_surfaces),
                      channel_diag=noise_var / gram,
                      channel_factor=c[..., None] * h / np.sqrt(info)[..., None],
                      noise_var=noise_var)


def crlb_from_fim(offsets, channel: np.ndarray, tp: np.ndarray,
                  noise_var: float, cfg: SystemConfig) -> DenseBounds:
    """Brute-force route: invert the full information matrix over the real
    coordinates, then map the (Re, Im) channel blocks back to a complex
    covariance, one :func:`fim` per trial of a stack. Must agree with
    :func:`crlb` to solver accuracy."""
    offsets, channel, tp = _stacks(offsets, channel, tp, cfg)
    lead = offsets.shape[:-1]
    rows = [_inverse_bounds(offsets[i], channel[i], tp[i], noise_var, cfg)
            for i in np.ndindex(lead)]
    return DenseBounds(*(np.stack(part).reshape(*lead, *part[0].shape) for part in zip(*rows)))


def _inverse_bounds(offsets, channel: np.ndarray, tp: np.ndarray, noise_var: float,
                    cfg: SystemConfig) -> tuple:
    """One trial's (timing_cov, channel_cov) from the inverse of its :func:`fim`."""
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
    return timing_cov, 0.5 * (channel_cov + channel_cov.conj().T)

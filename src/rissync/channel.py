"""Per-surface channel generation, cascading, and block gain structures.

Each reflecting surface k has an inbound vector (source to surface) and an
outbound vector (surface to destination). What the receiver can identify is
only their elementwise product after reflection, the cascaded channel; this
module generates the raw vectors (Rayleigh or clustered mmWave), forms the
cascaded vector, and packs the per-surface segments into the block-diagonal
gain matrix used throughout estimation and design (``block_gains``). Each
generator is its random calls on one seed (``_*_draws``) and a map of them
(``_*_links``) that also takes stacks, so a sweep maps many seeds' draws in
one pass, each row the bytes of the generator on its seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, positive_int

__all__ = [
    "ChannelSet",
    "gen_rayleigh",
    "array_response",
    "gen_mmwave",
    "cascade",
    "block_gains",
]

# Reflected paths summed into each surface's outbound vector.
MMWAVE_PATHS = 10


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the physical links for all K surfaces, or a stack
    of them (leading axes).

    ``inbound[k]`` is the length-N source→surface_k vector and ``outbound[k]``
    the surface_k→destination vector.
    """

    inbound: np.ndarray
    outbound: np.ndarray

    def __post_init__(self):
        inb, outb = np.asarray(self.inbound), np.asarray(self.outbound)
        if inb.ndim < 2 or inb.shape != outb.shape:
            raise ValueError(
                f"inbound/outbound must be matching (K, N) arrays, got "
                f"{inb.shape} and {outb.shape}"
            )
        if not (np.all(np.isfinite(inb)) and np.all(np.isfinite(outb))):
            raise ValueError("channel entries must be finite")


def gen_rayleigh(cfg: SystemConfig, seed) -> ChannelSet:
    """Draw iid unit-variance complex Gaussian links for every surface element."""
    return _rayleigh_links(*_rayleigh_draws(cfg, np.random.default_rng(seed)))


def _rayleigh_draws(cfg: SystemConfig, rng: np.random.Generator) -> tuple:
    """Real and imaginary parts of the inbound links, then of the outbound."""
    return tuple(rng.standard_normal((cfg.n_surfaces, cfg.n_elements)) for _ in range(4))


def _rayleigh_links(in_re, in_im, out_re, out_im) -> ChannelSet:
    return ChannelSet(inbound=_std_complex(in_re, in_im), outbound=_std_complex(out_re, out_im))


def _std_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return (re + 1j * im) / np.sqrt(2.0)


def array_response(azimuth, elevation, n_elements: int, n_x: int) -> np.ndarray:
    """Unit-norm response of an N-element rectangular surface with
    half-wavelength spacing.

    Element (m, n) with 0 <= m < n_x sits at flat index n*n_x + m and
    contributes phase pi*(m*sin(azimuth)*sin(elevation) + n*cos(elevation));
    every entry has magnitude 1/sqrt(N). Arrays of angles broadcast against
    each other and gain a last axis of N elements.
    """
    if n_elements % n_x:
        raise ValueError(f"n_elements={n_elements} not divisible by n_x={n_x}")
    az, el = np.asarray(azimuth)[..., None], np.asarray(elevation)[..., None]
    m = np.arange(n_x) * np.sin(az) * np.sin(el)
    n = np.arange(n_elements // n_x) * np.cos(el)
    phase = np.pi * (n[..., :, None] + m[..., None, :])
    return np.exp(1j * phase.reshape(phase.shape[:-2] + (n_elements,))) / np.sqrt(n_elements)


def gen_mmwave(cfg: SystemConfig, n_x: int, seed) -> ChannelSet:
    """Draw clustered mmWave links: multi-path outbound, line-of-sight inbound.

    Each surface is a rectangular array ``n_x`` elements wide (its height
    follows from N). Outbound vector k is sqrt(N/MMWAVE_PATHS) times the
    gain-conjugate-weighted sum of MMWAVE_PATHS path responses; inbound
    vector k is sqrt(N) times a single gain times its response. Azimuths are
    uniform on [0, 2pi), elevations uniform on [0, pi) and gains standard
    complex Gaussian, drawn in this order: outbound azimuth, elevation and
    gain, then the inbound three.
    """
    n_x = positive_int(n_x, "n_x")
    return _mmwave_links(cfg.n_elements, n_x, *_mmwave_draws(cfg, np.random.default_rng(seed)))


def _mmwave_draws(cfg: SystemConfig, rng: np.random.Generator) -> tuple:
    """Outbound azimuths, elevations and gains' real and imaginary parts,
    (K, MMWAVE_PATHS) each, then the inbound four, (K,) each."""
    draws = []
    for shape in ((cfg.n_surfaces, MMWAVE_PATHS), cfg.n_surfaces):
        draws += [rng.uniform(0.0, 2.0 * np.pi, shape), rng.uniform(0.0, np.pi, shape),
                  rng.standard_normal(shape), rng.standard_normal(shape)]
    return tuple(draws)


def _mmwave_links(n_el: int, n_x: int, out_az, out_el, out_re, out_im,
                  in_az, in_el, in_re, in_im) -> ChannelSet:
    # Summing over axis -2 of (..., K, paths, N) adds the paths in order.
    responses = array_response(out_az, out_el, n_el, n_x)
    out_g = _std_complex(out_re, out_im)
    outbound = np.sqrt(n_el / MMWAVE_PATHS) * (np.conj(out_g)[..., None] * responses).sum(axis=-2)
    inbound = ((np.sqrt(n_el) * _std_complex(in_re, in_im))[..., None]
               * array_response(in_az, in_el, n_el, n_x))
    return ChannelSet(inbound=inbound, outbound=outbound)


def cascade(ch: ChannelSet) -> np.ndarray:
    """Stack the per-surface reflected products conj(outbound)*inbound into one
    length-N*K vector (surface-major: entry (k*N + l) belongs to surface k);
    a stack of channel sets gives one vector each."""
    return (np.conj(ch.outbound) * ch.inbound).reshape(*np.shape(ch.inbound)[:-2], -1)


def block_gains(cascaded: np.ndarray, n_surfaces: int) -> np.ndarray:
    """Arrange a cascaded vector as a block-diagonal (K, N*K) matrix, row k
    carrying surface k's segment; multiplying a stacked reflection vector
    gives per-surface scalar gains. A stack of vectors (leading axes) gives
    one matrix each."""
    cascaded = np.asarray(cascaded)
    if cascaded.ndim == 0 or cascaded.shape[-1] % n_surfaces:
        raise ValueError(
            f"cascaded vector of length {cascaded.shape} does not split into "
            f"{n_surfaces} equal segments"
        )
    lead = cascaded.shape[:-1]
    out = np.zeros((*lead, n_surfaces, cascaded.shape[-1]), dtype=complex)
    diagonal = np.arange(n_surfaces)
    out.reshape(*lead, n_surfaces, n_surfaces, -1)[..., diagonal, diagonal, :] = (
        cascaded.reshape(*lead, n_surfaces, -1))
    return out

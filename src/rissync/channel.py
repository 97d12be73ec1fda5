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
    """The links' one random call, (4, K, N): real and imaginary parts of the
    inbound links, then of the outbound, the values of four (K, N) calls."""
    return (rng.standard_normal((4, cfg.n_surfaces, cfg.n_elements)),)


def _rayleigh_links(parts) -> ChannelSet:
    in_re, in_im, out_re, out_im = _rows(parts, 2)
    return ChannelSet(inbound=_std_complex(in_re, in_im), outbound=_std_complex(out_re, out_im))


def _rows(draw: np.ndarray, ndim: int) -> np.ndarray:
    """A call's draw (..., rows, *shape), ``shape`` ``ndim`` axes long, with
    its rows first: a stack of draws (leading axes) gives stacked rows."""
    return np.moveaxis(draw, -1 - ndim, 0)


def _std_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = re + 1j * im
    out /= np.sqrt(2.0)
    return out


def _axis_factors(azimuth, elevation, n_elements: int, n_x: int) -> tuple:
    """The y-axis factor exp(j pi n cos(elevation)), n < N / n_x, and the
    x-axis factor exp(j pi m sin(azimuth) sin(elevation)), m < n_x, of a
    rectangular surface's response; angle arrays broadcast and gain a last
    axis of elements along each."""
    n_elements, n_x = positive_int(n_elements, "n_elements"), positive_int(n_x, "n_x")
    if n_elements % n_x:
        raise ValueError(f"n_elements={n_elements} not divisible by n_x={n_x}")
    az, el = np.asarray(azimuth)[..., None], np.asarray(elevation)[..., None]
    along_y = np.exp(1j * np.pi * (np.arange(n_elements // n_x) * np.cos(el)))
    return along_y, np.exp(1j * np.pi * (np.arange(n_x) * np.sin(az) * np.sin(el)))


def array_response(azimuth, elevation, n_elements: int, n_x: int) -> np.ndarray:
    """Unit-norm response of an N-element rectangular surface with
    half-wavelength spacing.

    Element (m, n) with 0 <= m < n_x sits at flat index n*n_x + m and
    contributes phase pi*(m*sin(azimuth)*sin(elevation) + n*cos(elevation)):
    the response is the outer (Kronecker) product of the y-axis and x-axis
    factors, every entry of magnitude 1/sqrt(N). Arrays of angles broadcast
    against each other and gain a last axis of N elements.
    """
    along_y, along_x = _axis_factors(azimuth, elevation, n_elements, n_x)
    outer = along_y[..., :, None] * along_x[..., None, :]
    return outer.reshape(*outer.shape[:-2], n_elements) / np.sqrt(n_elements)


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
    return _mmwave_links(cfg.n_elements, n_x, *_mmwave_draws(cfg, np.random.default_rng(seed)))


def _mmwave_draws(cfg: SystemConfig, rng: np.random.Generator) -> tuple:
    """The outbound links' two random calls, (2, K, MMWAVE_PATHS) each: the
    azimuths' and elevations' uniforms, then the gains' real and imaginary
    parts; then the inbound two, (2, K) each. Scaled (``_angles``), they are
    the values of one uniform or normal call per array."""
    out, inb = (2, cfg.n_surfaces, MMWAVE_PATHS), (2, cfg.n_surfaces)
    return rng.random(out), rng.standard_normal(out), rng.random(inb), rng.standard_normal(inb)


def _angles(uniforms: np.ndarray, ndim: int) -> tuple:
    """Azimuths uniform on [0, 2pi) and elevations on [0, pi) from a draw's
    uniforms (see ``_rows``)."""
    azimuth, elevation = _rows(uniforms, ndim)
    return 2.0 * np.pi * azimuth, np.pi * elevation


def _mmwave_links(n_el: int, n_x: int, out_uniforms, out_gains, in_uniforms,
                  in_gains) -> ChannelSet:
    # The paths sum per axis, (..., K, n_y, paths) @ (..., K, paths, n_x)
    # weighted by the conjugate gains, so no (..., K, paths, N) responses are formed.
    along_y, along_x = _axis_factors(*_angles(out_uniforms, 2), n_el, n_x)
    weights = np.conj(_std_complex(*_rows(out_gains, 2))) / np.sqrt(MMWAVE_PATHS)
    outbound = np.swapaxes(along_y * weights[..., None], -1, -2) @ along_x
    inbound = (np.sqrt(n_el) * _std_complex(*_rows(in_gains, 1)))[..., None] * array_response(
        *_angles(in_uniforms, 1), n_el, n_x)
    return ChannelSet(inbound=inbound, outbound=outbound.reshape(inbound.shape))


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

"""Root-raised-cosine pulse machinery.

Implements the unit-energy RRC impulse response and its analytic derivative,
the oversampled steering matrices built from them, and the matched-filter
window of raised-cosine taps. The RRC formulas have removable singularities;
near those points both functions switch to a local series expansion, so all
values are finite everywhere on the real line.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .config import PulseConfig

__all__ = [
    "SINGULARITY_TOL",
    "rrc_impulse",
    "rrc_impulse_deriv",
    "lag_pilot_matrix",
    "steering_matrix",
    "steering_matrix_deriv",
    "matched_filter_window",
]

# Distance from a removable singularity below which series limits take over.
# The direct quotient loses roughly two significant digits per decade as it
# approaches a singular point (numerator and denominator both vanish), while
# the series error grows like the first omitted Taylor term; 1e-3 balances
# the two so both branches agree to ~1e-11 at the switchover.
SINGULARITY_TOL = 1e-3


# ---------------------------------------------------------------------------
# impulse response g and its derivative
# ---------------------------------------------------------------------------

def _denominator_factor(x: np.ndarray, beta: float) -> np.ndarray:
    # 1 - (4*beta*x)^2 in factored form: cancellation-free near its roots.
    x_sing = 1.0 / (4.0 * beta)
    return -16.0 * beta**2 * (x - x_sing) * (x + x_sing)


def _impulse_kernel(x: np.ndarray, beta: float) -> np.ndarray:
    """Direct RRC formula, valid away from x = 0 and |x| = 1/(4*beta)."""
    num = np.sin(np.pi * x * (1.0 - beta)) + 4.0 * beta * x * np.cos(np.pi * x * (1.0 + beta))
    return num / (np.pi * x * _denominator_factor(x, beta))


def _deriv_kernel(x: np.ndarray, beta: float) -> np.ndarray:
    """Quotient-rule derivative of the direct RRC formula."""
    a = np.pi * (1.0 - beta)
    b = np.pi * (1.0 + beta)
    ax, bx = a * x, b * x
    cos_bx = np.cos(bx)
    num = np.sin(ax) + 4.0 * beta * x * cos_bx
    dnum = a * np.cos(ax) + 4.0 * beta * cos_bx - 4.0 * beta * b * x * np.sin(bx)
    den = np.pi * x * _denominator_factor(x, beta)
    dden = np.pi * (1.0 - 48.0 * beta**2 * x**2)
    return (dnum * den - num * dden) / den**2


def _series0_coeffs(beta: float) -> tuple[float, float, float]:
    # Even Taylor coefficients of g around x = 0, through fourth order.
    a = np.pi * (1.0 - beta)
    b = np.pi * (1.0 + beta)
    n1 = a + 4.0 * beta
    n3 = -(a**3) / 6.0 - 2.0 * beta * b**2
    n5 = a**5 / 120.0 + beta * b**4 / 6.0
    q = 16.0 * beta**2
    return n1 / np.pi, (n3 + q * n1) / np.pi, (n5 + q * n3 + q * q * n1) / np.pi


def _numerator_derivs(x: float, beta: float) -> tuple[float, ...]:
    # First five derivatives of the RRC numerator sin(ax) + 4*beta*x*cos(bx).
    a = np.pi * (1.0 - beta)
    b = np.pi * (1.0 + beta)
    sa, ca = np.sin(a * x), np.cos(a * x)
    sb, cb = np.sin(b * x), np.cos(b * x)
    d1 = a * ca + 4.0 * beta * cb - 4.0 * beta * b * x * sb
    d2 = -(a**2) * sa - 8.0 * beta * b * sb - 4.0 * beta * b**2 * x * cb
    d3 = -(a**3) * ca - 12.0 * beta * b**2 * cb + 4.0 * beta * b**3 * x * sb
    d4 = a**4 * sa + 16.0 * beta * b**3 * sb + 4.0 * beta * b**4 * x * cb
    d5 = a**5 * ca + 20.0 * beta * b**4 * cb - 4.0 * beta * b**5 * x * sb
    return d1, d2, d3, d4, d5


def _branches(t, span: float, x_sing: float):
    """``t`` as a 1-D float array, its magnitude, and the disjoint masks of
    the points within ``SINGULARITY_TOL`` of 0, within it of ``x_sing``, and
    elsewhere, where the direct formula holds.

    All three masks lie inside the support ``|t| <= span``; a point outside it
    is in none, so it keeps its zero. NaN counts as inside and propagates.
    """
    x = np.atleast_1d(np.asarray(t, dtype=float))
    ax = np.abs(x)
    inside = ~(ax > span)
    near0 = inside & (ax < SINGULARITY_TOL)
    nears = inside & (np.abs(ax - x_sing) < SINGULARITY_TOL)
    return x, ax, near0, nears, inside & ~near0 & ~nears


def _taylor_ratio(derivs, u: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerator ``p`` and denominator ``q`` of a pulse n(x) / (pi x (1 - (cx)^2))
    at ``x = 1/c + u``, where n vanishes and ``derivs`` holds n', n'', ... there.

    Both sides are divided by the common root -u, so p/q is smooth through u = 0.
    """
    p = -sum(d * u**k / factorial(k + 1) for k, d in enumerate(derivs))
    return p, c * np.pi * (2.0 / c + 3.0 * u + c * u**2)


def rrc_impulse(t, cfg: PulseConfig):
    """Unit-energy root-raised-cosine pulse value at time ``t``.

    The pulse is truncated to ``[-span, span]`` symbol periods; outside that
    support the value is exactly zero. Accepts scalars or arrays.
    """
    beta = cfg.rolloff
    x_sing = 1.0 / (4.0 * beta)
    _, ax, near0, nears, plain = _branches(t, cfg.span, x_sing)
    out = np.zeros_like(ax)
    # evaluate on |x| so evenness holds bit-exactly
    out[plain] = _impulse_kernel(ax[plain], beta)
    if near0.any():
        c0, c2, c4 = _series0_coeffs(beta)
        x2 = ax[near0] ** 2
        out[near0] = c0 + c2 * x2 + c4 * x2 * x2
    if nears.any():
        p, q = _taylor_ratio(_numerator_derivs(x_sing, beta), ax[nears] - x_sing, 4.0 * beta)
        out[nears] = p / q
    return out[0] if np.ndim(t) == 0 else out


def rrc_impulse_deriv(t, cfg: PulseConfig):
    """Analytic time derivative of :func:`rrc_impulse` (zero outside the support)."""
    beta = cfg.rolloff
    x_sing = 1.0 / (4.0 * beta)
    x, ax, near0, nears, plain = _branches(t, cfg.span, x_sing)
    out = np.zeros_like(ax)
    # g is even, so g' is odd: evaluate on |x| and flip sign, which also
    # makes the antisymmetry hold bit-exactly.
    out[plain] = np.sign(x[plain]) * _deriv_kernel(ax[plain], beta)
    if near0.any():
        _, c2, c4 = _series0_coeffs(beta)
        xs = x[near0]
        out[near0] = 2.0 * c2 * xs + 4.0 * c4 * xs**3
    if nears.any():
        # the quotient rule on the Taylor ratio p/q
        derivs = _numerator_derivs(x_sing, beta)
        u = ax[nears] - x_sing
        p, q = _taylor_ratio(derivs, u, 4.0 * beta)
        _, d2, d3, d4, d5 = derivs
        dp = -(d2 / 2.0 + d3 * u / 3.0 + d4 * u**2 / 8.0 + d5 * u**3 / 30.0)
        dq = 4.0 * beta * np.pi * (3.0 + 8.0 * beta * u)
        out[nears] = np.sign(x[nears]) * ((dp * q - p * dq) / q**2)
    return out[0] if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# steering and windowing matrices
# ---------------------------------------------------------------------------

# Largest offset magnitude that a timing search or an offset draw may reach,
# and that a steering matrix accepts: every sample time with |t| >= span + 1
# then stays outside the pulse's support.
_OFFSET_EDGE = 1.0 - 1e-9


@lru_cache(maxsize=8)
def _layout(cfg: PulseConfig) -> tuple[np.ndarray, ...]:
    """The sample times ``n*sample_step - i`` that reach the pulse's support at
    some accepted offset, ``|t| < span + 1``, and for each steering entry
    (n, i) at one of them: its flat position in the (n_samples, seq_len)
    steering matrix, its column among the times, its flat position in the
    (n_samples, times) lag-pilot matrix, and its symbol i.

    Every other entry is zero at every accepted offset. The times are
    deduplicated as computed, first seen first, not formed as
    ``lag*sample_step``: where the step is inexact (oversampling 3) one lag
    can round to two times, and keeping both makes the scatter reproduce the
    direct evaluation bit for bit. Cached per (frozen) config.
    """
    times = (np.arange(cfg.n_samples)[:, None] * cfg.sample_step
             - np.arange(-cfg.span, cfg.obs_len + cfg.span)[None, :]).ravel()
    flat = np.flatnonzero(np.abs(times) < cfg.span + 1)
    # A dict rather than np.unique: numpy's sort would page in its SIMD sort
    # code, about 0.25 MB of resident memory, to order a few hundred values.
    first = {}  # time -> its column, first seen first
    columns = np.array([first.setdefault(t, len(first)) for t in times[flat].tolist()])
    rows, symbols = np.divmod(flat, cfg.seq_len)
    kept = np.array(list(first))
    layout = (kept, flat, columns, rows * kept.size + columns, symbols)
    for part in layout:
        part.flags.writeable = False
    return layout


def lag_pilot_matrix(pilot: np.ndarray, cfg: PulseConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample times t of the steering matrix that reach the pulse's
    support at some accepted offset, ``|t| < span + 1``, and the (n_samples,
    times) matrix ``A`` whose entry (n, j) is the pilot symbol i with (n, i) at
    time j, so ``steering_matrix(x) @ pilot == A @ rrc_impulse(times - x)`` up
    to the order of the sums, and ``rrc_impulse(times - x[:, None]) @ A.T``
    gives the filtered pilots of many offsets with no gather. A stack of
    pilots (leading axes) gives one ``A`` each."""
    times, _, _, positions, symbols = _layout(cfg)
    lead = pilot.shape[:-1]
    a = np.zeros((*lead, cfg.n_samples * times.size), dtype=pilot.dtype)
    a[..., positions] = pilot[..., symbols]
    return times, a.reshape(*lead, cfg.n_samples, times.size)


def _offsets(offset) -> np.ndarray:
    """Timing offsets as a float array; ValueError unless each has magnitude
    at most ``_OFFSET_EDGE``."""
    offset = np.asarray(offset, dtype=float)
    bad = ~(np.abs(offset) <= _OFFSET_EDGE)
    if bad.any():
        raise ValueError(f"timing offset must lie in [-{_OFFSET_EDGE}, {_OFFSET_EDGE}], "
                         f"got {offset[bad].tolist()}")
    return offset


def _shifted(pulse, offset, cfg: PulseConfig) -> np.ndarray:
    """``pulse`` at every entry's sample time minus ``offset`` (per offset, if
    an array), from one evaluation over the reachable times scattered into
    zeros; C-contiguous, since einsum's summation order follows strides."""
    offset = _offsets(offset)
    times, flat, columns, _, _ = _layout(cfg)
    out = np.zeros((*offset.shape, cfg.n_samples * cfg.seq_len))
    out[..., flat] = pulse(times - offset[..., None], cfg)[..., columns]
    return out.reshape(*offset.shape, cfg.n_samples, cfg.seq_len)


def steering_matrix(offset, cfg: PulseConfig) -> np.ndarray:
    """Matrix of shifted pulse samples for one surface's timing offset.

    Row ``n`` and column ``i`` (symbols indexed from ``-span``) hold the pulse
    sampled at ``n*sample_step - i - offset``; shape is
    ``(obs_len * oversampling, seq_len)``. The offset must have magnitude at
    most ``_OFFSET_EDGE`` = 1 - 1e-9. The pulse is evaluated once per
    reachable sample time (:func:`_layout`) and scattered into place. An array
    of offsets gives one matrix per offset, stacked along its leading axes,
    from one pulse evaluation.
    """
    return _shifted(rrc_impulse, offset, cfg)


def steering_matrix_deriv(offset, cfg: PulseConfig) -> np.ndarray:
    """Entrywise derivative of :func:`steering_matrix` with respect to the
    offset; the same scatter, and the same batching over offsets."""
    return -_shifted(rrc_impulse_deriv, offset, cfg)


def matched_filter_window(cfg: PulseConfig) -> np.ndarray:
    """The (obs_len, seq_len) matched-filter window that selects the
    ``obs_len`` detected symbols out of a ``seq_len`` block.

    Its taps are the ideal symbol-spaced matched-filter output: the raised
    cosine at integer lags ``-span .. span`` (1 at lag 0, 0 up to rounding
    elsewhere), then ``obs_len - 1`` zeros; row ``r`` holds them rotated
    right by ``r``.
    """
    # Off lag 0 the taps keep the formula's rounding (exact 0 only where it is
    # singular), so the design path keeps its bytes until the benchmark draws
    # design seeds per round; then they become exact zeros, steer_window a
    # column slice and window_energy = obs_len (ROADMAP item 7).
    beta = cfg.rolloff
    t_sing = 1.0 / (2.0 * beta)
    x = np.abs(np.arange(-cfg.span, cfg.span + 1, dtype=float))
    plain = (x != 0.0) & (x != t_sing)
    xp = x[plain]
    den = np.pi * xp * (-4.0 * beta**2) * (xp - t_sing) * (xp + t_sing)
    taps = np.zeros(cfg.seq_len)
    taps[cfg.span] = 1.0
    taps[:x.size][plain] = np.sin(np.pi * xp) * np.cos(np.pi * beta * xp) / den
    return taps[(np.arange(cfg.seq_len) - np.arange(cfg.obs_len)[:, None]) % cfg.seq_len]

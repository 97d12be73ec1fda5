"""Cooperative reflection-pattern and equalizer design under estimation errors.

Given timing and cascaded-channel estimates together with their error
covariance, this module picks unit-modulus reflection coefficients for every
surface element and a linear equalizer at the destination so that the
equalized data block tracks the ideal matched-filter output in mean square.

The mean-squared error is first written in a literal per-surface form
(``mse_direct``) and, equivalently, in a stacked form (``mse_compact``) built
from two precomputed operators: a spread stack that carries the second moment
of the channel estimate and a mean stack that carries the estimate itself.
For a fixed reflection vector the best equalizer is a closed-form Wiener
solution, which concentrates the objective into a single function of the
phases. That concentrated objective is maximized with a minorize-maximize
scheme whose inner step is a per-element phase alignment against a linear
surrogate; an optional squared-extrapolation accelerator with step
backtracking speeds up the fixed-point iteration without giving up monotone
progress.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .config import SystemConfig
from .errors import SingularSystemError
from .estimator import COND_LIMIT
from .pulse import matched_filter_taps, steering_matrix, window_matrix

__all__ = [
    "DesignInputs",
    "DesignProblem",
    "DesignResult",
    "SurrogateAnchor",
    "white_noise_cov",
    "expand_phases",
    "second_moment_root",
    "reflection_stacks",
    "build_problem",
    "mse_direct",
    "mse_compact",
    "mmse_equalizer",
    "recovered_energy",
    "surrogate_anchor",
    "surrogate_value",
    "phase_update",
    "design_mm",
    "design_accelerated",
    "design_phase_aligned",
    "random_phases",
]

# Relative objective change below which the iteration is declared converged.
DESIGN_TOL = 1e-8
MAX_ITERS = 500
# Step-halving attempts before the accelerated scheme falls back to the plain
# double update (which is always monotone).
MAX_BACKTRACKS = 20
# Eigenvalues of the channel-error covariance may dip this far below zero
# (relative to its largest eigenvalue) before it is rejected as indefinite.
PSD_TOL = 1e-10


def _as_complex_vector(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=complex)
    if out.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class DesignInputs:
    """Everything the designer knows: estimates and their uncertainty.

    ``offsets`` (K,) and ``channel`` (NK,) are the estimated timing offsets
    and cascaded channel. ``channel_cov`` is the NK x NK Hermitian PSD error
    covariance of the channel estimate (zero for perfect knowledge) and
    ``noise_cov`` the covariance of the receiver noise over one oversampled
    observation block.
    """

    offsets: np.ndarray
    channel: np.ndarray
    channel_cov: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        channel = _as_complex_vector(self.channel, "channel")
        cov = np.asarray(self.channel_cov, dtype=complex)
        noise = np.asarray(self.noise_cov, dtype=complex)
        if offsets.ndim != 1:
            raise ValueError("offsets must be a 1-D vector")
        if cov.shape != (channel.size, channel.size):
            raise ValueError(
                f"channel_cov must be {(channel.size, channel.size)}, got {cov.shape}"
            )
        if noise.ndim != 2 or noise.shape[0] != noise.shape[1]:
            raise ValueError("noise_cov must be a square matrix")
        for name, arr in (("offsets", offsets), ("channel", channel),
                          ("channel_cov", cov), ("noise_cov", noise)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, mat in (("channel_cov", cov), ("noise_cov", noise)):
            scale = max(np.abs(mat).max(), 1.0)
            if np.abs(mat - mat.conj().T).max() > 1e-10 * scale:
                raise ValueError(f"{name} must be Hermitian")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "channel_cov", cov)
        object.__setattr__(self, "noise_cov", noise)

    @property
    def n_surfaces(self) -> int:
        return self.offsets.size


@dataclass(frozen=True)
class DesignProblem:
    """Phase-independent operators shared by every objective evaluation.

    ``spread`` stacks, surface by surface, the Kronecker product of the
    second-moment factor rows with that surface's pulse steering matrix;
    ``mean`` does the same with the channel estimate itself. ``window`` is
    the ideal matched-filter windowing matrix whose output the equalizer
    chases, and ``window_energy`` its squared Frobenius norm — the MSE of the
    all-zero equalizer and the ceiling on recoverable energy.
    """

    spread: np.ndarray        # (NK*S, NK*L) with S samples per block
    mean: np.ndarray          # (NK*S, L)
    spread_gram: np.ndarray   # spread @ spread^H, Hermitian PSD
    spread_gram_norm1: float  # max absolute column sum of the gram
    mean_window: np.ndarray   # mean @ window^H, (NK*S, L_o)
    window: np.ndarray        # (L_o, L) circulant autocorrelation window
    window_energy: float
    noise_cov: np.ndarray     # (S, S)
    block: int                # samples per observation block, S
    n_parts: int              # number of reflecting elements, NK


@dataclass(frozen=True)
class DesignResult:
    """Final reflection phases, equalizer, and the per-iterate objective."""

    theta: np.ndarray
    equalizer: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    accelerated: bool
    converged: bool


def white_noise_cov(noise_var: float, cfg: SystemConfig) -> np.ndarray:
    """Covariance of white receiver noise over one oversampled block."""
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    return noise_var * np.eye(cfg.pulse.n_samples, dtype=complex)


def expand_phases(theta, block: int) -> np.ndarray:
    """Tile a phase vector into the block-row operator used by the stacked MSE.

    Column block i of the result equals theta[i] times the identity, so
    multiplying a stacked matrix by it forms the theta-weighted sum of that
    matrix's row blocks.
    """
    theta = _as_complex_vector(theta, "theta")
    return np.kron(theta[None, :], np.eye(block))


def second_moment_root(channel, channel_cov) -> np.ndarray:
    """Hermitian PSD square root of (estimate outer product + error covariance).

    The covariance must be Hermitian and PSD up to a small relative
    eigenvalue tolerance; anything more indefinite is rejected rather than
    silently clipped.
    """
    channel = _as_complex_vector(channel, "channel")
    cov = np.asarray(channel_cov, dtype=complex)
    if cov.shape != (channel.size, channel.size):
        raise ValueError(f"channel_cov must be {(channel.size,) * 2}, got {cov.shape}")
    scale = max(np.abs(cov).max(), 1.0)
    if np.abs(cov - cov.conj().T).max() > 1e-10 * scale:
        raise ValueError("channel_cov must be Hermitian")
    cov = 0.5 * (cov + cov.conj().T)
    eigs = np.linalg.eigvalsh(cov)
    floor = PSD_TOL * max(eigs.max(initial=0.0), 1.0)
    if eigs.min(initial=0.0) < -floor:
        raise ValueError(
            f"channel_cov is not positive semidefinite (eigenvalue {eigs.min():.3e})"
        )
    moment = np.outer(channel, channel.conj()) + cov
    w, v = np.linalg.eigh(0.5 * (moment + moment.conj().T))
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def reflection_stacks(offsets, channel, root: np.ndarray,
                      cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Build the spread and mean stacks from an explicit second-moment factor.

    Any factor with root @ root^H equal to the channel second moment yields
    the same objective, since only the spread stack's gram matrix enters.
    Row block k couples factor rows (and channel entries) of surface k with
    that surface's steering matrix.
    """
    offsets = np.asarray(offsets, dtype=float)
    channel = _as_complex_vector(channel, "channel")
    n_el, n_surf = cfg.n_elements, cfg.n_surfaces
    if offsets.shape != (n_surf,):
        raise ValueError(f"expected {n_surf} offsets, got {offsets.shape}")
    if channel.size != cfg.total_elements:
        raise ValueError(f"expected {cfg.total_elements} channel entries")
    if root.shape != (cfg.total_elements, cfg.total_elements):
        raise ValueError("root must be square over all reflecting elements")
    spread_blocks, mean_blocks = [], []
    for k in range(n_surf):
        steer = steering_matrix(offsets[k], cfg.pulse)
        rows = root[k * n_el:(k + 1) * n_el, :]
        gains = channel[k * n_el:(k + 1) * n_el]
        spread_blocks.append(np.kron(rows, steer))
        mean_blocks.append(np.kron(gains[:, None], steer))
    return np.concatenate(spread_blocks, axis=0), np.concatenate(mean_blocks, axis=0)


def build_problem(inputs: DesignInputs, cfg: SystemConfig,
                  root: np.ndarray | None = None) -> DesignProblem:
    """Assemble all phase-independent operators for one design instance."""
    if inputs.offsets.size != cfg.n_surfaces:
        raise ValueError(f"inputs carry {inputs.offsets.size} offsets, "
                         f"config expects {cfg.n_surfaces}")
    if inputs.noise_cov.shape != (cfg.pulse.n_samples,) * 2:
        raise ValueError(f"noise_cov must be {(cfg.pulse.n_samples,) * 2}")
    if root is None:
        root = second_moment_root(inputs.channel, inputs.channel_cov)
    spread, mean = reflection_stacks(inputs.offsets, inputs.channel, root, cfg)
    gram = spread @ spread.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    window = window_matrix(matched_filter_taps(cfg.pulse), cfg.pulse)
    return DesignProblem(
        spread=spread,
        mean=mean,
        spread_gram=gram,
        spread_gram_norm1=float(np.abs(gram).sum(axis=0).max()),
        mean_window=mean @ window.conj().T,
        window=window,
        window_energy=float(np.sum(window * window)),
        noise_cov=inputs.noise_cov,
        block=cfg.pulse.n_samples,
        n_parts=cfg.total_elements,
    )


def mse_direct(theta, equalizer: np.ndarray, inputs: DesignInputs,
               cfg: SystemConfig) -> float:
    """Data-phase MSE written literally in per-surface form.

    Expands the reflection vector into the block-diagonal per-surface
    operator, lifts the channel second moment over the symbol dimension, and
    evaluates the four quadratic/linear traces term by term. Exists as an
    independent route against the stacked form; prefer ``mse_compact`` for
    anything iterative.
    """
    theta = _as_complex_vector(theta, "theta")
    n_el, n_surf = cfg.n_elements, cfg.n_surfaces
    if theta.size != cfg.total_elements:
        raise ValueError(f"expected {cfg.total_elements} phases, got {theta.size}")
    seq_len = cfg.pulse.seq_len
    eye_seq = np.eye(seq_len)
    per_surface = scipy.linalg.block_diag(
        *[np.kron(theta[k * n_el:(k + 1) * n_el][None, :], eye_seq)
          for k in range(n_surf)]
    )
    steer_row = np.concatenate(
        [steering_matrix(eps, cfg.pulse) for eps in inputs.offsets], axis=1)
    signal_map = steer_row @ per_surface                    # block samples x NK*L
    moment = np.outer(inputs.channel, inputs.channel.conj()) + inputs.channel_cov
    moment_big = np.kron(0.5 * (moment + moment.conj().T), eye_seq)
    mean_big = np.kron(inputs.channel[:, None], eye_seq)
    window = window_matrix(matched_filter_taps(cfg.pulse), cfg.pulse)
    front = equalizer @ signal_map
    quad = np.trace(front @ moment_big @ front.conj().T).real
    noise = np.trace(equalizer @ inputs.noise_cov @ equalizer.conj().T).real
    cross = np.trace(front @ mean_big @ window.conj().T).real
    return quad + noise - 2.0 * cross + float(np.sum(window * window))


def mse_compact(theta, equalizer: np.ndarray, problem: DesignProblem) -> float:
    """Data-phase MSE in stacked form: same value as ``mse_direct``."""
    big = expand_phases(theta, problem.block)
    front = equalizer @ (big @ problem.spread)
    quad = float(np.sum((front * front.conj()).real))
    noise = np.trace(equalizer @ problem.noise_cov @ equalizer.conj().T).real
    cross = np.trace((equalizer @ big) @ problem.mean_window).real
    return quad + noise - 2.0 * cross + problem.window_energy


def _concentrated_pieces(theta, problem: DesignProblem):
    """Shared core: response matrix, its normal matrix, and the Wiener solve.

    Returns (big, weighted_gram, target, solved, recovered) where ``target``
    is the phase-weighted mean-window stack and ``solved`` the normal-matrix
    solve against it; ``recovered`` is the energy the best equalizer captures.
    """
    big = expand_phases(theta, problem.block)
    weighted = big @ problem.spread_gram                    # S x NK*S
    normal = weighted @ big.conj().T + problem.noise_cov
    normal = 0.5 * (normal + normal.conj().T)
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError("equalizer normal matrix", cond)
    target = big @ problem.mean_window                      # S x L_o
    solved = np.linalg.solve(normal, target)
    recovered = float(np.vdot(target, solved).real)
    return big, weighted, target, solved, recovered


def mmse_equalizer(theta, problem: DesignProblem) -> np.ndarray:
    """Closed-form minimizer of the MSE over the equalizer for fixed phases."""
    _, _, _, solved, _ = _concentrated_pieces(theta, problem)
    return solved.conj().T


def recovered_energy(theta, problem: DesignProblem) -> float:
    """Window energy captured by the best equalizer at these phases.

    Satisfies mse_compact(theta, mmse_equalizer(theta)) =
    window_energy - recovered_energy(theta); the design maximizes it.
    """
    return _concentrated_pieces(theta, problem)[4]


@dataclass(frozen=True)
class SurrogateAnchor:
    """Linearization of the concentrated objective at one feasible point.

    On the unit-modulus set the surrogate 2*Re(theta . conj(slice_scores))
    - scale*||Theta||_F^2 + offset lies below the captured energy everywhere
    and touches it at ``theta``; maximizing it decouples across elements.
    """

    theta: np.ndarray
    slice_scores: np.ndarray
    scale: float
    offset: float
    recovered: float


def surrogate_anchor(theta, problem: DesignProblem) -> SurrogateAnchor:
    """Build the touching linear minorant of the captured energy at theta."""
    big, weighted, target, solved, recovered = _concentrated_pieces(theta, problem)
    outer = solved @ solved.conj().T                        # S x S
    scale = problem.spread_gram_norm1 * float(np.abs(outer).sum(axis=0).max())
    score_mat = scale * big - outer @ weighted + solved @ problem.mean_window.conj().T
    slices = score_mat.reshape(problem.block, problem.n_parts, problem.block)
    scores = np.einsum("ini->n", slices)
    noise_part = float(np.vdot(solved, problem.noise_cov @ solved).real)
    offset = -scale * problem.n_parts * problem.block + recovered - 2.0 * noise_part
    return SurrogateAnchor(
        theta=np.array(theta, dtype=complex),
        slice_scores=scores,
        scale=scale,
        offset=offset,
        recovered=recovered,
    )


def surrogate_value(theta, anchor: SurrogateAnchor, problem: DesignProblem) -> float:
    """Evaluate the anchored minorant at an arbitrary phase vector."""
    theta = _as_complex_vector(theta, "theta")
    linear = 2.0 * np.vdot(anchor.slice_scores, theta).real
    penalty = anchor.scale * problem.block * float(np.sum(np.abs(theta) ** 2))
    return linear - penalty + anchor.offset


def phase_update(theta, problem: DesignProblem) -> np.ndarray:
    """One minorize-maximize step: align each phase with its slice score."""
    anchor = surrogate_anchor(theta, problem)
    return np.exp(1j * np.angle(anchor.slice_scores))


def _check_init(init, n_parts: int) -> np.ndarray:
    if init is None:
        return np.ones(n_parts, dtype=complex)
    theta = _as_complex_vector(init, "init")
    if theta.size != n_parts:
        raise ValueError(f"init must have {n_parts} entries, got {theta.size}")
    if np.abs(np.abs(theta) - 1.0).max() > 1e-8:
        raise ValueError("init phases must be unit modulus")
    return theta


def design_mm(problem: DesignProblem, init=None, rel_tol: float = DESIGN_TOL,
              max_iters: int = MAX_ITERS) -> DesignResult:
    """Plain minorize-maximize design loop.

    Repeats the per-element phase alignment until the captured energy changes
    by less than ``rel_tol`` relative, or the iteration cap is hit (reported
    through ``converged``). The objective trace stores the achieved MSE at
    every iterate, which is non-increasing by the surrogate construction.
    """
    theta = _check_init(init, problem.n_parts)
    anchor = surrogate_anchor(theta, problem)
    trace = [problem.window_energy - anchor.recovered]
    iterations = 0
    converged = False
    for _ in range(max_iters):
        theta = np.exp(1j * np.angle(anchor.slice_scores))
        anchor = surrogate_anchor(theta, problem)
        iterations += 1
        trace.append(problem.window_energy - anchor.recovered)
        change = abs(trace[-1] - trace[-2])
        if change <= rel_tol * max(anchor.recovered, np.finfo(float).tiny):
            converged = True
            break
    return DesignResult(
        theta=theta,
        equalizer=mmse_equalizer(theta, problem),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        accelerated=False,
        converged=converged,
    )


def design_accelerated(problem: DesignProblem, init=None,
                       rel_tol: float = DESIGN_TOL,
                       max_iters: int = MAX_ITERS) -> DesignResult:
    """Squared-extrapolation accelerated variant of ``design_mm``.

    Each outer iteration takes two alignment steps, extrapolates along the
    squared fixed-point residual with a Cauchy-Barzilai-Borwein steplength,
    and halves the step toward the plain double update until the move is
    non-increasing in MSE; after ``MAX_BACKTRACKS`` halvings it falls back to
    the double update, which the surrogate construction already guarantees
    monotone. Stopping mirrors ``design_mm``.
    """
    theta = _check_init(init, problem.n_parts)
    current = recovered_energy(theta, problem)
    trace = [problem.window_energy - current]
    iterations = 0
    converged = False
    for _ in range(max_iters):
        step_one = phase_update(theta, problem)
        step_two = phase_update(step_one, problem)
        residual = step_one - theta
        curvature = step_two - step_one - residual
        curve_norm = np.linalg.norm(curvature)
        candidate = step_two
        if curve_norm > 0.0:
            alpha = -np.linalg.norm(residual) / curve_norm
            accepted = False
            for _ in range(MAX_BACKTRACKS + 1):
                trial = np.exp(1j * np.angle(
                    theta - 2.0 * alpha * residual + alpha * alpha * curvature))
                trial_rec = recovered_energy(trial, problem)
                if trial_rec >= current:
                    candidate, accepted = trial, True
                    break
                alpha = (alpha - 1.0) / 2.0
            if not accepted:
                candidate = step_two
        theta = candidate
        new_rec = recovered_energy(theta, problem)
        iterations += 1
        trace.append(problem.window_energy - new_rec)
        change = abs(new_rec - current)
        current = new_rec
        if change <= rel_tol * max(current, np.finfo(float).tiny):
            converged = True
            break
    return DesignResult(
        theta=theta,
        equalizer=mmse_equalizer(theta, problem),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        accelerated=True,
        converged=converged,
    )


def design_phase_aligned(inputs: DesignInputs, cfg: SystemConfig) -> DesignResult:
    """Synchronization-naive baseline: cancel the estimated channel phases.

    Each element conjugates its estimated cascaded gain; the equalizer is the
    Wiener solution computed as if all surfaces shared one timing offset (the
    mean of the estimates), which is all a receiver ignoring asynchrony can
    do. No iteration is involved.
    """
    theta = np.exp(-1j * np.angle(inputs.channel))
    common = np.full(inputs.n_surfaces, float(np.mean(inputs.offsets)))
    belief = build_problem(replace(inputs, offsets=common), cfg)
    equalizer = mmse_equalizer(theta, belief)
    objective = mse_compact(theta, equalizer, belief)
    return DesignResult(
        theta=theta,
        equalizer=equalizer,
        objective_trace=np.asarray([objective]),
        iterations=0,
        accelerated=False,
        converged=True,
    )


def random_phases(n: int, seed) -> np.ndarray:
    """Uniform random unit-modulus phases; the do-nothing reference scheme."""
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random(n))

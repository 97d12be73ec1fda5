"""Cooperative reflection-pattern and equalizer design under estimation errors.

Given timing and cascaded-channel estimates together with their error
covariance, this module picks unit-modulus reflection coefficients for every
surface element and a linear equalizer at the destination so that the
equalized data block tracks the ideal matched-filter output in mean square.

The mean-squared error is first written in a literal per-surface form
(``mse_direct``) and, equivalently, in a structured form (``mse_compact``).
The structured form rests on one identity: lifted over the block samples, the
channel second moment M = h h^H + C couples elements i and j through
M_ij A_k(i) A_k(j)^H, where A_k is surface k's steering matrix. Every
phase-weighted quantity is therefore a sum over surface pairs,
sum_{k,k'} (theta_k^T M_kk' theta_k'^*) A_k A_k'^H, and needs only the K^2
small steering products, the K products A_k W^H with the matched-filter
window W, and M itself; no array has NK times S rows or columns.
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
    """Phase-independent factors shared by every objective evaluation.

    ``steer_products[k, k']`` is A_k A_k'^H for the steering matrices A_k
    (S x L) of surfaces k and k', and ``steer_window[k]`` is A_k W^H.
    ``moment`` is the channel second moment h h^H + C over all elements, and
    ``channel`` the estimate h. Together they define the lifted Gram whose
    (i, j) block of S x S is moment[i, j] A_k(i) A_k(j)^H; it is never formed,
    but ``gram_norm1`` is its exact largest absolute column sum, the
    curvature constant of the surrogate. ``window`` is the ideal
    matched-filter windowing matrix W whose output the equalizer chases, and
    ``window_energy`` its squared Frobenius norm — the MSE of the all-zero
    equalizer and the ceiling on recoverable energy.
    """

    steer_products: np.ndarray  # (K, K, S, S) with S samples per block
    steer_window: np.ndarray    # (K, S, L_o)
    moment: np.ndarray          # (NK, NK), Hermitian PSD
    channel: np.ndarray         # (NK,)
    gram_norm1: float           # max absolute column sum of the lifted Gram
    window: np.ndarray          # (L_o, L) circulant autocorrelation window
    window_energy: float
    noise_cov: np.ndarray       # (S, S)
    block: int                  # samples per observation block, S
    n_parts: int                # number of reflecting elements, NK


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


def build_problem(inputs: DesignInputs, cfg: SystemConfig) -> DesignProblem:
    """Assemble all phase-independent factors for one design instance.

    The channel-error covariance must be PSD up to a small relative
    eigenvalue tolerance; anything more indefinite is rejected rather than
    silently clipped.
    """
    n_surf, n_parts = cfg.n_surfaces, cfg.total_elements
    if inputs.offsets.size != n_surf:
        raise ValueError(f"inputs carry {inputs.offsets.size} offsets, "
                         f"config expects {n_surf}")
    if inputs.channel.size != n_parts:
        raise ValueError(f"expected {n_parts} channel entries, got {inputs.channel.size}")
    if inputs.noise_cov.shape != (cfg.pulse.n_samples,) * 2:
        raise ValueError(f"noise_cov must be {(cfg.pulse.n_samples,) * 2}")
    cov = 0.5 * (inputs.channel_cov + inputs.channel_cov.conj().T)
    eigs = np.linalg.eigvalsh(cov)
    floor = PSD_TOL * max(eigs.max(initial=0.0), 1.0)
    if eigs.min(initial=0.0) < -floor:
        raise ValueError(
            f"channel_cov is not positive semidefinite (eigenvalue {eigs.min():.3e})"
        )
    moment = np.outer(inputs.channel, inputs.channel.conj()) + cov
    steer = np.stack([steering_matrix(eps, cfg.pulse) for eps in inputs.offsets])
    products = np.einsum("asl,btl->abst", steer, steer.conj())
    # Column q of element j's block column in the lifted Gram has absolute sum
    # sum_a (sum_{i in a} |M_ij|) (column q's absolute sum of A_a A_k(j)^H).
    moment_sums = np.abs(moment).reshape(n_surf, -1, n_parts).sum(axis=1)
    column_sums = np.einsum("abj,abq->bjq", moment_sums.reshape(n_surf, n_surf, -1),
                            np.abs(products).sum(axis=2))
    window = window_matrix(matched_filter_taps(cfg.pulse), cfg.pulse)
    return DesignProblem(
        steer_products=products,
        steer_window=steer @ window.conj().T,
        moment=moment,
        channel=inputs.channel,
        gram_norm1=float(column_sums.max()),
        window=window,
        window_energy=float(np.sum(window * window)),
        noise_cov=inputs.noise_cov,
        block=cfg.pulse.n_samples,
        n_parts=n_parts,
    )


def mse_direct(theta, equalizer: np.ndarray, inputs: DesignInputs,
               cfg: SystemConfig) -> float:
    """Data-phase MSE written literally in per-surface form.

    Expands the reflection vector into the block-diagonal per-surface
    operator, lifts the channel second moment over the symbol dimension, and
    evaluates the four quadratic/linear traces term by term. Exists as an
    independent route against the structured form; prefer ``mse_compact`` for
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


def _response(theta, problem: DesignProblem):
    """Phase-weighted moment rows, equalizer normal matrix and target.

    ``rows[a, n]`` sums theta_i M_in over the elements i of surface a. The
    normal matrix (S x S) is sum_{a,b} (theta_a^T M_ab theta_b^*) A_a A_b^H
    plus the noise covariance; the target (S x L_o) is
    sum_a (theta_a . h_a) A_a W^H.
    """
    theta = _as_complex_vector(theta, "theta")
    if theta.size != problem.n_parts:
        raise ValueError(f"expected {problem.n_parts} phases, got {theta.size}")
    n_surf = problem.steer_products.shape[0]
    rows = (theta[:, None] * problem.moment).reshape(n_surf, -1, problem.n_parts).sum(axis=1)
    pairs = (rows * theta.conj()).reshape(n_surf, n_surf, -1).sum(axis=2)
    normal = np.einsum("ab,abst->st", pairs, problem.steer_products) + problem.noise_cov
    normal = 0.5 * (normal + normal.conj().T)
    gains = (theta * problem.channel).reshape(n_surf, -1).sum(axis=1)
    target = np.einsum("a,aso->so", gains, problem.steer_window)
    return rows, normal, target


def mse_compact(theta, equalizer: np.ndarray, problem: DesignProblem) -> float:
    """Data-phase MSE in structured form: same value as ``mse_direct``."""
    _, normal, target = _response(theta, problem)
    quad = np.trace(equalizer @ normal @ equalizer.conj().T).real
    cross = np.trace(equalizer @ target).real
    return quad - 2.0 * cross + problem.window_energy


def _concentrated_pieces(theta, problem: DesignProblem):
    """Shared core: moment rows and the Wiener solve.

    Returns (rows, solved, recovered) where ``solved`` is the normal-matrix
    solve against the target and ``recovered`` the energy the best equalizer
    captures.
    """
    rows, normal, target = _response(theta, problem)
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError("equalizer normal matrix", cond)
    solved = np.linalg.solve(normal, target)
    recovered = float(np.vdot(target, solved).real)
    return rows, solved, recovered


def mmse_equalizer(theta, problem: DesignProblem) -> np.ndarray:
    """Closed-form minimizer of the MSE over the equalizer for fixed phases."""
    return _concentrated_pieces(theta, problem)[1].conj().T


def recovered_energy(theta, problem: DesignProblem) -> float:
    """Window energy captured by the best equalizer at these phases.

    Satisfies mse_compact(theta, mmse_equalizer(theta)) =
    window_energy - recovered_energy(theta); the design maximizes it.
    """
    return _concentrated_pieces(theta, problem)[2]


@dataclass(frozen=True)
class SurrogateAnchor:
    """Linearization of the concentrated objective at one feasible point.

    On the unit-modulus set the surrogate 2*Re(theta . conj(slice_scores))
    - scale*S*||theta||^2 + offset lies below the captured energy everywhere
    and touches it at ``theta``; maximizing it decouples across elements.
    """

    theta: np.ndarray
    slice_scores: np.ndarray
    scale: float
    offset: float
    recovered: float


def surrogate_anchor(theta, problem: DesignProblem) -> SurrogateAnchor:
    """Build the touching linear minorant of the captured energy at theta."""
    theta = _as_complex_vector(theta, "theta")
    rows, solved, recovered = _concentrated_pieces(theta, problem)
    n_surf = problem.steer_products.shape[0]
    outer = solved @ solved.conj().T                        # S x S
    scale = problem.gram_norm1 * float(np.abs(outer).sum(axis=0).max())
    # Element n's score is the trace of its S x S slice of the lifted score
    # matrix: scale * theta_n * S, minus sum_a rows[a, n] tr(outer A_a A_k(n)^H),
    # plus conj(h_n) tr(solved (A_k(n) W^H)^H).
    gram_traces = np.einsum("pq,abqp->ab", outer, problem.steer_products)
    window_traces = np.einsum("so,aso->a", solved, problem.steer_window.conj())
    coupled = (rows.reshape(n_surf, n_surf, -1) * gram_traces[:, :, None]).sum(axis=0)
    mean_part = problem.channel.conj().reshape(n_surf, -1) * window_traces[:, None]
    scores = scale * problem.block * theta - (coupled - mean_part).reshape(-1)
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

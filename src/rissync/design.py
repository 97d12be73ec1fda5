"""Cooperative reflection-pattern and equalizer design under estimation errors.

Given timing and cascaded-channel estimates together with their error
covariance, this module picks unit-modulus reflection coefficients for every
surface element and a linear equalizer at the destination so that the
equalized data block tracks the ideal matched-filter output in mean square.

The mean-squared error is first written in a literal per-surface form
(``mse_direct``) and, equivalently, in a structured form (``mse_compact``).
The structured form rests on one identity: lifted over the block samples, the
channel second moment M = h h^H + C couples elements i and j through
M_ij A_k(i) A_k(j)^T, where A_k is surface k's (real) steering matrix. Every
phase-weighted quantity is therefore a sum over surface pairs,
sum_{k,k'} (theta_k^T M_kk' theta_k'^*) A_k A_k'^T, and needs only the K^2
small steering products, the K products A_k W^T with the matched-filter
window W, and M itself; no array has NK times S rows or columns.
For a fixed reflection vector the best equalizer is a closed-form Wiener
solution, which concentrates the objective into a single function of the
phases. That concentrated objective is maximized with a minorize-maximize
scheme whose map is a per-element phase alignment against a linear
surrogate (``phase_update``). The design loop wraps that map in a
squared-extrapolation accelerator with step backtracking, which speeds up
the fixed-point iteration without giving up monotone progress. The loop's
state is the surrogate anchor at the current iterate, the one evaluation of a
phase vector: one Wiener solve gives its captured energy, its equalizer and
the next surrogate, so each iterate is solved once.
The sync-naive baseline's equalizer (all K offsets at their mean, so one A)
is a closed form on the belief problem's offset-free parts, already checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import block_gains
from .config import SystemConfig
from .estimator import COND_LIMIT, _check_spread
from .pulse import matched_filter_window, steering_matrix

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
    "design_accelerated",
    "design_phase_aligned",
    "random_phases",
]

# Relative objective change below which the iteration is declared converged.
DESIGN_TOL = 1e-8
MAX_ITERS = 500
# Step-halving attempts before the accelerated scheme falls back to the
# double ``phase_update`` step (which is always monotone).
MAX_BACKTRACKS = 20
# Eigenvalues of the channel-error covariance may dip this far below zero
# (relative to its largest eigenvalue) before it is rejected as indefinite.
# Only covariances that the Gershgorin certificate in ``build_problem`` cannot
# place in the PSD cone reach this test.
PSD_TOL = 1e-10
# The Wiener solve skips its SVD when trace(normal) / lambda_min(noise_cov),
# a bound on the normal matrix's cond, is at most COND_LIMIT / SAFETY. The
# margin covers the rounding of the phase part, which is PSD only up to it.
SAFETY = 1e3


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
        # relative to the matrix's own largest entry at any scale; all zeros pass
        for name, mat in (("channel_cov", cov), ("noise_cov", noise)):
            if np.abs(mat - mat.conj().T).max() > 1e-10 * np.abs(mat).max():
                raise ValueError(f"{name} must be Hermitian")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "channel_cov", cov)
        object.__setattr__(self, "noise_cov", noise)


@dataclass(frozen=True)
class DesignProblem:
    """Phase-independent factors shared by every objective evaluation.

    ``steer_products[k, k']`` is A_k A_k'^T for the real steering matrices A_k
    (S x L) of surfaces k and k', and ``steer_window[k]`` is A_k W^T.
    ``moment`` is the channel second moment h h^H + C over all elements, and
    ``channel`` the estimate h. Together they define the lifted Gram whose
    (i, j) block of S x S is moment[i, j] A_k(i) A_k(j)^T; it is never formed,
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
    # Smallest eigenvalue of noise_cov's Hermitian part, taken from noise_cov
    # when the problem is made: a lower bound on every normal matrix's
    # smallest eigenvalue, since the phase part added to it is PSD.
    noise_floor: float = field(init=False)

    def __post_init__(self):
        floor = np.linalg.eigvalsh(0.5 * (self.noise_cov + self.noise_cov.conj().T))[0]
        object.__setattr__(self, "noise_floor", float(floor))


@dataclass(frozen=True)
class DesignResult:
    """Final reflection phases, equalizer, and the per-iterate objective."""

    theta: np.ndarray
    equalizer: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def white_noise_cov(noise_var: float, cfg: SystemConfig) -> np.ndarray:
    """Covariance of white receiver noise over one oversampled block."""
    if not 0.0 < noise_var < np.inf:
        raise ValueError(f"noise_var must be positive and finite, got {noise_var}")
    return noise_var * np.eye(cfg.pulse.n_samples, dtype=complex)


def build_problem(inputs: DesignInputs, cfg: SystemConfig) -> DesignProblem:
    """Assemble all phase-independent factors for one design instance.

    The channel-error covariance must be PSD up to a small relative
    eigenvalue tolerance; anything more indefinite is rejected rather than
    silently clipped. A Gershgorin certificate comes first: when every row's
    diagonal is at least the sum of its other absolute entries, no eigenvalue
    is negative and no factorization runs. Only a covariance that fails it
    gets the exact ``eigvalsh`` test against ``PSD_TOL``.
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
    if not np.all(2.0 * cov.diagonal().real >= np.abs(cov).sum(axis=1)):
        eigs = np.linalg.eigvalsh(cov)
        floor = PSD_TOL * max(eigs.max(initial=0.0), 1.0)
        if eigs.min(initial=0.0) < -floor:
            raise ValueError(
                f"channel_cov is not positive semidefinite (eigenvalue {eigs.min():.3e})"
            )
    moment = np.outer(inputs.channel, inputs.channel.conj()) + cov
    steer = steering_matrix(inputs.offsets, cfg.pulse)        # (K, S, L)
    products = np.einsum("asl,btl->abst", steer, steer)
    # Column q of element j's block column in the lifted Gram has absolute sum
    # sum_a (sum_{i in a} |M_ij|) (column q's absolute sum of A_a A_k(j)^T).
    moment_sums = np.abs(moment).reshape(n_surf, -1, n_parts).sum(axis=1)
    column_sums = np.einsum("abj,abq->bjq", moment_sums.reshape(n_surf, n_surf, -1),
                            np.abs(products).sum(axis=2))
    window = matched_filter_window(cfg.pulse)
    return DesignProblem(
        steer_products=products,
        steer_window=steer @ window.T,
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
    if theta.size != cfg.total_elements:
        raise ValueError(f"expected {cfg.total_elements} phases, got {theta.size}")
    eye_seq = np.eye(cfg.pulse.seq_len)
    per_surface = np.kron(block_gains(theta, cfg.n_surfaces), eye_seq)
    steer = steering_matrix(inputs.offsets, cfg.pulse)
    steer_row = steer.transpose(1, 0, 2).reshape(cfg.pulse.n_samples, -1)
    signal_map = steer_row @ per_surface                    # block samples x NK*L
    moment = np.outer(inputs.channel, inputs.channel.conj()) + inputs.channel_cov
    moment_big = np.kron(0.5 * (moment + moment.conj().T), eye_seq)
    mean_big = np.kron(inputs.channel[:, None], eye_seq)
    window = matched_filter_window(cfg.pulse)
    front = equalizer @ signal_map
    quad = np.trace(front @ moment_big @ front.conj().T).real
    noise = np.trace(equalizer @ inputs.noise_cov @ equalizer.conj().T).real
    cross = np.trace(front @ mean_big @ window.conj().T).real
    return quad + noise - 2.0 * cross + float(np.sum(window * window))


def _response(theta, problem: DesignProblem):
    """Phase-weighted moment rows, equalizer normal matrix and target.

    ``rows[a, n]`` sums theta_i M_in over the elements i of surface a. The
    normal matrix (S x S) is sum_{a,b} (theta_a^T M_ab theta_b^*) A_a A_b^T
    plus the noise covariance; the target (S x L_o) is
    sum_a (theta_a . h_a) A_a W^T.
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


def _wiener(normal: np.ndarray, target: np.ndarray, floor: float) -> np.ndarray:
    """Solve ``normal`` against ``target`` behind the cond gate of ``SAFETY``,
    whose SVD raises SingularSystemError with the exact cond."""
    if not (floor > 0.0 and np.trace(normal).real <= COND_LIMIT / SAFETY * floor):
        _check_spread(np.linalg.svd(normal, compute_uv=False), "equalizer normal matrix")
    return np.linalg.solve(normal, target)


@dataclass(frozen=True)
class SurrogateAnchor:
    """Linearization of the concentrated objective at one feasible point.

    On the unit-modulus set the surrogate 2*Re(theta . conj(slice_scores))
    - scale*S*||theta||^2 + offset (see :func:`surrogate_value`) lies below
    the captured energy everywhere and touches it at ``theta``; maximizing it
    decouples across elements, so the loop never needs the offset.
    """

    theta: np.ndarray
    slice_scores: np.ndarray
    scale: float
    recovered: float
    solved: np.ndarray   # the Wiener solve at theta; its conjugate transpose is the equalizer


def surrogate_anchor(theta, problem: DesignProblem) -> SurrogateAnchor:
    """Build the touching linear minorant of the captured energy at theta,
    around the one Wiener solve (``_wiener``) of these phases."""
    theta = _as_complex_vector(theta, "theta")
    rows, normal, target = _response(theta, problem)
    solved = _wiener(normal, target, problem.noise_floor)
    recovered = float(np.vdot(target, solved).real)
    n_surf = problem.steer_products.shape[0]
    outer = solved @ solved.conj().T                        # S x S
    scale = problem.gram_norm1 * float(np.abs(outer).sum(axis=0).max())
    # Element n's score is the trace of its S x S slice of the lifted score
    # matrix: scale * theta_n * S, minus sum_a rows[a, n] tr(outer A_a A_k(n)^T),
    # plus conj(h_n) tr(solved (A_k(n) W^T)^T).
    gram_traces = np.einsum("pq,abqp->ab", outer, problem.steer_products)
    window_traces = np.einsum("so,aso->a", solved, problem.steer_window)
    coupled = (rows.reshape(n_surf, n_surf, -1) * gram_traces[:, :, None]).sum(axis=0)
    mean_part = problem.channel.conj().reshape(n_surf, -1) * window_traces[:, None]
    scores = scale * problem.block * theta - (coupled - mean_part).reshape(-1)
    return SurrogateAnchor(
        theta=np.array(theta, dtype=complex),
        slice_scores=scores,
        scale=scale,
        recovered=recovered,
        solved=solved,
    )


def surrogate_value(theta, anchor: SurrogateAnchor, problem: DesignProblem) -> float:
    """Evaluate the anchored minorant at an arbitrary phase vector.

    Its offset, constant in theta, is taken from the anchor's Wiener solve so
    that the minorant touches the captured energy at the anchor.
    """
    theta = _as_complex_vector(theta, "theta")
    linear = 2.0 * np.vdot(anchor.slice_scores, theta).real
    penalty = anchor.scale * problem.block * float(np.sum(np.abs(theta) ** 2))
    solved = anchor.solved
    noise_part = float(np.vdot(solved, problem.noise_cov @ solved).real)
    offset = -anchor.scale * problem.n_parts * problem.block + anchor.recovered - 2.0 * noise_part
    return linear - penalty + offset


def mmse_equalizer(theta, problem: DesignProblem) -> np.ndarray:
    """Closed-form minimizer of the MSE over the equalizer for fixed phases."""
    return surrogate_anchor(theta, problem).solved.conj().T


def recovered_energy(theta, problem: DesignProblem) -> float:
    """Window energy captured by the best equalizer at these phases.

    Satisfies mse_compact(theta, mmse_equalizer(theta)) =
    window_energy - recovered_energy(theta); the design maximizes it.
    """
    return surrogate_anchor(theta, problem).recovered


def _aligned(anchor: SurrogateAnchor) -> np.ndarray:
    """Maximizer of the anchored surrogate: each phase follows its slice score."""
    return np.exp(1j * np.angle(anchor.slice_scores))


def phase_update(theta, problem: DesignProblem) -> np.ndarray:
    """One minorize-maximize step: align each phase with its slice score."""
    return _aligned(surrogate_anchor(theta, problem))


def _squarem_step(anchor: SurrogateAnchor, problem: DesignProblem) -> SurrogateAnchor:
    theta, step_one = anchor.theta, _aligned(anchor)
    step_two = _aligned(surrogate_anchor(step_one, problem))
    residual = step_one - theta
    curvature = step_two - step_one - residual
    curve_norm = np.linalg.norm(curvature)
    if curve_norm > 0.0:
        alpha = -np.linalg.norm(residual) / curve_norm
        for _ in range(MAX_BACKTRACKS + 1):
            trial = surrogate_anchor(np.exp(1j * np.angle(
                theta - 2.0 * alpha * residual + alpha * alpha * curvature)), problem)
            if trial.recovered >= anchor.recovered:
                return trial
            alpha = (alpha - 1.0) / 2.0
    return surrogate_anchor(step_two, problem)


def design_accelerated(problem: DesignProblem) -> DesignResult:
    """Squared-extrapolation accelerated minorize-maximize design loop.

    The loop starts from all-ones phases. Each outer iteration wraps two
    steps of the ``phase_update`` map: the first comes from the current
    iterate's anchor, the second from one solve. It extrapolates along the
    squared fixed-point residual with a Cauchy-Barzilai-Borwein steplength,
    and halves the step toward the double update until the move is
    non-increasing in MSE; after ``MAX_BACKTRACKS`` halvings it falls back to
    the double update, which the surrogate construction already guarantees
    monotone. Every candidate is
    scored through its anchor, which carries the phases with their slice
    scores, captured energy and Wiener solve, so the accepted one starts the
    next iteration without another solve and the returned equalizer is the
    last anchor's solve. The loop stops when the captured energy changes by
    at most ``DESIGN_TOL`` relative, or after ``MAX_ITERS`` iterations (reported
    through ``converged``). The objective trace stores the achieved MSE at
    every iterate.
    """
    anchor = surrogate_anchor(np.ones(problem.n_parts, dtype=complex), problem)
    trace = [problem.window_energy - anchor.recovered]
    tiny = np.finfo(float).tiny
    converged = False
    for _ in range(MAX_ITERS):
        previous = anchor.recovered
        anchor = _squarem_step(anchor, problem)
        trace.append(problem.window_energy - anchor.recovered)
        if abs(anchor.recovered - previous) <= DESIGN_TOL * max(anchor.recovered, tiny):
            converged = True
            break
    return DesignResult(
        theta=anchor.theta,
        equalizer=anchor.solved.conj().T,
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
    )


def design_phase_aligned(problem: DesignProblem, offsets,
                         cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Synchronization-naive baseline: cancel the estimated channel phases.

    Returns ``(theta, equalizer)``: each element conjugates its estimated
    gain, and the equalizer is the Wiener solution with every offset at the
    mean of ``offsets`` (one per surface, else ValueError). All steering
    matrices are then one A: the normal matrix is (theta^T M theta^*) A A^T
    plus the noise, the target (theta . h) A W^T, both from offset-free parts
    of the belief ``problem``, which were checked when it was built.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != problem.steer_products.shape[:1]:
        raise ValueError(f"expected {problem.steer_products.shape[0]} offsets, got {offsets.shape}")
    theta = np.exp(-1j * np.angle(problem.channel))
    steer = steering_matrix(np.mean(offsets), cfg.pulse)       # (S, L), real like W
    normal = (theta @ problem.moment @ theta.conj()).real * (steer @ steer.T) + problem.noise_cov
    target = (theta @ problem.channel) * (steer @ problem.window.T)
    return theta, _wiener(normal, target, problem.noise_floor).conj().T


def random_phases(n: int, seed) -> np.ndarray:
    """Uniform random unit-modulus phases, chosen with no channel knowledge.
    The design sweep pairs them with the belief problem's equalizer, which
    knows the estimated per-surface offsets: only the phases are uninformed."""
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random(n))

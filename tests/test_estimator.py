"""Tests for training simulation and the per-surface timing/channel estimator."""
import numpy as np
import pytest

from rissync import SingularSystemError, SystemConfig
from rissync.channel import ChannelSet, cascade, gain_matrix, gen_rayleigh
from rissync.estimator import (
    TrainingPattern,
    _captured_energy,
    _pattern_correlation,
    gen_training,
    ls_channel,
    mle_alternating,
    mle_common_offset,
    observation_matrix,
    residual_cost,
    simulate_training,
)
from rissync.pulse import steering_matrix

CFG = SystemConfig(n_surfaces=2, n_elements=4)


def _instance(cfg, seed, offsets=None, noise_var=0.0):
    rng = np.random.default_rng(seed)
    ch = gen_rayleigh(cfg, rng.integers(2**32))
    tp = gen_training(cfg, rng.integers(2**32))
    if offsets is None:
        offsets = rng.uniform(-0.5, 0.5, cfg.n_surfaces)
    y = simulate_training(ch, offsets, tp, noise_var, cfg, rng.integers(2**32))
    return ch, tp, np.asarray(offsets, float), y


# ---------------------------------------------------------------------------
# training pattern
# ---------------------------------------------------------------------------

def test_training_phase_matrix_is_scaled_unitary():
    tp = gen_training(CFG, 0)
    nk = CFG.total_elements
    gram = tp.phases @ tp.phases.conj().T
    assert np.max(np.abs(gram - nk * np.eye(nk))) <= 1e-10
    assert np.allclose(np.abs(tp.phases), 1.0, atol=1e-12)


def test_training_pilot_is_unit_modulus_qpsk():
    tp = gen_training(CFG, 1)
    assert tp.pilot.shape == (CFG.pulse.seq_len,)
    assert np.allclose(np.abs(tp.pilot), 1.0, atol=1e-12)
    quads = {complex(round(z.real, 6), round(z.imag, 6)) for z in tp.pilot * np.sqrt(2)}
    assert quads <= {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}


def test_training_is_deterministic_per_seed():
    a, b = gen_training(CFG, 7), gen_training(CFG, 7)
    np.testing.assert_array_equal(a.pilot, b.pilot)
    np.testing.assert_array_equal(a.phases, b.phases)
    assert not np.array_equal(a.pilot, gen_training(CFG, 8).pilot)


def test_pilot_sample_autocorrelation_is_white():
    # average normalized autocorrelation over many seeds concentrates at 0
    n_seeds, length = 400, CFG.pulse.seq_len
    acc = np.zeros(3, dtype=complex)
    for seed in range(n_seeds):
        s = gen_training(CFG, seed).pilot
        for lag in (1, 2, 3):
            acc[lag - 1] += np.mean(s[lag:] * np.conj(s[:-lag]))
    acc /= n_seeds
    assert np.all(np.abs(acc) < 3.0 / np.sqrt(length * n_seeds))


def test_more_patterns_than_elements_is_allowed():
    cfg = SystemConfig(2, 2, n_patterns=7)
    tp = gen_training(cfg, 0)
    assert tp.phases.shape == (7, 4)
    # columns stay orthogonal: phases^H phases = M * I
    gram = tp.phases.conj().T @ tp.phases
    assert np.max(np.abs(gram - 7 * np.eye(4))) <= 1e-10


# ---------------------------------------------------------------------------
# observation matrix and simulation
# ---------------------------------------------------------------------------

def test_observation_matrix_shape_and_blocks():
    ch, tp, offsets, _ = _instance(CFG, 3)
    nmat = observation_matrix(offsets, tp, CFG)
    m, rows = CFG.patterns, CFG.pulse.n_samples
    assert nmat.shape == (m * rows, CFG.total_elements)
    # block (pattern m, surface k, element l) = phases[m, kN+l] * filtered pilot
    filt = [steering_matrix(e, CFG.pulse) @ tp.pilot for e in offsets]
    for pat in (0, 3):
        for k in range(CFG.n_surfaces):
            for el in (0, 2):
                col = k * CFG.n_elements + el
                np.testing.assert_allclose(
                    nmat[pat * rows:(pat + 1) * rows, col],
                    tp.phases[pat, col] * filt[k], rtol=1e-12,
                )


def test_observation_matrix_degenerate_single_element():
    cfg = SystemConfig(1, 1)
    tp = gen_training(cfg, 0)
    assert tp.phases.shape == (1, 1) and tp.phases[0, 0] == pytest.approx(1.0)
    nmat = observation_matrix(np.array([0.25]), tp, cfg)
    np.testing.assert_allclose(
        nmat[:, 0], steering_matrix(0.25, cfg.pulse) @ tp.pilot, rtol=1e-12
    )


def test_observation_matrix_matches_per_pattern_stacking():
    # Multiplying by the cascaded channel must reproduce the pattern-by-pattern
    # sum of per-surface gains times filtered pilots, stacked pattern-major.
    ch, tp, offsets, _ = _instance(CFG, 4)
    lhs = observation_matrix(offsets, tp, CFG) @ cascade(ch)
    stacked = np.column_stack(
        [steering_matrix(e, CFG.pulse) @ tp.pilot for e in offsets]
    )  # (n_samples, K)
    he = gain_matrix(ch)
    rhs = (stacked @ (he @ tp.phases.T)).T.reshape(-1)  # pattern-major stack
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_simulate_training_noiseless_and_noise_power():
    ch, tp, offsets, y = _instance(CFG, 5)
    np.testing.assert_allclose(
        y, observation_matrix(offsets, tp, CFG) @ cascade(ch), rtol=1e-12
    )
    # empirical noise variance
    var = 0.5
    diffs = []
    for seed in range(300):
        noisy = simulate_training(ch, offsets, tp, var, CFG, seed)
        diffs.append(np.mean(np.abs(noisy - y) ** 2))
    assert np.mean(diffs) == pytest.approx(var, rel=0.03)
    # determinism in the noise draw
    n1 = simulate_training(ch, offsets, tp, var, CFG, 99)
    n2 = simulate_training(ch, offsets, tp, var, CFG, 99)
    np.testing.assert_array_equal(n1, n2)


def test_simulate_training_rejects_negative_variance():
    ch, tp, offsets, _ = _instance(CFG, 6)
    with pytest.raises(ValueError):
        simulate_training(ch, offsets, tp, -0.1, CFG, 0)


# ---------------------------------------------------------------------------
# least squares and the profile objective
# ---------------------------------------------------------------------------

def test_ls_channel_recovers_noiseless_truth():
    ch, tp, offsets, y = _instance(CFG, 10)
    est = ls_channel(offsets, y, tp, CFG)
    true = cascade(ch)
    assert np.linalg.norm(est - true) / np.linalg.norm(true) < 1e-10


def test_ls_channel_matches_normal_equations():
    ch, tp, offsets, y = _instance(CFG, 11, noise_var=0.3)
    nmat = observation_matrix(offsets, tp, CFG)
    oracle = np.linalg.solve(nmat.conj().T @ nmat, nmat.conj().T @ y)
    np.testing.assert_allclose(ls_channel(offsets, y, tp, CFG), oracle, rtol=1e-8)


def test_ls_channel_annihilates_orthogonal_component():
    ch, tp, offsets, y = _instance(CFG, 12)
    nmat = observation_matrix(offsets, tp, CFG)
    q, _ = np.linalg.qr(nmat)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(nmat.shape[0]) + 1j * rng.standard_normal(nmat.shape[0])
    perp = z - q @ (q.conj().T @ z)
    est = ls_channel(offsets, perp, tp, CFG)
    assert np.linalg.norm(est) < 1e-10 * np.linalg.norm(z)
    assert residual_cost(offsets, perp, tp, CFG) == pytest.approx(
        float(np.vdot(perp, perp).real), rel=1e-10
    )


def test_residual_cost_identity_and_nonnegativity():
    for seed in range(5):
        ch, tp, offsets, y = _instance(CFG, 20 + seed, noise_var=1.0)
        cost = residual_cost(offsets, y, tp, CFG)
        est = ls_channel(offsets, y, tp, CFG)
        direct = float(np.linalg.norm(y - observation_matrix(offsets, tp, CFG) @ est) ** 2)
        assert cost == pytest.approx(direct, rel=1e-9)
        assert cost >= 0.0
    ch, tp, offsets, y = _instance(CFG, 30)
    assert residual_cost(offsets, y, tp, CFG) <= 1e-16 * float(np.vdot(y, y).real)


def test_rank_deficient_observation_raises():
    cfg = SystemConfig(2, 1)
    pilot = gen_training(cfg, 0).pilot
    # identical phase columns + identical offsets → duplicated columns
    tp = TrainingPattern(phases=np.ones((2, 2), dtype=complex), pilot=pilot)
    y = np.zeros(cfg.patterns * cfg.pulse.n_samples, dtype=complex)
    with pytest.raises(SingularSystemError) as err:
        residual_cost(np.array([0.1, 0.1]), y, tp, cfg)
    assert err.value.cond > 1e12 or not np.isfinite(err.value.cond)


# ---------------------------------------------------------------------------
# per-surface estimator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_surf", [1, 2, 4])
def test_per_surface_captured_energy_matches_residual_oracle(k_surf):
    # Orthogonal training splits the profile objective: the energy left
    # outside the observation matrix is the total minus one captured term
    # per surface, each depending only on that surface's offset.
    cfg = SystemConfig(k_surf, 3)
    n = cfg.n_elements
    for seed in range(3):
        _, tp, _, y = _instance(cfg, 300 + seed, noise_var=0.2)
        z, energy = _pattern_correlation(y, tp, cfg)
        eps = np.random.default_rng(seed).uniform(-0.95, 0.95, k_surf)
        captured = sum(
            _captured_energy(e, z[k * n:(k + 1) * n], energy[k * n:(k + 1) * n], tp, cfg)
            for k, e in enumerate(eps)
        )
        separable = float(np.vdot(y, y).real) - captured
        assert separable == pytest.approx(residual_cost(eps, y, tp, cfg), rel=1e-9)


def test_estimators_reject_non_orthogonal_training():
    _, tp, _, y = _instance(CFG, 70)
    rng = np.random.default_rng(0)
    # full rank, so the observation matrix is fine, but the columns overlap
    skewed = TrainingPattern(phases=np.exp(2j * np.pi * rng.random(tp.phases.shape)),
                             pilot=tp.pilot)
    for estimate in (mle_alternating, mle_common_offset):
        with pytest.raises(ValueError, match="orthogonal"):
            estimate(y, skewed, CFG)


def test_mle_noiseless_exact_recovery():
    ch, tp, offsets, y = _instance(CFG, 40, offsets=np.array([0.30, -0.45]))
    res = mle_alternating(y, tp, CFG)
    assert np.max(np.abs(res.offsets - offsets)) < 1e-4
    true = cascade(ch)
    assert np.linalg.norm(res.channel - true) / np.linalg.norm(true) <= 1e-6
    assert res.converged


def test_mle_single_surface_matches_exhaustive_search():
    cfg = SystemConfig(1, 2)
    ch, tp, offsets, y = _instance(cfg, 41, offsets=np.array([0.123]), noise_var=0.05)
    res = mle_alternating(y, tp, cfg)
    grid = np.arange(-0.9995, 0.9996, 1e-3)
    costs = np.array([residual_cost(np.array([e]), y, tp, cfg) for e in grid])
    best = grid[np.argmin(costs)]
    # the refined estimate must be at least as good as the best grid point
    assert res.final_cost <= costs.min() + 1e-12 * (1 + costs.min())
    assert abs(res.offsets[0] - best) < 1e-3 + 1e-5


def test_mle_offsets_are_local_optimum_of_residual_cost():
    step = 1e-4
    for seed in range(20):
        ch, tp, offsets, y = _instance(CFG, 100 + seed, noise_var=0.1)
        res = mle_alternating(y, tp, CFG)
        cost = residual_cost(res.offsets, y, tp, CFG)
        assert res.final_cost == pytest.approx(cost, rel=1e-12)
        for k in range(CFG.n_surfaces):
            for shift in (-step, step):
                moved = res.offsets.copy()
                moved[k] += shift
                assert residual_cost(moved, y, tp, CFG) >= cost


def test_mle_permutation_equivariance():
    # Relabeling surfaces (swapping phase blocks) swaps the recovered offsets
    # and channel segments.
    n = CFG.n_elements
    ch, tp, offsets, y = _instance(CFG, 50, offsets=np.array([0.2, -0.35]))
    swapped_phases = np.concatenate([tp.phases[:, n:], tp.phases[:, :n]], axis=1)
    tp_swap = TrainingPattern(phases=swapped_phases, pilot=tp.pilot)
    ch_swap = ChannelSet(inbound=ch.inbound[::-1].copy(), outbound=ch.outbound[::-1].copy())
    y_swap = simulate_training(ch_swap, offsets[::-1], tp_swap, 0.0, CFG, 0)
    res = mle_alternating(y, tp, CFG)
    res_swap = mle_alternating(y_swap, tp_swap, CFG)
    np.testing.assert_allclose(res_swap.offsets, res.offsets[::-1], atol=1e-6)
    np.testing.assert_allclose(
        res_swap.channel.reshape(2, n)[::-1].reshape(-1), res.channel, atol=1e-7
    )


def test_mle_nmse_improves_with_snr():
    rng_trials = 8
    nmse = []
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        var = 10 ** (-snr_db / 10.0)
        errs = []
        for t in range(rng_trials):
            cfg = SystemConfig(2, 2)
            ch, tp, offsets, _ = _instance(cfg, 200 + t)
            y = simulate_training(ch, offsets, tp, var, cfg, 777 + t)
            res = mle_alternating(y, tp, cfg)
            true = cascade(ch)
            errs.append(np.linalg.norm(res.channel - true) ** 2 / np.linalg.norm(true) ** 2)
        nmse.append(np.mean(errs))
    assert nmse[0] > nmse[1] > nmse[2] > nmse[3]


def test_mle_rejects_bad_init():
    ch, tp, offsets, y = _instance(CFG, 60)
    with pytest.raises(ValueError):
        mle_alternating(y, tp, CFG, init=np.array([0.0, 1.0]))


def test_common_offset_variant_ties_all_surfaces():
    ch, tp, offsets, y = _instance(CFG, 61, offsets=np.array([0.15, 0.15]))
    res = mle_common_offset(y, tp, CFG)
    assert res.offsets[0] == res.offsets[1]
    assert abs(res.offsets[0] - 0.15) < 1e-4
    # with genuinely different offsets the shared fit cannot match the joint one
    ch2, tp2, offs2, y2 = _instance(CFG, 62, offsets=np.array([0.4, -0.4]))
    joint = mle_alternating(y2, tp2, CFG)
    shared = mle_common_offset(y2, tp2, CFG)
    assert shared.final_cost >= joint.final_cost - 1e-12

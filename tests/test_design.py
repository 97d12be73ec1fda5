"""Tests for the reflection-pattern and equalizer design module."""
import numpy as np
import pytest

from rissync.config import SystemConfig
from rissync.design import (
    DesignInputs,
    build_problem,
    design_accelerated,
    design_mm,
    design_phase_aligned,
    mmse_equalizer,
    mse_compact,
    mse_direct,
    phase_update,
    random_phases,
    recovered_energy,
    surrogate_anchor,
    surrogate_value,
    white_noise_cov,
)
from rissync.pulse import matched_filter_taps, steering_matrix, window_matrix


def _cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _unit(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def _instance(seed, k=2, n=2, noise_var=0.1, cov_scale=0.05):
    """Random design inputs with a well-behaved PSD channel covariance."""
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n_surfaces=k, n_elements=n)
    nk = cfg.total_elements
    offsets = rng.uniform(-0.9, 0.9, k)
    channel = _cgauss(rng, nk)
    factor = _cgauss(rng, (nk, nk))
    cov = cov_scale * (factor @ factor.conj().T) / nk
    inputs = DesignInputs(offsets=offsets, channel=channel, channel_cov=cov,
                          noise_cov=white_noise_cov(noise_var, cfg))
    return cfg, inputs


def test_build_problem_rejects_bad_covariance():
    cfg = SystemConfig(n_surfaces=2, n_elements=2)
    rng = np.random.default_rng(5)
    channel = _cgauss(rng, 4)
    noise = white_noise_cov(0.1, cfg)

    def problem_with(cov):
        return build_problem(DesignInputs(offsets=np.zeros(2), channel=channel,
                                          channel_cov=cov, noise_cov=noise), cfg)

    with pytest.raises(ValueError):
        problem_with(-1e-3 * np.eye(4))
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        problem_with(skew)
    # a tiny negative eigenvalue within the tolerance is accepted
    problem = problem_with(-1e-12 * np.eye(4))
    assert np.all(np.isfinite(problem.moment))


def _relative_gap(actual, expected):
    return np.abs(np.asarray(actual) - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("geometry", [(1, 2), (2, 3), (3, 2)])
def test_structured_operators_match_dense_lifted_gram(geometry):
    """The K^2 steering-product factors reproduce the dense lifted operators:
    the kron spread stack with a second-moment factor, its Gram, and the
    theta-expanded normal matrix, target and slice scores built from them."""
    k, n = geometry
    for seed in range(3):
        cfg, inputs = _instance(1300 + 10 * k + seed, k=k, n=n)
        problem = build_problem(inputs, cfg)
        block, nk = cfg.pulse.n_samples, cfg.total_elements
        moment = np.outer(inputs.channel, inputs.channel.conj()) + inputs.channel_cov
        root = np.linalg.cholesky(moment)
        steers = [steering_matrix(eps, cfg.pulse) for eps in inputs.offsets]
        spread = np.concatenate([np.kron(root[s * n:(s + 1) * n], steers[s])
                                 for s in range(k)])
        mean = np.concatenate([np.kron(inputs.channel[s * n:(s + 1) * n, None], steers[s])
                               for s in range(k)])
        gram = spread @ spread.conj().T
        mean_window = mean @ problem.window.conj().T
        norm1 = np.abs(gram).sum(axis=0).max()
        assert abs(problem.gram_norm1 - norm1) <= 1e-12 * norm1

        theta = _unit(np.random.default_rng(1400 + seed), nk)
        big = np.kron(theta[None, :], np.eye(block))
        weighted = big @ gram
        normal = weighted @ big.conj().T + inputs.noise_cov
        target = big @ mean_window
        solved = np.linalg.solve(normal, target)
        recovered = np.vdot(target, solved).real
        assert abs(recovered_energy(theta, problem) - recovered) <= 1e-12 * recovered
        assert _relative_gap(mmse_equalizer(theta, problem), solved.conj().T) <= 1e-12

        outer = solved @ solved.conj().T
        scale = norm1 * np.abs(outer).sum(axis=0).max()
        score_mat = scale * big - outer @ weighted + solved @ mean_window.conj().T
        scores = np.einsum("ini->n", score_mat.reshape(block, nk, block))
        assert _relative_gap(surrogate_anchor(theta, problem).slice_scores, scores) <= 1e-12


@pytest.mark.parametrize("geometry", [(2, 2), (3, 2)])
def test_mse_direct_equals_compact(geometry):
    k, n = geometry
    for seed in range(15):
        cfg, inputs = _instance(100 + seed, k=k, n=n)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(200 + seed)
        theta = _unit(rng, cfg.total_elements)
        eq = _cgauss(rng, (cfg.pulse.obs_len, cfg.pulse.n_samples))
        full = mse_direct(theta, eq, inputs, cfg)
        compact = mse_compact(theta, eq, problem)
        assert abs(full - compact) <= 1e-10 * (1.0 + abs(full))


def test_mse_zero_equalizer_is_window_energy():
    cfg, inputs = _instance(6)
    problem = build_problem(inputs, cfg)
    window = window_matrix(matched_filter_taps(cfg.pulse), cfg.pulse)
    energy = np.trace(window @ window.T)
    zero = np.zeros((cfg.pulse.obs_len, cfg.pulse.n_samples), dtype=complex)
    theta = np.ones(cfg.total_elements, dtype=complex)
    assert np.isclose(mse_direct(theta, zero, inputs, cfg), energy, rtol=1e-12)
    assert np.isclose(mse_compact(theta, zero, problem), energy, rtol=1e-12)
    assert np.isclose(problem.window_energy, energy, rtol=1e-12)


def test_mse_nonnegative_and_convex_in_equalizer():
    cfg, inputs = _instance(7)
    problem = build_problem(inputs, cfg)
    rng = np.random.default_rng(8)
    shape = (cfg.pulse.obs_len, cfg.pulse.n_samples)
    for _ in range(20):
        theta = _unit(rng, cfg.total_elements)
        eq_a, eq_b = _cgauss(rng, shape), _cgauss(rng, shape)
        val_a = mse_compact(theta, eq_a, problem)
        val_b = mse_compact(theta, eq_b, problem)
        mid = mse_compact(theta, 0.5 * (eq_a + eq_b), problem)
        assert val_a >= -1e-12 * (1.0 + abs(val_a))
        assert mid <= 0.5 * (val_a + val_b) + 1e-10 * (1.0 + abs(mid))


def test_mmse_equalizer_is_stationary():
    """Finite differences across every real coordinate of the equalizer."""
    step = 1e-6
    for seed in range(3):
        cfg, inputs = _instance(300 + seed)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(400 + seed)
        theta = _unit(rng, cfg.total_elements)
        eq = mmse_equalizer(theta, problem)
        worst = 0.0
        for r in range(eq.shape[0]):
            for c in range(eq.shape[1]):
                for part in (1.0, 1.0j):
                    bump = np.zeros_like(eq)
                    bump[r, c] = part * step
                    up = mse_compact(theta, eq + bump, problem)
                    down = mse_compact(theta, eq - bump, problem)
                    worst = max(worst, abs(up - down) / (2.0 * step))
        assert worst <= 1e-6


def test_mmse_equalizer_local_minimum_and_noise_shrinkage():
    cfg, inputs = _instance(9)
    problem = build_problem(inputs, cfg)
    rng = np.random.default_rng(10)
    theta = _unit(rng, cfg.total_elements)
    eq = mmse_equalizer(theta, problem)
    base = mse_compact(theta, eq, problem)
    for _ in range(20):
        bump = 1e-3 * _cgauss(rng, eq.shape)
        assert mse_compact(theta, eq + bump, problem) >= base

    # strong noise shrinks the equalizer like 1/noise power
    gains = []
    for rho in (1e4, 1e8):
        strong = DesignInputs(offsets=inputs.offsets, channel=inputs.channel,
                              channel_cov=inputs.channel_cov,
                              noise_cov=white_noise_cov(rho, cfg))
        gains.append(np.abs(mmse_equalizer(theta, build_problem(strong, cfg))).max())
    np.testing.assert_allclose(gains[1] / gains[0], 1e-4, rtol=0.1)


def test_recovered_energy_identity_bounds_and_global_phase():
    cfg, inputs = _instance(11)
    problem = build_problem(inputs, cfg)
    rng = np.random.default_rng(12)
    for _ in range(10):
        theta = _unit(rng, cfg.total_elements)
        rec = recovered_energy(theta, problem)
        achieved = mse_compact(theta, mmse_equalizer(theta, problem), problem)
        assert abs(achieved - (problem.window_energy - rec)) <= 1e-10 * (1.0 + abs(achieved))
        assert -1e-10 <= rec <= problem.window_energy + 1e-10
        spun = np.exp(1j * rng.uniform(0, 2 * np.pi)) * theta
        assert abs(recovered_energy(spun, problem) - rec) <= 1e-10 * (1.0 + rec)


def test_phase_update_unit_modulus_and_monotone():
    combos = [(1, 2), (2, 2), (2, 3)]
    count = 0
    for seed in range(34):
        k, n = combos[seed % len(combos)]
        cfg, inputs = _instance(500 + seed, k=k, n=n)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(600 + seed)
        for _ in range(3):
            theta = _unit(rng, cfg.total_elements)
            before = recovered_energy(theta, problem)
            updated = phase_update(theta, problem)
            after = recovered_energy(updated, problem)
            assert np.abs(np.abs(updated) - 1.0).max() <= 1e-14
            assert after >= before - 1e-12 * max(1.0, before)
            count += 1
    assert count >= 100


def test_phase_update_beats_single_phase_grid_on_surrogate():
    grid = np.arange(0.0, 2.0 * np.pi, 1e-3)
    for seed in range(5):
        cfg, inputs = _instance(700 + seed)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(800 + seed)
        anchor_point = _unit(rng, cfg.total_elements)
        anchor = surrogate_anchor(anchor_point, problem)
        best = np.exp(1j * np.angle(anchor.slice_scores))
        top = surrogate_value(best, anchor, problem)
        for i in range(cfg.total_elements):
            candidate = best.copy()
            # the surrogate is separable, so scanning one element at a time
            # against the jointly aligned point is the full optimality check
            values = []
            for phi in grid[:: max(1, len(grid) // 1571)]:
                candidate[i] = np.exp(1j * phi)
                values.append(surrogate_value(candidate, anchor, problem))
            assert max(values) <= top + 1e-9 * (1.0 + abs(top))


def test_surrogate_touches_dominates_and_matches_slope():
    for seed in range(4):
        cfg, inputs = _instance(900 + seed)
        problem = build_problem(inputs, cfg)
        rng = np.random.default_rng(1000 + seed)
        theta = _unit(rng, cfg.total_elements)
        anchor = surrogate_anchor(theta, problem)

        touch = surrogate_value(theta, anchor, problem)
        assert abs(touch - anchor.recovered) <= 1e-10 * (1.0 + abs(touch))

        for _ in range(10):
            other = _unit(rng, cfg.total_elements)
            bound = surrogate_value(other, anchor, problem)
            actual = recovered_energy(other, problem)
            assert bound <= actual + 1e-10 * (1.0 + abs(actual))

        # tangency: matching directional derivatives along the feasible set
        step = 1e-5
        for _ in range(10):
            direction = rng.standard_normal(cfg.total_elements)

            def spin(s):
                return theta * np.exp(1j * s * direction)

            d_actual = (recovered_energy(spin(step), problem)
                        - recovered_energy(spin(-step), problem)) / (2 * step)
            d_bound = (surrogate_value(spin(step), anchor, problem)
                       - surrogate_value(spin(-step), anchor, problem)) / (2 * step)
            assert abs(d_actual - d_bound) <= 1e-6 * (1.0 + max(abs(d_actual), abs(d_bound)))


def test_design_mm_descends_and_reports_consistently():
    for seed in range(6):
        cfg, inputs = _instance(1100 + seed, k=2, n=2, noise_var=0.5)
        problem = build_problem(inputs, cfg)
        result = design_mm(problem, max_iters=120)
        trace = result.objective_trace
        assert trace.size == result.iterations + 1
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
        assert np.abs(np.abs(result.theta) - 1.0).max() <= 1e-14
        achieved = mse_compact(result.theta, result.equalizer, problem)
        assert abs(achieved - trace[-1]) <= 1e-10 * (1.0 + abs(achieved))


def test_design_single_element_matches_exhaustive_search():
    cfg, inputs = _instance(13, k=1, n=1, noise_var=0.3)
    problem = build_problem(inputs, cfg)
    result = design_accelerated(problem)
    values = []
    for phi in np.arange(0.0, 2.0 * np.pi, 1e-3):
        theta = np.asarray([np.exp(1j * phi)])
        values.append(problem.window_energy - recovered_energy(theta, problem))
    best = min(values)
    assert abs(result.objective_trace[-1] - best) <= 1e-3 * (1.0 + abs(best))


def test_design_two_elements_reaches_relative_phase_optimum():
    # global phase is immaterial, so a 1-D scan over the relative phase is an
    # exhaustive oracle for the two-element problem
    cfg, inputs = _instance(14, k=1, n=2, noise_var=0.3)
    problem = build_problem(inputs, cfg)
    result = design_accelerated(problem)
    values = []
    for phi in np.linspace(0.0, 2.0 * np.pi, 800, endpoint=False):
        theta = np.asarray([1.0, np.exp(1j * phi)])
        values.append(problem.window_energy - recovered_energy(theta, problem))
    best = min(values)
    assert result.objective_trace[-1] <= best + 1e-3 * (1.0 + abs(best))


def test_design_mm_surrogate_touches_at_every_iterate():
    cfg, inputs = _instance(15)
    problem = build_problem(inputs, cfg)
    theta = np.ones(cfg.total_elements, dtype=complex)
    for _ in range(8):
        anchor = surrogate_anchor(theta, problem)
        touch = surrogate_value(theta, anchor, problem)
        assert abs(touch - anchor.recovered) <= 1e-10 * (1.0 + abs(touch))
        theta = np.exp(1j * np.angle(anchor.slice_scores))


def test_design_accelerated_monotone_and_never_worse_than_plain():
    for seed in range(6):
        cfg, inputs = _instance(1200 + seed, k=2, n=2, noise_var=1.0)
        problem = build_problem(inputs, cfg)
        plain = design_mm(problem)
        fast = design_accelerated(problem)
        assert fast.accelerated and not plain.accelerated
        trace = fast.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
        assert trace[-1] <= plain.objective_trace[-1] + 1e-6
        assert fast.iterations <= plain.iterations


def test_design_accelerated_restart_from_converged_point():
    cfg, inputs = _instance(16, noise_var=1.0)
    problem = build_problem(inputs, cfg)
    first = design_accelerated(problem)
    again = design_accelerated(problem, init=first.theta)
    assert again.iterations <= 2
    assert abs(again.objective_trace[-1] - first.objective_trace[-1]) \
        <= 1e-6 * (1.0 + abs(first.objective_trace[-1]))


def test_phase_aligned_baseline_shape_and_single_surface_degeneracy():
    cfg, inputs = _instance(19, k=1, n=4, noise_var=0.5, cov_scale=0.01)
    aligned = design_phase_aligned(inputs, cfg)
    assert np.abs(np.abs(aligned.theta) - 1.0).max() <= 1e-14
    np.testing.assert_allclose(aligned.theta,
                               np.exp(-1j * np.angle(inputs.channel)))
    # one surface means no asynchrony to exploit: the baseline should be close
    # to the optimized design
    problem = build_problem(inputs, cfg)
    tuned = design_accelerated(problem)
    base_mse = mse_compact(aligned.theta, aligned.equalizer, problem)
    assert base_mse <= 1.01 * tuned.objective_trace[-1]
    assert tuned.objective_trace[-1] <= base_mse + 1e-9 * (1.0 + abs(base_mse))


def test_random_phases_unit_and_deterministic():
    a = random_phases(16, 21)
    b = random_phases(16, 21)
    c = random_phases(16, 22)
    np.testing.assert_array_equal(a, b)
    assert np.abs(np.abs(a) - 1.0).max() <= 1e-14
    assert np.abs(a - c).max() > 1e-3


def test_design_inputs_validation():
    cfg = SystemConfig(n_surfaces=2, n_elements=2)
    rng = np.random.default_rng(23)
    chan = _cgauss(rng, 4)
    good_noise = white_noise_cov(0.1, cfg)
    with pytest.raises(ValueError):
        DesignInputs(offsets=np.zeros(2), channel=chan,
                     channel_cov=np.zeros((3, 3)), noise_cov=good_noise)
    lopsided = np.zeros((24, 24), dtype=complex)
    lopsided[0, 1] = 1.0
    with pytest.raises(ValueError):
        DesignInputs(offsets=np.zeros(2), channel=chan,
                     channel_cov=np.zeros((4, 4)), noise_cov=lopsided)
    bad = chan.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        DesignInputs(offsets=np.zeros(2), channel=bad,
                     channel_cov=np.zeros((4, 4)), noise_cov=good_noise)
    inputs = DesignInputs(offsets=np.zeros(2), channel=chan,
                          channel_cov=np.zeros((4, 4)), noise_cov=good_noise)
    problem = build_problem(inputs, cfg)
    with pytest.raises(ValueError):
        design_mm(problem, init=np.ones(3))
    with pytest.raises(ValueError):
        design_mm(problem, init=2.0 * np.ones(4))

"""Tests for the reflection-pattern and equalizer design module."""
from dataclasses import replace

import numpy as np
import pytest

from rissync import design as design_module
from rissync import harness
from rissync.config import SystemConfig
from rissync.crlb import crlb
from rissync.design import (
    DesignInputs,
    build_problem,
    design_accelerated,
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
from rissync.errors import SingularSystemError
from rissync.pulse import matched_filter_window, steering_matrix


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


def _counting(monkeypatch, name):
    """Patch ``np.linalg.<name>`` to record the shape of every matrix it gets."""
    shapes = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_psd_covariance_past_gershgorin_is_accepted_by_eigvalsh(monkeypatch):
    """An all-ones covariance is PSD (rank one) but every row's off-diagonal
    sum exceeds its diagonal: the exact eigvalsh fallback accepts it."""
    cfg = SystemConfig(n_surfaces=2, n_elements=2)
    channel = _cgauss(np.random.default_rng(6), 4)
    cov = np.ones((4, 4), dtype=complex)
    shapes = _counting(monkeypatch, "eigvalsh")
    problem = build_problem(DesignInputs(offsets=np.zeros(2), channel=channel, channel_cov=cov,
                                         noise_cov=white_noise_cov(0.1, cfg)), cfg)
    assert (4, 4) in shapes
    np.testing.assert_array_equal(problem.moment, np.outer(channel, channel.conj()) + cov)


def test_indefinite_covariance_past_gershgorin_raises_the_same_message():
    cfg = SystemConfig(n_surfaces=2, n_elements=2)
    cov = np.zeros((4, 4), dtype=complex)
    cov[0, 1] = cov[1, 0] = 1.0   # eigenvalues -1, 0, 0, 1
    inputs = DesignInputs(offsets=np.zeros(2), channel=np.ones(4), channel_cov=cov,
                          noise_cov=white_noise_cov(0.1, cfg))
    lowest = np.linalg.eigvalsh(cov).min()
    message = f"channel_cov is not positive semidefinite (eigenvalue {lowest:.3e})"
    with pytest.raises(ValueError) as err:
        build_problem(inputs, cfg)
    assert str(err.value) == message


@pytest.mark.parametrize("noise_var", [0.0, 1e-20])
def test_singular_normal_matrix_raises_through_the_svd(noise_var, monkeypatch):
    """One surface's phase part has rank at most L < S. With no noise the
    certificate has nothing to bound by; with 1e-20 its bound is far past
    COND_LIMIT / SAFETY. Either way the SVD rejects the normal matrix and the
    error carries its exact cond."""
    cfg = SystemConfig(n_surfaces=1, n_elements=3)
    inputs = DesignInputs(offsets=np.array([0.3]), channel=_cgauss(np.random.default_rng(7), 3),
                          channel_cov=np.zeros((3, 3)),
                          noise_cov=noise_var * np.eye(cfg.pulse.n_samples))
    problem = build_problem(inputs, cfg)
    assert problem.noise_floor == noise_var
    theta = np.ones(3, dtype=complex)
    values = np.linalg.svd(design_module._response(theta, problem)[1], compute_uv=False)
    cond = values.max() / values.min() if values.min() > 0 else np.inf
    assert not cond <= design_module.COND_LIMIT
    shapes = _counting(monkeypatch, "svd")
    with pytest.raises(SingularSystemError) as err:
        recovered_energy(theta, problem)
    assert shapes == [(cfg.pulse.n_samples,) * 2]
    assert err.value.cond == cond
    assert str(err.value).startswith("equalizer normal matrix: ")


def test_bench_design_trial_needs_no_exact_gate(monkeypatch):
    """At the benchmark's design geometry every gate passes by certificate:
    no SVD of a normal matrix and no eigvalsh of an NK x NK covariance; the
    only eigvalsh calls are the two problems' S x S noise floors."""
    spec = harness.ExperimentSpec(n_surfaces=2, n_x=8, n_y=4, offset_model="common-delta",
                                  delta_max=0.3, snr_grid_db=(10.0,), trials=1, base_seed=0)
    cfg = spec.system_config()
    trial = harness._draw_trial(spec, 0)
    svd_shapes = _counting(monkeypatch, "svd")
    eig_shapes = _counting(monkeypatch, "eigvalsh")
    scores = harness._score_design(trial, 0)
    assert all(np.isfinite(v) for v in scores.values())
    assert svd_shapes == []
    assert eig_shapes == [(cfg.pulse.n_samples,) * 2] * 2


def test_design_trial_builds_the_belief_and_the_truth_problems_only(monkeypatch):
    """The phase-aligned baseline reads the belief problem: a trial builds two."""
    spec = harness.ExperimentSpec(n_surfaces=3, n_x=2, n_y=1, snr_grid_db=(0.0, 20.0),
                                  trials=1, base_seed=5)
    trial = harness._draw_trial(spec, 0)
    built = []

    def counted(inputs, cfg):
        built.append(inputs)
        return build_problem(inputs, cfg)

    monkeypatch.setattr(harness, "build_problem", counted)
    for p in range(len(spec.snr_grid_db)):
        built.clear()
        harness._score_design(trial, p)
        assert len(built) == 2
        np.testing.assert_array_equal(built[1].offsets, trial.offsets)


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
    window = matched_filter_window(cfg.pulse)
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


def _k_scalar_energy(theta, inputs, cfg, bounds=None):
    """Re tr((v W^T)^H N^-1 v W^T), v = sum_a g_a A_a with g_a = theta_a . h_a
    one complex number per surface: N = v v^H + N_0, plus, on a belief with
    the bound's parts d and r_a, sum_a (sum_{i in a} d_i
    + (noise_var/2) |theta_a . r_a|^2) A_a A_a^T."""
    k = cfg.n_surfaces
    steer = steering_matrix(inputs.offsets, cfg.pulse)
    v = np.einsum("a,asl->sl", (theta * inputs.channel).reshape(k, -1).sum(axis=1), steer)
    normal = v @ v.conj().T + inputs.noise_cov
    if bounds is not None:
        spread = (bounds.channel_diag.reshape(k, -1).sum(axis=1) + bounds.noise_var / 2.0
                  * np.abs((theta.reshape(k, -1) * bounds.channel_factor).sum(axis=1)) ** 2)
        normal = normal + np.einsum("a,asl,atl->st", spread, steer, steer)
    target = v @ matched_filter_window(cfg.pulse).T
    return np.vdot(target, np.linalg.solve(normal, target)).real


# The sweep's design trials that the K-scalar tests read: the benchmark's
# design instance and an mmWave K=4 8x8 one.
_K_SCALAR_CASES = {
    "bench": harness.ExperimentSpec(n_surfaces=2, n_x=8, n_y=4, offset_model="common-delta",
                                    delta_max=0.3, snr_grid_db=(10.0,), trials=1, base_seed=0),
    "mmwave-k4-8x8": harness.ExperimentSpec(scenario="mmwave", n_surfaces=4, n_x=8, n_y=8,
                                            offset_model="common-delta", delta_max=0.3,
                                            snr_grid_db=(10.0,), trials=1, base_seed=77),
}
_K_SCALAR_SPECS = pytest.mark.parametrize("spec", list(_K_SCALAR_CASES.values()),
                                          ids=list(_K_SCALAR_CASES))


def _sweep_inputs(spec, trial_index):
    """Trial ``trial_index``'s belief inputs at its first point, with the bound
    they carry, and its truth inputs (the drawn gains, no uncertainty)."""
    cfg = spec.system_config()
    trial = harness._draw_trial(spec, trial_index)
    believed = harness._believed(trial, 0)
    est = harness._point(trial.joint, 0)
    bounds = crlb(est.offsets, est.channel, trial.pilot, trial.noise_vars[0], cfg)
    truth = DesignInputs(offsets=trial.offsets, channel=trial.gains,
                         channel_cov=np.zeros((cfg.total_elements,) * 2, dtype=complex),
                         noise_cov=believed.noise_cov)
    return cfg, ((believed, bounds), (truth, None))


@_K_SCALAR_SPECS
def test_captured_energy_depends_on_the_phases_through_k_scalars(spec):
    """On a sweep trial's belief and truth problems the captured energy is a
    function of g_a = theta_a . h_a alone, at random, conjugate and loop phases."""
    cfg, cases = _sweep_inputs(spec, 0)
    rng = np.random.default_rng(3)
    for inputs, parts in cases:
        problem = build_problem(inputs, cfg)
        for theta in (_unit(rng, cfg.total_elements), np.exp(-1j * np.angle(inputs.channel)),
                      design_accelerated(problem).theta):
            want = _k_scalar_energy(theta, inputs, cfg, parts)
            assert abs(recovered_energy(theta, problem) - want) <= 1e-12 * abs(want)


@_K_SCALAR_SPECS
def test_slice_scores_are_two_scalars_per_surface(spec):
    """On sweep trials 0-2, belief and truth, at random and conjugate phases,
    surface k's slice scores are alpha_k theta_n + beta_k conj(h_n): the
    least-squares fit leaves rounding only (worst measured 8.6e-16)."""
    rng = np.random.default_rng(4)
    for trial_index in range(3):
        cfg, cases = _sweep_inputs(spec, trial_index)
        for inputs, _ in cases:
            problem = build_problem(inputs, cfg)
            for theta in (_unit(rng, cfg.total_elements),
                          np.exp(-1j * np.angle(inputs.channel))):
                scores = surrogate_anchor(theta, problem).slice_scores
                for s, t, h in zip(*(v.reshape(cfg.n_surfaces, -1)
                                     for v in (scores, theta, inputs.channel))):
                    basis = np.stack([t, h.conj()], axis=1)
                    fit = basis @ np.linalg.lstsq(basis, s, rcond=None)[0]
                    assert np.linalg.norm(s - fit) <= 1e-13 * np.linalg.norm(s)


@_K_SCALAR_SPECS
def test_conjugate_phases_are_stationary(spec):
    """On sweep trials 0-2, belief and truth, the conjugate phases theta_c
    are a stationary point of the captured energy on the unit circles: the
    tangent part Im(conj(theta_c) * g) of g = slice_scores - scale*S*theta_c
    is rounding of that cancellation (worst measured 1.6e-9 of ||g||), while
    at random phases it is a sizeable share of ||g||."""
    rng = np.random.default_rng(5)
    for trial_index in range(3):
        cfg, cases = _sweep_inputs(spec, trial_index)
        for inputs, _ in cases:
            problem = build_problem(inputs, cfg)
            for theta, stationary in ((np.exp(-1j * np.angle(inputs.channel)), True),
                                      (_unit(rng, cfg.total_elements), False)):
                anchor = surrogate_anchor(theta, problem)
                g = anchor.slice_scores - anchor.scale * problem.block * theta
                tangent = np.linalg.norm((theta.conj() * g).imag) / np.linalg.norm(g)
                assert (tangent <= 1e-8) if stationary else (tangent >= 1e-2)


def _two_group_phases(h, g):
    """Unit-modulus phases with theta . h = g for |W1 - W2| <= |g| <= sum |h|:
    the elements split greedily (heaviest first, each to the lighter group)
    into groups of weight W1 and W2, turned by +alpha and -alpha off the
    conjugate phases, then all by one rotation onto g's phase."""
    weights = np.abs(h)
    second = np.zeros(h.size, dtype=bool)
    totals = [0.0, 0.0]
    for n in np.argsort(-weights, kind="stable"):
        lighter = int(totals[1] < totals[0])
        second[n] = lighter == 1
        totals[lighter] += weights[n]
    w1, w2 = totals
    cos_2alpha = 1.0 if w2 == 0.0 else np.clip(
        (abs(g) ** 2 - w1 ** 2 - w2 ** 2) / (2.0 * w1 * w2), -1.0, 1.0)
    alpha = 0.5 * np.arccos(cos_2alpha)
    theta = np.exp(1j * (np.where(second, -alpha, alpha) - np.angle(h)))
    return theta * np.exp(1j * (np.angle(g) - np.angle(theta @ h))), abs(w1 - w2)


@pytest.mark.parametrize("spec", [*_K_SCALAR_CASES.values(),
                                  replace(_K_SCALAR_CASES["bench"], n_x=1, n_y=1)],
                         ids=[*_K_SCALAR_CASES, "bench-n1"])
def test_two_groups_realize_the_ring_of_each_surface_scalar(spec):
    """On sweep trials 0-2, belief and truth, two groups of near-equal weight
    turned by +-alpha realize every g_a = theta_a . h_a with
    |W1 - W2| <= |g_a| <= R_a = ||h_a||_1, at both edges and at random
    magnitudes between, each at a random phase (worst measured 6.6e-15 of
    R_a). At N=1 the ring is the circle |g_a| = R_a."""
    rng = np.random.default_rng(6)
    for trial_index in range(3):
        cfg, cases = _sweep_inputs(spec, trial_index)
        for inputs, _ in cases:
            for h in inputs.channel.reshape(cfg.n_surfaces, -1):
                reach = np.abs(h).sum()
                inner = _two_group_phases(h, reach)[1]
                if h.size == 1:
                    assert inner == reach
                for size in (inner, reach, *rng.uniform(inner, reach, 5)):
                    g = size * np.exp(2j * np.pi * rng.random())
                    theta = _two_group_phases(h, g)[0]
                    assert np.all(np.abs(np.abs(theta) - 1.0) <= 1e-15)
                    assert abs(theta @ h - g) <= 1e-13 * reach


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


def test_design_loop_descends_and_reports_consistently():
    for seed in range(6):
        cfg, inputs = _instance(1100 + seed, k=2, n=2, noise_var=0.5)
        problem = build_problem(inputs, cfg)
        result = design_accelerated(problem)
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


def test_surrogate_touches_at_every_iterate():
    cfg, inputs = _instance(15)
    problem = build_problem(inputs, cfg)
    theta = np.ones(cfg.total_elements, dtype=complex)
    for _ in range(8):
        anchor = surrogate_anchor(theta, problem)
        touch = surrogate_value(theta, anchor, problem)
        assert abs(touch - anchor.recovered) <= 1e-10 * (1.0 + abs(touch))
        theta = np.exp(1j * np.angle(anchor.slice_scores))


def _plain_mm_trace(problem, steps=500):
    """MSE trace of the plain minorize-maximize loop: ``steps`` steps of the
    ``phase_update`` map from all-ones phases, each point solved once."""
    anchor = surrogate_anchor(np.ones(problem.n_parts, dtype=complex), problem)
    captured = [anchor.recovered]
    for _ in range(steps):
        anchor = surrogate_anchor(np.exp(1j * np.angle(anchor.slice_scores)), problem)
        captured.append(anchor.recovered)
    return problem.window_energy - np.asarray(captured)


def test_design_accelerated_monotone_and_never_worse_than_plain():
    for seed in range(6):
        cfg, inputs = _instance(1200 + seed, k=2, n=2, noise_var=1.0)
        problem = build_problem(inputs, cfg)
        plain = _plain_mm_trace(problem)
        fast = design_accelerated(problem)
        trace = fast.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
        assert trace[-1] <= plain[-1] + 1e-6
        assert fast.iterations <= len(plain) - 1


def test_design_loops_solve_each_point_once(monkeypatch):
    """Every Wiener solve (one per anchor) is at a new phase vector, and the
    returned point is one of them: its equalizer reuses that solve."""
    solved = []
    original = design_module.surrogate_anchor

    def recording(theta, problem):
        solved.append(np.asarray(theta, dtype=complex).tobytes())
        return original(theta, problem)

    monkeypatch.setattr(design_module, "surrogate_anchor", recording)
    for seed in range(6):
        cfg, inputs = _instance(1200 + seed, k=2, n=2, noise_var=1.0)
        problem = build_problem(inputs, cfg)
        solved.clear()
        result = design_accelerated(problem)
        assert result.iterations >= 2
        assert len(set(solved)) == len(solved)
        assert result.theta.tobytes() in solved


@pytest.mark.parametrize("max_iters", [0, 3, None])
def test_design_loop_returns_its_last_point(max_iters, monkeypatch):
    cfg, inputs = _instance(1210, k=2, n=2, noise_var=1.0)
    problem = build_problem(inputs, cfg)
    if max_iters is not None:
        monkeypatch.setattr(design_module, "MAX_ITERS", max_iters)
    result = design_accelerated(problem)
    trace = result.objective_trace
    assert np.array_equal(result.equalizer, mmse_equalizer(result.theta, problem))
    assert trace[-1] == problem.window_energy - recovered_energy(result.theta, problem)
    assert len(trace) == result.iterations + 1
    if max_iters is not None:
        assert result.iterations == max_iters
        assert not result.converged


def _normwise_gap(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def test_phase_aligned_baseline_shape_and_single_surface_degeneracy():
    cfg, inputs = _instance(19, k=1, n=4, noise_var=0.5, cov_scale=0.01)
    problem = build_problem(inputs, cfg)
    theta, equalizer = design_phase_aligned(problem, inputs.offsets, cfg)
    assert np.abs(np.abs(theta) - 1.0).max() <= 1e-14
    np.testing.assert_allclose(theta, np.exp(-1j * np.angle(inputs.channel)))
    # one surface means no asynchrony to exploit: the mean offset is the
    # offset, so the equalizer is the belief problem's Wiener solution, and
    # the baseline should be close to the optimized design
    assert _normwise_gap(equalizer, mmse_equalizer(theta, problem)) <= 1e-12
    tuned = design_accelerated(problem)
    base_mse = mse_compact(theta, equalizer, problem)
    assert base_mse <= 1.01 * tuned.objective_trace[-1]
    assert tuned.objective_trace[-1] <= base_mse + 1e-9 * (1.0 + abs(base_mse))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phase_aligned_closed_form_is_the_common_offset_problem_solve(k, monkeypatch):
    """The closed form equals the general route it replaces: the Wiener solve
    of a problem built with every offset at the mean of the estimates. The
    closed form itself builds no problem, no inputs and no phase response."""
    for seed in range(4):
        cfg, inputs = _instance(1600 + 10 * k + seed, k=k, n=1 + seed)
        problem = build_problem(inputs, cfg)
        common = np.full(k, float(np.mean(inputs.offsets)))
        theta = np.exp(-1j * np.angle(inputs.channel))
        expected = mmse_equalizer(theta, build_problem(replace(inputs, offsets=common), cfg))
        with monkeypatch.context() as patch:
            for name in ("build_problem", "_response"):
                patch.setattr(design_module, name, None)
            patch.setattr(DesignInputs, "__post_init__", None)
            aligned_theta, equalizer = design_phase_aligned(problem, inputs.offsets, cfg)
        np.testing.assert_array_equal(aligned_theta, theta)
        assert _normwise_gap(equalizer, expected) <= 1e-10


@pytest.mark.parametrize("noise_var", [0.0, 1e-20])
def test_phase_aligned_singular_normal_matrix_raises_with_its_cond(noise_var, monkeypatch):
    """The common-offset phase part q A A^H has rank at most L < S, so with no
    or negligible noise the shared Wiener gate rejects it through the SVD, and
    the error carries the exact cond of the matrix it checked."""
    cfg = SystemConfig(n_surfaces=2, n_elements=2)
    inputs = DesignInputs(offsets=np.array([0.3, -0.1]),
                          channel=_cgauss(np.random.default_rng(8), 4),
                          channel_cov=np.zeros((4, 4)),
                          noise_cov=noise_var * np.eye(cfg.pulse.n_samples))
    problem = build_problem(inputs, cfg)
    checked = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        checked.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    with pytest.raises(SingularSystemError) as err:
        design_phase_aligned(problem, inputs.offsets, cfg)
    assert len(checked) == 1 and checked[0].shape == (cfg.pulse.n_samples,) * 2
    values = original(checked[0], compute_uv=False)
    cond = values.max() / values.min() if values.min() > 0 else np.inf
    assert not cond <= design_module.COND_LIMIT
    assert err.value.cond == cond
    assert str(err.value).startswith("equalizer normal matrix: ")
    # with no channel uncertainty theta^T M theta^* is (theta . h)^2 = (sum |h|)^2
    steer = steering_matrix(np.mean(inputs.offsets), cfg.pulse)
    quad = np.sum(np.abs(inputs.channel)) ** 2
    assert _normwise_gap(checked[0], quad * steer @ steer.T + inputs.noise_cov) <= 1e-12


@pytest.mark.parametrize("offsets", [np.zeros(1), np.zeros(3), np.zeros((2, 1)), 0.0])
def test_phase_aligned_needs_one_offset_per_surface(offsets):
    cfg, inputs = _instance(1700, k=2, n=2)
    with pytest.raises(ValueError, match="expected 2 offsets"):
        design_phase_aligned(build_problem(inputs, cfg), offsets, cfg)


def test_random_phases_unit_and_deterministic():
    a = random_phases(16, 21)
    b = random_phases(16, 21)
    c = random_phases(16, 22)
    np.testing.assert_array_equal(a, b)
    assert np.abs(np.abs(a) - 1.0).max() <= 1e-14
    assert np.abs(a - c).max() > 1e-3


@pytest.mark.parametrize("noise_var", [0.0, -0.1, np.nan, np.inf])
def test_white_noise_cov_rejects_nonpositive_or_non_finite_variance(noise_var):
    with pytest.raises(ValueError, match="noise_var"):
        white_noise_cov(noise_var, SystemConfig(n_surfaces=2, n_elements=2))


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


@pytest.mark.parametrize("scale", [1e-11, 1e-6, 1.0, 1e6])
def test_design_inputs_hermitian_check_is_relative_at_every_scale(scale):
    # The tolerance follows the matrix's own largest entry: below unit scale
    # an anti-Hermitian part is as visible as above it, and an all-zero
    # channel covariance (perfect knowledge) still passes.
    cfg = SystemConfig(n_surfaces=2, n_elements=2)
    rng = np.random.default_rng(29)
    chan = _cgauss(rng, 4)
    factor = _cgauss(rng, (4, 4))
    hermitian = scale * (factor @ factor.conj().T)
    skew = scale * (factor - factor.conj().T)
    noise = white_noise_cov(scale, cfg)
    lopsided_noise = noise.copy()
    lopsided_noise[0, 1] = 1e-6 * scale
    DesignInputs(offsets=np.zeros(2), channel=chan, channel_cov=hermitian, noise_cov=noise)
    DesignInputs(offsets=np.zeros(2), channel=chan, channel_cov=np.zeros((4, 4)),
                 noise_cov=noise)
    with pytest.raises(ValueError, match="channel_cov must be Hermitian"):
        DesignInputs(offsets=np.zeros(2), channel=chan, channel_cov=skew, noise_cov=noise)
    with pytest.raises(ValueError, match="noise_cov must be Hermitian"):
        DesignInputs(offsets=np.zeros(2), channel=chan, channel_cov=hermitian,
                     noise_cov=lopsided_noise)

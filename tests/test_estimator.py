"""Tests for training simulation and the per-surface timing/channel estimator."""
import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissync import SingularSystemError, SystemConfig, harness
from rissync.channel import block_gains, cascade, gen_rayleigh
from rissync.estimator import (
    _GRID,
    _LEVELS,
    _ZOOM,
    COND_LIMIT,
    GRID_STEP,
    _check_spread,
    _estimate,
    _excess,
    _fits,
    _forms,
    _grid_table,
    _pattern_correlation,
    _point,
    _quotient,
    _search_offsets,
    _training_phases,
    gen_training,
    mle_alternating,
    observation_matrix,
    residual_cost,
    simulate_training,
)
from rissync.pulse import (
    _OFFSET_EDGE,
    lag_pilot_matrix,
    rrc_impulse,
    steering_matrix,
)

CFG = SystemConfig(n_surfaces=2, n_elements=4)


def _instance(cfg, seed, offsets=None, noise_var=0.0):
    rng = np.random.default_rng(seed)
    h = cascade(gen_rayleigh(cfg, rng.integers(2**32)))
    pilot = gen_training(cfg, rng.integers(2**32))
    if offsets is None:
        offsets = rng.uniform(-0.5, 0.5, cfg.n_surfaces)
    y = simulate_training(h, offsets, pilot, noise_var, cfg, rng.integers(2**32))
    return h, pilot, np.asarray(offsets, float), y


def _ls_channel(offsets, y, pilot, cfg):
    # least-squares channel at given offsets, through the sweeps' fit route
    return _point(_fits(offsets, _pattern_correlation(y, cfg), pilot, cfg), ()).channel


def _common_offset(y, pilot, cfg):
    # the offset-synchronization-naive estimate as the sweeps form it: one
    # search over every element, then the least-squares fit
    return _point(_estimate(_pattern_correlation(y, cfg), pilot, cfg, cfg.total_elements), ())


# ---------------------------------------------------------------------------
# training: the scaled-DFT patterns and the pilot
# ---------------------------------------------------------------------------

def test_training_phase_matrix_is_scaled_unitary():
    phases = _training_phases(CFG)
    nk = CFG.total_elements
    gram = phases @ phases.conj().T
    assert np.max(np.abs(gram - nk * np.eye(nk))) <= 1e-10
    assert np.allclose(np.abs(phases), 1.0, atol=1e-12)


def test_training_pilot_is_unit_modulus_qpsk():
    pilot = gen_training(CFG, 1)
    assert pilot.shape == (CFG.pulse.seq_len,)
    assert np.allclose(np.abs(pilot), 1.0, atol=1e-12)
    quads = {complex(round(z.real, 6), round(z.imag, 6)) for z in pilot * np.sqrt(2)}
    assert quads <= {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}


def test_training_is_deterministic_per_seed():
    a, b = gen_training(CFG, 7), gen_training(CFG, 7)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(_training_phases(CFG), _training_phases(CFG))
    assert not np.array_equal(a, gen_training(CFG, 8))


def test_the_pilot_does_not_depend_on_the_element_count():
    for seed in (0, 7, 2**32 - 1):
        pilot = gen_training(SystemConfig(2, 4), seed)
        assert pilot.tobytes() == gen_training(SystemConfig(3, 5), seed).tobytes()


def test_pilot_sample_autocorrelation_is_white():
    # average normalized autocorrelation over many seeds concentrates at 0
    n_seeds, length = 400, CFG.pulse.seq_len
    acc = np.zeros(3, dtype=complex)
    for seed in range(n_seeds):
        s = gen_training(CFG, seed)
        for lag in (1, 2, 3):
            acc[lag - 1] += np.mean(s[lag:] * np.conj(s[:-lag]))
    acc /= n_seeds
    assert np.all(np.abs(acc) < 3.0 / np.sqrt(length * n_seeds))


@settings(max_examples=30, deadline=None)
@given(k_surf=st.integers(1, 3), n_el=st.integers(1, 4))
def test_training_phases_are_the_scaled_dft_of_its_size(k_surf, n_el):
    cfg = SystemConfig(k_surf, n_el)
    nk = cfg.total_elements
    rows = np.arange(nk)[:, None]
    cols = np.arange(nk)[None, :]
    phases = _training_phases(cfg)
    assert phases.tobytes() == np.exp(-2j * np.pi * rows * cols / nk).tobytes()
    # the phases depend on N*K alone, whichever config asks
    assert _training_phases(SystemConfig(n_el, k_surf)).tobytes() == phases.tobytes()


# ---------------------------------------------------------------------------
# observation matrix and simulation
# ---------------------------------------------------------------------------

def test_observation_matrix_shape_and_blocks():
    h, pilot, offsets, _ = _instance(CFG, 3)
    nmat = observation_matrix(offsets, pilot, CFG)
    m, rows = CFG.total_elements, CFG.pulse.n_samples
    assert nmat.shape == (m * rows, CFG.total_elements)
    # block (pattern m, surface k, element l) = phases[m, kN+l] * filtered pilot
    filt = [steering_matrix(e, CFG.pulse) @ pilot for e in offsets]
    for pat in (0, 3):
        for k in range(CFG.n_surfaces):
            for el in (0, 2):
                col = k * CFG.n_elements + el
                np.testing.assert_allclose(
                    nmat[pat * rows:(pat + 1) * rows, col],
                    _training_phases(CFG)[pat, col] * filt[k], rtol=1e-12,
                )


def test_observation_matrix_degenerate_single_element():
    cfg = SystemConfig(1, 1)
    pilot = gen_training(cfg, 0)
    phases = _training_phases(cfg)
    assert phases.shape == (1, 1) and phases[0, 0] == pytest.approx(1.0)
    nmat = observation_matrix(np.array([0.25]), pilot, cfg)
    np.testing.assert_allclose(
        nmat[:, 0], steering_matrix(0.25, cfg.pulse) @ pilot, rtol=1e-12
    )


def test_observation_matrix_matches_per_pattern_stacking():
    # Multiplying by the cascaded channel must reproduce the pattern-by-pattern
    # sum of per-surface gains times filtered pilots, stacked pattern-major.
    h, pilot, offsets, _ = _instance(CFG, 4)
    lhs = observation_matrix(offsets, pilot, CFG) @ h
    stacked = np.column_stack(
        [steering_matrix(e, CFG.pulse) @ pilot for e in offsets]
    )  # (n_samples, K)
    he = block_gains(h, CFG.n_surfaces)
    rhs = (stacked @ (he @ _training_phases(CFG).T)).T.reshape(-1)  # pattern-major stack
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_simulate_training_noiseless_and_noise_power():
    h, pilot, offsets, y = _instance(CFG, 5)
    np.testing.assert_allclose(
        y, observation_matrix(offsets, pilot, CFG) @ h, rtol=1e-12
    )
    # empirical noise variance
    var = 0.5
    diffs = []
    for seed in range(300):
        noisy = simulate_training(h, offsets, pilot, var, CFG, seed)
        diffs.append(np.mean(np.abs(noisy - y) ** 2))
    assert np.mean(diffs) == pytest.approx(var, rel=0.03)
    # determinism in the noise draw
    n1 = simulate_training(h, offsets, pilot, var, CFG, 99)
    n2 = simulate_training(h, offsets, pilot, var, CFG, 99)
    np.testing.assert_array_equal(n1, n2)


def test_simulate_training_rejects_negative_variance():
    h, pilot, offsets, _ = _instance(CFG, 6)
    with pytest.raises(ValueError):
        simulate_training(h, offsets, pilot, -0.1, CFG, 0)


@pytest.mark.parametrize("noise_var", [np.nan, np.inf, [0.1, np.nan], [0.1, np.inf],
                                       [0.1, -0.1], [[0.1, 0.2]]])
def test_simulate_training_rejects_non_finite_or_misshapen_variances(noise_var):
    h, pilot, offsets, _ = _instance(CFG, 6)
    with pytest.raises(ValueError, match="noise_var"):
        simulate_training(h, offsets, pilot, noise_var, CFG, 0)


STACKED_VARS = (0.0, 1e-4, 1e-2, 0.1, 1.0, 10.0)


@pytest.mark.parametrize("k_surf", [1, 2, 4])
def test_stacked_training_rows_are_the_scalar_calls(k_surf):
    # One noise draw serves every row, scaled per row: each row must be the
    # scalar call at its variance, and a zero-variance row the clean signal.
    cfg = SystemConfig(k_surf, 4)
    h, pilot, offsets, clean = _instance(cfg, 80 + k_surf)
    rows = simulate_training(h, offsets, pilot, np.array(STACKED_VARS), cfg, 123)
    assert rows.shape == (len(STACKED_VARS), clean.size)
    for row, var in zip(rows, STACKED_VARS):
        assert row.tobytes() == simulate_training(h, offsets, pilot, var, cfg, 123).tobytes()
    assert rows[0].tobytes() == clean.tobytes()
    dense = observation_matrix(offsets, pilot, cfg) @ h
    assert np.linalg.norm(clean - dense) <= 1e-13 * np.linalg.norm(dense)


# N per K: the element counts N*K are 1 and 13 (K=1), 6 and 32 (K=2), 64 and
# 256 (K=4); primes and other non-powers of two take other FFT paths.
FFT_SIZES = {1: (1, 13), 2: (3, 16), 4: (16, 64)}


@pytest.mark.parametrize("k_surf", sorted(FFT_SIZES))
def test_clean_signal_is_the_observation_matrix_times_the_channel(k_surf):
    # The simulation's clean signal is an FFT over the elements and Z an
    # unscaled inverse FFT over the patterns; each must be the dense product
    # with the DFT phase matrix.
    for n_el in FFT_SIZES[k_surf]:
        cfg = SystemConfig(k_surf, n_el)
        for seed in range(2):
            h, pilot, offsets, clean = _instance(cfg, 500 + seed)
            dense = observation_matrix(offsets, pilot, cfg) @ h
            assert clean.shape == dense.shape
            assert np.linalg.norm(clean - dense) <= 1e-13 * np.linalg.norm(dense)
            y = simulate_training(h, offsets, pilot, 0.3, cfg, seed)
            z = _pattern_correlation(y, cfg)
            product = _training_phases(cfg).conj().T @ y.reshape(cfg.total_elements, -1)
            assert np.linalg.norm(z - product) <= 1e-13 * np.linalg.norm(product)


def test_trial_path_never_reads_the_phase_matrix(monkeypatch):
    def forbidden(cfg):
        raise AssertionError("dense phase matrix built")

    for module in ("rissync.estimator", "rissync.crlb"):
        monkeypatch.setattr(importlib.import_module(module), "_training_phases", forbidden)
    for run in (harness.run_estimation_sweep, harness.run_design_sweep):
        rows = run(harness.ExperimentSpec(n_surfaces=2, n_x=3, n_y=1, snr_grid_db=(10.0,),
                                          trials=1, base_seed=3))
        assert all(row.excluded == 0 for row in rows)


def test_simulate_training_builds_no_observation_matrix(monkeypatch):
    estimator_module = importlib.import_module("rissync.estimator")
    h, pilot, offsets, y = _instance(CFG, 7)

    def forbidden(*args, **kwargs):
        raise AssertionError("observation matrix built")

    monkeypatch.setattr(estimator_module, "observation_matrix", forbidden)
    monkeypatch.setattr(estimator_module, "_stack_columns", forbidden)
    rows = simulate_training(h, offsets, pilot, np.array([0.0, 0.5]), CFG, 3)
    assert rows[0].tobytes() == y.tobytes()


@pytest.mark.parametrize("k_surf", [1, 2, 4])
def test_stacked_search_and_fit_match_the_one_shot_estimators(k_surf):
    # One search over every row's groups, then the fit per row, gives the
    # one-shot estimators' results on that row, bit for bit.
    cfg = SystemConfig(k_surf, 4)
    for seed in range(3):
        h, pilot, offsets, _ = _instance(cfg, 90 + seed)
        rows = simulate_training(h, offsets, pilot, np.array(STACKED_VARS), cfg, seed)
        z = _pattern_correlation(rows, cfg)
        for estimate, group in ((mle_alternating, cfg.n_elements),
                                (_common_offset, cfg.total_elements)):
            searched = _search_offsets(z, pilot, cfg, group)
            assert searched.shape == (len(STACKED_VARS), k_surf)
            for p, y in enumerate(rows):
                stacked = _point(_fits(searched[p], z[p], pilot, cfg), ())
                alone = estimate(y, pilot, cfg)
                assert stacked.offsets.tobytes() == alone.offsets.tobytes()
                assert stacked.channel.tobytes() == alone.channel.tobytes()


@pytest.mark.parametrize("k_surf", [1, 2, 4])
def test_stacked_fit_rows_are_the_one_point_fits(k_surf):
    # All points are fitted from one pulse call; row p must be the one-point
    # fit of observation p, byte for byte, whatever the stack holds.
    cfg = SystemConfig(k_surf, 4)
    for seed in range(3):
        h, pilot, offsets, _ = _instance(cfg, 110 + seed)
        rows = simulate_training(h, offsets, pilot, np.array(STACKED_VARS), cfg, seed)
        z = _pattern_correlation(rows, cfg)
        for group in (cfg.n_elements, cfg.total_elements):
            searched = _search_offsets(z, pilot, cfg, group)
            fits = _fits(searched, z, pilot, cfg)
            for p, y in enumerate(rows):
                stacked = _point(fits, p)
                alone = _point(_fits(searched[p], z[p], pilot, cfg), ())
                assert stacked.offsets.tobytes() == alone.offsets.tobytes()
                assert stacked.channel.tobytes() == alone.channel.tobytes()


# ---------------------------------------------------------------------------
# least squares and the profile objective
# ---------------------------------------------------------------------------

def test_ls_channel_recovers_noiseless_truth():
    h, pilot, offsets, y = _instance(CFG, 10)
    est = _ls_channel(offsets, y, pilot, CFG)
    assert np.linalg.norm(est - h) / np.linalg.norm(h) < 1e-10


def test_ls_channel_matches_normal_equations():
    h, pilot, offsets, y = _instance(CFG, 11, noise_var=0.3)
    nmat = observation_matrix(offsets, pilot, CFG)
    oracle = np.linalg.solve(nmat.conj().T @ nmat, nmat.conj().T @ y)
    np.testing.assert_allclose(_ls_channel(offsets, y, pilot, CFG), oracle, rtol=1e-8)


def test_ls_channel_annihilates_orthogonal_component():
    h, pilot, offsets, y = _instance(CFG, 12)
    nmat = observation_matrix(offsets, pilot, CFG)
    q, _ = np.linalg.qr(nmat)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(nmat.shape[0]) + 1j * rng.standard_normal(nmat.shape[0])
    perp = z - q @ (q.conj().T @ z)
    est = _ls_channel(offsets, perp, pilot, CFG)
    assert np.linalg.norm(est) < 1e-10 * np.linalg.norm(z)
    assert residual_cost(offsets, perp, pilot, CFG) == pytest.approx(
        float(np.vdot(perp, perp).real), rel=1e-10
    )


def test_residual_cost_identity_and_nonnegativity():
    for seed in range(5):
        h, pilot, offsets, y = _instance(CFG, 20 + seed, noise_var=1.0)
        cost = residual_cost(offsets, y, pilot, CFG)
        est = _ls_channel(offsets, y, pilot, CFG)
        direct = float(np.linalg.norm(y - observation_matrix(offsets, pilot, CFG) @ est) ** 2)
        assert cost == pytest.approx(direct, rel=1e-9)
        assert cost >= 0.0
    h, pilot, offsets, y = _instance(CFG, 30)
    assert residual_cost(offsets, y, pilot, CFG) <= 1e-16 * float(np.vdot(y, y).real)


def test_rank_deficient_observation_raises():
    cfg = SystemConfig(2, 1)
    # a silent pilot leaves every column of the observation matrix zero
    pilot = np.zeros(cfg.pulse.seq_len, dtype=complex)
    y = np.zeros(cfg.total_elements * cfg.pulse.n_samples, dtype=complex)
    with pytest.raises(SingularSystemError) as err:
        residual_cost(np.array([0.1, 0.1]), y, pilot, cfg)
    assert err.value.cond > 1e12 or not np.isfinite(err.value.cond)


def test_excess_is_the_cond_of_each_row_beyond_the_limit():
    # NaN for a row that passes, its max/min for one that does not, and inf
    # for a row with a value that is not positive
    values = np.array([[1.0, 2.0], [2.0, 2e13], [0.0, 1.0], [np.nan, 1.0], [1.0, COND_LIMIT],
                       [-1.0, 1.0]])
    np.testing.assert_array_equal(_excess(values), [np.nan, 1e13, np.inf, np.inf, np.nan, np.inf])
    np.testing.assert_array_equal(_excess(values.reshape(3, 2, 2)),
                                  [[np.nan, 1e13], [np.inf, np.inf], [np.nan, np.inf]])
    assert np.isnan(_excess(np.array([1.0, COND_LIMIT])))
    assert _excess(np.array([np.inf, np.inf])) == np.inf


def test_check_spread_raises_with_the_worst_rows_cond():
    rows = np.array([[1.0, 3e12], [1.0, 2.0], [1.0, 5e12]])
    with pytest.raises(SingularSystemError) as err:
        _check_spread(rows, "stack")
    assert err.value.cond == 5e12
    with pytest.raises(SingularSystemError) as err:
        _check_spread(np.vstack([rows, [0.0, 1.0]]), "stack")
    assert err.value.cond == np.inf
    _check_spread(np.array([[1.0, COND_LIMIT], [1.0, 2.0]]), "stack")  # at the limit: kept


def _route(name, bad):
    # one entry point called with a pilot ``bad``, all else valid
    crlb_module = importlib.import_module("rissync.crlb")
    h, _, offsets, y = _instance(CFG, 14, noise_var=0.1)
    z = _pattern_correlation(y, CFG)
    calls = {
        "simulate_training": lambda: simulate_training(h, offsets, bad, 0.1, CFG, 0),
        "mle_alternating": lambda: mle_alternating(y, bad, CFG),
        "search": lambda: _search_offsets(z, bad, CFG, CFG.total_elements),
        "fit": lambda: _fits(offsets, z, bad, CFG),
        "crlb": lambda: crlb_module.crlb(offsets, h, bad, 0.1, CFG),
        "fim": lambda: crlb_module.fim(offsets, h, bad, 0.1, CFG),
    }
    return calls[name]()


@pytest.mark.parametrize("name", ["simulate_training", "mle_alternating", "search", "fit",
                                  "crlb", "fim"])
def test_every_route_rejects_a_pilot_of_another_shape(name):
    pilot = gen_training(CFG, 0)
    wanted = f"seq_len = {CFG.pulse.seq_len} symbols"
    for bad in (pilot[:-1], np.stack([pilot, pilot])):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))) as err:
            _route(name, bad)
        assert wanted in str(err.value)


@pytest.mark.parametrize("name", ["simulate_training", "crlb", "fim"])
def test_every_route_rejects_a_channel_that_does_not_fit(name):
    # K=2, N=4 needs a finite cascaded channel of 8 entries, not the links
    # (a ChannelSet, shape () as an array)
    crlb_module = importlib.import_module("rissync.crlb")
    pilot, offsets = gen_training(CFG, 0), np.array([0.2, -0.3])
    bads = [np.ones(7, complex), np.ones(16, complex), np.full(8, np.nan + 0j),
            np.full(8, np.inf + 0j), np.ones((2, 4), complex), gen_rayleigh(CFG, 0)]
    calls = {
        "simulate_training": lambda bad: simulate_training(bad, offsets, pilot, 0.1, CFG, 0),
        "crlb": lambda bad: crlb_module.crlb(offsets, bad, pilot, 0.1, CFG),
        "fim": lambda bad: crlb_module.fim(offsets, bad, pilot, 0.1, CFG),
    }
    for bad in bads:
        with pytest.raises(ValueError, match=re.escape(str(np.shape(bad)))) as err:
            calls[name](bad)
        assert f"finite vector of {CFG.total_elements} entries" in str(err.value)


@pytest.mark.parametrize("length", [168, 189, 200])
def test_wrong_length_observation_fails_naming_both_lengths(length):
    # K=2, N=4 needs 8 patterns of 24 samples: 192 values per observation,
    # alone (the one-shot estimator and the dense reference) or on the last
    # axis of a stack (a trial)
    pilot = gen_training(CFG, 0)
    wanted = f"{CFG.total_elements} patterns x {CFG.pulse.n_samples} samples = 192"
    for route, y in ((lambda y: mle_alternating(y, pilot, CFG), np.zeros(length, complex)),
                     (lambda y: residual_cost([0.1, -0.2], y, pilot, CFG),
                      np.zeros(length, complex)),
                     (lambda y: _pattern_correlation(y, CFG), np.zeros((3, length), complex))):
        with pytest.raises(ValueError, match=str(length)) as err:
            route(y)
        assert wanted in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_observation_fails_loudly(bad):
    # one bad sample once gave offsets of -0.5, an all-NaN channel and a NaN
    # cost; both routes to Z reject it, and so does the dense reference
    # (which once returned a NaN residual)
    _, pilot, _, y = _instance(CFG, 15, noise_var=0.1)
    broken = y.copy()
    broken[17] = bad
    for route in (lambda: mle_alternating(broken, pilot, CFG),
                  lambda: residual_cost([0.1, -0.2], broken, pilot, CFG),
                  lambda: _pattern_correlation(np.stack([y, broken]), CFG)):
        with pytest.raises(ValueError, match="non-finite"):
            route()


def test_one_shot_estimator_rejects_a_stack_naming_its_shape():
    _, pilot, _, y = _instance(CFG, 16, noise_var=0.1)
    with pytest.raises(ValueError, match=re.escape(f"(2, {y.size})")):
        mle_alternating(np.stack([y, y]), pilot, CFG)


# ---------------------------------------------------------------------------
# per-surface estimator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_surf", [1, 2, 4])
def test_per_surface_captured_energy_matches_residual_oracle(k_surf):
    # Orthogonal training splits the profile objective: the energy left
    # outside the observation matrix is the total minus one captured term
    # per surface, each depending only on that surface's offset. Each term
    # is the search's Rayleigh quotient of that surface's forms, one offset
    # per call.
    cfg = SystemConfig(k_surf, 3)
    for seed in range(3):
        _, pilot, _, y = _instance(cfg, 300 + seed, noise_var=0.2)
        times, p, q = _forms(_pattern_correlation(y, cfg), pilot, cfg, cfg.n_elements)
        eps = np.random.default_rng(seed).uniform(-0.95, 0.95, k_surf)
        captured = sum(_quotient(rrc_impulse(times - e, cfg.pulse)[None], p[k], q)[0]
                       for k, e in enumerate(eps))
        separable = float(np.vdot(y, y).real) - captured
        assert separable == pytest.approx(residual_cost(eps, y, pilot, cfg), rel=1e-9)


def test_estimates_and_bounds_use_no_dense_route(monkeypatch):
    # Past the simulation, the closed forms need neither the observation
    # matrix nor any dense factorization or solve.
    # the package re-exports a function named crlb over the submodule's name
    crlb_module = importlib.import_module("rissync.crlb")
    estimator_module = importlib.import_module("rissync.estimator")

    _, pilot, offsets, y = _instance(CFG, 71, noise_var=0.1)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense route used")

    # every dense observation matrix and derivative is built by _stack_columns
    for module in (estimator_module, crlb_module):
        monkeypatch.setattr(module, "_stack_columns", forbidden)
    monkeypatch.setattr(estimator_module, "observation_matrix", forbidden)
    for name in ("qr", "solve", "inv", "cond", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    res = mle_alternating(y, pilot, CFG)
    _common_offset(y, pilot, CFG)
    _ls_channel(res.offsets, y, pilot, CFG)
    crlb_module.crlb(res.offsets, res.channel, pilot, 0.1, CFG)


def test_batched_grid_matches_single_offset_path():
    # The cached table (coarse grid, then both sides of every jump) is scored
    # in one call against every group's forms; each score must be the one of
    # the same offset scored alone, up to rounding, and the winning cell the
    # same. The last group is the common-offset search.
    for cfg in (CFG, SystemConfig(3, 2), SystemConfig(1, 5)):
        offsets, table = _grid_table(cfg.pulse)
        for seed in range(4):
            _, pilot, _, y = _instance(cfg, 400 + seed, noise_var=0.3)
            z = _pattern_correlation(y, cfg)
            for group in (cfg.n_elements, cfg.total_elements):
                times, p, q = _forms(z, pilot, cfg, group)
                batched = _quotient(table, p, q)
                loop = np.array([_quotient(rrc_impulse(times - x, cfg.pulse)[None], p, q)[:, 0]
                                 for x in offsets]).T
                np.testing.assert_allclose(batched, loop, rtol=1e-13, atol=0)
                grid = slice(0, _GRID.size)
                assert np.array_equal(np.argmax(batched[:, grid], axis=-1),
                                      np.argmax(loop[:, grid], axis=-1))


def test_timing_search_evaluates_the_pulse_per_lag(monkeypatch):
    # One pulse evaluation per zoom level for all surfaces together, one for
    # the final channel fit, and one for the coarse grid's table when it is
    # not cached yet: at most _LEVELS + 2 per estimate, whatever K is, and
    # never one per steering-matrix entry.
    pulse_module = importlib.import_module("rissync.pulse")
    estimator_module = importlib.import_module("rissync.estimator")
    shapes = []

    def recording(t, pulse_cfg):
        shapes.append(np.shape(t))
        return rrc_impulse(t, pulse_cfg)

    monkeypatch.setattr(pulse_module, "rrc_impulse", recording)
    monkeypatch.setattr(estimator_module, "rrc_impulse", recording)
    for k_surf in (1, 2, 4):
        cfg = SystemConfig(k_surf, 4)
        _, pilot, _, y = _instance(cfg, 72, noise_var=0.1)
        pulse = cfg.pulse
        reachable = lag_pilot_matrix(pilot, pulse)[0].size
        table_rows = _GRID.size + 3 * (2 * pulse.oversampling - 1)
        estimator_module._grid_table.cache_clear()
        for cold in (True, False):
            shapes.clear()
            mle_alternating(y, pilot, cfg)
            assert (pulse.n_samples, pulse.seq_len) not in shapes
            assert len(shapes) == _LEVELS + 1 + cold
            assert shapes.count((table_rows, reachable)) == cold
            assert shapes.count((k_surf, 21, reachable)) == _LEVELS
            assert shapes[-1] == (k_surf, reachable)


def test_each_search_scores_zero_and_both_sides_of_every_jump(monkeypatch):
    # Every multiple of 1/oversampling is a truncation-jump point that the
    # zoom need not land on, so every search scores it and 1e-9 either side
    # of it, in the table's call, before its zoom levels; all searches of an
    # estimate share each call. No estimate then ends worse than any of them.
    estimator_module = importlib.import_module("rissync.estimator")
    pulse = CFG.pulse
    times = lag_pilot_matrix(np.zeros(pulse.seq_len), pulse)[0]
    jumps = [j / pulse.oversampling + side for j in range(1 - pulse.oversampling,
                                                          pulse.oversampling)
             for side in (-1e-9, 0.0, 1e-9)]
    assert 0.0 in jumps and len(jumps) == 9
    calls = []
    quotient = estimator_module._quotient

    def recording(rows, p, q):
        calls.append((rows, p.shape[0]))
        return quotient(rows, p, q)

    monkeypatch.setattr(estimator_module, "_quotient", recording)
    for seed in range(3):
        _, pilot, _, y = _instance(CFG, 73 + seed, noise_var=0.1)
        for estimate, searches in ((mle_alternating, CFG.n_surfaces), (_common_offset, 1)):
            calls.clear()
            res = estimate(y, pilot, CFG)
            assert len(calls) == 1 + _LEVELS
            (table, groups), *levels = calls
            assert groups == searches
            scored = {row.tobytes() for row in table}
            assert all(rrc_impulse(times - x, pulse).tobytes() in scored for x in jumps)
            assert all(rows.shape == (searches, 21, times.size) for rows, _ in levels)
            cost = residual_cost(res.offsets, y, pilot, CFG)
            for x in jumps:
                for k in range(CFG.n_surfaces):
                    moved = np.full(CFG.n_surfaces, x) if searches == 1 else res.offsets.copy()
                    moved[k] = x
                    assert cost <= residual_cost(moved, y, pilot, CFG) * (1 + 1e-12)


def _reference_search(z, energy, pilot, cfg):
    # One surface's search as it ran before the surfaces were batched: its own
    # grid and zoom calls, on every distinct time of the steering matrix.
    pulse = cfg.pulse
    every = (np.arange(pulse.n_samples)[:, None] * pulse.sample_step
             - np.arange(-pulse.span, pulse.obs_len + pulse.span)[None, :])
    first = {}  # distinct time -> its column, first seen first
    index = np.reshape([first.setdefault(t, len(first)) for t in every.ravel().tolist()],
                       every.shape)
    times = np.array(list(first))
    a = np.zeros((pulse.n_samples, times.size), dtype=complex)
    a[np.arange(pulse.n_samples)[:, None], index] = pilot

    def captured(offsets):
        f = rrc_impulse(times - offsets[:, None], pulse) @ a.T
        unit = f / np.sqrt(np.sum(np.abs(f) ** 2, axis=1))[:, None]
        return np.sum(np.abs(z @ unit.conj().T) ** 2 / energy[:, None], axis=0)

    centre = _GRID[int(np.argmax(captured(_GRID)))]
    points = np.append(0.0, np.clip(centre + GRID_STEP * _ZOOM, -_OFFSET_EDGE, _OFFSET_EDGE))
    best_x, best, half = 0.0, -np.inf, GRID_STEP
    for _ in range(_LEVELS):
        scores = captured(points)
        i = int(np.argmax(scores))
        if scores[i] > best:
            best_x, best = float(points[i]), scores[i]
        half /= 10.0
        points = np.clip(best_x + half * _ZOOM, -_OFFSET_EDGE, _OFFSET_EDGE)
    return best_x


@settings(max_examples=40, deadline=None)
@given(k_surf=st.integers(1, 4), n_el=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       noise_var=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]))
def test_search_is_never_worse_than_the_normalize_and_correlate_reference(k_surf, n_el, seed,
                                                                          noise_var):
    # The reference scores each offset by normalizing its filtered pilot and
    # correlating it with every row of Z, one surface at a time; the search
    # scores the same energy as a Rayleigh quotient and also scores both
    # sides of every truncation jump, so it never ends with a larger residual.
    cfg = SystemConfig(k_surf, n_el)
    offsets = np.random.default_rng(seed).uniform(-_OFFSET_EDGE, _OFFSET_EDGE, k_surf)
    _, pilot, _, y = _instance(cfg, seed, offsets=offsets, noise_var=noise_var)
    z, energy = _pattern_correlation(y, cfg), np.full(cfg.total_elements, cfg.total_elements)
    want = np.array([_reference_search(z[k * n_el:(k + 1) * n_el],
                                       energy[k * n_el:(k + 1) * n_el], pilot, cfg)
                     for k in range(k_surf)])
    common = np.full(k_surf, _reference_search(z, energy, pilot, cfg))
    # A residual is the energy of y less the captured energy, so it carries a
    # rounding error of a few ulps of that energy: two searches that end one
    # final spacing apart can differ by that much and no more.
    rounding = 1e-14 * float(np.vdot(y, y).real)
    for estimate, reference in ((mle_alternating, want), (_common_offset, common)):
        oracle = residual_cost(reference, y, pilot, cfg)
        cost = residual_cost(estimate(y, pilot, cfg).offsets, y, pilot, cfg)
        assert cost <= oracle * (1 + 1e-12) + rounding


def test_mle_noiseless_exact_recovery():
    h, pilot, offsets, y = _instance(CFG, 40, offsets=np.array([0.30, -0.45]))
    res = mle_alternating(y, pilot, CFG)
    assert np.max(np.abs(res.offsets - offsets)) < 1e-4
    assert np.linalg.norm(res.channel - h) / np.linalg.norm(h) <= 1e-6


def test_mle_single_surface_matches_exhaustive_search():
    cfg = SystemConfig(1, 2)
    h, pilot, offsets, y = _instance(cfg, 41, offsets=np.array([0.123]), noise_var=0.05)
    res = mle_alternating(y, pilot, cfg)
    grid = np.arange(-0.9995, 0.9996, 1e-3)
    costs = np.array([residual_cost(np.array([e]), y, pilot, cfg) for e in grid])
    best = grid[np.argmin(costs)]
    # the refined estimate must be at least as good as the best grid point
    assert residual_cost(res.offsets, y, pilot, cfg) <= costs.min() + 1e-12 * (1 + costs.min())
    assert abs(res.offsets[0] - best) < 1e-3 + 1e-5


def test_search_reaches_the_open_end_of_a_truncation_step():
    # The truncated pulse is still about 0.025 at +-span, so the profile
    # objective jumps wherever an offset carries a lag time across that edge
    # (every multiple of 1/oversampling). In this trial (the third of the
    # sweep `--surfaces 2 --nx 2 --ny 1 --seed 42`, at 0 dB) surface 0's best
    # residual lies just above the step at 0, and a search that converges to
    # a stationary point stops at about -0.012, above the best residual of a
    # 1e-3 grid.
    spec = harness.ExperimentSpec(n_surfaces=2, n_x=2, n_y=1, trials=3, base_seed=42)
    cfg = spec.system_config()
    trial = harness._draw_trial(spec, 2)
    obs = simulate_training(trial.gains, trial.offsets, trial.pilot, np.array(trial.noise_vars), cfg,
                            trial.stream("noise"))
    # the sweep's own observation: its correlations are the trial's
    np.testing.assert_array_equal(_pattern_correlation(obs, cfg), trial.training)
    y, res = obs[0], _point(trial.joint, 0)  # 0 dB
    grid = np.arange(-0.9995, 0.9996, 1e-3)
    for k in range(cfg.n_surfaces):
        moved = np.tile(res.offsets, (grid.size, 1))
        moved[:, k] = grid
        best = min(residual_cost(e, y, trial.pilot, cfg) for e in moved)
        assert residual_cost(res.offsets, y, trial.pilot, cfg) <= best * (1 + 1e-12)
    assert 0.0 < res.offsets[0] < 1e-3


@pytest.mark.parametrize("seed, jump", [(575, 0.0), (2760, -0.5)])
def test_common_offset_search_reaches_the_open_end_of_a_truncation_step(seed, jump):
    # K=2, N=16 at noise 1e-3: the shared offset's best residual lies just
    # beside the step at `jump`, on the side the step leaves open, where only
    # the point 1e-9 from the jump reaches it; the jump itself is worse.
    cfg = SystemConfig(2, 16)
    _, pilot, _, y = _instance(cfg, seed, noise_var=1e-3)
    res = _common_offset(y, pilot, cfg)
    cost = residual_cost(res.offsets, y, pilot, cfg)
    grid = np.arange(-0.9995, 0.9996, 1e-3)
    best = min(residual_cost(np.full(2, x), y, pilot, cfg) for x in grid)
    assert cost <= best * (1 + 1e-12)
    assert 0.0 < abs(res.offsets[0] - jump) < 1e-3
    assert residual_cost(np.full(2, jump), y, pilot, cfg) > cost


@pytest.mark.parametrize("scenario, n_surfaces", [("rayleigh", 2), ("mmwave", 4)])
def test_search_is_global_in_the_threshold_region(scenario, n_surfaces):
    # From -30 to -10 dB the captured energy is multimodal in the offset, and
    # the estimator's excess over its bound there is ML threshold behaviour
    # only if the search still finds the global maximum. Each searched group
    # of the sweep's own trials (one per surface, and the one shared offset)
    # must capture at least the maximum over a dense grid: 20,001 offsets in
    # (-1, 1), spaced 1e-4, plus each truncation jump and 1e-9 either side.
    spec = harness.ExperimentSpec(scenario=scenario, n_surfaces=n_surfaces, n_x=4, n_y=4,
                                  snr_grid_db=(-30.0, -20.0, -10.0), trials=16, base_seed=11)
    cfg = spec.system_config()
    pulse = cfg.pulse
    jumps = np.arange(1.0 - pulse.oversampling, pulse.oversampling) / pulse.oversampling
    dense = np.concatenate([np.linspace(-1.0, 1.0, 20003)[1:-1],
                            (jumps[:, None] + [-1e-9, 0.0, 1e-9]).reshape(-1)])
    times = lag_pilot_matrix(np.zeros(pulse.seq_len), pulse)[0]
    rows = rrc_impulse(times - dense[:, None], pulse)
    for index in range(spec.trials):
        trial = harness._draw_trial(spec, index)
        for fits, group in ((trial.joint, cfg.n_elements), (trial.naive, cfg.total_elements)):
            _, p, q = _forms(trial.training, trial.pilot, cfg, group)
            searched = fits[0][..., ::group // cfg.n_elements].reshape(-1)
            found = _quotient(rrc_impulse(times - searched[:, None], pulse)[:, None], p, q)[:, 0]
            for g in range(p.shape[0]):
                assert found[g] >= _quotient(rows, p[g], q).max() * (1.0 - 1e-9)


def test_mle_offsets_are_local_optimum_of_residual_cost():
    step = 1e-4
    for seed in range(20):
        h, pilot, offsets, y = _instance(CFG, 100 + seed, noise_var=0.1)
        res = mle_alternating(y, pilot, CFG)
        cost = residual_cost(res.offsets, y, pilot, CFG)
        for k in range(CFG.n_surfaces):
            for shift in (-step, step):
                moved = res.offsets.copy()
                moved[k] += shift
                assert residual_cost(moved, y, pilot, CFG) >= cost


def test_mle_permutation_equivariance():
    # Relabeling surfaces (swapping their channels and offsets) swaps the
    # recovered offsets and channel segments.
    n = CFG.n_elements
    h, pilot, offsets, y = _instance(CFG, 50, offsets=np.array([0.2, -0.35]))
    h_swap = h.reshape(2, n)[::-1].reshape(-1)
    y_swap = simulate_training(h_swap, offsets[::-1], pilot, 0.0, CFG, 0)
    res = mle_alternating(y, pilot, CFG)
    res_swap = mle_alternating(y_swap, pilot, CFG)
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
            h, pilot, offsets, _ = _instance(cfg, 200 + t)
            y = simulate_training(h, offsets, pilot, var, cfg, 777 + t)
            res = mle_alternating(y, pilot, cfg)
            errs.append(np.linalg.norm(res.channel - h) ** 2 / np.linalg.norm(h) ** 2)
        nmse.append(np.mean(errs))
    assert nmse[0] > nmse[1] > nmse[2] > nmse[3]


def test_common_offset_variant_ties_all_surfaces():
    h, pilot, offsets, y = _instance(CFG, 61, offsets=np.array([0.15, 0.15]))
    res = _common_offset(y, pilot, CFG)
    assert res.offsets[0] == res.offsets[1]
    assert abs(res.offsets[0] - 0.15) < 1e-4
    # with genuinely different offsets the shared fit cannot match the joint one
    ch2, tp2, offs2, y2 = _instance(CFG, 62, offsets=np.array([0.4, -0.4]))
    joint = mle_alternating(y2, tp2, CFG)
    shared = _common_offset(y2, tp2, CFG)
    assert (residual_cost(shared.offsets, y2, tp2, CFG)
            >= residual_cost(joint.offsets, y2, tp2, CFG) - 1e-12)

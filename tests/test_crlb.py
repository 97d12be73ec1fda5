"""Tests for the information matrix and closed-form error bounds."""
import importlib

import numpy as np
import pytest

from rissync import SingularSystemError, SystemConfig
from rissync.channel import cascade, gen_mmwave, gen_rayleigh
from rissync.crlb import crlb, crlb_from_fim, fim, observation_matrix_deriv
from rissync.estimator import _training_phases, gen_training, observation_matrix

CFG = SystemConfig(n_surfaces=2, n_elements=4)


def _instance(cfg, seed):
    rng = np.random.default_rng(seed)
    ch = gen_rayleigh(cfg, rng.integers(2**32))
    pilot = gen_training(cfg, rng.integers(2**32))
    offsets = rng.uniform(-0.5, 0.5, cfg.n_surfaces)
    return cascade(ch), pilot, offsets


def test_deriv_matrix_shape_and_fd():
    vec, pilot, offsets = _instance(CFG, 0)
    nd = observation_matrix_deriv(offsets, pilot, CFG)
    nmat = observation_matrix(offsets, pilot, CFG)
    assert nd.shape == nmat.shape
    # central finite differences, block by block
    h = 1e-6
    n_el = CFG.n_elements
    for k in range(CFG.n_surfaces):
        up, dn = offsets.copy(), offsets.copy()
        up[k] += h
        dn[k] -= h
        fd = (observation_matrix(up, pilot, CFG) - observation_matrix(dn, pilot, CFG)) / (2 * h)
        cols = slice(k * n_el, (k + 1) * n_el)
        np.testing.assert_allclose(nd[:, cols], fd[:, cols], rtol=1e-4, atol=1e-7)
        # other blocks do not move with offset k
        rest = np.delete(fd, np.s_[cols], axis=1)
        assert np.max(np.abs(rest)) < 1e-8


def test_deriv_matrix_degenerate_single_element():
    cfg = SystemConfig(1, 1)
    pilot = gen_training(cfg, 1)
    from rissync.pulse import steering_matrix_deriv
    nd = observation_matrix_deriv(np.array([0.3]), pilot, cfg)
    np.testing.assert_allclose(
        nd[:, 0], steering_matrix_deriv(0.3, cfg.pulse) @ pilot, rtol=1e-12
    )


def test_fim_is_symmetric_and_scales_inversely_with_noise():
    vec, pilot, offsets = _instance(CFG, 1)
    j1 = fim(offsets, vec, pilot, 0.5, CFG)
    dim = CFG.n_surfaces + 2 * CFG.total_elements
    assert j1.shape == (dim, dim)
    assert np.max(np.abs(j1 - j1.T)) <= 1e-12
    j2 = fim(offsets, vec, pilot, 0.05, CFG)
    np.testing.assert_allclose(j2, 10.0 * j1, rtol=1e-12)


def test_fim_builds_the_phase_matrix_once_per_call(monkeypatch):
    # the dense phase matrix is built on each call, so fim builds it once
    # for both the observation matrix and its derivative
    vec, pilot, offsets = _instance(CFG, 2)
    want = fim(offsets, vec, pilot, 0.5, CFG)
    reads = []

    def counted(cfg):
        reads.append(cfg)
        return _training_phases(cfg)

    for module in ("rissync.estimator", "rissync.crlb"):
        monkeypatch.setattr(importlib.import_module(module), "_training_phases", counted)
    for calls in (1, 2):
        assert fim(offsets, vec, pilot, 0.5, CFG).tobytes() == want.tobytes()
        assert len(reads) == calls


def test_fim_matches_finite_difference_jacobian():
    # Fully independent oracle: differentiate the mean map numerically with
    # respect to every real coordinate and form the Gram matrix directly.
    cfg = SystemConfig(2, 2)
    vec, pilot, offsets = _instance(cfg, 2)
    noise_var = 0.3
    nk = cfg.total_elements

    def mean(eps, h):
        return observation_matrix(eps, pilot, cfg) @ h

    h_step = 1e-6
    cols = []
    for k in range(cfg.n_surfaces):
        up, dn = offsets.copy(), offsets.copy()
        up[k] += h_step
        dn[k] -= h_step
        cols.append((mean(up, vec) - mean(dn, vec)) / (2 * h_step))
    for basis in np.eye(nk):
        cols.append(mean(offsets, vec + h_step * basis) - mean(offsets, vec - h_step * basis))
        cols[-1] /= 2 * h_step
    for basis in np.eye(nk):
        cols.append(mean(offsets, vec + 1j * h_step * basis) - mean(offsets, vec - 1j * h_step * basis))
        cols[-1] /= 2 * h_step
    jac = np.column_stack(cols)
    oracle = (2.0 / noise_var) * (jac.conj().T @ jac).real
    np.testing.assert_allclose(fim(offsets, vec, pilot, noise_var, cfg), oracle,
                               rtol=1e-4, atol=1e-6)


def test_closed_form_matches_information_inverse():
    # The module's core property: profiled closed forms equal the mapped
    # blocks of the full information-matrix inverse.
    for seed in range(10):
        vec, pilot, offsets = _instance(CFG, 100 + seed)
        a = crlb(offsets, vec, pilot, 0.2, CFG)
        b = crlb_from_fim(offsets, vec, pilot, 0.2, CFG)
        # relative to matrix scale: entrywise ratios blow up on the
        # structurally-zero cross terms (~1e-20)
        for lhs, rhs in ((a.timing_cov, b.timing_cov), (a.channel_cov, b.channel_cov)):
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


def test_closed_form_matches_information_inverse_at_bench_geometry():
    # mmWave, K=4 surfaces of 4x4 elements (NK=64): the bounds workload's size
    cfg = SystemConfig(n_surfaces=4, n_elements=16)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        vec = cascade(gen_mmwave(cfg, 4, rng.integers(2**32)))
        pilot = gen_training(cfg, rng.integers(2**32))
        offsets = rng.uniform(-0.9, 0.9, cfg.n_surfaces)
        a = crlb(offsets, vec, pilot, 0.1, cfg)
        b = crlb_from_fim(offsets, vec, pilot, 0.1, cfg)
        for lhs, rhs in ((a.timing_cov, b.timing_cov), (a.channel_cov, b.channel_cov)):
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_bounds_are_positive_definite_and_linear_in_noise():
    vec, pilot, offsets = _instance(SystemConfig(2, 16), 3)
    res = crlb(offsets, vec, pilot, 0.1, SystemConfig(2, 16))
    assert np.max(np.abs(res.timing_cov - res.timing_cov.T)) <= 1e-10
    assert np.max(np.abs(res.channel_cov - res.channel_cov.conj().T)) <= 1e-10
    assert np.all(np.linalg.eigvalsh(res.timing_cov) > 0)
    assert np.all(np.linalg.eigvalsh(res.channel_cov) > 0)
    assert np.all(np.diag(res.timing_cov) > 0)
    half = crlb(offsets, vec, pilot, 0.05, SystemConfig(2, 16))
    np.testing.assert_allclose(2.0 * half.timing_cov, res.timing_cov, rtol=1e-10)
    np.testing.assert_allclose(2.0 * half.channel_cov, res.channel_cov, rtol=1e-10)


def test_channel_bound_dominates_known_offset_bound():
    # Having to estimate the offsets can only inflate the channel bound above
    # the known-offset least-squares covariance.
    vec, pilot, offsets = _instance(CFG, 4)
    noise_var = 0.2
    res = crlb(offsets, vec, pilot, noise_var, CFG)
    nmat = observation_matrix(offsets, pilot, CFG)
    known = noise_var * np.linalg.inv(nmat.conj().T @ nmat)
    gap = res.channel_cov - known
    assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))) > -1e-10


def test_zero_channel_is_flagged_unidentifiable():
    vec, pilot, offsets = _instance(CFG, 5)
    with pytest.raises(SingularSystemError):
        crlb(offsets, np.zeros_like(vec), pilot, 0.1, CFG)


def test_one_surface_with_zero_channel_is_flagged_unidentifiable():
    # the other surfaces are fine, but this one's offset moves nothing
    vec, pilot, offsets = _instance(CFG, 8)
    vec[CFG.n_elements:] = 0.0
    for bound in (crlb, crlb_from_fim):
        with pytest.raises(SingularSystemError):
            bound(offsets, vec, pilot, 0.1, CFG)


def test_fim_rejects_nonpositive_noise():
    vec, pilot, offsets = _instance(CFG, 6)
    with pytest.raises(ValueError):
        fim(offsets, vec, pilot, 0.0, CFG)


@pytest.mark.parametrize("noise_var", [np.nan, np.inf])
def test_fim_rejects_non_finite_noise(noise_var):
    vec, pilot, offsets = _instance(CFG, 6)
    with pytest.raises(ValueError, match="noise_var"):
        fim(offsets, vec, pilot, noise_var, CFG)


@pytest.mark.parametrize("noise_var", [0.0, -0.1, np.nan, np.inf])
def test_crlb_rejects_nonpositive_or_non_finite_noise(noise_var):
    vec, pilot, offsets = _instance(CFG, 6)
    with pytest.raises(ValueError, match="noise_var"):
        crlb(offsets, vec, pilot, noise_var, CFG)

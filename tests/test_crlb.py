"""Tests for the information matrix and closed-form error bounds."""
import importlib
from dataclasses import replace

import numpy as np
import pytest

from rissync import SingularSystemError, SystemConfig
from rissync.channel import cascade, gen_mmwave, gen_rayleigh
from rissync.crlb import crlb, crlb_from_fim, fim
from rissync.estimator import _training_phases, gen_training, observation_matrix
from rissync.pulse import _OFFSET_EDGE

CFG = SystemConfig(n_surfaces=2, n_elements=4)


def _instance(cfg, seed):
    rng = np.random.default_rng(seed)
    ch = gen_rayleigh(cfg, rng.integers(2**32))
    pilot = gen_training(cfg, rng.integers(2**32))
    offsets = rng.uniform(-0.5, 0.5, cfg.n_surfaces)
    return cascade(ch), pilot, offsets


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


@pytest.mark.parametrize("offsets, match", [(np.array([0.1, 0.2, 0.3]), "2 offsets"),
                                            (np.array([0.1, 1.0]), "lie in"),
                                            (np.array([-1.5, 0.2]), "lie in"),
                                            (np.array([0.1, np.nan]), "lie in")])
def test_crlb_rejects_offsets_it_cannot_bound(offsets, match):
    # the lag-pilot matrix holds only the times an offset with
    # |x| <= _OFFSET_EDGE can reach, so the closed form checks the offsets
    # as the dense route does
    vec, pilot, _ = _instance(CFG, 6)
    for bound in (crlb, crlb_from_fim):
        with pytest.raises(ValueError, match=match):
            bound(offsets, vec, pilot, 0.1, CFG)


@pytest.mark.parametrize("bad", [np.nextafter(1.0, 0.0), 1.0 - 5e-10])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bounds_reject_offsets_past_the_edge(bad, sign):
    # Just inside +-1 a sample time at span + 1 would reach the support: the
    # dense route would keep that tail and the closed form would drop it.
    vec, pilot, _ = _instance(CFG, 7)
    for bound in (crlb, crlb_from_fim):
        with pytest.raises(ValueError, match="lie in"):
            bound(np.array([0.1, sign * bad]), vec, pilot, 0.1, CFG)


@pytest.mark.parametrize("offsets", [[_OFFSET_EDGE, -_OFFSET_EDGE], [-_OFFSET_EDGE, 0.3]])
def test_bound_routes_agree_at_the_edge(offsets):
    for seed in range(5):
        vec, pilot, _ = _instance(CFG, 200 + seed)
        a = crlb(np.array(offsets), vec, pilot, 0.2, CFG)
        b = crlb_from_fim(np.array(offsets), vec, pilot, 0.2, CFG)
        for lhs, rhs in ((a.timing_cov, b.timing_cov), (a.channel_cov, b.channel_cov)):
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


@pytest.mark.parametrize("noise_var", [0.0, -0.1, np.nan, np.inf])
def test_crlb_rejects_nonpositive_or_non_finite_noise(noise_var):
    vec, pilot, offsets = _instance(CFG, 6)
    with pytest.raises(ValueError, match="noise_var"):
        crlb(offsets, vec, pilot, noise_var, CFG)


# ---------------------------------------------------------------------------
# stacks of trials, and the bound kept in parts
# ---------------------------------------------------------------------------

def _stack(cfg, rows, seed):
    # ``rows`` trials' offsets, cascaded channels and pilots, stacked; mmWave
    # channels when the surfaces are 4x4
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(rows):
        ch = (gen_mmwave(cfg, 4, rng.integers(2**32)) if cfg.n_elements == 16
              else gen_rayleigh(cfg, rng.integers(2**32)))
        draws.append((rng.uniform(-0.9, 0.9, cfg.n_surfaces), cascade(ch),
                      gen_training(cfg, rng.integers(2**32))))
    return tuple(np.stack(part) for part in zip(*draws))


@pytest.mark.parametrize("cfg", [SystemConfig(2, 8), SystemConfig(4, 16)], ids=["k2-4x2", "k4-4x4"])
@pytest.mark.parametrize("rows", [1, 3, 70])
def test_stacked_rows_are_bit_equal_to_single_calls(cfg, rows):
    offsets, gains, pilots = _stack(cfg, rows, rows)
    stacked = crlb(offsets, gains, pilots, 0.3, cfg)
    assert stacked.timing_cov.shape == (rows, cfg.n_surfaces, cfg.n_surfaces)
    assert stacked.channel_cov.shape == (rows, cfg.total_elements, cfg.total_elements)
    for r in range(rows):
        alone = crlb(offsets[r], gains[r], pilots[r], 0.3, cfg)
        for name in ("timing_cov", "channel_cov", "channel_diag", "channel_factor"):
            assert getattr(stacked, name)[r].tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("cfg", [SystemConfig(2, 8), SystemConfig(4, 16)], ids=["k2-4x2", "k4-4x4"])
def test_traces_from_the_parts_match_the_dense_bounds(cfg):
    offsets, gains, pilots = _stack(cfg, 5, 17)
    for res in (crlb(offsets, gains, pilots, 0.2, cfg), crlb(offsets[0], gains[0], pilots[0], 0.2, cfg)):
        for trace, dense in ((res.channel_trace, res.channel_cov), (res.timing_trace, res.timing_cov)):
            want = np.trace(dense, axis1=-2, axis2=-1).real
            assert np.shape(trace) == np.shape(want)
            assert np.max(np.abs(trace - want) / want) <= 1e-14


def test_dense_channel_bound_is_built_once_on_read():
    vec, pilot, offsets = _instance(CFG, 9)
    res = crlb(offsets, vec, pilot, 0.1, CFG)
    assert "channel_cov" not in vars(res)
    assert res.channel_cov is res.channel_cov
    # the diagonal is noise_var / G, and each surface adds a rank-one block
    assert np.allclose(np.diag(res.channel_cov).real,
                       res.channel_diag + 0.05 * np.abs(res.channel_factor.reshape(-1)) ** 2)
    off_block = res.channel_cov[:CFG.n_elements, CFG.n_elements:]
    assert not np.any(off_block)


def test_replacing_the_timing_bound_keeps_the_channel_parts():
    vec, pilot, offsets = _instance(CFG, 10)
    res = crlb(offsets, vec, pilot, 0.1, CFG)
    moved = replace(res, timing_cov=2.0 * res.timing_cov)
    assert moved.channel_cov.tobytes() == res.channel_cov.tobytes()
    assert moved.timing_trace == pytest.approx(2.0 * res.timing_trace, rel=1e-15)


@pytest.mark.parametrize("shapes", [((3, 2), (2, 8), (3, 20)), ((3, 2), (3, 8), (20,)),
                                    ((2,), (1, 8), (20,)), ((4, 2), (4, 8), (2, 2, 20))])
def test_mismatched_stacks_fail_naming_their_shapes(shapes):
    cfg = SystemConfig(2, 4)
    o_shape, h_shape, p_shape = shapes
    args = (np.zeros(o_shape), np.ones(h_shape, complex), np.ones(p_shape, complex))
    assert cfg.pulse.seq_len == 20
    for bound in (crlb, crlb_from_fim):
        with pytest.raises(ValueError, match="leading shape") as err:
            bound(*args, 0.1, cfg)
        for shape in shapes:
            assert str(shape) in str(err.value)


def test_one_bad_row_fails_the_whole_stack():
    # the conditioning checks hold row by row: a zero channel in one row
    # makes the stacked call raise, while the other rows bound alone
    offsets, gains, pilots = _stack(CFG, 3, 23)
    gains[1] = 0.0
    with pytest.raises(SingularSystemError):
        crlb(offsets, gains, pilots, 0.1, CFG)
    for r in (0, 2):
        crlb(offsets[r], gains[r], pilots[r], 0.1, CFG)


def test_spread_is_checked_per_row_not_across_the_stack():
    # two trials whose Grams differ by far more than COND_LIMIT, each fine
    offsets, gains, pilots = _stack(CFG, 2, 29)
    pilots[1] *= 1e7
    res = crlb(offsets, gains, pilots, 0.1, CFG)
    assert res.channel_diag[0].max() / res.channel_diag[1].min() > 1e12


def test_fim_bounds_of_a_stack_are_its_rows_bounds():
    cfg = SystemConfig(2, 2)
    offsets, gains, pilots = _stack(cfg, 3, 31)
    stacked = crlb_from_fim(offsets, gains, pilots, 0.2, cfg)
    closed = crlb(offsets, gains, pilots, 0.2, cfg)
    for r in range(3):
        alone = crlb_from_fim(offsets[r], gains[r], pilots[r], 0.2, cfg)
        for name in ("timing_cov", "channel_cov"):
            assert getattr(stacked, name)[r].tobytes() == getattr(alone, name).tobytes()
            lhs, rhs = getattr(closed, name)[r], getattr(alone, name)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs))

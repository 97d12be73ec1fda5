"""Tests for channel generation, cascading, and the block gain matrix."""
import numpy as np
import pytest

from rissync import PulseConfig, SystemConfig
from rissync import channel as channel_module
from rissync.channel import (
    MMWAVE_PATHS,
    ChannelSet,
    array_response,
    block_gains,
    cascade,
    gen_mmwave,
    gen_rayleigh,
)
from rissync.pulse import steering_matrix

CFG = SystemConfig(n_surfaces=2, n_elements=4)


def test_rayleigh_is_deterministic_per_seed():
    a = gen_rayleigh(CFG, 1234)
    b = gen_rayleigh(CFG, 1234)
    np.testing.assert_array_equal(a.inbound, b.inbound)
    np.testing.assert_array_equal(a.outbound, b.outbound)
    c = gen_rayleigh(CFG, 1235)
    assert not np.array_equal(a.inbound, c.inbound)


def test_rayleigh_unit_power():
    # Law of large numbers: |entry|^2 averages to 1. 100k entries total.
    big = SystemConfig(n_surfaces=10, n_elements=100)
    acc = []
    for seed in range(50):
        ch = gen_rayleigh(big, seed)
        acc.append(np.abs(ch.inbound) ** 2)
        acc.append(np.abs(ch.outbound) ** 2)
    assert np.mean(acc) == pytest.approx(1.0, abs=0.02)


def test_rayleigh_components_are_uncorrelated_and_zero_mean():
    big = SystemConfig(n_surfaces=10, n_elements=100)
    ch = gen_rayleigh(big, 7)
    z = np.concatenate([ch.inbound.ravel(), ch.outbound.ravel()])
    assert abs(z.mean()) < 0.05
    assert abs(np.mean(z.real * z.imag)) < 0.02  # independent quadratures


def test_channel_set_validation():
    with pytest.raises(ValueError):
        ChannelSet(inbound=np.ones((2, 4)), outbound=np.ones((2, 3)))
    with pytest.raises(ValueError):
        ChannelSet(inbound=np.array([[np.inf]]), outbound=np.array([[1.0]]))
    with pytest.raises(ValueError):
        ChannelSet(inbound=np.ones(4), outbound=np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        ChannelSet(inbound=np.ones((3, 2, 4)), outbound=np.full((3, 2, 4), np.nan))


def test_array_response_norm_and_phases():
    rng = np.random.default_rng(0)
    for _ in range(10):
        az, el = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
        v = array_response(az, el, 16, n_x=4)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        # flat index 1 is the second horizontal element: phase spacing*sin(az)sin(el)
        expect = np.pi * np.sin(az) * np.sin(el)
        got = np.angle(v[1] / v[0])
        assert np.exp(1j * got) == pytest.approx(np.exp(1j * expect), rel=1e-10)
        # flat index n_x is the second vertical element: phase spacing*cos(el)
        got_v = np.angle(v[4] / v[0])
        assert np.exp(1j * got_v) == pytest.approx(np.exp(1j * np.pi * np.cos(el)), rel=1e-10)


def test_array_response_broadside_is_flat():
    v = array_response(0.0, np.pi / 2, 16, n_x=4)
    np.testing.assert_allclose(v, np.full(16, 0.25 + 0j), atol=1e-12)


def test_array_response_rejects_bad_geometry():
    with pytest.raises(ValueError):
        array_response(0.1, 0.2, 10, n_x=4)


def _literal_response(az, el, n_elements, n_x, spacing_phase):
    # One scalar angle pair, element (m, n) at flat index n*n_x + m.
    m = np.arange(n_x) * np.sin(az) * np.sin(el)
    n = np.arange(n_elements // n_x) * np.cos(el)
    return np.exp(1j * spacing_phase * np.add.outer(n, m).ravel()) / np.sqrt(n_elements)


def test_array_response_broadcasts_and_each_slice_matches_the_scalar_call():
    # A slice equals the scalar call bit for bit. The response is the product
    # of its two axis factors, so it rounds differently from the literal
    # exponential of the summed phase: they agree to 1e-13 of each entry's
    # magnitude (measured: under 3e-15).
    rng = np.random.default_rng(3)
    az, el = rng.uniform(0, 2 * np.pi, (3, 1)), rng.uniform(0, np.pi, 5)
    for n_elements, n_x in ((16, 4), (16, 8), (12, 2), (7, 7)):
        stacked = array_response(az, el, n_elements, n_x=n_x)
        assert stacked.shape == (3, 5, n_elements)
        for i in range(3):
            for j in range(5):
                single = array_response(az[i, 0], el[j], n_elements, n_x=n_x)
                assert single.shape == (n_elements,)
                assert np.array_equal(stacked[i, j], single)
                np.testing.assert_allclose(single, _literal_response(
                    az[i, 0], el[j], n_elements, n_x, np.pi), rtol=1e-13, atol=0.0)


def _mmwave_loop(cfg, n_x, out_az, out_el, out_g, in_az, in_el, in_g):
    # Per-surface, per-path reference: one response per call, paths summed in order.
    n_el, n_p = cfg.n_elements, out_az.shape[1]
    outbound = np.zeros((cfg.n_surfaces, n_el), dtype=complex)
    inbound = np.zeros((cfg.n_surfaces, n_el), dtype=complex)
    for k in range(cfg.n_surfaces):
        paths = sum(np.conj(out_g[k, p]) * _literal_response(
            out_az[k, p], out_el[k, p], n_el, n_x, np.pi)
            for p in range(n_p))
        outbound[k] = np.sqrt(n_el / n_p) * paths
        inbound[k] = np.sqrt(n_el) * in_g[k] * _literal_response(
            in_az[k], in_el[k], n_el, n_x, np.pi)
    return inbound, outbound


@pytest.mark.parametrize("k_surf, n_el, n_x, n_paths", [
    (1, 4, 2, 1), (2, 16, 4, MMWAVE_PATHS), (3, 16, 8, 3), (4, 64, 8, MMWAVE_PATHS),
    (4, 8, 2, 7),
])
def test_mmwave_matches_per_path_loop(k_surf, n_el, n_x, n_paths, monkeypatch):
    # Drawn in the generator's order: outbound azimuth, elevation, gains,
    # then the same three for the inbound link. Path counts other than
    # MMWAVE_PATHS are patched in, to check the sum over paths at any count.
    # The generator sums the paths per axis factor, so it rounds differently
    # from the literal per-path exponentials: each link agrees to 1e-13 of
    # its norm (measured: under 1e-15).
    monkeypatch.setattr(channel_module, "MMWAVE_PATHS", n_paths)
    cfg = SystemConfig(k_surf, n_el)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = []
        for shape in ((k_surf, n_paths), (k_surf,)):
            draws += [rng.uniform(0.0, 2.0 * np.pi, shape), rng.uniform(0.0, np.pi, shape),
                      (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                      / np.sqrt(2.0)]
        inbound, outbound = _mmwave_loop(cfg, n_x, *draws)
        ch = gen_mmwave(cfg, n_x, seed)
        for got, want in ((ch.inbound, inbound), (ch.outbound, outbound)):
            assert got.shape == want.shape
            assert np.all(np.max(np.abs(got - want), axis=-1)
                          <= 1e-13 * np.linalg.norm(want, axis=-1))


@pytest.mark.parametrize("k_surf, n_el", [(1, 4), (2, 16), (4, 8)])
def test_draws_are_one_call_per_array_in_the_documented_order(k_surf, n_el):
    # Each generator's random calls, its angles scaled, give bit for bit the
    # values of one call per array in its documented order: Rayleigh inbound
    # real, imaginary, outbound real, imaginary; mmWave outbound azimuth,
    # elevation, gain real, imaginary, then the inbound four. A reordered or
    # rescaled draw fails.
    cfg = SystemConfig(k_surf, n_el)
    links, paths = (k_surf, n_el), (k_surf, MMWAVE_PATHS)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rayleigh = [rng.standard_normal(links) for _ in range(4)]
        (got,) = channel_module._rayleigh_draws(cfg, np.random.default_rng(seed))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in rayleigh]
        ch = gen_rayleigh(cfg, seed)
        assert ch.inbound.tobytes() == ((rayleigh[0] + 1j * rayleigh[1]) / np.sqrt(2.0)).tobytes()
        assert ch.outbound.tobytes() == ((rayleigh[2] + 1j * rayleigh[3]) / np.sqrt(2.0)).tobytes()
        rng = np.random.default_rng(seed)
        mmwave = [draw for shape in (paths, (k_surf,))
                  for draw in (rng.uniform(0.0, 2.0 * np.pi, shape), rng.uniform(0.0, np.pi, shape),
                               rng.standard_normal(shape), rng.standard_normal(shape))]
        out_u, out_g, in_u, in_g = channel_module._mmwave_draws(cfg, np.random.default_rng(seed))
        got = [*channel_module._angles(out_u, 2), *out_g, *channel_module._angles(in_u, 1), *in_g]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in mmwave]


def test_mmwave_single_path_is_rank_one(monkeypatch):
    monkeypatch.setattr(channel_module, "MMWAVE_PATHS", 1)
    ch = gen_mmwave(SystemConfig(2, 16), 4, 42)
    for k in range(2):
        for vec in (ch.outbound[k], ch.inbound[k]):
            ratios = vec / vec[0]
            mags = np.abs(vec)
            assert np.allclose(mags, mags[0], rtol=1e-12)  # scaled steering vector
            assert np.allclose(np.abs(ratios), 1.0, rtol=1e-12)


def test_mmwave_average_energy_scales_with_elements():
    # E||outbound_k||^2 = N because each of the MMWAVE_PATHS responses has
    # unit norm and gains are unit-variance; same for the line-of-sight inbound.
    cfg = SystemConfig(1, 16)
    out_sq, in_sq = [], []
    for seed in range(4000):
        ch = gen_mmwave(cfg, 4, seed)
        out_sq.append(np.sum(np.abs(ch.outbound) ** 2))
        in_sq.append(np.sum(np.abs(ch.inbound) ** 2))
    assert np.mean(out_sq) == pytest.approx(16.0, rel=0.03)
    assert np.mean(in_sq) == pytest.approx(16.0, rel=0.03)


@pytest.mark.parametrize("kwargs", [
    {"n_x": 0}, {"n_x": 2.5}, {"n_x": 2.0}, {"n_x": None}, {"n_x": "4"}, {"n_x": 3},
])
def test_mmwave_rejects_bad_sizes(kwargs):
    # n_x=3 is a positive integer that does not divide N=8
    with pytest.raises(ValueError, match="n_x"):
        gen_mmwave(CFG, seed=0, **kwargs)


def test_cascade_hand_values():
    ones = ChannelSet(inbound=np.ones((2, 4), complex), outbound=np.ones((2, 4), complex))
    np.testing.assert_array_equal(cascade(ones), np.ones(8, complex))
    tiny = ChannelSet(inbound=np.array([[2.0 + 0j]]), outbound=np.array([[1j]]))
    np.testing.assert_allclose(cascade(tiny), np.array([-2j]))


def test_cascade_layout_is_surface_major():
    ch = gen_rayleigh(CFG, 9)
    vec = cascade(ch)
    for k in range(CFG.n_surfaces):
        seg = vec[k * CFG.n_elements:(k + 1) * CFG.n_elements]
        np.testing.assert_allclose(seg, np.conj(ch.outbound[k]) * ch.inbound[k])


def test_a_stack_of_channel_sets_cascades_row_by_row():
    sets = [gen_mmwave(CFG, 2, seed) for seed in range(3)]
    stack = ChannelSet(inbound=np.array([ch.inbound for ch in sets]),
                       outbound=np.array([ch.outbound for ch in sets]))
    vectors = cascade(stack)
    assert vectors.shape == (3, CFG.total_elements)
    for row, ch in zip(vectors, sets):
        assert row.tobytes() == cascade(ch).tobytes()


def test_cascade_depends_on_conjugation():
    ch = gen_rayleigh(CFG, 11)
    flipped = ChannelSet(inbound=ch.inbound, outbound=np.conj(ch.outbound))
    assert not np.allclose(cascade(ch), cascade(flipped))


def test_gain_matrix_blocks():
    ch = gen_rayleigh(CFG, 5)
    mat = block_gains(cascade(ch), CFG.n_surfaces)
    assert mat.shape == (2, 8)
    np.testing.assert_allclose(mat[0, :4], cascade(ch)[:4])
    np.testing.assert_allclose(mat[1, 4:], cascade(ch)[4:])
    assert np.all(mat[0, 4:] == 0) and np.all(mat[1, :4] == 0)
    single = gen_rayleigh(SystemConfig(1, 6), 3)
    np.testing.assert_allclose(block_gains(cascade(single), 1)[0], cascade(single))


def test_gain_matrix_times_phases_gives_per_surface_gains():
    ch = gen_rayleigh(CFG, 21)
    rng = np.random.default_rng(22)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, CFG.total_elements))
    gains = block_gains(cascade(ch), CFG.n_surfaces) @ theta
    for k in range(CFG.n_surfaces):
        th_k = theta[k * CFG.n_elements:(k + 1) * CFG.n_elements]
        direct = np.conj(ch.outbound[k]) @ (th_k * ch.inbound[k])
        assert gains[k] == pytest.approx(direct, rel=1e-12)


def test_reflected_signal_model_equivalence():
    # Summing per-surface scalar gains against each surface's pulse matrix
    # must equal the stacked-pulse-matrix form acting on the gain vector.
    pulse = PulseConfig()
    rng = np.random.default_rng(33)
    ch = gen_rayleigh(CFG, 34)
    offsets = rng.uniform(-0.9, 0.9, CFG.n_surfaces)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, CFG.total_elements))
    sym = rng.standard_normal(pulse.seq_len) + 1j * rng.standard_normal(pulse.seq_len)

    gains = block_gains(cascade(ch), CFG.n_surfaces) @ theta
    lhs = sum(gains[k] * steering_matrix(offsets[k], pulse) @ sym
              for k in range(CFG.n_surfaces))
    stacked = np.column_stack([steering_matrix(e, pulse) @ sym for e in offsets])
    rhs = stacked @ gains
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    # and the cascaded-vector route: gains = He@theta = sum over elements
    per_element = cascade(ch) * theta
    rhs2 = sum(
        per_element[k * CFG.n_elements + l]
        * steering_matrix(offsets[k], pulse) @ sym
        for k in range(CFG.n_surfaces) for l in range(CFG.n_elements)
    )
    np.testing.assert_allclose(lhs, rhs2, rtol=1e-10)

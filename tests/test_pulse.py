"""Tests for the root-raised-cosine pulse, its derivative, the steering
matrices and the matched-filter window.

Reference values were computed independently with mpmath at 40 decimal digits
(direct textbook formulas plus mp.limit at the removable singularities and
mp.quad for the energy/correlation integrals) and are frozen here. The
window's taps are the raised cosine at integer lags, from its direct formula:
exactly 1 at lag 0 and zero up to rounding elsewhere (exactly zero where the
formula is singular).
"""
import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissync import (
    PulseConfig,
    matched_filter_window,
    rrc_impulse,
    rrc_impulse_deriv,
    steering_matrix,
    steering_matrix_deriv,
)
from rissync.pulse import _OFFSET_EDGE, SINGULARITY_TOL, lag_pilot_matrix

CFG = PulseConfig()  # rolloff 0.22, span 4, oversampling 2, obs_len 12
BETA = CFG.rolloff
X_SING = 1.0 / (4.0 * BETA)

# mpmath (40 dps) reference values, rolloff 0.22
PEAK = 1.0601126998417358
G_AT_SING = -0.15718426207720724
DG_AT_SING = -0.5370036882886971
ENERGY_TRUNC = 0.9991162114335723  # integral of g^2 over [-4, 4]
AC_HALF = 0.6294486138678793       # raised cosine (untruncated) at lag 0.5
AC_HALF_TRUNC = 0.6297530129414243  # quadrature of truncated-pulse correlation
SPOT_G = {0.3: 0.8879756445784789, 1.0: -0.05732352424651584,
          2.25: 0.10046073608940728, 3.9: 0.019828370858788176}
SPOT_DG = {0.3: -1.0865406043878544, 1.0: -0.9235060547502182}


def rrc_reference(x: float) -> float:
    # Direct formula, written out independently of the library implementation.
    # Only valid away from the removable singularities.
    num = np.sin(np.pi * x * (1 - BETA)) + 4 * BETA * x * np.cos(np.pi * x * (1 + BETA))
    return num / (np.pi * x * (1 - (4 * BETA * x) ** 2))


def test_peak_value():
    # Closed-form peak: 1 + rolloff*(4/pi - 1).
    assert rrc_impulse(0.0, CFG) == pytest.approx(1 + BETA * (4 / np.pi - 1), rel=1e-14)
    assert rrc_impulse(0.0, CFG) == pytest.approx(PEAK, rel=1e-13)


def test_spot_values_match_direct_formula():
    for x, want in SPOT_G.items():
        assert rrc_impulse(x, CFG) == pytest.approx(want, rel=1e-12)
        assert rrc_impulse(x, CFG) == pytest.approx(rrc_reference(x), rel=1e-13)


def _integral(f, a: float, b: float) -> float:
    """Composite 16-node Gauss-Legendre quadrature of ``f`` over [a, b], on 80
    equal panels; asserts that 40 panels agree to 1e-12 relative. The
    integrands here jump only at a and b, so no panel straddles a jump."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    values = []
    for panels in (40, 80):
        edges = np.linspace(a, b, panels + 1)
        half = np.diff(edges)[:, None] / 2.0
        mid = (edges[:-1] + edges[1:])[:, None] / 2.0
        values.append(float(np.sum(half * weights * f(mid + half * nodes))))
    assert abs(values[1] - values[0]) <= 1e-12 * abs(values[1])
    return values[1]


def test_truncated_pulse_energy():
    val = _integral(lambda x: rrc_impulse(x, CFG) ** 2, -CFG.span, CFG.span)
    assert val == pytest.approx(ENERGY_TRUNC, rel=1e-9)
    # Truncation at four symbol periods costs well under 0.1% of unit energy.
    assert abs(val - 1.0) < 1e-3


def test_support_is_truncated():
    # The support is the closed interval [-span, span]: the pulse keeps its
    # value at +-span and is exactly zero one ulp beyond.
    span = float(CFG.span)
    past = np.nextafter(span, np.inf)
    ts = np.array([-7.3, -4.0001, -past, past, 4.0001, 5.0, 100.0, np.inf, -np.inf])
    assert np.all(rrc_impulse(ts, CFG) == 0.0)
    assert np.all(rrc_impulse_deriv(ts, CFG) == 0.0)
    edge = rrc_impulse(np.array([-span, span]), CFG)
    assert edge[0] == edge[1] == pytest.approx(rrc_reference(span), rel=1e-12)
    assert edge[0] != 0.0
    assert np.all(rrc_impulse_deriv(np.array([-span, span]), CFG) != 0.0)


def test_nan_propagates():
    for fn in (rrc_impulse, rrc_impulse_deriv):
        assert np.isnan(fn(np.nan, CFG))
        assert np.isnan(fn(np.array([0.3, np.nan]), CFG)[1])


def test_values_at_singular_points():
    assert rrc_impulse(X_SING, CFG) == pytest.approx(G_AT_SING, rel=1e-10)
    assert rrc_impulse(-X_SING, CFG) == pytest.approx(G_AT_SING, rel=1e-10)
    assert rrc_impulse_deriv(X_SING, CFG) == pytest.approx(DG_AT_SING, rel=1e-8)
    assert rrc_impulse_deriv(-X_SING, CFG) == pytest.approx(-DG_AT_SING, rel=1e-8)


# mpmath references straddling the series/direct switchover (1e-3 from the
# singular points); key is (offset from center, which center).
BOUNDARY_G = {
    (0.999e-3, 0.0): (1.0601106868031098, -0.0040301049845969764),
    (1.001e-3, 0.0): (1.0601106787348316, -0.0040381732437701715),
    (-1.001e-3, X_SING): (-0.15664527462056649, -0.53989437512433326),
    (-0.999e-3, X_SING): (-0.15664635440354086, -0.53988859924211501),
    (0.999e-3, X_SING): (-0.15771928787243154, -0.53411907670378806),
    (1.001e-3, X_SING): (-0.15772035610481027, -0.53411330202143605),
}


def test_branch_boundaries_match_reference():
    # Both the series branch (just inside the switch radius) and the direct
    # formula (just outside) must stay accurate where they meet.
    for (off, center), (want_g, want_dg) in BOUNDARY_G.items():
        x = center + off
        assert rrc_impulse(x, CFG) == pytest.approx(want_g, rel=1e-10)
        assert rrc_impulse_deriv(x, CFG) == pytest.approx(want_dg, rel=1e-9, abs=1e-12)


def test_no_nans_on_fine_grid():
    grid = np.arange(-4.0, 4.0 + 1e-9, 1e-3)
    for fn in (rrc_impulse, rrc_impulse_deriv):
        vals = fn(grid, CFG)
        assert np.all(np.isfinite(vals))


def test_derivative_spot_values():
    for x, want in SPOT_DG.items():
        assert rrc_impulse_deriv(x, CFG) == pytest.approx(want, rel=1e-12)


def test_derivative_matches_finite_differences():
    h = 1e-6
    xs = np.array([-3.7, -2.0, -0.9, -0.2, 0.15, 0.31, 0.77, 1.3, 2.6, 3.95])
    fd = (rrc_impulse(xs + h, CFG) - rrc_impulse(xs - h, CFG)) / (2 * h)
    np.testing.assert_allclose(rrc_impulse_deriv(xs, CFG), fd, rtol=1e-7, atol=1e-9)


def test_derivative_zero_at_origin():
    assert rrc_impulse_deriv(0.0, CFG) == 0.0


def test_pulse_correlation_at_half_symbol_lag():
    # The truncated pulse's correlation at lag 0.5 differs from the raised
    # cosine, its untruncated closed form, only by truncation leakage.
    val = _integral(lambda x: rrc_impulse(x, CFG) * rrc_impulse(x - 0.5, CFG),
                    -CFG.span + 0.5, CFG.span)
    assert val == pytest.approx(AC_HALF_TRUNC, rel=1e-8)
    assert abs(val - AC_HALF) < 1e-3


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_pulse_symmetry_and_boundedness(x):
    g = rrc_impulse(x, CFG)
    assert rrc_impulse(-x, CFG) == g
    assert abs(g) <= PEAK + 1e-12
    assert rrc_impulse_deriv(-x, CFG) == -rrc_impulse_deriv(x, CFG)


# ---------------------------------------------------------------------------
# steering / windowing matrices
# ---------------------------------------------------------------------------

def test_steering_matrix_entries():
    eps = 0.37
    mat = steering_matrix(eps, CFG)
    assert mat.shape == (CFG.n_samples, CFG.seq_len)
    symbols = np.arange(-CFG.span, CFG.obs_len + CFG.span)
    for n in (0, 5, 23):
        for j, i in enumerate(symbols):
            x = n * CFG.sample_step - i - eps
            assert mat[n, j] == pytest.approx(
                rrc_reference(x) if abs(x) <= CFG.span else 0.0, abs=1e-12
            )


def test_steering_matrix_offset_bounds():
    for bad in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            steering_matrix(bad, CFG)
        with pytest.raises(ValueError):
            steering_matrix_deriv(bad, CFG)
    steering_matrix(0.999, CFG)  # interior values are fine


@pytest.mark.parametrize("bad", [np.nextafter(1.0, 0.0), 1.0 - 5e-10])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_steering_matrix_rejects_offsets_past_the_edge(bad, sign):
    # Offsets are accepted up to _OFFSET_EDGE = 1 - 1e-9 and no further: a
    # sample time at span + 1 then stays outside the pulse's support.
    for route in (steering_matrix, steering_matrix_deriv):
        with pytest.raises(ValueError, match="lie in"):
            route(sign * bad, CFG)
        with pytest.raises(ValueError, match="lie in"):
            route(np.array([0.2, sign * bad]), CFG)
        assert route(sign * _OFFSET_EDGE, CFG).shape == (CFG.n_samples, CFG.seq_len)


def test_steering_matrix_deriv_matches_finite_differences():
    # Offsets chosen so no sample time lands on the truncation edge, where
    # the pulse jumps to zero and a finite difference would straddle the jump.
    h = 1e-6
    for eps in (-0.62, 0.17, 0.41):
        fd = (steering_matrix(eps + h, CFG) - steering_matrix(eps - h, CFG)) / (2 * h)
        np.testing.assert_allclose(
            steering_matrix_deriv(eps, CFG), fd, rtol=1e-5, atol=1e-8
        )


def test_steering_matrix_finite_on_dense_offset_grid():
    # Sweep includes offsets that land sample times exactly on the pulse's
    # removable singularities; nothing may come out NaN or infinite.
    for eps in np.arange(-0.999, 0.9995, 1e-3):
        assert np.all(np.isfinite(steering_matrix(eps, CFG)))
    for special in (0.0, 4.0 / 11.0, -4.0 / 11.0):  # hits t = 0 and t = ±1/(4*rolloff)
        assert np.all(np.isfinite(steering_matrix(special, CFG)))
        assert np.all(np.isfinite(steering_matrix_deriv(special, CFG)))


def test_steering_matrix_first_order_expansion():
    # ||A(e+d) - A(e) - d*A'(e)||_F must shrink quadratically in d.
    eps = 0.23
    base = steering_matrix(eps, CFG)
    slope = steering_matrix_deriv(eps, CFG)
    errs = []
    for d in (1e-3, 1e-4, 1e-5):
        resid = steering_matrix(eps + d, CFG) - base - d * slope
        errs.append(np.linalg.norm(resid))
    assert errs[0] < 1e-4  # comfortably first-order accurate already
    fitted = [errs[i] / (10.0 ** (-3 - i)) ** 2 for i in range(3)]
    assert max(fitted) < 3 * min(fitted)  # consistent quadratic constant


def _literal_steering(eps, cfg):
    # Direct evaluation at every (n, i) entry, as the docstring defines it.
    symbols = np.arange(-cfg.span, cfg.obs_len + cfg.span)
    times = np.arange(cfg.n_samples)[:, None] * cfg.sample_step - symbols[None, :] - eps
    return rrc_impulse(times, cfg), -rrc_impulse_deriv(times, cfg)


@pytest.mark.parametrize("cfg", [
    CFG,
    PulseConfig(oversampling=1, span=2),
    PulseConfig(oversampling=3, span=6),
    PulseConfig(oversampling=4, span=2, obs_len=5),
    PulseConfig(rolloff=0.25, oversampling=3, span=2),  # 1/(4*rolloff) on the sample grid
], ids=["default", "os1-span2", "os3-span6", "os4-span2", "os3-sing-on-grid"])
def test_lag_gather_is_bit_equal_to_direct_evaluation(cfg):
    # 500 random offsets plus, for every distinct sample time, offsets that
    # put that sample within SINGULARITY_TOL of 0 and of +-1/(4*rolloff), so
    # both series branches and their switchover are gathered too.
    times = np.unique(np.arange(cfg.n_samples)[:, None] * cfg.sample_step
                      - np.arange(-cfg.span, cfg.obs_len + cfg.span)[None, :])
    x_sing = 1.0 / (4.0 * cfg.rolloff)
    near = np.array([0.0, 1e-4, -1e-4, 0.999, -0.999, 1.001, -1.001]) * SINGULARITY_TOL
    special = (times[:, None, None] - np.array([0.0, x_sing, -x_sing])[None, :, None]
               + near[None, None, :]).ravel()
    special = special[np.abs(special) < 1.0]
    offsets = np.concatenate([np.random.default_rng(0).uniform(-0.999, 0.999, 500), special,
                              [-_OFFSET_EDGE, _OFFSET_EDGE]])
    assert special.size >= 20
    stacked = steering_matrix(offsets, cfg)
    stacked_deriv = steering_matrix_deriv(offsets, cfg)
    # a C-contiguous stack is what einsum and matmul see from np.stack
    assert stacked.flags.c_contiguous and stacked_deriv.flags.c_contiguous
    for g, eps in enumerate(offsets):
        want, want_deriv = _literal_steering(eps, cfg)
        mat, deriv = steering_matrix(eps, cfg), steering_matrix_deriv(eps, cfg)
        assert mat.shape == (cfg.n_samples, cfg.seq_len)
        assert np.array_equal(mat, want) and np.array_equal(stacked[g], want), eps
        assert np.array_equal(deriv, want_deriv) and np.array_equal(stacked_deriv[g], want_deriv)


@pytest.mark.parametrize("oversampling", [1, 2, 4])
def test_pulse_is_evaluated_once_per_reachable_time(oversampling, monkeypatch):
    # With an exact sample step every entry's time is a multiple of it by the
    # integer lag n - oversampling*i. Only the times strictly within span + 1
    # of zero reach the support at an accepted offset: the lags with
    # |lag| < (span + 1)*oversampling, against n_samples*seq_len entries.
    cfg = PulseConfig(oversampling=oversampling)
    pulse_module = importlib.import_module("rissync.pulse")
    shapes = []

    def recording(t, cfg):
        shapes.append(np.shape(t))
        return rrc_impulse(t, cfg)

    monkeypatch.setattr(pulse_module, "rrc_impulse", recording)
    reachable = 2 * (cfg.span + 1) * oversampling - 1
    steering_matrix(0.3, cfg)
    steering_matrix(np.array([0.1, -0.2, 0.7]), cfg)
    assert shapes == [(reachable,), (3, reachable)]


def _every_time(cfg):
    # Every distinct sample time of the steering matrix, first seen first, and
    # the (n_samples, seq_len) index of each entry into them.
    times = (np.arange(cfg.n_samples)[:, None] * cfg.sample_step
             - np.arange(-cfg.span, cfg.obs_len + cfg.span)[None, :])
    first = {}
    index = [first.setdefault(t, len(first)) for t in times.ravel().tolist()]
    return np.array(list(first)), np.reshape(index, times.shape)


@pytest.mark.parametrize("oversampling", [2, 3])
def test_lag_pilot_matrix_reproduces_the_filtered_pilot(oversampling):
    # A @ g(times - x) is steering_matrix(x) @ pilot with its sums reordered
    # and its zero terms dropped, for one offset and for a stack of them,
    # at any accepted offset: only the times with |t| < span + 1 are kept, and
    # no dropped time's pulse is nonzero at such an offset. At oversampling 3
    # one lag rounds to two times, so there are more times than lags.
    cfg = PulseConfig(oversampling=oversampling)
    rng = np.random.default_rng(oversampling)
    pilot = np.exp(1j * np.pi / 4.0 * (2 * rng.integers(0, 4, cfg.seq_len) + 1))
    times, a = lag_pilot_matrix(pilot, cfg)
    every, index = _every_time(cfg)
    full = np.zeros((cfg.n_samples, every.size), dtype=complex)
    full[np.arange(cfg.n_samples)[:, None], index] = pilot
    keep = np.abs(every) < cfg.span + 1
    assert np.array_equal(times, every[keep]) and np.array_equal(a, full[:, keep])
    lags = cfg.n_samples + oversampling * (cfg.seq_len - 1)
    assert (every.size > lags) == (oversampling == 3) and times.size < every.size
    edges = np.array([-_OFFSET_EDGE, _OFFSET_EDGE])
    inside = np.concatenate([np.linspace(-_OFFSET_EDGE, _OFFSET_EDGE, 2001), edges])
    assert not np.any(rrc_impulse(every[~keep] - inside[:, None], cfg))

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for x in (0.0, 0.3, -0.77, 0.5, -_OFFSET_EDGE, _OFFSET_EDGE):
        assert close(a @ rrc_impulse(times - x, cfg), steering_matrix(x, cfg) @ pilot), x
    offsets = np.concatenate([rng.uniform(-_OFFSET_EDGE, _OFFSET_EDGE, 50), edges])
    assert close(rrc_impulse(times - offsets[:, None], cfg) @ a.T,
                 steering_matrix(offsets, cfg) @ pilot)


@pytest.mark.parametrize("shape", [(25,), (15,), (3, 19), ()])
def test_lag_pilot_matrix_rejects_a_pilot_of_another_length(shape):
    # at seq_len 20, a 25-symbol pilot was cut to its first 20 symbols and a
    # 15-symbol one raised IndexError; a stack of full pilots is accepted
    with pytest.raises(ValueError, match=re.escape(f"pilot has shape {shape}")) as err:
        lag_pilot_matrix(np.ones(shape, complex), CFG)
    assert f"seq_len = {CFG.seq_len} symbols" in str(err.value)
    times, a = lag_pilot_matrix(np.ones((3, CFG.seq_len), complex), CFG)
    assert a.shape == (3, CFG.n_samples, times.size)


def test_matched_filter_taps_layout():
    # the window's first row holds the taps unrotated: the raised cosine at
    # integer lags -span..span, which is 1 at lag 0 and 0 (Nyquist) up to
    # rounding elsewhere, then zero padding
    for cfg in (CFG, PulseConfig(rolloff=0.25)):
        taps = matched_filter_window(cfg)[0]
        assert taps.shape == (cfg.seq_len,)
        assert np.all(np.isfinite(taps))
        assert taps[cfg.span] == 1.0
        lags = np.arange(-cfg.span, cfg.seq_len - cfg.span)
        assert np.all(np.abs(taps[lags != 0]) <= 1e-15)
        assert np.all(taps[2 * cfg.span + 1:] == 0.0)
    # at rolloff 0.25 the formula is singular at lags +-2 = +-1/(2*rolloff)
    singular = matched_filter_window(PulseConfig(rolloff=0.25))[0]
    assert np.all(singular[CFG.span + np.array([-2, 2])] == 0.0)


def test_window_matrix_is_circulant_selector():
    win = matched_filter_window(CFG)
    taps = win[0]
    assert win.shape == (CFG.obs_len, CFG.seq_len)
    for r in range(CFG.obs_len):
        np.testing.assert_array_equal(win[r], np.roll(taps, r))
        assert win[r, (CFG.span + r) % CFG.seq_len] == pytest.approx(1.0, abs=1e-14)

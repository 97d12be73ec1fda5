"""Validation behaviour of the configuration dataclasses."""
import numpy as np
import pytest

from rissync import PulseConfig, SystemConfig


def test_pulse_defaults():
    cfg = PulseConfig()
    assert cfg.seq_len == 2 * cfg.span + cfg.obs_len == 20
    assert cfg.n_samples == cfg.obs_len * cfg.oversampling == 24
    assert cfg.sample_step == pytest.approx(0.5)


@pytest.mark.parametrize("kwargs", [
    {"rolloff": 0.0},
    {"rolloff": 1.2},
    {"span": 0},
    {"oversampling": 0},
    {"obs_len": 0},
    {"span": 2.5},
    {"oversampling": 2.0},
    {"obs_len": 12.5},
    {"span": "4"},
])
def test_pulse_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        PulseConfig(**kwargs)


def test_system_counts():
    sys = SystemConfig(n_surfaces=3, n_elements=8)
    assert sys.total_elements == 24
    # every scenario shares the default pulse grid, and it is not a field
    assert sys.pulse == PulseConfig() and sys.pulse is SystemConfig(1, 1).pulse
    with pytest.raises(TypeError):
        SystemConfig(2, 4, PulseConfig())


@pytest.mark.parametrize("kwargs", [
    {"n_surfaces": 0, "n_elements": 4},
    {"n_surfaces": 2, "n_elements": 0},
    {"n_surfaces": 2, "n_elements": "4"},
    {"n_surfaces": 2.0, "n_elements": 4},
    {"n_surfaces": 2, "n_elements": 2.5},
    {"n_surfaces": 2, "n_elements": None},
    {"n_surfaces": "2", "n_elements": 4},
    {"n_surfaces": None, "n_elements": 4},
])
def test_system_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_system_stores_integer_sizes_as_int():
    sys = SystemConfig(np.int64(3), np.int32(4))
    assert all(type(v) is int for v in (sys.n_surfaces, sys.n_elements))

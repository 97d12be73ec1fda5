"""Scenario configuration objects shared across the package."""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import ClassVar


def int_at_least(value, name: str, least: int) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``least``
    (2.0 and "2" are not integers)."""
    try:
        whole = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if whole < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return whole


def finite_real(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a finite real number ("1" is not)."""
    if not (isinstance(value, numbers.Real) and abs(value) < float("inf")):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def positive_int(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is an integer >= 1."""
    return int_at_least(value, name, 1)


@dataclass(frozen=True)
class PulseConfig:
    """Pulse-shaping and sampling-grid parameters.

    All times are dimensionless multiples of the symbol period.

    Attributes
    ----------
    rolloff : excess-bandwidth factor of the root-raised-cosine pulse, in (0, 1].
    span : one-sided tail length of the truncated pulse, in symbols.
    oversampling : samples taken per symbol period.
    obs_len : number of symbols in one observation block.
    """

    rolloff: float = 0.22
    span: int = 4
    oversampling: int = 2
    obs_len: int = 12

    def __post_init__(self):
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError(f"rolloff must lie in (0, 1], got {self.rolloff}")
        for name in ("span", "oversampling", "obs_len"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))

    @property
    def seq_len(self) -> int:
        """Symbols spanned by one observation block including both pulse tails."""
        return 2 * self.span + self.obs_len

    @property
    def n_samples(self) -> int:
        """Oversampled rows of one observation block."""
        return self.obs_len * self.oversampling

    @property
    def sample_step(self) -> float:
        return 1.0 / self.oversampling


@dataclass(frozen=True)
class SystemConfig:
    """Link-level scenario constants: surface count, element count, pulse grid.

    Every scenario shares the default ``PulseConfig``; training uses one
    pattern per element, N*K in all, the fewest that make it identifiable.
    """

    n_surfaces: int
    n_elements: int
    pulse: ClassVar[PulseConfig] = PulseConfig()

    def __post_init__(self):
        for name in ("n_surfaces", "n_elements"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))

    @property
    def total_elements(self) -> int:
        return self.n_surfaces * self.n_elements

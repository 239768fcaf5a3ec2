"""Membership functions.

Each membership function maps a crisp value to a degree in ``[0, 1]``;
vectorized evaluation over numpy arrays is supported throughout.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np


class MembershipFunction(abc.ABC):
    """A fuzzy set over the real line."""

    @abc.abstractmethod
    def __call__(self, x):
        """Degree of membership of ``x`` (scalar or array), in ``[0, 1]``."""

    @property
    @abc.abstractmethod
    def center(self) -> float:
        """Representative (peak) location of the set."""


@dataclass(frozen=True)
class TriangularMF(MembershipFunction):
    """Triangle with feet at ``a`` and ``c`` and peak at ``b``.

    Degenerate shoulders (``a == b`` or ``b == c``) are allowed and yield
    half-open ramps, which is how partition edges are usually written.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c:
            raise ValueError("need a <= b <= c")
        if self.a == self.c:
            raise ValueError("triangle must have nonzero width")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        left_width = self.b - self.a
        right_width = self.c - self.b
        rising = (
            (x - self.a) / left_width if left_width > 0 else (x >= self.b) * 1.0
        )
        falling = (
            (self.c - x) / right_width if right_width > 0 else (x <= self.b) * 1.0
        )
        return np.clip(np.minimum(rising, falling), 0.0, 1.0)

    @property
    def center(self) -> float:
        return self.b


@dataclass(frozen=True)
class TrapezoidalMF(MembershipFunction):
    """Trapezoid with feet ``a``/``d`` and plateau ``[b, c]``."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c <= self.d:
            raise ValueError("need a <= b <= c <= d")
        if self.a == self.d:
            raise ValueError("trapezoid must have nonzero width")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        left_width = self.b - self.a
        right_width = self.d - self.c
        rising = (
            (x - self.a) / left_width if left_width > 0 else (x >= self.b) * 1.0
        )
        falling = (
            (self.d - x) / right_width if right_width > 0 else (x <= self.c) * 1.0
        )
        plateau = np.ones_like(x)
        return np.clip(np.minimum(np.minimum(rising, plateau), falling), 0.0, 1.0)

    @property
    def center(self) -> float:
        return 0.5 * (self.b + self.c)


@dataclass(frozen=True)
class GaussianMF(MembershipFunction):
    """Gaussian bell centered at ``mean`` with width ``sigma``."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * ((x - self.mean) / self.sigma) ** 2)

    @property
    def center(self) -> float:
        return self.mean

"""Test conditions: the environmental half of a test.

The paper's GA evolves "two different types of chromosomes — test sequences
and test conditions" (section 6).  A :class:`TestCondition` captures the
condition chromosome's phenotype: supply voltage, junction temperature and
clock period.  A :class:`ConditionSpace` bounds the admissible region and
provides sampling, clamping and normalization used by the random test
generator, the GA mutation operators and the NN input encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class TestCondition:
    """Environmental operating point for one test.

    Attributes
    ----------
    vdd:
        Supply voltage in volts (paper's experiment: nominal 1.8 V).
    temperature:
        Junction temperature in degrees Celsius.
    clock_period:
        Tester cycle period in nanoseconds.
    """

    vdd: float = 1.8
    temperature: float = 25.0
    clock_period: float = 40.0

    def validate(self) -> None:
        """Raise :class:`ValueError` on physically meaningless values."""
        if self.vdd <= 0.0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        if self.clock_period <= 0.0:
            raise ValueError(f"clock_period must be positive, got {self.clock_period}")
        if not -100.0 <= self.temperature <= 300.0:
            raise ValueError(f"temperature {self.temperature} C is implausible")

    def with_vdd(self, vdd: float) -> "TestCondition":
        """Copy with a different supply voltage (shmoo Y-axis sweeps)."""
        return replace(self, vdd=vdd)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view, used by the datalog."""
        return {
            "vdd": self.vdd,
            "temperature": self.temperature,
            "clock_period": self.clock_period,
        }

    def __str__(self) -> str:
        return (
            f"Vdd={self.vdd:.3f}V T={self.temperature:.1f}C "
            f"Tclk={self.clock_period:.1f}ns"
        )


def _clip(value: float, bounds: Tuple[float, float]) -> float:
    """``float(np.clip(value, *bounds))`` without numpy's per-call cost.

    Bit for bit: as in numpy, the value wins a tie with a bound (``-0.0``
    against a ``0.0`` bound stays ``-0.0``) and a NaN passes through.
    """
    low, high = bounds
    return float(min(max(value, low), high))


#: Nominal operating point of the paper's experiment (Table 1: "Vdd 1.8V").
NOMINAL_CONDITION = TestCondition(vdd=1.8, temperature=25.0, clock_period=40.0)


@dataclass(frozen=True)
class ConditionSpace:
    """Admissible region of test conditions.

    Each axis is a closed ``(low, high)`` interval.  The defaults bracket the
    1.8 V / 140 nm operating envelope used in the paper's experiment.
    """

    vdd_range: Tuple[float, float] = (1.4, 2.2)
    temperature_range: Tuple[float, float] = (-40.0, 125.0)
    clock_period_range: Tuple[float, float] = (25.0, 80.0)

    def __post_init__(self) -> None:
        for label, (low, high) in self._axes().items():
            if low >= high:
                raise ValueError(f"{label} range must satisfy low < high")

    def _axes(self) -> Dict[str, Tuple[float, float]]:
        return {
            "vdd": self.vdd_range,
            "temperature": self.temperature_range,
            "clock_period": self.clock_period_range,
        }

    # -- membership ----------------------------------------------------------
    def contains(self, condition: TestCondition) -> bool:
        """True if ``condition`` lies inside the space (inclusive bounds)."""
        axes = self._axes()
        values = condition.as_dict()
        return all(
            axes[name][0] <= values[name] <= axes[name][1] for name in axes
        )

    def clamp(self, condition: TestCondition) -> TestCondition:
        """Project ``condition`` onto the space (GA mutation post-processing)."""
        return TestCondition(
            vdd=_clip(condition.vdd, self.vdd_range),
            temperature=_clip(condition.temperature, self.temperature_range),
            clock_period=_clip(condition.clock_period, self.clock_period_range),
        )

    # -- sampling ------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> TestCondition:
        """Draw a uniform random condition (random test generator)."""
        return TestCondition(
            vdd=float(rng.uniform(*self.vdd_range)),
            temperature=float(rng.uniform(*self.temperature_range)),
            clock_period=float(rng.uniform(*self.clock_period_range)),
        )

    def corners(self) -> Tuple[TestCondition, ...]:
        """The eight corner conditions of the space (corner-lot style checks)."""
        out = []
        for vdd in self.vdd_range:
            for temp in self.temperature_range:
                for period in self.clock_period_range:
                    out.append(
                        TestCondition(
                            vdd=vdd, temperature=temp, clock_period=period
                        )
                    )
        return tuple(out)

    # -- normalization (NN encoder / GA genes) --------------------------------
    def normalize(self, condition: TestCondition) -> np.ndarray:
        """Map a condition to ``[0, 1]^3`` (order: vdd, temperature, period)."""
        axes = self._axes()
        values = condition.as_dict()
        return np.array(
            [
                (values[name] - low) / (high - low)
                for name, (low, high) in axes.items()
            ],
            dtype=float,
        )

    def denormalize(self, genes: np.ndarray) -> TestCondition:
        """Inverse of :meth:`normalize`; genes are clipped to ``[0, 1]``."""
        genes = np.clip(np.asarray(genes, dtype=float), 0.0, 1.0)
        if genes.shape != (3,):
            raise ValueError(f"expected 3 condition genes, got shape {genes.shape}")
        names = list(self._axes().items())
        values = {
            name: low + genes[i] * (high - low)
            for i, (name, (low, high)) in enumerate(names)
        }
        return TestCondition(
            vdd=values["vdd"],
            temperature=values["temperature"],
            clock_period=values["clock_period"],
        )

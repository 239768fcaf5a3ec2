"""Timing model: assembles the true ``T_DQ`` of a die for one test.

Combines the base valid-window of the die (process), the environmental
derating (supply voltage, temperature, cycle time), the pattern-activity
degradation (:mod:`~repro.device.sensitivity`) and a self-heating drift
state.  The drift models the paper's observation that "if the specification
parameter changes over time due to device heating or other factors, an
inaccurate reading could result" (section 1) — it is what makes
drift-tolerant search (successive approximation, SUTP re-centering) matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.process import NOMINAL_DIE, ProcessInstance
from repro.device.sensitivity import SensitivityModel
from repro.patterns.conditions import TestCondition
from repro.patterns.features import PatternFeatures


@dataclass
class SelfHeatingModel:
    """First-order thermal state of the die under test.

    Every applied pattern deposits heat proportional to its switching
    activity; heat decays geometrically between applications.  The stored
    temperature rise derates ``T_DQ`` slightly, so long measurement
    campaigns see a slowly drifting trip point.

    Attributes
    ----------
    heating_per_application:
        Temperature rise (K) per fully-active pattern application.
    decay:
        Geometric decay factor applied before each new application.
    derating_ns_per_kelvin:
        ``T_DQ`` reduction per kelvin of self-heating.
    max_rise_kelvin:
        Saturation of the thermal state.
    """

    heating_per_application: float = 0.15
    decay: float = 0.98
    derating_ns_per_kelvin: float = 0.02
    max_rise_kelvin: float = 12.0
    _rise_kelvin: float = 0.0

    def apply(self, activity: float) -> None:
        """Account one pattern application with ``activity`` in ``[0, 1]``."""
        self._rise_kelvin = min(
            self.max_rise_kelvin,
            self._rise_kelvin * self.decay
            + self.heating_per_application * activity,
        )

    @property
    def rise_kelvin(self) -> float:
        """Current temperature rise above ambient."""
        return self._rise_kelvin

    @property
    def derating_ns(self) -> float:
        """Current ``T_DQ`` derating caused by self-heating."""
        return self._rise_kelvin * self.derating_ns_per_kelvin

    def derating_sequence(self, activity: float, count: int) -> np.ndarray:
        """Deratings after each of ``count`` successive applications.

        Advances the thermal state exactly as ``count`` calls of
        :meth:`apply` would (same float operations in the same order), and
        returns the post-application derating of each step — the batched
        measurement engine's replacement for the per-probe
        ``apply(); derating_ns`` pair.  Element ``k`` is bit-identical to
        the scalar path's derating on the ``k``-th application.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rise = self._rise_kelvin
        cap = self.max_rise_kelvin
        decay = self.decay
        heat = self.heating_per_application * activity
        rises = []
        append = rises.append
        for _ in range(count):
            rise = rise * decay + heat
            if not rise < cap:  # min(cap, rise): cap on ties and NaN
                rise = cap
            append(rise)
        self._rise_kelvin = rise
        return np.array(rises, dtype=float) * self.derating_ns_per_kelvin

    def reset(self) -> None:
        """Cool the die back to ambient (device handler soak)."""
        self._rise_kelvin = 0.0


@dataclass(frozen=True)
class TimingConfig:
    """Environmental derating constants of the ``T_DQ`` model."""

    #: Valid window of a typical die at nominal conditions with a perfectly
    #: quiet pattern, in ns.
    base_ns: float = 33.2
    #: Window change per volt of supply deviation from nominal (lower Vdd
    #: shrinks the window).
    vdd_slope_ns_per_v: float = 5.0
    nominal_vdd: float = 1.8
    #: Window change per kelvin above nominal ambient.
    temp_slope_ns_per_k: float = -0.012
    nominal_temperature: float = 25.0
    #: Mild dependency on cycle time: very short cycles leave less settling
    #: margin before the next address change.
    clock_slope_ns_per_ns: float = 0.02
    nominal_clock_period: float = 40.0
    #: Weakness amplification per volt of undervoltage (the weakness is a
    #: marginality, so it worsens as the supply droops).
    weakness_vdd_gain_per_v: float = 0.5
    #: Maximum operating frequency of the quiet nominal die (the section-4
    #: example's "device will fail if operating frequency is further
    #: increased above 110MHz").
    f_max_quiet_mhz: float = 110.0
    #: Frequency headroom lost per nanosecond of valid-window degradation.
    f_max_slope_mhz_per_ns: float = 0.8


class TimingModel:
    """True (noise-free) ``T_DQ`` of a die for a given pattern and condition."""

    def __init__(
        self,
        sensitivity: SensitivityModel,
        config: TimingConfig = TimingConfig(),
        heating: SelfHeatingModel | None = None,
    ) -> None:
        self.sensitivity = sensitivity
        self.config = config
        self.heating = heating if heating is not None else SelfHeatingModel()

    def environmental_shift_ns(
        self, condition: TestCondition, die: ProcessInstance
    ) -> float:
        """Signed window shift from the operating point, in ns."""
        cfg = self.config
        vdd_term = (
            cfg.vdd_slope_ns_per_v
            * die.total_vdd_scale
            * (condition.vdd - cfg.nominal_vdd)
        )
        temp_term = cfg.temp_slope_ns_per_k * (
            condition.temperature - cfg.nominal_temperature
        )
        clock_term = cfg.clock_slope_ns_per_ns * (
            condition.clock_period - cfg.nominal_clock_period
        )
        return vdd_term + temp_term + clock_term

    def static_t_dq_ns(
        self,
        features: PatternFeatures,
        condition: TestCondition,
        die: ProcessInstance = NOMINAL_DIE,
    ) -> float:
        """The heating-independent part of ``T_DQ`` for one (test, die).

        Base window plus environmental derating minus the pattern-activity
        penalties — everything in :meth:`t_dq_ns` except the self-heating
        derating.  This value is constant across repeated applications of
        the same test, which is what the per-(die, test) memo cache in
        :class:`~repro.device.memory_chip.MemoryTestChip` and the batched
        measurement engine exploit.  The float operations (and their
        association order) are exactly the scalar path's, so
        ``static - derating`` reproduces the legacy result bit for bit.
        """
        cfg = self.config
        base = cfg.base_ns + die.total_timing_shift_ns
        base += self.environmental_shift_ns(condition, die)

        linear = self.sensitivity.linear_drop_ns(features)
        weakness = self.sensitivity.weakness_drop_ns(features)
        undervolt = max(0.0, cfg.nominal_vdd - condition.vdd)
        weakness *= die.weakness_scale * (
            1.0 + cfg.weakness_vdd_gain_per_v * undervolt
        )
        return base - linear - weakness

    def t_dq_ns(
        self,
        features: PatternFeatures,
        condition: TestCondition,
        die: ProcessInstance = NOMINAL_DIE,
        account_heating: bool = True,
    ) -> float:
        """True data-output-valid time for one test application.

        When ``account_heating`` is set the call also deposits the pattern's
        heat into the self-heating state (i.e. it models an actual
        application of the pattern, not a what-if query).
        """
        static = self.static_t_dq_ns(features, condition, die)
        if account_heating:
            self.heating.apply(features["peak_window_activity"])
        return float(static - self.heating.derating_ns)

    def f_max_from_t_dq(self, t_dq):
        """Map ``T_DQ`` (scalar or array) to maximum operating frequency."""
        cfg = self.config
        return cfg.f_max_quiet_mhz - cfg.f_max_slope_mhz_per_ns * (
            cfg.base_ns - t_dq
        )

    def idd_peak_ma(
        self, features: PatternFeatures, condition: TestCondition
    ) -> float:
        """Peak supply current for the secondary (max-limited) parameter."""
        return self.sensitivity.idd_peak_ma(features, condition.vdd)

    def reset(self) -> None:
        """Reset transient state (self-heating) between characterization runs."""
        self.heating.reset()

"""The tester itself: the single gateway between algorithms and silicon.

:class:`ATE` owns the device under test plus the tester resources (timing
generator, pattern memory, measurement electronics, datalog) and exposes the
one operation everything else is built from:

    ``apply(test, strobe_ns) -> bool``

which loads the pattern, programs the output strobe, runs the pattern at the
test's operating point and returns the pass/fail decision — charging one
measurement to the budget.  Trip-point searches, shmoo sweeps, NN supervision
and GA fitness evaluation all reduce to sequences of ``apply`` calls, exactly
as on the industrial testers of refs [1-7].
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ate.datalog import Datalog
from repro.ate.measurement import MeasurementModel
from repro.ate.pattern_memory import PatternMemory
from repro.ate.timing_generator import TimingGenerator
from repro.device.memory_chip import FunctionalResult, MemoryTestChip
from repro.device.parameters import T_DQ_PARAMETER, DeviceParameter, SpecDirection
from repro.device.process import NOMINAL_DIE, ProcessInstance
from repro.obs.events import event
from repro.obs.runtime import OBS
from repro.patterns.testcase import TestCase


class ATE:
    """Automatic test equipment driving one :class:`MemoryTestChip`.

    Parameters
    ----------
    chip:
        The device under test.
    timing_generator:
        Strobe edge source (quantization + programmable range); a
        default-configured one is created when omitted.
    measurement:
        Compare-electronics noise model; a default 40 ps-sigma model is
        created when omitted.
    datalog:
        Measurement log; created when omitted.
    pattern_memory:
        Vector memory with load-cost accounting; created when omitted.
    """

    def __init__(
        self,
        chip: MemoryTestChip,
        timing_generator: Optional[TimingGenerator] = None,
        measurement: Optional[MeasurementModel] = None,
        datalog: Optional[Datalog] = None,
        pattern_memory: Optional[PatternMemory] = None,
    ) -> None:
        self.chip = chip
        self.timing_generator = (
            timing_generator if timing_generator is not None else TimingGenerator()
        )
        self.measurement = measurement if measurement is not None else MeasurementModel()
        self.datalog = datalog if datalog is not None else Datalog()
        self.pattern_memory = (
            pattern_memory if pattern_memory is not None else PatternMemory()
        )
        self._measurement_count = 0
        self._functional_count = 0
        self._executed_cycles = 0

    @classmethod
    def fresh_insertion(
        cls,
        die: ProcessInstance = NOMINAL_DIE,
        parameter: DeviceParameter = T_DQ_PARAMETER,
        *,
        noise_sigma: float,
        seed: int,
    ) -> "ATE":
        """A tester holding a newly inserted chip of ``die``.

        A new chip is already cool with a cleared array, and the noise
        stream starts from ``seed``: every farm unit and every one-call
        setup starts its session here.
        """
        chip = MemoryTestChip(die=die, parameter=parameter)
        return cls(chip, measurement=MeasurementModel(noise_sigma, seed=seed))

    # -- cost accounting -------------------------------------------------------
    @property
    def measurement_count(self) -> int:
        """Pattern applications with a strobed parametric decision so far."""
        return self._measurement_count

    @property
    def functional_count(self) -> int:
        """Plain functional applications (no strobe sweep) so far."""
        return self._functional_count

    @property
    def executed_cycles_total(self) -> int:
        """Vector cycles actually run on the device so far."""
        return self._executed_cycles

    def reset_counters(self) -> None:
        """Zero the cost counters (start of a comparative experiment)."""
        self._measurement_count = 0
        self._functional_count = 0
        self._executed_cycles = 0

    def new_insertion(self, noise_seed: int = 0) -> None:
        """Simulate removing and re-inserting the device.

        Cools the die, clears the array, restarts the measurement-noise
        stream.  Counters and datalog are preserved — they belong to the
        characterization session, not the insertion.
        """
        self.chip.reset_state()
        self.measurement.reseed(noise_seed)

    # -- the one true operation ---------------------------------------------------
    def apply(self, test: TestCase, strobe_ns: float) -> bool:
        """Apply ``test`` with the compare level at ``strobe_ns``; pass/fail.

        For a min-limited AC parameter (``T_DQ``) the level is an output
        strobe: the device passes while the strobe still falls inside the
        valid window (``strobe <= value``).  For a max-limited parameter
        (peak supply current) the level is a PMU clamp: the device passes
        while its draw stays below the clamp (``value <= level``).  Either
        way the request is quantized to the tester grid, and a functional
        failure of the pattern fails the measurement regardless of level,
        mirroring a real compare-on-the-fly tester.
        """
        strobe_q = self.timing_generator.quantize(strobe_ns)
        self.pattern_memory.load(test.sequence)

        functional = self.chip.run_functional(test.sequence)
        if functional.passed:
            true_value = self.chip.true_parameter_value(test)
            observed = self.measurement.observed_value(true_value)
            if self.chip.parameter.direction is SpecDirection.MIN_IS_WORST:
                passed = strobe_q <= observed
            else:
                passed = observed <= strobe_q
        else:
            passed = False

        self._measurement_count += 1
        self._executed_cycles += len(test.sequence)
        test_name = test.name or test.sequence.name or "unnamed"
        condition = test.condition
        self.datalog.log_measurement(
            self._measurement_count,
            test_name,
            condition.vdd,
            condition.temperature,
            condition.clock_period,
            strobe_q,
            passed,
        )
        if OBS.enabled:
            OBS.metrics.counter("ate.measurements").inc(label=test_name)
            OBS.metrics.counter("ate.executed_cycles").inc(len(test.sequence))
            OBS.bus.emit(
                event(
                    "measurement",
                    index=self._measurement_count,
                    test_name=test_name,
                    strobe_ns=strobe_q,
                    passed=passed,
                )
            )
        return passed

    def apply_batch(self, test: TestCase, strobes_ns) -> np.ndarray:
        """Apply ``test`` once per strobe level; vectorized pass/fail.

        Element ``k`` of the result is bit-identical to the ``k``-th of
        ``len(strobes_ns)`` sequential :meth:`apply` calls with the same
        levels: quantization, self-heating drift, the measurement-noise
        stream, counters, and datalog records all advance exactly as the
        scalar loop's would (see ``docs/performance.md`` for the contract).
        The pattern is loaded and functionally evaluated once per batch —
        the amortization that makes grid sweeps cheap — and a functional
        failure fails every element without consuming noise draws, just
        like the scalar early-out.
        """
        strobes = np.asarray(strobes_ns, dtype=float)
        if strobes.ndim != 1:
            raise ValueError("strobes must be a one-dimensional batch")
        n = strobes.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        strobes_q = self.timing_generator.quantize_many(strobes)
        self.pattern_memory.load(test.sequence)

        functional = self.chip.run_functional(test.sequence)
        if functional.passed:
            true_values = self.chip.true_parameter_values(test, n)
            observed = self.measurement.observed_values(true_values)
            if self.chip.parameter.direction is SpecDirection.MIN_IS_WORST:
                passed = strobes_q <= observed
            else:
                passed = observed <= strobes_q
        else:
            passed = np.zeros(n, dtype=bool)

        base_index = self._measurement_count
        self._measurement_count += n
        self._executed_cycles += len(test.sequence) * n
        test_name = test.name or test.sequence.name or "unnamed"
        condition = test.condition
        self.datalog.log_batch(
            base_index + 1,
            test_name,
            condition.vdd,
            condition.temperature,
            condition.clock_period,
            strobes_q,
            passed,
        )
        if OBS.enabled:
            OBS.metrics.counter("ate.measurements").inc(n, label=test_name)
            OBS.metrics.counter("ate.executed_cycles").inc(len(test.sequence) * n)
            for k, (strobe, ok) in enumerate(
                zip(strobes_q.tolist(), passed.tolist()), start=1
            ):
                OBS.bus.emit(
                    event(
                        "measurement",
                        index=base_index + k,
                        test_name=test_name,
                        strobe_ns=strobe,
                        passed=ok,
                    )
                )
        return passed

    def functional_test(self, test: TestCase) -> FunctionalResult:
        """Run ``test`` functionally (production-style go/no-go, no strobe)."""
        self.pattern_memory.load(test.sequence)
        self._functional_count += 1
        self._executed_cycles += len(test.sequence)
        if OBS.enabled:
            OBS.metrics.counter("ate.functional_tests").inc()
            OBS.metrics.counter("ate.executed_cycles").inc(len(test.sequence))
        return self.chip.run_functional(test.sequence)

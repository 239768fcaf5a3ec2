"""The per-probe memo lookups, kept as the newest-entry shortcut's reference.

``ReferencePatternMemory.load`` and ``ReferenceChip.run_functional`` /
``ReferenceChip._parametric_static`` are those lookups as they ran before
each kept a reference to its newest entry: every call hashes its key, pops
the entry and re-inserts it as the newest.  Driven with the same objects, a
tester built on them must leave every counter, resident order, memo key
order, datalog row and noise draw exactly where the shortcut leaves them.
"""

from repro.ate.pattern_memory import PatternMemory
from repro.device.memory_chip import FunctionalResult, MemoryTestChip, _remember
from repro.patterns.vectors import Operation


class ReferencePatternMemory(PatternMemory):
    def load(self, sequence):
        if len(sequence) > self.capacity_cycles:
            raise ValueError(
                f"sequence of {len(sequence)} cycles exceeds pattern memory "
                f"capacity of {self.capacity_cycles}"
            )
        cycles = self._resident.pop(sequence, None)
        if cycles is not None:
            self._resident[sequence] = cycles
            self.hit_count += 1
            return False
        cycles = len(sequence)
        while self._used_cycles + cycles > self.capacity_cycles:
            self._used_cycles -= self._resident.popitem(last=False)[1]
        self._resident[sequence] = cycles
        self._used_cycles += cycles
        self.load_count += 1
        self.loaded_cycles_total += cycles
        return True


class ReferenceChip(MemoryTestChip):
    def run_functional(self, sequence):
        result = self._functional_cache.pop(sequence, None)
        if result is None:
            if self._array.faults:
                result = self._simulate(sequence)
            else:
                result = FunctionalResult(
                    cycles=len(sequence), reads=sequence.count(Operation.READ),
                    mismatches=(),
                )
        _remember(self._functional_cache, sequence, result)
        return result

    def _parametric_static(self, test):
        key = (test.sequence, test.condition)
        cached = self._static_cache.pop(key, None)
        if cached is None:
            features = self.features_of(test.sequence)
            if self.parameter.name == "idd_peak":
                static = self.timing.idd_peak_ma(features, test.condition)
                activity = 0.0
            else:
                static = self.timing.static_t_dq_ns(features, test.condition, self.die)
                activity = features["peak_window_activity"]
            cached = (static, activity)
        _remember(self._static_cache, key, cached)
        return cached

"""Tester pattern memory with load-cost accounting.

Loading a pattern into tester vector memory is not free on real ATE; a
characterization loop that swaps patterns every measurement pays for it.
:class:`PatternMemory` models a finite vector memory with LRU eviction and
counts both loads and the vector-cycles transferred, so benchmarks can report
the full cost picture (measurements *and* pattern traffic).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.patterns.vectors import VectorSequence


class PatternMemory:
    """Finite LRU vector memory.

    Residency is by content: tester vector memory holds vectors, not
    Python objects, so loading a sequence equal to a resident one (a
    renamed copy, a pickle round-trip, a regenerated test) is a hit.

    Parameters
    ----------
    capacity_cycles:
        Total vector cycles the memory can hold.  The default comfortably
        holds many paper-sized (100-1000 cycle) sequences, so eviction only
        matters for stress tests.
    """

    def __init__(self, capacity_cycles: int = 65536) -> None:
        if capacity_cycles < 1:
            raise ValueError("capacity must be positive")
        self.capacity_cycles = capacity_cycles
        # Resident sequences and their cycle counts, oldest first.
        self._resident: "OrderedDict[VectorSequence, int]" = OrderedDict()
        # The key object of the newest resident entry: the sequence the
        # last load was asked for, or None after a clear.
        self._newest: Optional[VectorSequence] = None
        self._used_cycles = 0
        self.load_count = 0
        self.loaded_cycles_total = 0
        self.hit_count = 0

    @property
    def used_cycles(self) -> int:
        """Vector cycles currently resident."""
        return self._used_cycles

    @property
    def resident_count(self) -> int:
        """Number of resident sequences."""
        return len(self._resident)

    def is_resident(self, sequence: VectorSequence) -> bool:
        """True if the sequence's vectors are already loaded."""
        return sequence in self._resident

    def load(self, sequence: VectorSequence) -> bool:
        """Ensure ``sequence`` is resident.

        Returns True when a (costed) load was performed, False on a hit.

        Raises
        ------
        ValueError
            If the sequence alone exceeds the memory capacity.
        """
        if len(sequence) > self.capacity_cycles:
            raise ValueError(
                f"sequence of {len(sequence)} cycles exceeds pattern memory "
                f"capacity of {self.capacity_cycles}"
            )
        if sequence is self._newest:
            # Already the newest entry, keyed by this very object: the
            # pop-and-re-insert below would leave everything as it is.
            self.hit_count += 1
            return False
        self._newest = sequence
        cycles = self._resident.pop(sequence, None)
        if cycles is not None:
            # Back in as the newest entry, keyed by the object that asked.
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

    def clear(self) -> None:
        """Flush the memory (does not reset the cost counters)."""
        self._resident.clear()
        self._newest = None
        self._used_cycles = 0

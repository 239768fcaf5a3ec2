"""``run_functional`` against the per-cycle reference simulation.

The reference is how the functional face was written before it read
columns: apply every :class:`TestVector` to a faulty and a golden array,
counting reads and recording miscompares.  A fault-free die now answers
without simulating (its array *is* the golden model); a die with faults
still simulates.  Both must give the reference's result.
"""

import pytest

from repro.device.faults import CouplingFault, StuckAtFault, TransitionFault
from repro.device.memory_chip import FunctionalResult, MemoryTestChip, _MemoryArray
from repro.patterns.march import compile_march, get_march_test
from repro.patterns.random_gen import STYLES, RandomTestGenerator
from repro.patterns.vectors import Operation


def reference_run_functional(sequence, faults, addr_bits=10, data_bits=8):
    array = _MemoryArray(1 << addr_bits, data_bits, faults)
    golden = _MemoryArray(1 << addr_bits, data_bits, ())
    mismatches = []
    reads = 0
    for cycle, vector in enumerate(sequence):
        if vector.op is Operation.WRITE:
            array.write(vector.address, vector.data)
            golden.write(vector.address, vector.data)
        elif vector.op is Operation.READ:
            reads += 1
            observed = array.read(vector.address)
            expected = golden.read(vector.address)
            if observed != expected:
                mismatches.append((cycle, vector.address, expected, observed))
    return FunctionalResult(len(sequence), reads, tuple(mismatches))


def _sequences():
    generator = RandomTestGenerator(seed=21)
    for name, _ in STYLES:
        for _ in range(4):
            yield generator.generate(style=name).sequence
    for _ in range(20):
        yield generator.generate().sequence
    yield compile_march(get_march_test("march_c-"))


FAULT_SETS = {
    "saf": [StuckAtFault(word=3, bit=0, stuck_value=1),
            StuckAtFault(word=513, bit=7, stuck_value=0)],
    "tf": [TransitionFault(word=5, bit=2, rising=True),
           TransitionFault(word=900, bit=0, rising=False)],
    "cf": [CouplingFault(aggressor_word=1, aggressor_bit=0, victim_word=2,
                         victim_bit=0, invert_victim=True),
           CouplingFault(aggressor_word=700, aggressor_bit=3, victim_word=701,
                         victim_bit=3, trigger_rising=False, forced_value=0)],
}


def test_fault_free_die_matches_reference_simulation():
    chip = MemoryTestChip()
    for sequence in _sequences():
        assert chip.run_functional(sequence) == reference_run_functional(sequence, ())


@pytest.mark.parametrize("kind", sorted(FAULT_SETS))
def test_faulty_die_mismatches_unchanged(kind):
    faults = FAULT_SETS[kind]
    chip = MemoryTestChip(faults=faults)
    failing = 0
    for sequence in _sequences():
        result = chip.run_functional(sequence)
        assert result == reference_run_functional(sequence, faults)
        failing += not result.passed
    # The fault sets are chosen so the comparison covers miscompares too.
    assert failing

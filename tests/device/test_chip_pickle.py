"""Multiprocessing-readiness of the device model.

Farm workers receive chips (or the process instances to build them from)
via pickle; a chip that drags its memos or hidden tester state across the
boundary would silently decouple parallel results from serial ones.  These
are the regression tests for that contract.
"""

import pickle

import pytest

from repro.device.faults import StuckAtFault
from repro.device.memory_chip import MemoryTestChip
from repro.device.process import ProcessModel
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator


@pytest.fixture
def test_case():
    generator = RandomTestGenerator(seed=17)
    return generator.batch(1)[0].with_condition(NOMINAL_CONDITION)


class TestChipPickle:
    def test_round_trip_preserves_true_parameter_value(self, test_case):
        chip = MemoryTestChip()
        before = chip.true_parameter_value(test_case, account_heating=False)
        clone = pickle.loads(pickle.dumps(chip))
        after = clone.true_parameter_value(test_case, account_heating=False)
        assert after == before

    def test_round_trip_after_use_matches_fresh_insertion(self, test_case):
        # A used chip (warm, populated caches) shipped to a worker and
        # reset must behave like a fresh insertion of the same die.
        chip = MemoryTestChip()
        for _ in range(5):
            chip.true_parameter_value(test_case)  # self-heats the die
        clone = pickle.loads(pickle.dumps(chip))
        clone.reset_state()
        fresh = MemoryTestChip(die=chip.die)
        assert clone.true_parameter_value(
            test_case, account_heating=False
        ) == fresh.true_parameter_value(test_case, account_heating=False)

    def test_caches_dropped_not_poisoned(self, test_case):
        chip = MemoryTestChip()
        chip.run_functional(test_case.sequence)
        chip.features_of(test_case.sequence)
        clone = pickle.loads(pickle.dumps(chip))
        # The clone starts with empty memos and re-derives identical
        # results.  Features are memoized on the sequence, not on the chip.
        assert clone._functional_cache == {}
        assert clone.features_of(test_case.sequence) is chip.features_of(
            test_case.sequence
        )
        assert clone.run_functional(test_case.sequence) == chip.run_functional(
            test_case.sequence
        )

    def test_faulty_chip_round_trips(self, test_case):
        chip = MemoryTestChip(
            faults=[StuckAtFault(word=3, bit=1, stuck_value=0)]
        )
        before = chip.run_functional(test_case.sequence)
        clone = pickle.loads(pickle.dumps(chip))
        assert clone.run_functional(test_case.sequence) == before

    def test_process_instance_pickles(self):
        die = ProcessModel(seed=4).sample_lot(1)[0]
        assert pickle.loads(pickle.dumps(die)) == die

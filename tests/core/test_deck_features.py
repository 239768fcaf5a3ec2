"""Features travel with the deck.

Activity features depend on the pattern alone, so a producer that ships one
deck to many work units (a lot's dies, a wafer's sites, a farmed sweep's
cells) extracts them once in the parent.  The memos ride in each unit's
pickle, and a worker never runs the feature kernel: every unit here is
round-tripped through ``pickle`` and run with the kernel patched to raise,
and must give the outcome of a plain serial run.
"""

import json
import pickle

import numpy as np
import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.lot import EnvironmentalSweep, LotCharacterizer
from repro.core.wafer_probe import WaferProber
from repro.core.wcr import wcr_screen_units
from repro.device.memory_chip import MemoryTestChip
from repro.device.parameters import T_DQ_PARAMETER
from repro.device.process import ProcessModel
from repro.device.wafer import RadialVariationModel, Wafer
from repro.farm.executor import ParallelExecutor, SerialExecutor
from repro.patterns import features as features_module
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator


def _deck(count=5, seed=61):
    """A fresh deck: no sequence has extracted its features yet."""
    generator = RandomTestGenerator(seed=seed)
    deck = [t.with_condition(NOMINAL_CONDITION) for t in generator.batch(count)]
    assert all(test.sequence.features_memo is None for test in deck)
    return deck


def _kernel_refused(sequences):
    raise AssertionError("a worker ran the feature kernel")


class _PickledUnitsWithoutKernel:
    """Serial farm backend that runs each unit as a worker would receive
    it (a pickle round trip) with the feature kernel switched off."""

    name = "serial"

    def __init__(self):
        self.units = []

    def run(self, units, runner, **kwargs):
        self.units = [pickle.loads(pickle.dumps(unit)) for unit in units]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features_module, "_segment_features", _kernel_refused)
            return SerialExecutor().run(self.units, runner, **kwargs)


def _lot():
    return LotCharacterizer(search_range=(15.0, 45.0), noise_sigma=0.02, seed=3)


def _prober():
    return WaferProber(
        Wafer(grid_diameter=3),
        RadialVariationModel(seed=2),
        search_range=(15.0, 45.0),
        noise_sigma=0.02,
        seed=1,
    )


def _sweep():
    chip = MemoryTestChip()
    ate = ATE(chip, measurement=MeasurementModel(0.02, seed=11))
    return EnvironmentalSweep(ate, (15.0, 45.0), seed=5)


def test_lot_die_units_carry_the_deck_features():
    farm = _PickledUnitsWithoutKernel()
    shipped = _lot().run(_deck(), n_dies=3, executor=farm)
    assert shipped.dies == _lot().run(_deck(), n_dies=3).dies
    assert len(farm.units) == 3
    for unit in farm.units:
        assert all(t.sequence.features_memo is not None for t in unit.payload["tests"])


def test_wafer_site_units_carry_the_deck_features():
    farm = _PickledUnitsWithoutKernel()
    shipped = _prober().probe(_deck(3), executor=farm)
    reference = _prober().probe(_deck(3))
    assert list(shipped.results.items()) == list(reference.results.items())
    assert len(farm.units) == len(reference.results) > 1


def test_farmed_sweep_cells_carry_the_test_features():
    test, vdds, temps = _deck(1)[0], (1.5, 1.8), (25.0, 85.0)
    farm = _PickledUnitsWithoutKernel()
    shipped = _sweep().sweep(test, vdds, temps, executor=farm)
    reference = _sweep().sweep(_deck(1)[0], vdds, temps, executor=SerialExecutor())
    assert np.array_equal(shipped.trip_points, reference.trip_points, equal_nan=True)
    assert shipped.measurements == reference.measurements
    assert len(farm.units) == len(vdds) * len(temps)


def test_wcr_screen_chunks_are_not_pre_extracted():
    # Each test goes to exactly one chunk, so its worker extracts it.
    deck = _deck(6)
    units = wcr_screen_units(
        deck, 20.0, 40.0, 1.0, ProcessModel(seed=0).sample_lot(1)[0],
        T_DQ_PARAMETER, 0.0, chunk_size=2,
    )
    for unit in pickle.loads(pickle.dumps(units)):
        assert all(t.sequence.features_memo is None for t in unit.payload["tests"])
    assert all(test.sequence.features_memo is None for test in deck)


def _lot_export(executor):
    deck = _deck(4, seed=7)
    report = _lot().run(deck, n_dies=8, executor=executor)
    return json.dumps(
        report.to_database(deck).export_payload(), indent=2, sort_keys=True
    )


def test_eight_die_export_is_byte_identical_serial_and_two_workers():
    assert _lot_export(SerialExecutor()) == _lot_export(ParallelExecutor(workers=2))

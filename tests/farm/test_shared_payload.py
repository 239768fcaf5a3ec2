"""A payload value many units share crosses to each pool worker once.

A lot's deck is the same object in every die unit.  ``ParallelExecutor``
hoists it (and any other shared non-scalar payload value) into a table
its pool workers receive once, so each dispatched unit carries only a
placeholder.  These tests pin the size of what is dispatched, that the
hoist changes no result under ``fork`` or ``spawn``, and that retries,
recycled pools and pilot runs still see complete units.
"""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.lot import EnvironmentalSweep, LotCharacterizer
from repro.core.wafer_probe import WaferProber
from repro.device.memory_chip import MemoryTestChip
from repro.device.wafer import RadialVariationModel, Wafer
from repro.farm.executor import (
    ParallelExecutor,
    SerialExecutor,
    _SharedRef,
    hoist_shared,
)
from repro.farm.workunit import WorkUnit
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

from tests.farm.runners import echo_runner, stall_once_runner

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Upper bound on one dispatched die unit of a 100-test lot.  The deck
#: alone pickles to about 0.9 MB; the rest of a unit is about 0.5 kB.
UNIT_BYTES_BOUND = 1024


def _deck(count, seed=37):
    return [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=seed).batch(count)
    ]


def _lot():
    return LotCharacterizer(search_range=(15.0, 45.0), seed=37)


def _lot_export(executor, dies=3, tests=4, **kwargs):
    deck = _deck(tests)
    report = _lot().run(deck, n_dies=dies, executor=executor, **kwargs)
    return json.dumps(
        report.to_database(deck).export_payload(), indent=2, sort_keys=True
    )


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """Process pool that keeps every unit it is handed."""

    dispatched = []

    def submit(self, fn, *args, **kwargs):
        self.dispatched.append(args[1])
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.dispatched = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _RecordingPool
    )
    return _RecordingPool


def test_a_dispatched_die_unit_of_a_100_test_lot_is_small(recording_pool):
    deck = _deck(100)
    report = _lot().run(deck, n_dies=2, executor=ParallelExecutor(workers=2))
    assert report.dies == _lot().run(deck, n_dies=2).dies
    sizes = [len(pickle.dumps(unit)) for unit in recording_pool.dispatched]
    assert len(sizes) == 2
    assert max(sizes) < UNIT_BYTES_BOUND


def test_a_unit_with_nothing_shared_is_submitted_unchanged(recording_pool):
    units = [
        WorkUnit(key=f"u/{i}", kind="k", payload={"n": i, "name": "same"},
                 index=i)
        for i in range(3)
    ]
    table, stubs = hoist_shared(units)
    assert table == ()
    assert all(stub is unit for stub, unit in zip(stubs, units))
    ParallelExecutor(workers=1).run(units, echo_runner)
    dispatched = recording_pool.dispatched
    assert sorted(map(id, dispatched)) == sorted(map(id, units))


def test_hoist_keeps_unshared_values_and_one_slot_per_object():
    deck, die_a, die_b = ("t1", "t2"), ["a"], ["b"]
    units = [
        WorkUnit(key="u/a", kind="k", payload={"die": die_a, "tests": deck}),
        WorkUnit(key="u/b", kind="k", payload={"die": die_b, "tests": deck}),
    ]
    table, stubs = hoist_shared(units)
    assert table == (deck,)
    assert [stub.payload["die"] for stub in stubs] == [die_a, die_b]
    assert [list(stub.payload) for stub in stubs] == [["die", "tests"]] * 2
    assert all(stub.payload["tests"] is not deck for stub in stubs)


def test_lot_export_is_byte_identical_serial_and_two_workers():
    assert _lot_export(SerialExecutor()) == _lot_export(
        ParallelExecutor(workers=2)
    )


def test_pilot_run_matches_serial():
    assert _lot_export(SerialExecutor(), rtp_broadcast=True) == _lot_export(
        ParallelExecutor(workers=2), rtp_broadcast=True
    )


def test_wafer_probe_is_identical_serial_and_two_workers():
    def probe(executor):
        prober = WaferProber(
            Wafer(grid_diameter=5), RadialVariationModel(seed=3),
            search_range=(15.0, 45.0), seed=3,
        )
        report = prober.probe(_deck(3, seed=3), executor=executor)
        return list(report.results.items()), report.render_map()

    serial = probe(SerialExecutor())
    assert len(serial[0]) > 1
    assert probe(ParallelExecutor(workers=2)) == serial


def test_farmed_sweep_is_identical_serial_and_two_workers(recording_pool):
    def sweep(executor):
        ate = ATE(MemoryTestChip(), measurement=MeasurementModel(0.02, seed=11))
        result = EnvironmentalSweep(ate, (15.0, 45.0), seed=5).sweep(
            _deck(1, seed=5)[0], (1.5, 1.8), (25.0, 85.0), executor=executor
        )
        return result.trip_points.tobytes(), result.measurements

    assert sweep(ParallelExecutor(workers=2)) == sweep(SerialExecutor())
    # Pilot first, then three cells that share one test object.
    cells = recording_pool.dispatched[1:]
    assert len(cells) == 3
    assert all(isinstance(cell.payload["test"], _SharedRef) for cell in cells)


def test_a_recycled_pool_still_resolves_shared_values(tmp_path):
    shared = {"deck": list(range(50))}
    units = [
        WorkUnit(
            key=f"u/{i}", kind="k", index=i,
            payload={"marker": str(tmp_path / "stalled"), "shared": shared},
        )
        for i in range(2)
    ]
    results = ParallelExecutor(workers=1, timeout_s=1.0).run(
        units, stall_once_runner
    )
    assert [result.value for result in results] == [shared, shared]
    assert max(result.attempts for result in results) == 2


SPAWN_SCRIPT = """
import json
import multiprocessing

from repro.core.lot import LotCharacterizer
from repro.farm.executor import ParallelExecutor, SerialExecutor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator


def export(executor):
    deck = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=37).batch(4)
    ]
    lot = LotCharacterizer(search_range=(15.0, 45.0), seed=37)
    report = lot.run(deck, n_dies=3, executor=executor)
    return json.dumps(report.to_database(deck).export_payload(), sort_keys=True)


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    same = export(SerialExecutor()) == export(ParallelExecutor(workers=2))
    print(json.dumps({"method": multiprocessing.get_start_method(),
                      "identical": same}))
"""


def test_lot_export_is_identical_under_spawn(tmp_path):
    script = tmp_path / "spawn_lot.py"
    script.write_text(SPAWN_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "method": "spawn", "identical": True,
    }

"""A pool worker gets its batch once; a dispatch sends an index.

A lot's deck is the same object in every die unit.  ``ParallelExecutor``
hands the whole batch to its pool's initializer, so a worker inherits it
under ``fork`` and unpickles it once under ``spawn`` or ``forkserver``
(pickle's memo sends the shared deck once), and each submit carries only
the unit's index.  These tests pin the size of what is submitted, that
results are unchanged under every start method, that a worker detaches
its inherited telemetry once, and that retries, recycled pools and pilot
runs still see complete units.
"""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.lot import EnvironmentalSweep, LotCharacterizer
from repro.core.wafer_probe import WaferProber
from repro.device.memory_chip import MemoryTestChip
from repro.device.wafer import RadialVariationModel, Wafer
from repro.farm.executor import ParallelExecutor, SerialExecutor
from repro.farm.workunit import WorkUnit
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

from tests.farm.runners import (
    bus_tenure_runner,
    echo_runner,
    stall_once_runner,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Upper bound on the pickled arguments of one pool submit.  A die unit's
#: deck of 100 tests alone pickles to about 0.9 MB.
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
    """Process pool that keeps its initializer's and each submit's
    arguments."""

    initargs = []
    submitted = []

    def __init__(self, *args, initargs=(), **kwargs):
        self.initargs.append(initargs)
        super().__init__(*args, initargs=initargs, **kwargs)

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(args)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.initargs = []
    _RecordingPool.submitted = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _RecordingPool
    )
    return _RecordingPool


def test_a_dispatched_die_unit_of_a_100_test_lot_is_small(recording_pool):
    deck = _deck(100)
    report = _lot().run(deck, n_dies=2, executor=ParallelExecutor(workers=2))
    assert report.dies == _lot().run(deck, n_dies=2).dies
    sizes = [len(pickle.dumps(args)) for args in recording_pool.submitted]
    assert len(sizes) == 2
    assert max(sizes) < UNIT_BYTES_BOUND


def test_a_submit_names_its_unit_by_index_into_the_batch(recording_pool):
    units = [
        WorkUnit(key=f"u/{i}", kind="k", payload={"n": i}, index=i)
        for i in range(3)
    ]
    results = ParallelExecutor(workers=1).run(units, echo_runner)
    assert [result.value["key"] for result in results] == ["u/0", "u/1", "u/2"]
    ((batch,),) = recording_pool.initargs
    assert sorted(map(id, batch)) == sorted(map(id, units))
    indices = [args[1] for args in recording_pool.submitted]
    assert sorted(indices) == [0, 1, 2]


def test_a_pool_worker_detaches_its_switchboard_once():
    units = [WorkUnit(key=f"u/{i}", kind="k", index=i) for i in range(3)]
    results = ParallelExecutor(workers=1).run(units, bus_tenure_runner)
    assert sorted(result.value for result in results) == [1, 2, 3]


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
    # Pilot first, then a batch of three cells that share one test object
    # and are each submitted as an index.
    (pilot,), (cells,) = recording_pool.initargs
    assert len(pilot) == 1 and len(cells) == 3
    assert len({id(cell.payload["test"]) for cell in cells}) == 1
    sizes = [len(pickle.dumps(args)) for args in recording_pool.submitted]
    assert len(sizes) == 4
    assert max(sizes) < UNIT_BYTES_BOUND


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


START_METHOD_SCRIPT = """
import json
import multiprocessing
import sys

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
    multiprocessing.set_start_method(sys.argv[1])
    same = export(SerialExecutor()) == export(ParallelExecutor(workers=2))
    print(json.dumps({"method": multiprocessing.get_start_method(),
                      "identical": same}))
"""


def _assert_lot_export_identical_under(method, tmp_path):
    """Under ``method`` each pool worker unpickles the batch itself."""
    script = tmp_path / "start_method_lot.py"
    script.write_text(START_METHOD_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script), method], capture_output=True,
        text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "method": method, "identical": True,
    }


def test_lot_export_is_identical_under_spawn(tmp_path):
    _assert_lot_export_identical_under("spawn", tmp_path)


def test_lot_export_is_identical_under_forkserver(tmp_path):
    _assert_lot_export_identical_under("forkserver", tmp_path)

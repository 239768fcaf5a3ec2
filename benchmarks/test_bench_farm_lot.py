"""FARM — tester-farm scaling of a lot characterization.

The paper's measurement-time argument applied at lot level: a 16-die lot
sharded one die per work unit runs on a farm of worker processes.  The
benchmark records the serial-vs-4-worker wall clock and proves the farm
contract — the parallel run's worst-case database is byte-identical to
the serial run's.

The wall-clock ratio is only meaningful relative to the recorded CPU
count: on a single-core host the workers timeshare one core and the farm
*loses* by the unit (de)serialization overhead, which is exactly the
honest number to record.  ``make_executor`` sizes the pool to the CPUs
available, so the record also keeps the pool size and the speedup per CPU
the pool could use (``efficiency_per_cpu``; 1.0 is perfect scaling).

It also records what one die unit costs to dispatch: the pickled bytes of
each pool submit (the unit's index into the batch, not the unit), of one
die unit with its deck inline, and of the batch a pool worker receives
once (inherited for free under ``fork``).
"""

import concurrent.futures
import pickle
import time

import pytest

from benchmarks.conftest import SEARCH_RANGE, host_cpus
from repro.core.lot import LotCharacterizer
from repro.farm.executor import ParallelExecutor, make_executor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

N_DIES = 16
N_TESTS = 100


def make_tests():
    return [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=37).batch(N_TESTS)
    ]


def run_lot(tests, executor, n_dies=N_DIES):
    lot = LotCharacterizer(search_range=SEARCH_RANGE, seed=37)
    return lot.run(tests, n_dies=n_dies, executor=executor)


def dispatch_bytes(tests, monkeypatch):
    """Pickled bytes a 2-die lot hands its process pool.

    Returns the largest submit's arguments, one die unit with its deck
    inline, and the batch each pool worker receives once.
    """
    sent = {"submits": [], "batch": 0}

    class MeteredPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, initargs=(), **kwargs):
            sent["batch"] = len(pickle.dumps(initargs))
            super().__init__(*args, initargs=initargs, **kwargs)

        def submit(self, fn, *args, **kwargs):
            sent["submits"].append(len(pickle.dumps(args)))
            return super().submit(fn, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", MeteredPool)
        run_lot(tests, ParallelExecutor(workers=2), n_dies=2)
    lot = LotCharacterizer(search_range=SEARCH_RANGE, seed=37)
    die = lot.process.sample_lot(1)[0]
    inline = lot.die_unit(die, tests)
    return max(sent["submits"]), len(pickle.dumps(inline)), sent["batch"]


@pytest.mark.benchmark(group="farm")
def test_farm_lot_serial_vs_4_workers(
    benchmark, report_sink, tmp_path, monkeypatch
):
    tests = make_tests()

    start = time.perf_counter()
    serial = run_lot(tests, make_executor(workers=1))
    serial_s = time.perf_counter() - start

    farm = make_executor(workers=4)
    start = time.perf_counter()
    parallel = benchmark.pedantic(
        run_lot, args=(tests, farm), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - start

    assert serial.dies == parallel.dies

    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    serial.to_database(tests).export_json(serial_path)
    parallel.to_database(tests).export_json(parallel_path)
    assert serial_path.read_bytes() == parallel_path.read_bytes()

    cpus = host_cpus()
    speedup = serial_s / parallel_s
    efficiency = speedup / min(farm.workers, cpus)
    measurements = sum(d.measurements for d in serial.dies)
    submit_bytes, inline_bytes, batch_bytes = dispatch_bytes(
        tests, monkeypatch
    )
    report_sink.json(
        dies=N_DIES,
        tests=N_TESTS,
        measurements=measurements,
        serial_wall_s=round(serial_s, 6),
        parallel_wall_s=round(parallel_s, 6),
        workers_requested=4,
        workers=farm.workers,
        speedup=round(speedup, 4),
        efficiency_per_cpu=round(efficiency, 4),
        identical_databases=True,
        submit_bytes=submit_bytes,
        unit_bytes_inline=inline_bytes,
        batch_bytes_per_worker=batch_bytes,
    )
    report_sink(
        f"farm — {N_DIES}-die lot x {N_TESTS} tests "
        f"({measurements} tester measurements, host CPUs: {cpus}):"
    )
    report_sink(f"  serial (1 worker)   {serial_s:6.2f} s wall clock")
    report_sink(
        f"  farm   ({farm.workers} of 4 workers) {parallel_s:6.2f} s wall clock "
        f"({speedup:4.2f}x speedup, {efficiency:4.2f} per CPU)"
    )
    report_sink(
        "  worst-case database export: byte-identical serial vs parallel"
    )
    report_sink(
        f"  pool submit {submit_bytes:,} B (die unit with its deck inline: "
        f"{inline_bytes:,} B); batch {batch_bytes:,} B once per worker"
    )
    if cpus < 2:
        report_sink(
            "  note: single-CPU host — workers timeshare one core, so the"
        )
        report_sink(
            "  farm pays (de)serialization overhead with no parallelism to"
        )
        report_sink(
            "  recover it; the determinism guarantee is the result here."
        )

"""Tests for the serial and parallel farm executors."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.farm import executor as executor_module
from repro.farm.checkpoint import CheckpointStore
from repro.farm.executor import (
    FarmExecutionError,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.farm.workunit import WorkUnit
from repro.obs import OBS, RingBufferSink, event

from tests.farm.runners import (
    crashing_runner,
    echo_runner,
    failing_runner,
    flaky_runner,
    forbidden_key_runner,
    rtp_runner,
    sleeping_runner,
)


def _units(count, **payload):
    return [
        WorkUnit(
            key=f"unit/{i:03d}", kind="test_kind", payload=dict(payload),
            seed=1000 + i, index=i, cost_hint=float(count - i),
        )
        for i in range(count)
    ]


@pytest.fixture
def host_cpus(monkeypatch):
    """Pin the CPU count ``make_executor`` sizes process pools against."""

    def pin(cpus):
        monkeypatch.setattr(executor_module, "available_cpus", lambda: cpus)

    return pin


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(workers=1), SerialExecutor)

    def test_workers_beyond_one_is_parallel(self, host_cpus):
        host_cpus(4)
        executor = make_executor(workers=3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_pool_clamped_to_available_cpus_with_an_event(self, host_cpus):
        host_cpus(2)
        sink = RingBufferSink()
        OBS.reset()
        OBS.enable(sink)
        try:
            assert make_executor(workers=8).workers == 2
            assert make_executor(workers=2).workers == 2
        finally:
            OBS.reset()
        assert sink.of_type("farm_workers_clamped") == [
            event("farm_workers_clamped", requested=8, workers=2),
        ]

    def test_single_cpu_keeps_a_one_worker_pool(self, host_cpus):
        host_cpus(1)
        executor = make_executor(workers=4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 1

    def test_explicit_pool_size_is_not_clamped(self, host_cpus):
        host_cpus(1)
        assert ParallelExecutor(workers=8).workers == 8

    def test_available_cpus_is_the_affinity_set(self):
        if hasattr(os, "sched_getaffinity"):
            assert executor_module.available_cpus() == len(os.sched_getaffinity(0))
        assert executor_module.available_cpus() >= 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            make_executor(workers=workers)

    def test_checkpoint_goes_to_the_executor(self, tmp_path, host_cpus):
        host_cpus(4)
        path = tmp_path / "ckpt.jsonl"
        assert make_executor(checkpoint=path).checkpoint == path
        assert make_executor(workers=3, checkpoint=path).checkpoint == path

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, timeout_s=0)
        with pytest.raises(ValueError):
            SerialExecutor(max_attempts=0)


class TestDeterministicMerge:
    def test_results_in_submission_order(self):
        units = _units(6)
        results = SerialExecutor().run(units, echo_runner)
        assert [r.unit_key for r in results] == [u.key for u in units]
        assert [r.value["seed"] for r in results] == [u.seed for u in units]

    def test_serial_and_parallel_identical(self):
        units = _units(8)
        serial = SerialExecutor().run(units, echo_runner)
        parallel = ParallelExecutor(workers=4).run(units, echo_runner)
        # pids/workers/timing legitimately differ; values and order do not
        assert [r.unit_key for r in serial] == [r.unit_key for r in parallel]
        assert [r.value["seed"] for r in serial] == [
            r.value["seed"] for r in parallel
        ]
        assert [r.measurements for r in serial] == [
            r.measurements for r in parallel
        ]

    def test_scheduler_reordering_does_not_change_merge(self):
        # cost_hint descends with index, so longest-first reverses nothing;
        # force the opposite by inverting hints.
        units = [
            WorkUnit(key=f"u/{i}", kind="k", index=i, cost_hint=float(i))
            for i in range(5)
        ]
        results = SerialExecutor().run(units, echo_runner)
        assert [r.unit_key for r in results] == [u.key for u in units]

    def test_empty_unit_list(self):
        assert SerialExecutor().run([], echo_runner) == []

    def test_parallel_actually_uses_other_processes(self):
        import os

        units = _units(6)
        results = ParallelExecutor(workers=3).run(units, echo_runner)
        assert any(r.value["pid"] != os.getpid() for r in results)


class TestRTPBroadcastPilot:
    def test_pilot_is_first_submitted_unit(self):
        units = _units(5)
        results = SerialExecutor().run(units, rtp_runner, rtp_broadcast=True)
        # pilot saw no hint; every other unit received the pilot's RTP
        assert results[0].value is None
        assert all(r.value == 42.0 for r in results[1:])

    def test_parallel_broadcast_matches_serial(self):
        units = _units(5)
        serial = SerialExecutor().run(units, rtp_runner, rtp_broadcast=True)
        parallel = ParallelExecutor(workers=3).run(
            units, rtp_runner, rtp_broadcast=True
        )
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_without_broadcast_no_hint(self):
        results = SerialExecutor().run(_units(3), rtp_runner)
        assert all(r.value is None for r in results)


class TestRetry:
    def test_serial_retries_transient_failure(self, tmp_path):
        units = _units(3, marker=str(tmp_path / "marker"))
        results = SerialExecutor(max_attempts=2).run(units, flaky_runner)
        # exactly one unit hit the transient fault and was retried
        assert sorted(r.attempts for r in results) == [1, 1, 2]

    def test_parallel_retries_transient_failure(self, tmp_path):
        units = _units(3, marker=str(tmp_path / "marker"))
        results = ParallelExecutor(workers=2, max_attempts=2).run(
            units, flaky_runner
        )
        assert [r.unit_key for r in results] == [u.key for u in units]
        assert max(r.attempts for r in results) == 2

    def test_serial_exhaustion_raises(self):
        with pytest.raises(FarmExecutionError) as excinfo:
            SerialExecutor(max_attempts=2).run(_units(2), failing_runner)
        assert len(excinfo.value.failed_units) == 2
        assert "permanent tester fault" in str(excinfo.value)

    def test_parallel_exhaustion_raises(self):
        with pytest.raises(FarmExecutionError):
            ParallelExecutor(workers=2, max_attempts=2).run(
                _units(2), failing_runner
            )

    def test_parallel_survives_worker_crash(self):
        # os._exit in the worker breaks the pool; the executor recycles it
        # and reports the units as failed after the retry budget.
        with pytest.raises(FarmExecutionError) as excinfo:
            ParallelExecutor(workers=2, max_attempts=2).run(
                _units(2), crashing_runner
            )
        assert "worker process died" in str(excinfo.value)

    def test_parallel_timeout(self):
        units = _units(1, sleep_s=2.0)
        with pytest.raises(FarmExecutionError) as excinfo:
            ParallelExecutor(workers=1, timeout_s=0.3, max_attempts=1).run(
                units, sleeping_runner
            )
        assert "timed out" in str(excinfo.value)

    def test_timed_out_workers_do_not_outlive_run(self):
        # A stalled worker keeps sleeping after its deadline; the executor
        # must stop it on the recycle and on the final shutdown.
        before = set(multiprocessing.active_children())
        with pytest.raises(FarmExecutionError):
            ParallelExecutor(workers=1, timeout_s=0.5, max_attempts=2).run(
                _units(1, sleep_s=30.0), sleeping_runner
            )
        leaked = set(multiprocessing.active_children()) - before
        assert leaked == set()


class TestCheckpointIntegration:
    def test_completed_units_are_skipped_not_rerun(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        units = _units(4)
        # first run completes everything
        with CheckpointStore(path) as store:
            first = SerialExecutor(checkpoint=store).run(units, echo_runner)
        # second run must not re-execute any unit
        forbidden = tuple(u.key for u in units)
        rerun_units = [
            WorkUnit(
                key=u.key, kind=u.kind, payload={"forbidden": forbidden},
                seed=u.seed, index=u.index,
            )
            for u in units
        ]
        with CheckpointStore(path) as store:
            second = SerialExecutor(checkpoint=store).run(
                rerun_units, forbidden_key_runner
            )
        assert [r.value for r in first] == [r.value for r in second]
        assert all(r.from_checkpoint for r in second)

    def test_partial_checkpoint_runs_only_remainder(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        units = _units(4)
        with CheckpointStore(path) as store:
            SerialExecutor(checkpoint=store).run(units[:2], echo_runner)
        with CheckpointStore(path) as store:
            results = SerialExecutor(checkpoint=store).run(units, echo_runner)
        assert [r.from_checkpoint for r in results] == [
            True, True, False, False
        ]
        # and now the checkpoint holds all four
        assert set(CheckpointStore(path).load()) == {
            u.key for u in units
        }

    def test_foreign_checkpoint_keys_ignored(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path) as store:
            SerialExecutor(checkpoint=store).run(_units(2), echo_runner)
        other = [WorkUnit(key="other/0", kind="k", index=0)]
        results = SerialExecutor(checkpoint=CheckpointStore(path)).run(
            other, echo_runner
        )
        assert results[0].value["key"] == "other/0"
        assert not results[0].from_checkpoint


class TestFarmTelemetry:
    def test_events_and_metrics_emitted(self, tmp_path):
        sink = RingBufferSink()
        OBS.reset()
        OBS.enable(sink)
        try:
            path = tmp_path / "ckpt.jsonl"
            units = _units(3)
            with CheckpointStore(path) as store:
                SerialExecutor(checkpoint=store).run(units, echo_runner)
            with CheckpointStore(path) as store:
                SerialExecutor(checkpoint=store).run(units, echo_runner)
            completed = sink.of_type("farm_unit_completed")
            skipped = sink.of_type("farm_unit_skipped")
            assert len(completed) == 3
            assert len(skipped) == 3
            assert OBS.metrics.counter("farm.units").value == 3
            assert OBS.metrics.counter("farm.units_skipped").value == 3
            histogram = OBS.metrics.histogram(
                "farm.unit_measurements.test_kind"
            )
            assert histogram.count == 3
        finally:
            OBS.reset()


#: A 2-worker batch, then interpreter exit.  The exit-time wakeup of pool
#: manager threads is slowed between its "pipe still open" check and its
#: write, so a manager thread still winding down closes the pipe in between
#: every time, instead of once in many runs.
_EXIT_SCRIPT = """
import concurrent.futures.process as process
import time

from repro.farm.executor import ParallelExecutor
from repro.farm.workunit import WorkUnit
from tests.farm.runners import echo_runner

units = [WorkUnit(key=f"u/{i}", kind="k", index=i) for i in range(4)]
ParallelExecutor(workers=2).run(units, echo_runner)

def slow_wakeup(self):
    if not self._closed:
        time.sleep(0.2)
        self._writer.send_bytes(b"")

process._ThreadWakeup.wakeup = slow_wakeup
"""


class TestInterpreterExit:
    def test_exit_after_a_batch_leaves_stderr_empty(self):
        root = Path(__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"}
        for _ in range(20):
            run = subprocess.run(
                [sys.executable, "-c", _EXIT_SCRIPT],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert run.returncode == 0
            assert run.stderr == ""

"""End-to-end remote backend tests: executor + broker + live workers.

In-process worker threads cover scheduling, retries, checkpoints and
elastic membership; the telemetry-identity test runs real
``repro.cli farm-worker`` subprocesses so worker-side capture crosses a
genuine process boundary, exactly like production.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.lot import EnvironmentalSweep
from repro.device.memory_chip import MemoryTestChip
from repro.farm.checkpoint import CheckpointStore
from repro.farm.executor import (
    FarmExecutionError,
    SerialExecutor,
    make_executor,
)
from repro.farm.remote import (
    FarmBroker,
    RemoteExecutor,
    RemoteFarmError,
    WorkerRejected,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.farm.workunit import WorkUnit
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

from tests.farm.runners import (
    echo_runner,
    emitting_runner,
    failing_runner,
    flaky_runner,
    rtp_runner,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _units(count, **payload):
    return [
        WorkUnit(
            key=f"unit/{i:03d}", kind="test_kind", payload=dict(payload),
            seed=1000 + i, index=i, cost_hint=float(count - i),
        )
        for i in range(count)
    ]


def _quiet_worker(address, **kwargs):
    """run_worker wrapper for threads: broker teardown is not an error."""
    try:
        return run_worker(address, **kwargs)
    except (OSError, WorkerRejected):
        return 0


@contextmanager
def _farm(workers=2, **broker_kwargs):
    """A live broker plus ``workers`` in-process worker threads."""
    broker_kwargs.setdefault("poll_s", 0.02)
    with FarmBroker(port=0, **broker_kwargs) as broker:
        threads = [
            threading.Thread(
                target=_quiet_worker,
                args=(broker.address,),
                kwargs={"name": f"w{i}"},
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        try:
            yield broker
        finally:
            pass
    # The broker is down: workers see EOF on their next request and exit.
    for thread in threads:
        thread.join(timeout=5.0)


class TestRemoteExecution:
    def test_matches_serial_results(self):
        units = _units(6)
        serial = SerialExecutor().run(units, echo_runner)
        with _farm(workers=2) as broker:
            remote = RemoteExecutor(broker.address).run(units, echo_runner)
        assert [r.unit_key for r in remote] == [u.key for u in units]
        for ours, theirs in zip(remote, serial):
            assert ours.value == theirs.value
            assert ours.measurements == theirs.measurements
            assert ours.index == theirs.index
        assert {r.worker for r in remote} <= {"w0", "w1"}
        assert broker.stats_payload()["totals"]["units_completed"] == 6

    def test_per_unit_seeds_survive_the_wire(self):
        units = _units(4)
        with _farm(workers=2) as broker:
            results = RemoteExecutor(broker.address).run(units, echo_runner)
        assert [r.value["seed"] for r in results] == [
            1000, 1001, 1002, 1003
        ]

    def test_rtp_broadcast_parity_with_serial(self):
        units = _units(5)
        serial = SerialExecutor().run(units, rtp_runner, rtp_broadcast=True)
        with _farm(workers=2) as broker:
            remote = RemoteExecutor(broker.address).run(
                units, rtp_runner, rtp_broadcast=True
            )
        assert [r.value for r in remote] == [r.value for r in serial]
        assert [r.rtp for r in remote] == [r.rtp for r in serial]
        # Two batches (pilot + broadcast rest) are two broker campaigns.
        assert broker.stats_payload()["totals"]["campaigns"] == 2

    def test_pinned_worker_serves_every_batch_of_a_sweep(self):
        """A worker pinned to a sweep's campaign id runs the pilot cell
        and then the broadcast-stamped rest: both batches are submitted
        under the sweep's one id.  The client is waited for with a
        bound, so a pinned worker left idling fails the test."""
        ate = ATE(MemoryTestChip(), measurement=MeasurementModel(0.02, seed=11))
        sweep = EnvironmentalSweep(ate, (15.0, 45.0), seed=5)
        test = RandomTestGenerator(seed=61).batch(1)[0].with_condition(
            NOMINAL_CONDITION
        )
        axes = ((1.7, 1.9), (25.0, 85.0))
        serial = sweep.sweep(test, *axes)
        # The id EnvironmentalSweep.sweep gives its farm run.
        campaign = f"sweep:seed=5:grid=2x2:test={test.name}"
        remote = {}
        with FarmBroker(port=0, poll_s=0.02) as broker:
            worker = threading.Thread(
                target=_quiet_worker, args=(broker.address,),
                kwargs={"name": "pinned", "campaign": campaign},
                daemon=True,
            )
            worker.start()
            client = threading.Thread(
                target=lambda: remote.update(result=sweep.sweep(
                    test, *axes, executor=RemoteExecutor(broker.address)
                )),
                daemon=True,
            )
            client.start()
            client.join(timeout=30.0)
            pending = broker.stats_payload()["queue_depth"]
        # The broker is down: a stalled client and the worker both exit.
        client.join(timeout=10.0)
        worker.join(timeout=10.0)
        assert "result" in remote, (
            f"pinned worker stalled with {pending} unit(s) pending"
        )
        np.testing.assert_array_equal(
            remote["result"].trip_points, serial.trip_points
        )
        assert remote["result"].measurements == serial.measurements

    def test_broker_side_retry_of_flaky_unit(self, tmp_path):
        units = [
            WorkUnit(
                key=f"flaky/{i}", kind="test_kind",
                payload={"marker": str(tmp_path / f"marker-{i}")},
                seed=i, index=i,
            )
            for i in range(3)
        ]
        with _farm(workers=2) as broker:
            results = RemoteExecutor(
                broker.address, max_attempts=2
            ).run(units, flaky_runner)
        assert [r.value for r in results] == [u.key for u in units]
        assert all(r.attempts == 2 for r in results)
        assert broker.stats_payload()["totals"]["reissues"] == 3

    def test_exhausted_attempts_raise_farm_execution_error(self):
        with _farm(workers=1) as broker:
            with pytest.raises(FarmExecutionError) as info:
                RemoteExecutor(broker.address, max_attempts=2).run(
                    _units(2), failing_runner
                )
        assert "unit/000" in str(info.value)
        assert broker.stats_payload()["totals"]["units_failed"] == 2

    def test_elastic_worker_joins_after_submit(self):
        with FarmBroker(port=0, poll_s=0.02) as broker:
            late = threading.Thread(
                target=lambda: (
                    time.sleep(0.3),
                    _quiet_worker(broker.address, name="late"),
                ),
                daemon=True,
            )
            late.start()
            results = RemoteExecutor(broker.address).run(
                _units(3), echo_runner
            )
            assert [r.worker for r in results] == ["late"] * 3
        late.join(timeout=5.0)

    def test_checkpoint_resume_skips_completed_units(self, tmp_path):
        units = _units(4)
        path = tmp_path / "ckpt.jsonl"
        with _farm(workers=2) as broker:
            with CheckpointStore(path) as store:
                RemoteExecutor(broker.address, checkpoint=store).run(
                    units, echo_runner
                )
            with CheckpointStore(path) as store:
                resumed = RemoteExecutor(broker.address, checkpoint=store).run(
                    units, echo_runner
                )
        assert all(r.from_checkpoint for r in resumed)
        # The second run never reached the broker: one campaign total.
        assert broker.stats_payload()["totals"]["campaigns"] == 1

    def test_unreachable_broker_raises_remote_farm_error(self):
        executor = RemoteExecutor(
            ("127.0.0.1", 1), connect_timeout_s=0.2
        )
        with pytest.raises(RemoteFarmError):
            executor.run(_units(1), echo_runner)

    def test_campaign_done_before_every_result_raises(self):
        """A broker that announces the end of a campaign while units are
        still outstanding must fail the run, naming them, not leave the
        merge without their results."""
        listener = socket.create_server(("127.0.0.1", 0))

        def early_finish():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                send_frame(conn, {"type": "welcome"})
                recv_frame(conn)
                send_frame(conn, {"type": "accepted", "pending": 2})
                send_frame(conn, {"type": "campaign_done", "completed": 0})
                recv_frame(conn)

        thread = threading.Thread(target=early_finish, daemon=True)
        thread.start()
        try:
            with pytest.raises(RemoteFarmError, match="unit/000, unit/001"):
                RemoteExecutor(listener.getsockname()).run(
                    _units(2), echo_runner
                )
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_local_runner_rejected_before_submit(self):
        def local_runner(unit):
            return None

        with _farm(workers=1) as broker:
            with pytest.raises(ValueError):
                RemoteExecutor(broker.address).run(_units(1), local_runner)


class TestMakeExecutorRemote:
    def test_remote_backend_resolution(self):
        executor = make_executor(broker="127.0.0.1:9999")
        assert isinstance(executor, RemoteExecutor)
        assert executor.address == ("127.0.0.1", 9999)

    def test_broker_wins_over_workers(self):
        assert isinstance(
            make_executor(workers=4, broker="127.0.0.1:9999"), RemoteExecutor
        )

    def test_remote_backend_requires_broker(self):
        for broker in ("no-port", ""):
            with pytest.raises(ValueError):
                make_executor(broker=broker)


def _spawn_worker(address, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "farm-worker",
            "--connect", f"{address[0]}:{address[1]}",
            "--name", name, "--max-idle", "30",
        ],
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class TestRemoteTelemetryIdentity:
    """Acceptance: remote traces are event-comparable to serial ones."""

    @staticmethod
    def _comparable(records):
        keep = []
        for record in records:
            if record["type"] in ("measurement", "farm_unit_merged"):
                record = dict(record)
                record.pop("ts", None)
                record.pop("worker", None)
                keep.append(record)
        return keep

    def test_remote_trace_equals_serial_trace(self, tmp_path):
        units = _units(4)

        serial_trace = tmp_path / "serial.jsonl"
        obs.configure(trace_path=serial_trace)
        try:
            SerialExecutor().run(units, emitting_runner, campaign="identity")
        finally:
            obs.reset()

        remote_trace = tmp_path / "remote.jsonl"
        with FarmBroker(port=0, poll_s=0.02) as broker:
            procs = [
                _spawn_worker(broker.address, name)
                for name in ("rw1", "rw2")
            ]
            obs.configure(trace_path=remote_trace)
            try:
                RemoteExecutor(broker.address).run(
                    units, emitting_runner, campaign="identity"
                )
            finally:
                obs.reset()
                for proc in procs:
                    proc.terminate()
        for proc in procs:
            proc.wait(timeout=10.0)

        serial_fold, remote_fold = obs.TraceFold(), obs.TraceFold()
        serial = list(serial_fold.read(serial_trace))
        remote = list(remote_fold.read(remote_trace))
        assert serial_fold.dropped_lines == remote_fold.dropped_lines == 0
        assert self._comparable(remote) == self._comparable(serial)
        # The non-deterministic half is attributed to the real workers.
        workers = {
            r["worker"] for r in remote if r["type"] == "measurement"
        }
        assert workers <= {"rw1", "rw2"}

"""Job manager semantics: bounded pool, FIFO order, cancel, recovery.

These tests inject synchronous runners and synchronize on events — no
sleeps-as-synchronization — so the concurrency claims they make (never
more than ``max_workers`` at once, submission order preserved, a
cancelled-while-queued job never starts) are actually asserted, not
just likely.
"""

import sys
import threading

import pytest

from repro.cli import main
from repro.obs.history import RunHistory
from repro.service.manager import JobManager, JobOutcome
from repro.service.spec import JobSpec
from repro.store import ResultStore

#: Generous upper bound for events that are signalled almost instantly;
#: only ever *waited on*, never slept for.
WAIT = 10.0

SPEC = JobSpec(command="hunt")


class GateRunner:
    """A runner whose jobs block until the test releases them.

    Records, under a lock: the order jobs started in, how many are
    inside ``run`` right now, and the maximum that were ever inside
    simultaneously.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.started = []
        self.active = 0
        self.max_active = 0
        self.started_events = {}
        self.release_events = {}

    def expect(self, job_id):
        self.started_events[job_id] = threading.Event()
        self.release_events[job_id] = threading.Event()

    def run(self, job):
        job_id = str(job["job_id"])
        with self.lock:
            self.started.append(job_id)
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.started_events[job_id].set()
        assert self.release_events[job_id].wait(timeout=WAIT)
        with self.lock:
            self.active -= 1
        return JobOutcome(exit_code=0)

    def release(self, job_id):
        self.release_events[job_id].set()


class InstantRunner:
    def __init__(self, exit_code=0, error=""):
        self.exit_code = exit_code
        self.error = error
        self.ran = []

    def run(self, job):
        self.ran.append(str(job["job_id"]))
        return JobOutcome(exit_code=self.exit_code, error=self.error)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store.db")


def _manager(store, tmp_path, runner, max_workers=2):
    manager = JobManager(
        store, tmp_path / "data", max_workers=max_workers, runner=runner
    )
    manager.start()
    return manager


class TestConcurrency:
    def test_pool_never_exceeds_max_workers(self, store, tmp_path, monkeypatch):
        # The order jobs turn running is the order the manager claims
        # them under its lock.
        claimed = []
        update_job = store.update_job

        def record_claims(job_id, **fields):
            if fields.get("state") == "running":
                claimed.append(job_id)
            return update_job(job_id, **fields)

        monkeypatch.setattr(store, "update_job", record_claims)
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=2)
        for index in range(1, 6):
            runner.expect(f"job-{index:04d}")
        jobs = [manager.submit(SPEC) for _ in range(5)]
        ids = [str(job["job_id"]) for job in jobs]

        # exactly the first two start; the rest are queued behind them
        assert runner.started_events[ids[0]].wait(timeout=WAIT)
        assert runner.started_events[ids[1]].wait(timeout=WAIT)
        assert not runner.started_events[ids[2]].is_set()
        with runner.lock:
            assert runner.active == 2

        # each release admits exactly the next queued job, in order
        for done, admitted in ((0, 2), (1, 3), (2, 4)):
            runner.release(ids[done])
            assert runner.started_events[ids[admitted]].wait(timeout=WAIT)
        runner.release(ids[3])
        runner.release(ids[4])
        for job_id in ids:
            assert manager.wait(job_id, timeout=WAIT)["state"] == "completed"

        assert runner.max_active == 2
        assert claimed == ids  # FIFO: claim order == submit order
        # The first two jobs race each other to the runner; the rest are
        # admitted one at a time, in order.
        assert sorted(runner.started[:2]) == ids[:2]
        assert runner.started[2:] == ids[2:]
        manager.shutdown()

    def test_single_worker_is_strictly_serial(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        for index in range(1, 4):
            runner.expect(f"job-{index:04d}")
        ids = [str(manager.submit(SPEC)["job_id"]) for _ in range(3)]
        for job_id in ids:
            assert runner.started_events[job_id].wait(timeout=WAIT)
            with runner.lock:
                assert runner.active == 1
            runner.release(job_id)
            assert manager.wait(job_id, timeout=WAIT)["state"] == "completed"
        assert runner.max_active == 1
        manager.shutdown()


class TestCancel:
    def test_cancel_while_queued_never_starts(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        runner.expect("job-0001")
        runner.expect("job-0002")
        blocker = str(manager.submit(SPEC)["job_id"])
        queued = str(manager.submit(SPEC)["job_id"])
        assert runner.started_events[blocker].wait(timeout=WAIT)

        assert manager.cancel(queued) is True
        cancelled = manager.wait(queued, timeout=WAIT)
        assert cancelled["state"] == "cancelled"
        assert cancelled["error"] == "cancelled while queued"

        # drain the pool past the cancelled entry: it must never run
        runner.release(blocker)
        assert manager.wait(blocker, timeout=WAIT)["state"] == "completed"
        assert queued not in runner.started
        assert manager.job(queued)["state"] == "cancelled"
        manager.shutdown()

    def test_cancel_unknown_job_raises(self, store, tmp_path):
        manager = _manager(store, tmp_path, InstantRunner())
        with pytest.raises(KeyError):
            manager.cancel("job-9999")
        manager.shutdown()

    def test_cancel_running_returns_false(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        runner.expect("job-0001")
        job_id = str(manager.submit(SPEC)["job_id"])
        assert runner.started_events[job_id].wait(timeout=WAIT)
        assert manager.cancel(job_id) is False
        runner.release(job_id)
        manager.shutdown()


class TestOutcomes:
    def test_completed_job_lands_a_run_record(self, store, tmp_path):
        manager = _manager(store, tmp_path, InstantRunner())
        job_id = str(manager.submit(SPEC)["job_id"])
        job = manager.wait(job_id, timeout=WAIT)
        assert job["state"] == "completed"
        assert job["exit_code"] == 0
        record = RunHistory(store.history_path).find(job_id)
        assert record is not None
        assert set(record) == {
            "schema", "kind", "run", "campaign", "command", "ts", "wall_s",
            "cpu_s", "workers", "seed", "measurements", "per_test",
            "farm_units", "farm_retries", "checkpoint_dropped_lines",
        }
        assert record["campaign"] == "service"
        assert record["command"] == "hunt"
        assert store.history_path == tmp_path / "runs.jsonl"
        manager.shutdown()

    def test_failing_runner_fails_the_job(self, store, tmp_path):
        manager = _manager(
            store, tmp_path, InstantRunner(exit_code=3, error="boom")
        )
        job_id = str(manager.submit(SPEC)["job_id"])
        job = manager.wait(job_id, timeout=WAIT)
        assert job["state"] == "failed"
        assert job["exit_code"] == 3
        assert job["error"] == "boom"
        # failures are not runs
        assert RunHistory(store.history_path).find(job_id) is None
        manager.shutdown()

    def test_runner_exception_fails_the_job(self, store, tmp_path):
        class Exploding:
            def run(self, job):
                raise RuntimeError("kaboom")

        manager = _manager(store, tmp_path, Exploding())
        job_id = str(manager.submit(SPEC)["job_id"])
        job = manager.wait(job_id, timeout=WAIT)
        assert job["state"] == "failed"
        assert "kaboom" in job["error"]
        manager.shutdown()

    def test_progress_is_empty_before_any_trace(self, store, tmp_path):
        runner = GateRunner()
        manager = _manager(store, tmp_path, runner, max_workers=1)
        runner.expect("job-0001")
        job_id = str(manager.submit(SPEC)["job_id"])
        progress = manager.progress(job_id)
        assert progress["events"] == 0
        assert progress["phase"] is None
        runner.release(job_id)
        manager.shutdown()


class FlakyRunner:
    """Completes every job but the ones it is told to fail."""

    def __init__(self, failing):
        self.failing = set(failing)

    def run(self, job):
        if str(job["job_id"]) in self.failing:
            return JobOutcome(exit_code=1, error="boom")
        return JobOutcome(exit_code=0)


class TestRunHistory:
    JOBS = 8
    FAILING = ("job-0003", "job-0006")

    @pytest.fixture
    def history(self, store, tmp_path):
        # Both workers append to one file; a short switch interval makes
        # their appends interleave as often as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manager = _manager(
                store, tmp_path, FlakyRunner(self.FAILING), max_workers=2
            )
            job_ids = [
                str(manager.submit(SPEC)["job_id"])
                for _ in range(self.JOBS)
            ]
            for job_id in job_ids:
                assert manager.wait(job_id, timeout=WAIT)["state"] in (
                    "completed", "failed",
                )
            manager.shutdown()
        finally:
            sys.setswitchinterval(interval)
        return RunHistory(store.history_path)

    def test_two_workers_append_one_whole_line_per_completed_job(
        self, history
    ):
        loaded = history.load()
        assert loaded.dropped_lines == 0
        names = sorted(record["run"] for record in loaded.records)
        assert names == sorted(
            f"job-{index:04d}" for index in range(1, self.JOBS + 1)
            if f"job-{index:04d}" not in self.FAILING
        )

    def test_obs_compare_reads_the_service_history(self, history, capsys):
        runs = str(history.path)
        assert main(
            ["obs", "compare", runs, "--baseline", "job-0001",
             "--run", "job-0001"]
        ) == 0
        assert "verdict: ok" in capsys.readouterr().out
        assert main(["obs", "compare", runs, "--baseline", "ghost"]) == 3
        err = capsys.readouterr().err
        assert "available runs:" in err and "'job-0001'" in err


class TestRecovery:
    def test_restart_fails_interrupted_and_keeps_done(self, store, tmp_path):
        first = _manager(store, tmp_path, InstantRunner(), max_workers=1)
        done = str(first.submit(SPEC)["job_id"])
        assert first.wait(done, timeout=WAIT)["state"] == "completed"
        first.shutdown()
        # Simulate the crash's leftovers: the dead process had one job
        # mid-flight and one still queued when it went down.
        store.create_job("job-0002", SPEC.to_payload())
        store.update_job("job-0002", state="running")
        store.create_job("job-0003", SPEC.to_payload())

        second = JobManager(store, tmp_path / "data", runner=InstantRunner())
        recovered = second.recover()
        assert sorted(recovered) == ["job-0002", "job-0003"]
        assert second.job(done)["state"] == "completed"
        assert second.job("job-0002")["state"] == "failed"
        assert "restart" in second.job("job-0002")["error"]
        # new ids never collide with persisted ones
        second.start()
        fresh = str(second.submit(SPEC)["job_id"])
        assert fresh not in (done, "job-0002", "job-0003")
        assert second.wait(fresh, timeout=WAIT)["state"] == "completed"
        second.shutdown()

    def test_rejects_nonpositive_workers(self, store, tmp_path):
        with pytest.raises(ValueError):
            JobManager(store, tmp_path, max_workers=0)

"""FarmProgressReporter: one stderr line per live farm lifecycle event."""

import io
import re

from repro import obs
from repro.farm.checkpoint import CheckpointStore
from repro.farm.executor import SerialExecutor
from repro.farm.workunit import UnitOutcome, WorkUnit

from tests.farm.runners import echo_runner, flaky_runner


def _units(tmp_path, n):
    return [
        WorkUnit(
            key=f"u/{i}",
            index=i,
            kind="test",
            payload={"marker": str(tmp_path / f"marker{i}")},
        )
        for i in range(n)
    ]


def nested_farm_runner(unit: WorkUnit) -> UnitOutcome:
    """Runs a one-unit farm of its own, so its lifecycle events are
    captured in the outer unit's spool and replayed at merge."""
    inner = WorkUnit(key=f"{unit.key}/inner", index=0, kind="test", payload={})
    SerialExecutor().run([inner], echo_runner, campaign="inner")
    return UnitOutcome(value=unit.key, measurements=1)


def _reporter():
    stream = io.StringIO()
    return obs.FarmProgressReporter(stream), stream


class TestLiveEvents:
    def test_every_lifecycle_event_prints_its_line(self, tmp_path):
        reporter, stream = _reporter()
        obs.enable(reporter)
        path = tmp_path / "ckpt.jsonl"
        units = _units(tmp_path, 2)
        with CheckpointStore(path) as store:
            SerialExecutor(checkpoint=store).run(
                units[:1], flaky_runner, campaign="camp"
            )
        with path.open("a") as handle:
            handle.write("{broken json\n")
        with CheckpointStore(path) as store:
            SerialExecutor(checkpoint=store).run(
                units, flaky_runner, campaign="camp"
            )
        done = r"done in \d+\.\d\ds \(1 meas\) on serial"
        patterns = [
            r"\[farm\] camp: 1 unit\(s\) on 1 worker\(s\) \(serial\)",
            r"\[farm\] retrying u/0 after attempt 1: "
            r"RuntimeError: transient tester fault",
            rf"\[farm 1/1\] u/0 {done}",
            r"\[farm\] camp: 2 unit\(s\) on 1 worker\(s\) \(serial\)",
            r"\[farm\] warning: 1 corrupt checkpoint line\(s\) dropped "
            + re.escape(f"from {path}"),
            r"\[farm 1/2\] u/0 restored from checkpoint",
            r"\[farm\] retrying u/1 after attempt 1: "
            r"RuntimeError: transient tester fault",
            rf"\[farm 2/2\] u/1 {done}",
        ]
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(patterns), lines
        for line, pattern in zip(lines, patterns):
            assert re.fullmatch(pattern, line), (line, pattern)


class TestReplayedEvents:
    def test_events_replayed_by_merge_print_nothing(self, tmp_path):
        reporter, stream = _reporter()
        sink = obs.RingBufferSink()
        obs.enable(reporter, sink)
        units = [WorkUnit(key="outer", index=0, kind="test", payload={})]
        SerialExecutor().run(units, nested_farm_runner, campaign="camp")
        # The inner farm's lifecycle reached the parent bus, as a replay.
        assert len(sink.of_type("farm_run_started")) == 2
        assert len(sink.of_type("farm_unit_completed")) == 2
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2, lines
        assert lines[0] == "[farm] camp: 1 unit(s) on 1 worker(s) (serial)"
        assert re.fullmatch(
            r"\[farm 1/1\] outer done in \d+\.\d\ds \(1 meas\) on serial",
            lines[1],
        )

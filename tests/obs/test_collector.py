"""Cross-process farm telemetry: capture, propagation, deterministic merge."""

import json

import pytest

from repro import obs
from repro.obs import collector as collector_module
from repro.farm.executor import (
    FarmExecutionError,
    ParallelExecutor,
    SerialExecutor,
)
from repro.farm.workunit import WorkUnit
from repro.obs.collector import (
    FarmCollector,
    SpoolSink,
    WorkerCaptureConfig,
    run_unit,
)
from repro.obs.events import (
    current_trace_context,
    event,
    trace_context,
)

from tests.farm.runners import emitting_runner, failing_runner


def _units(n):
    return [
        WorkUnit(key=f"u/{i:02d}", index=i, kind="test", payload={})
        for i in range(n)
    ]


class TestSpoolSink:
    def test_stamps_ts_and_context(self):
        spool = SpoolSink(capacity=10)
        with trace_context(trace_id="camp", span_id="u/00", worker="w1"):
            spool.handle(
                event(
                    "measurement",
                    index=0, test_name="t", strobe_ns=1.0, passed=True
                )
            )
        (payload,) = spool.events
        assert payload["type"] == "measurement"
        assert payload["trace_id"] == "camp"
        assert payload["span_id"] == "u/00"
        assert payload["worker"] == "w1"
        assert isinstance(payload["ts"], float)

    def test_overflow_is_counted_not_stored(self):
        spool = SpoolSink(capacity=2)
        for i in range(5):
            spool.handle({"type": "x", "i": i})
        assert len(spool.events) == 2
        assert spool.dropped == 3

    def test_replayed_dict_keeps_original_stamps(self):
        spool = SpoolSink()
        spool.handle({"type": "x", "ts": 123.0, "worker": "orig"})
        (payload,) = spool.events
        assert payload["ts"] == 123.0
        assert payload["worker"] == "orig"


class TestUnitCapture:
    def test_capture_isolates_and_restores_switchboard(self):
        sink = obs.RingBufferSink()
        obs.enable(sink)
        outer_bus, outer_metrics = obs.OBS.bus, obs.OBS.metrics
        unit = _units(1)[0]
        outcome, elapsed_s, telemetry = run_unit(
            emitting_runner, unit, WorkerCaptureConfig(trace_id="c"), "w0"
        )
        assert outcome.measurements == 1
        assert elapsed_s >= 0.0
        # nothing leaked to the outer sink; switchboard restored
        assert sink.events == []
        assert obs.OBS.bus is outer_bus
        assert obs.OBS.metrics is outer_metrics
        assert current_trace_context() is None
        # the capture carried the unit's telemetry
        assert [e["type"] for e in telemetry.events] == ["measurement"]
        assert telemetry.events[0]["trace_id"] == "c"
        assert telemetry.events[0]["span_id"] == "u/00"
        assert telemetry.metrics["counters"]["ate.measurements"]["value"] == 1
        assert telemetry.metrics["histograms"]["test.values"] == [0.0]

    def test_capture_works_with_telemetry_disabled_outside(self):
        # A worker process has its inherited switchboard neutralized; the
        # capture enables it just for the unit.
        assert not obs.OBS.enabled
        unit = _units(1)[0]
        _, _, telemetry = run_unit(
            emitting_runner, unit, WorkerCaptureConfig(trace_id="c"), "w0"
        )
        assert telemetry.events
        assert not obs.OBS.enabled

    def test_without_a_config_the_unit_runs_bare(self):
        sink = obs.RingBufferSink()
        obs.enable(sink)
        outcome, elapsed_s, telemetry = run_unit(
            emitting_runner, _units(1)[0], None, "w0"
        )
        assert outcome.measurements == 1 and elapsed_s >= 0.0
        assert telemetry is None
        # Nothing captured: the unit's event went to the live sink.
        assert [e["type"] for e in sink.events] == ["measurement"]

    def test_exception_discards_capture_and_restores(self):
        obs.enable()
        bus = obs.OBS.bus
        with pytest.raises(RuntimeError, match="permanent tester fault"):
            run_unit(
                failing_runner, _units(1)[0],
                WorkerCaptureConfig(trace_id="c"), "w0",
            )
        assert obs.OBS.bus is bus
        assert current_trace_context() is None


class TestFarmCollectorMerge:
    def test_merge_replays_in_submission_order(self):
        sink = obs.RingBufferSink()
        obs.enable(sink)
        collector = FarmCollector("camp", ["a", "b", "c"])
        # collect out of submission order, as a parallel run would
        for key, index in (("c", 2), ("a", 0), ("b", 1)):
            unit = WorkUnit(key=key, index=index, kind="test", payload={})
            _, _, telemetry = run_unit(
                emitting_runner, unit, collector.worker_config(), f"w{index}"
            )
            collector.collect(telemetry)
        collector.merge()
        merged = [e for e in sink.events if "ts" in e]
        spans = [e["span_id"] for e in merged]
        assert spans == sorted(spans, key=["a", "b", "c"].index)
        closers = sink.of_type("farm_unit_merged")
        assert [e["key"] for e in closers] == ["a", "b", "c"]
        assert [e["measurements"] for e in closers] == [1, 2, 3]
        assert obs.OBS.metrics.counters["ate.measurements"].value == 6
        # raw histogram observations replayed in submission order
        assert obs.OBS.metrics.histograms["test.values"].count == 6

    def test_merge_is_idempotent(self):
        sink = obs.RingBufferSink()
        obs.enable(sink)
        collector = FarmCollector("camp", ["a"])
        unit = WorkUnit(key="a", index=0, kind="test", payload={})
        collector.collect(
            run_unit(emitting_runner, unit, collector.worker_config(), "w")[2]
        )
        collector.merge()
        first = len(sink.events)
        collector.merge()
        assert len(sink.events) == first

    def test_spool_drops_surface_as_counter(self, monkeypatch):
        monkeypatch.setattr(collector_module, "SPOOL_CAPACITY", 2)
        obs.enable()
        collector = FarmCollector("camp", ["a"])
        unit = WorkUnit(key="a", index=4, kind="test", payload={})
        # 5 events into a capacity-2 spool
        collector.collect(
            run_unit(emitting_runner, unit, collector.worker_config(), "w")[2]
        )
        collector.merge()
        dropped = obs.OBS.metrics.counters["farm.spool.dropped_events"]
        assert dropped.value == 3


class TestSerialParallelIdentity:
    """The acceptance criterion: merged telemetry is worker-count invariant."""

    @staticmethod
    def _run(executor, tmp_path, name):
        trace = tmp_path / f"{name}.jsonl"
        obs.configure(trace_path=trace)
        try:
            executor.run(_units(4), emitting_runner, campaign="identity")
        finally:
            obs.reset()
        fold = obs.TraceFold()
        records = list(fold.read(trace))
        assert fold.dropped_lines == 0
        return records

    @staticmethod
    def _comparable(records):
        """The merged, deterministic portion of a trace: every worker-side
        event (minus its wall-clock stamp) plus the merge closers."""
        keep = []
        for r in records:
            if r["type"] in ("measurement", "farm_unit_merged"):
                r = dict(r)
                r.pop("ts", None)
                r.pop("worker", None)
                keep.append(r)
        return keep

    def test_parallel_trace_equals_serial_trace(self, tmp_path):
        serial = self._run(SerialExecutor(), tmp_path, "serial")
        parallel = self._run(
            ParallelExecutor(workers=4), tmp_path, "parallel"
        )
        assert self._comparable(parallel) == self._comparable(serial)

    def test_parallel_metrics_equal_serial_metrics(self, tmp_path):
        def run_metrics(executor):
            obs.enable()
            try:
                executor.run(_units(4), emitting_runner, campaign="identity")
                return json.dumps(obs.OBS.metrics.snapshot(), sort_keys=True)
            finally:
                obs.reset()

        serial = run_metrics(SerialExecutor())
        parallel = run_metrics(ParallelExecutor(workers=4))
        # histograms compare count/sum/min/max/p50/p95 — identical only
        # because raw observation streams were replayed, not resampled
        assert _strip_times(parallel) == _strip_times(serial)

    def test_worker_attribution_in_parallel_trace(self, tmp_path):
        parallel = self._run(
            ParallelExecutor(workers=2), tmp_path, "attr"
        )
        measurement_workers = {
            r["worker"] for r in parallel if r["type"] == "measurement"
        }
        assert measurement_workers  # events attributed to pool processes
        assert all(w != "serial" for w in measurement_workers)
        assert {
            r["trace_id"] for r in parallel if r["type"] == "measurement"
        } == {"identity"}


def _strip_times(snapshot_json):
    """Drop wall-clock histograms (farm.unit_seconds.*) — the only
    legitimately nondeterministic part of the registry."""
    snapshot = json.loads(snapshot_json)
    snapshot["histograms"] = {
        name: data
        for name, data in snapshot["histograms"].items()
        if not name.startswith("farm.unit_seconds")
    }
    return snapshot


class TestFailureTelemetry:
    def test_failed_units_merge_nothing_but_run_completes_merge(self):
        sink = obs.RingBufferSink()
        obs.enable(sink)
        units = _units(2)
        executor = SerialExecutor(max_attempts=1)
        with pytest.raises(FarmExecutionError):
            executor.run(units, failing_runner, campaign="fails")
        assert sink.of_type("farm_unit_merged") == []
        started = sink.of_type("farm_run_started")
        assert len(started) == 1 and started[0]["campaign"] == "fails"

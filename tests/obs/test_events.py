"""Tests for typed events, the bus, sinks and the JSONL trace round-trip."""

import json
import logging

import pytest

from repro.obs.events import (
    CampaignPhase,
    EventBus,
    GAGeneration,
    LoggingSink,
    MeasurementEvent,
    RingBufferSink,
    SUTPFallback,
    SUTPWalkStep,
    TraceWriter,
)
from repro.obs.report import TraceFold


def measurement(index=1, name="t0", strobe=20.0, passed=True):
    return MeasurementEvent(
        index=index, test_name=name, strobe_ns=strobe, passed=passed
    )


class TestEventTypes:
    def test_to_dict_carries_type_and_fields(self):
        event = measurement(index=7, name="rnd_3", strobe=21.5, passed=False)
        assert event.to_dict() == {
            "type": "measurement",
            "index": 7,
            "test_name": "rnd_3",
            "strobe_ns": 21.5,
            "passed": False,
        }

    def test_events_are_frozen(self):
        with pytest.raises(Exception):
            measurement().index = 2

    def test_type_discriminators_are_unique(self):
        types = {
            cls.type
            for cls in (
                MeasurementEvent,
                SUTPWalkStep,
                SUTPFallback,
                GAGeneration,
                CampaignPhase,
            )
        }
        assert len(types) == 5


class TestEventBus:
    def test_emit_fans_out_in_subscription_order(self):
        bus = EventBus()
        first, second = RingBufferSink(), RingBufferSink()
        bus.subscribe(first)
        bus.subscribe(second)
        bus.emit(measurement())
        assert len(first.events) == len(second.events) == 1

    def test_unsubscribe(self):
        bus = EventBus()
        sink = RingBufferSink()
        bus.subscribe(sink)
        bus.unsubscribe(sink)
        bus.unsubscribe(sink)  # absent: no error
        bus.emit(measurement())
        assert sink.events == []

    def test_close_closes_and_clears(self, tmp_path):
        bus = EventBus()
        writer = TraceWriter(tmp_path / "t.jsonl")
        bus.subscribe(writer)
        bus.close()
        assert writer._handle.closed
        assert bus.sinks == []


class TestRingBufferSink:
    def test_capacity_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.handle(measurement(index=i))
        assert [e.index for e in sink.events] == [2, 3, 4]

    def test_of_type_by_string_and_class(self):
        sink = RingBufferSink()
        sink.handle(measurement())
        sink.handle(SUTPWalkStep(iteration=1, value=20.5, passed=True))
        assert len(sink.of_type("measurement")) == 1
        assert len(sink.of_type(SUTPWalkStep)) == 1
        assert sink.of_type("nope") == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestTraceRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        events = [
            measurement(index=1, name="a"),
            SUTPWalkStep(iteration=1, value=20.5, passed=False),
            CampaignPhase(phase="table1", status="end", duration_s=0.25),
        ]
        for event in events:
            writer.handle(event)
        writer.close()
        writer.close()  # idempotent

        fold = TraceFold()
        records = list(fold.read(path))
        assert fold.dropped_lines == 0
        assert [r["type"] for r in records] == [
            "measurement",
            "sutp_walk_step",
            "campaign_phase",
        ]
        # Every record carries the original fields plus a timestamp.
        for original, record in zip(events, records):
            assert "ts" in record
            for key, value in original.to_dict().items():
                assert record[key] == value

    def test_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        writer.handle(measurement())
        writer.close()
        (line,) = path.read_text().strip().splitlines()
        assert json.loads(line)["type"] == "measurement"

    def test_read_trace_counts_bad_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(measurement().to_dict())
        path.write_text(good + "\nnot json\n")
        fold = TraceFold()
        assert [r["type"] for r in fold.read(path)] == ["measurement"]
        assert (fold.events, fold.dropped_lines) == (1, 1)

    def test_read_trace_rejects_non_event_object(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"no_type": 1}\n')
        fold = TraceFold()
        assert list(fold.read(path)) == []
        assert (fold.events, fold.dropped_lines) == (0, 1)

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n" + json.dumps(measurement().to_dict()) + "\n\n")
        fold = TraceFold.load(path)
        assert (fold.events, fold.dropped_lines) == (1, 0)


class TestLoggingSink:
    def test_levels_by_event_type(self, caplog):
        sink = LoggingSink()
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            sink.handle(measurement())
            sink.handle(CampaignPhase(phase="x", status="start"))
        levels = {r.levelno for r in caplog.records}
        assert levels == {logging.DEBUG, logging.INFO}

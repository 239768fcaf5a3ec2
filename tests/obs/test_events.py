"""Tests for the event schema, the bus, sinks and the JSONL trace round-trip."""

import json
import logging

import pytest

from repro.obs.collector import SpoolSink
from repro.obs.events import (
    EVENT_FIELDS,
    EventBus,
    LoggingSink,
    RingBufferSink,
    TraceWriter,
    event,
    trace_context,
)
from repro.obs.report import TraceFold


def measurement(index=1, name="t0", strobe=20.0, passed=True):
    return event(
        "measurement",
        index=index, test_name=name, strobe_ns=strobe, passed=passed
    )


class TestEventSchema:
    def test_event_carries_type_then_fields_in_table_order(self):
        payload = event(
            "measurement", passed=False, strobe_ns=21.5, test_name="rnd_3",
            index=7,
        )
        assert list(payload.items()) == [
            ("type", "measurement"),
            ("index", 7),
            ("test_name", "rnd_3"),
            ("strobe_ns", 21.5),
            ("passed", False),
        ]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="unknown event type 'nope'"):
            event("nope", index=1)

    def test_missing_field_rejected(self):
        with pytest.raises(TypeError, match="missing field 'duration_s'"):
            event("campaign_phase", phase="x", status="start")

    def test_extra_field_rejected(self):
        with pytest.raises(TypeError, match="unexpected \\['colour'\\]"):
            event("farm_unit_skipped", key="u/0", colour="red")

    def test_schema_fields_are_distinct_and_never_stamps(self):
        assert len(EVENT_FIELDS) == 35
        for name, fields in EVENT_FIELDS.items():
            assert len(set(fields)) == len(fields), name
            assert not {"type", "ts"} & set(fields), name

    def test_sinks_do_not_mutate_the_payload(self, tmp_path):
        payload = measurement()
        before = dict(payload)
        sinks = [
            TraceWriter(tmp_path / "t.jsonl"),
            SpoolSink(),
            LoggingSink(),
            RingBufferSink(),
        ]
        with trace_context(trace_id="camp", span_id="u/0", worker="w"):
            for sink in sinks:
                sink.handle(payload)
        sinks[0].close()
        assert payload == before
        assert sinks[1].events[0]["span_id"] == "u/0"


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
        assert [e["index"] for e in sink.events] == [2, 3, 4]

    def test_of_type_by_type_string(self):
        sink = RingBufferSink()
        sink.handle(measurement())
        sink.handle(
            event("sutp_walk_step", iteration=1, value=20.5, passed=True)
        )
        assert len(sink.of_type("measurement")) == 1
        assert len(sink.of_type("sutp_walk_step")) == 1
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
            event("sutp_walk_step", iteration=1, value=20.5, passed=False),
            event(
                "campaign_phase", phase="table1", status="end", duration_s=0.25
            ),
        ]
        for payload in events:
            writer.handle(payload)
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
            for key, value in original.items():
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
        good = json.dumps(measurement())
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
        path.write_text("\n" + json.dumps(measurement()) + "\n\n")
        fold = TraceFold.load(path)
        assert (fold.events, fold.dropped_lines) == (1, 0)


class TestLoggingSink:
    def test_levels_by_event_type(self, caplog):
        sink = LoggingSink()
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            sink.handle(measurement())
            sink.handle(
                event(
                    "campaign_phase", phase="x", status="start",
                    duration_s=None,
                )
            )
        levels = {r.levelno for r in caplog.records}
        assert levels == {logging.DEBUG, logging.INFO}

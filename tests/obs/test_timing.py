"""Tests for span()/@timed and the disabled-path no-op guarantee."""

import pytest

from repro import obs
from repro.obs.events import RingBufferSink
from repro.obs.timing import span, timed


class TestSpan:
    def test_emits_phase_pair_and_histogram(self):
        sink = RingBufferSink()
        obs.enable(sink)
        with span("unit"):
            pass
        start, end = sink.events
        assert (start["phase"], start["status"]) == ("unit", "start")
        assert (end["phase"], end["status"]) == ("unit", "end")
        assert end["duration_s"] >= 0.0
        hist = obs.OBS.metrics.histograms["span.unit.seconds"]
        assert hist.count == 1

    def test_end_emitted_on_exception(self):
        sink = RingBufferSink()
        obs.enable(sink)
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        assert [e["status"] for e in sink.events] == ["start", "end"]

    def test_nested_spans(self):
        sink = RingBufferSink()
        obs.enable(sink)
        with span("outer"):
            with span("inner"):
                pass
        assert [(e["phase"], e["status"]) for e in sink.events] == [
            ("outer", "start"),
            ("inner", "start"),
            ("inner", "end"),
            ("outer", "end"),
        ]


class TestTimed:
    def test_decorator_defaults_to_qualname(self):
        obs.enable()

        @timed()
        def helper():
            return 41 + 1

        assert helper() == 42
        names = list(obs.OBS.metrics.histograms)
        assert len(names) == 1
        assert "helper" in names[0]

    def test_explicit_name(self):
        obs.enable()

        @timed("phase.x")
        def helper():
            return "ok"

        assert helper() == "ok"
        assert "span.phase.x.seconds" in obs.OBS.metrics.histograms


class TestDisabledPath:
    """With telemetry off, instrumentation must leave no trace at all."""

    def test_span_records_nothing(self):
        sink = RingBufferSink()
        obs.OBS.bus.subscribe(sink)  # sink attached, but OBS disabled
        with span("quiet"):
            pass
        assert sink.events == []
        assert not obs.OBS.metrics.histograms

    def test_timed_records_nothing(self):
        @timed("quiet")
        def helper():
            return 1

        assert helper() == 1
        assert not obs.OBS.metrics.histograms

    def test_instrumented_ate_records_nothing(self):
        from repro.ate.tester import ATE
        from repro.device.memory_chip import MemoryTestChip
        from repro.patterns.conditions import NOMINAL_CONDITION
        from repro.patterns.march import compile_march, get_march_test
        from repro.patterns.testcase import TestCase

        sink = RingBufferSink()
        obs.OBS.bus.subscribe(sink)
        ate = ATE(MemoryTestChip())
        sequence = compile_march(get_march_test("march_c-"))
        test = TestCase(sequence, NOMINAL_CONDITION, name="march")
        ate.apply(test, strobe_ns=25.0)
        assert sink.events == []
        assert not obs.OBS.metrics.counters
        assert not obs.OBS.metrics.histograms

    def test_reset_restores_disabled_state(self):
        obs.enable(RingBufferSink())
        obs.OBS.metrics.counter("c").inc()
        obs.reset()
        assert not obs.OBS.enabled
        assert obs.OBS.bus.sinks == []
        assert not obs.OBS.metrics.counters

"""Event order and counters from a scripted SUTP run.

The oracles are plain thresholds, so the exact emission sequence is
deterministic: a full-range bootstrap (eq. 2) emits search start/converged
events, a small drift walks incrementally (eqs. 3/4) emitting one event per
probe, and a runaway drift emits a fallback followed by a fresh full search.
"""

from repro import obs
from repro.obs.events import RingBufferSink
from repro.core.sutp import SearchUntilTripPoint
from repro.search.base import PassRegion


def make_sutp():
    return SearchUntilTripPoint(
        search_range=(0.0, 100.0),
        search_factor=1.0,
        pass_region=PassRegion.LOW,
        resolution=0.1,
    )


def threshold_oracle(trip):
    return lambda x: x <= trip


class TestScriptedRun:
    def test_event_sequence(self):
        sink = RingBufferSink()
        obs.enable(sink)
        sutp = make_sutp()

        # 1. Bootstrap: full-range search establishes the RTP (eq. 2).
        first = sutp.measure(threshold_oracle(50.0))
        assert first.used_full_search
        types = [e["type"] for e in sink.events]
        assert types == ["search_started", "search_converged"]
        assert sink.events[0]["low"] == 0.0
        assert sink.events[0]["high"] == 100.0
        sink.clear()

        # 2. Small drift: incremental walk, one event per probe.
        #    RTP ~50 passes, +1 -> ~51 passes, +2 -> ~53 fails: bracketed.
        second = sutp.measure(threshold_oracle(52.0))
        assert not second.used_full_search
        walk = sink.events
        # The two-step walk escalated past IT=1, so the bracket also emits
        # a window-escalation insight event.
        assert [e["type"] for e in walk] == [
            "sutp_walk_step",
            "sutp_walk_step",
            "sutp_window_escalated",
        ]
        assert [e["iteration"] for e in walk] == [1, 2, 2]
        assert walk[0]["passed"] and not walk[1]["passed"]
        # walking toward the fail region
        assert walk[0]["value"] < walk[1]["value"]
        escalation = walk[2]
        assert escalation["step"] == 2.0  # SF * IT = 1.0 * 2
        assert escalation["window"] == 3.0  # SF * IT(IT+1)/2
        assert escalation["probes"] == 3  # RTP probe + two walk probes
        assert not escalation["fallback"]
        sink.clear()

        # 3. Runaway drift: the walk leaves CR, falls back to full search.
        third = sutp.measure(lambda x: True)
        assert third.used_full_search
        types = [e["type"] for e in sink.events]
        assert types[:-4] == ["sutp_walk_step"] * (len(types) - 4)
        assert types[-4:] == [
            "sutp_fallback",
            "sutp_window_escalated",
            "search_started",
            "search_converged",
        ]
        fallback = sink.events[-4]
        assert fallback["value"] > 100.0  # the step that left the range
        assert sink.events[-3]["fallback"]

    def test_counters_after_scripted_run(self):
        obs.enable()
        sutp = make_sutp()
        sutp.measure(threshold_oracle(50.0))
        sutp.measure(threshold_oracle(52.0))
        sutp.measure(lambda x: True)

        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters["sutp.full_searches"]["value"] == 2
        assert counters["sutp.incremental_searches"]["value"] == 1
        assert counters["sutp.fallbacks"]["value"] == 1
        hist = obs.OBS.metrics.histograms["sutp.measurements_per_test"]
        assert hist.count == 3

    def test_fallback_counter_reported_at_zero_on_clean_run(self):
        obs.enable()
        sutp = make_sutp()
        sutp.measure(threshold_oracle(50.0))
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters["sutp.fallbacks"]["value"] == 0

    def test_search_probe_count_matches_converged_event(self):
        sink = RingBufferSink()
        obs.enable(sink)
        sutp = make_sutp()
        result = sutp.measure(threshold_oracle(50.0))
        (converged,) = sink.of_type("search_converged")
        assert converged["measurements"] == result.measurements
        assert converged["trip_point"] == result.trip_point

    def test_telemetry_does_not_change_results(self):
        def run():
            sutp = make_sutp()
            return [
                sutp.measure(threshold_oracle(50.0)),
                sutp.measure(threshold_oracle(52.0)),
                sutp.measure(lambda x: True),
            ]

        plain = run()
        obs.enable(RingBufferSink())
        traced = run()
        assert [(r.trip_point, r.measurements) for r in plain] == [
            (r.trip_point, r.measurements) for r in traced
        ]

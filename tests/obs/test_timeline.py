"""Chrome-trace / Perfetto timeline export."""

import pytest

from repro.obs.farm import align_records, extract_clock_sync
from repro.obs.timeline import build_chrome_trace


def _records():
    """A tiny two-worker farm trace: dispatch, run, retry, merge, phase."""
    return [
        {"type": "campaign_phase", "phase": "lot", "status": "start",
         "ts": 100.0},
        {"type": "farm_unit_dispatched", "key": "a", "kind": "t",
         "attempt": 1, "executor": "parallel", "ts": 100.1},
        {"type": "farm_unit_dispatched", "key": "b", "kind": "t",
         "attempt": 1, "executor": "parallel", "ts": 100.1},
        {"type": "farm_unit_retried", "key": "b", "attempt": 1,
         "error": "boom", "ts": 100.6},
        {"type": "farm_unit_dispatched", "key": "b", "kind": "t",
         "attempt": 2, "executor": "parallel", "ts": 100.6},
        {"type": "farm_unit_completed", "key": "a", "kind": "t",
         "attempt": 1, "elapsed_s": 0.5, "measurements": 10,
         "worker": "ForkProcess-1", "ts": 100.7},
        {"type": "farm_unit_completed", "key": "b", "kind": "t",
         "attempt": 2, "elapsed_s": 0.3, "measurements": 7,
         "worker": "ForkProcess-2", "ts": 101.0},
        {"type": "farm_unit_merged", "key": "a", "events": 10,
         "dropped_events": 0, "measurements": 10,
         "worker": "ForkProcess-1", "ts": 101.1},
        {"type": "campaign_phase", "phase": "lot", "status": "end",
         "duration_s": 1.2, "ts": 101.2},
    ]


class TestBuildChromeTrace:
    def test_empty_trace(self):
        assert build_chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_worker_tracks_and_spans(self):
        doc = build_chrome_trace(_records())
        events = doc["traceEvents"]
        running = [e for e in events if e.get("cat") == "running"]
        assert {e["name"] for e in running} == {"a", "b"}
        # one distinct track (tid) per worker
        assert len({e["tid"] for e in running}) == 2
        a = next(e for e in running if e["name"] == "a")
        # completed at 100.7 after 0.5s -> started at 100.2 -> 0.2s past t0
        assert a["ts"] == 200000.0 and a["dur"] == 500000.0
        assert a["args"]["measurements"] == 10

    def test_queued_span_measured_from_latest_dispatch(self):
        doc = build_chrome_trace(_records())
        queued = [e for e in doc["traceEvents"] if e.get("cat") == "queued"]
        b = next(e for e in queued if e["name"] == "b")
        # redispatched at 100.6, started at 101.0 - 0.3 = 100.7
        assert b["ts"] == 600000.0
        assert round(b["dur"]) == 100000

    def test_retry_and_merge_instants(self):
        events = build_chrome_trace(_records())["traceEvents"]
        assert any(
            e["ph"] == "i" and e["cat"] == "retry" and "b" in e["name"]
            for e in events
        )
        assert any(
            e["ph"] == "i" and e["cat"] == "merge" and "a" in e["name"]
            for e in events
        )

    def test_phase_span_on_campaign_track(self):
        events = build_chrome_trace(_records())["traceEvents"]
        phase = next(e for e in events if e.get("cat") == "phase")
        assert phase["name"] == "lot"
        assert phase["ts"] == 0.0 and phase["dur"] == 1200000.0

    def test_metadata_names_every_track(self):
        events = build_chrome_trace(_records())["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"campaign", "farm queue", "merge"} <= names
        assert {"worker ForkProcess-1", "worker ForkProcess-2"} <= names

    def test_unknown_types_and_missing_ts_are_ignored(self):
        doc = build_chrome_trace(
            [{"type": "mystery", "ts": 1.0}, {"type": "measurement"}]
        )
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


def _broker_records():
    """A remote-farm trace: broker lease story + skewed worker events.

    The broker's clock runs 10 s behind the client's; worker "w1" runs
    5 s ahead of the broker (so 5 s behind the client).  The closing
    ``broker_clock_sync`` carries the broker's estimates in its own
    ``peer − broker`` convention: client +10, w1 +5.
    """
    return [
        # Client-clocked events (never shifted).
        {"type": "farm_unit_dispatched", "key": "a", "attempt": 1,
         "ts": 1000.0},
        {"type": "farm_unit_completed", "key": "a", "attempt": 1,
         "elapsed_s": 1.0, "worker": "w1", "ts": 1002.0},
        # Broker-clocked events (broker = client − 10).
        {"type": "broker_campaign_started", "campaign": "camp", "units": 1,
         "restored": 0, "ts": 990.5},
        {"type": "lease_issued", "key": "a", "attempt": 1, "worker": "w1",
         "ts": 991.0},
        {"type": "lease_completed", "key": "a", "attempt": 1, "worker": "w1",
         "age_s": 1.2, "ok": True, "ts": 992.2},
        {"type": "lease_reissued", "key": "b", "attempt": 1,
         "reason": "lease expired", "ts": 991.8},
        {"type": "worker_joined", "worker": "w1", "worker_id": "w1#1",
         "ts": 990.7},
        # Worker-clocked event (w1 = broker + 5 = client − 5).
        {"type": "measurement", "worker": "w1", "ts": 996.5},
        {"type": "broker_clock_sync", "campaign": "camp",
         "offsets": {"w1": 5.0}, "client_offset_s": 10.0, "ts": 1002.5},
    ]


class TestBrokerTrack:
    def test_lease_span_lands_on_the_broker_track(self):
        events = build_chrome_trace(_broker_records())["traceEvents"]
        lease = next(e for e in events if e.get("cat") == "lease")
        assert lease["name"] == "a"
        assert lease["ph"] == "X"
        assert lease["dur"] == pytest.approx(1.2e6)
        assert lease["args"]["outcome"] == "ok"
        assert lease["args"]["worker"] == "w1"
        broker_tid = lease["tid"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[broker_tid] == "broker"

    def test_instants_for_reissue_join_and_campaign(self):
        events = build_chrome_trace(_broker_records())["traceEvents"]
        instants = {
            e["name"] for e in events if e.get("cat") == "broker"
        }
        assert "reissue b" in instants
        assert "join w1" in instants
        assert "campaign camp" in instants

    def test_skew_correction_aligns_broker_onto_client_axis(self):
        events = build_chrome_trace(_broker_records())["traceEvents"]
        # t0 is the earliest *aligned* timestamp.  Broker events shift
        # +10 s, w1 events shift +10 − 5 = +5 s; client events stay.
        # broker_campaign_started: 990.5 → 1000.5; dispatch stays 1000.0
        # (the earliest), so the campaign instant sits at +0.5 s.
        started = next(
            e for e in events if e["name"] == "campaign camp"
        )
        assert started["ts"] == pytest.approx(0.5e6)
        # lease_issued 991.0 → 1001.0 → +1.0 s after t0.
        lease = next(e for e in events if e.get("cat") == "lease")
        assert lease["ts"] == pytest.approx(1.0e6)
        # The worker-clocked measurement 996.5 → 1001.5; it does not
        # drag t0 five seconds early the way the raw trace would.
        assert min(e["ts"] for e in events if "ts" in e) >= 0.0

    def test_lease_span_duration_never_negative_under_skew(self):
        # A pathological sync (completion re-anchored before issue)
        # must clamp to zero, not render a negative span.
        records = [
            {"type": "lease_issued", "key": "a", "attempt": 1,
             "worker": "w1", "ts": 100.0},
            {"type": "lease_completed", "key": "a", "attempt": 1,
             "worker": "w1", "age_s": 0.0, "ok": True, "ts": 99.5},
        ]
        events = build_chrome_trace(records)["traceEvents"]
        lease = next(e for e in events if e.get("cat") == "lease")
        assert lease["dur"] == 0.0
        assert lease["ts"] == 0.0  # anchored at the earlier endpoint

    def test_no_broker_track_without_broker_events(self):
        events = build_chrome_trace(_records())["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "broker" not in names


class TestAlignRecords:
    def test_identity_without_clock_sync(self):
        records = _records()
        assert align_records(records) == records

    def test_offsets_shift_broker_and_worker_events_only(self):
        records = [
            {"type": "farm_unit_completed", "key": "a", "worker": "w1",
             "elapsed_s": 0.1, "ts": 1000.0},
            {"type": "lease_issued", "key": "a", "attempt": 1,
             "worker": "w1", "ts": 990.0},
            {"type": "measurement", "worker": "w1", "ts": 995.0},
            {"type": "measurement", "worker": "unknown", "ts": 995.0},
            {"type": "broker_clock_sync", "offsets": {"w1": 5.0},
             "client_offset_s": 10.0, "ts": 1001.0},
        ]
        aligned = align_records(records)
        by_type = {}
        for record in aligned:
            by_type.setdefault(record["type"], []).append(record)
        assert by_type["farm_unit_completed"][0]["ts"] == 1000.0
        assert by_type["lease_issued"][0]["ts"] == 1000.0   # +10
        shifted, unshifted = by_type["measurement"]
        assert shifted["ts"] == 1000.0                      # +10 − 5
        assert unshifted["ts"] == 995.0  # no offset for that worker
        # Input untouched (shifted records are copies).
        assert records[1]["ts"] == 990.0

    def test_extract_clock_sync_last_record_wins(self):
        records = [
            {"type": "broker_clock_sync", "offsets": {"w1": 1.0},
             "client_offset_s": 2.0, "ts": 1.0},
            {"type": "broker_clock_sync", "offsets": {"w1": 1.5},
             "client_offset_s": 2.5, "ts": 2.0},
        ]
        offsets, client = extract_clock_sync(records)
        assert offsets == {"w1": 1.5}
        assert client == 2.5

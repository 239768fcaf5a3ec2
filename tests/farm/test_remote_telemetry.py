"""Broker control-plane telemetry: clocks, events, stats, /metrics.

Covers the observability layer the broker grew around the wire
protocol: the min-filter clock-skew estimator fed by paired
wall+monotonic stamps, the pre-stamped event payloads shipped in
``campaign_done``, the ``stats`` protocol role behind
``repro farm-top``, and the embedded Prometheus endpoint.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.farm.remote import (
    PROTOCOL_VERSION,
    FarmBroker,
    fetch_broker_stats,
    pack,
    recv_frame,
    send_frame,
)
from repro.farm.remote.telemetry import (
    BrokerTelemetry,
    ClockEstimator,
    clock_stamp,
)
from repro.farm.remote.worker import _HeartbeatPump
from repro.obs.events import event
from repro.obs.exposition import find_sample, parse_exposition
from repro.obs.farm import render_farm_top
from repro.obs.report import TraceFold

from tests.farm.test_remote_broker import (
    _connect,
    _deliver,
    _drain_until,
    _hello,
    _pull,
    _submit,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestClockStamp:
    def test_carries_paired_wall_and_monotonic(self):
        stamp = clock_stamp()
        assert set(stamp) == {"wall", "mono"}
        assert isinstance(stamp["wall"], float)
        assert isinstance(stamp["mono"], float)

    def test_monotonic_component_is_monotonic(self):
        first = clock_stamp()
        second = clock_stamp()
        assert second["mono"] >= first["mono"]


class TestClockEstimator:
    def test_no_samples_means_zero_offset(self):
        assert ClockEstimator().offset_s == 0.0

    def test_min_filter_converges_on_offset(self):
        # Remote clock runs 3.0 s ahead; network delay varies per frame.
        # The minimum delta is offset-corrupted only by the *best-case*
        # delay, so the estimate lands within that delay of the truth.
        offset = 3.0
        estimator = ClockEstimator()
        delays = [0.080, 0.035, 0.002, 0.150, 0.049]
        base = 1_000_000.0
        for i, delay in enumerate(delays):
            true_send = base + i
            estimator.observe(
                wall_sent=true_send + offset,
                mono_sent=50.0 + i,
                wall_received=true_send + delay,
            )
        assert estimator.samples == len(delays)
        assert estimator.jumps == 0
        assert offset - 0.002 - 1e-9 <= estimator.offset_s <= offset

    def test_wall_jump_resets_the_filter(self):
        estimator = ClockEstimator()
        # Two consistent samples with a small delay.
        estimator.observe(100.0, 10.0, wall_received=100.01)
        estimator.observe(101.0, 11.0, wall_received=101.01)
        assert estimator.jumps == 0
        before = estimator.offset_s
        # Wall steps +60 s while monotonic advances 1 s: an NTP step.
        estimator.observe(162.0, 12.0, wall_received=102.02)
        assert estimator.jumps == 1
        # The filter restarted from the post-jump sample: the stale
        # pre-jump minimum no longer poisons the estimate.
        assert estimator.offset_s != before
        assert estimator.offset_s == pytest.approx(162.0 - 102.02)

    def test_small_wall_mono_disagreement_is_not_a_jump(self):
        estimator = ClockEstimator()
        estimator.observe(100.0, 10.0, wall_received=100.01)
        estimator.observe(101.1, 11.0, wall_received=101.11)  # 0.1 s drift
        assert estimator.jumps == 0


class TestBrokerTelemetry:
    def test_emit_pre_stamps_trace_context(self):
        telemetry = BrokerTelemetry()
        before = time.time()
        payload = telemetry.emit(
            event("lease_issued", key="u/1", attempt=2, worker="w1"),
            campaign="camp",
            span_id="u/1",
        )
        assert payload["type"] == "lease_issued"
        assert payload["trace_id"] == "camp"
        assert payload["span_id"] == "u/1"
        assert payload["worker"] == "w1"
        assert before <= payload["ts"] <= time.time()

    def test_emit_defaults_worker_to_broker(self):
        telemetry = BrokerTelemetry()
        payload = telemetry.emit(
            event("worker_joined", worker=None, worker_id="x#1")
        )
        assert payload["worker"] == "broker"

    def test_drain_hands_over_and_clears(self):
        telemetry = BrokerTelemetry()
        telemetry.emit(
            event("lease_issued", key="u/1", attempt=1, worker="w")
        )
        drained, dropped = telemetry.drain_events()
        assert [p["type"] for p in drained] == ["lease_issued"]
        assert dropped == 0
        assert telemetry.drain_events() == ([], 0)

    def test_buffer_overflow_keeps_head_and_counts_drops(self, monkeypatch):
        import repro.farm.remote.telemetry as mod

        monkeypatch.setattr(mod, "EVENT_BUFFER_LIMIT", 3)
        telemetry = BrokerTelemetry()
        for i in range(5):
            telemetry.emit(
                event("lease_issued", key=f"u/{i}", attempt=1, worker="w")
            )
        drained, dropped = telemetry.drain_events()
        assert [p["key"] for p in drained] == ["u/0", "u/1", "u/2"]
        assert dropped == 2
        assert telemetry.drain_events() == ([], 0)  # drain resets the count

    def test_emitted_payloads_reach_the_local_trace(self, tmp_path):
        trace = tmp_path / "broker.jsonl"
        obs.configure(trace_path=trace)
        telemetry = BrokerTelemetry()
        payload = telemetry.emit(
            event("lease_issued", key="u/1", attempt=1, worker="w1"),
            campaign="camp",
        )
        obs.reset()
        fold = TraceFold()
        records = list(fold.read(trace))
        assert fold.dropped_lines == 0
        assert len(records) == 1
        # The pre-stamped fields survive the sink's setdefault pass.
        assert records[0]["ts"] == payload["ts"]
        assert records[0]["trace_id"] == "camp"
        assert records[0]["worker"] == "w1"

    def test_observe_clock_tolerates_garbage(self):
        telemetry = BrokerTelemetry()
        telemetry.observe_clock("w", None)
        telemetry.observe_clock("w", "nonsense")
        telemetry.observe_clock("w", {})
        telemetry.observe_clock("w", {"wall": "NaNsense", "mono": 1.0})
        assert telemetry.clock_offsets() == {}
        telemetry.observe_clock("w", clock_stamp())
        assert set(telemetry.clock_offsets()) == {"w"}


def _serve_one_campaign(live, campaign, keys):
    """Run ``keys`` as ``campaign`` through a raw-frame worker; the
    client's ``campaign_done`` frame."""
    client = _connect(live.address)
    worker = _connect(live.address)
    try:
        assert _hello(client, "client")["type"] == "welcome"
        assert _submit(client, campaign, keys)["type"] == "accepted"
        assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
        for _ in keys:
            unit = _pull(worker)
            _deliver(worker, unit["key"], unit["attempt"])
        return _drain_until(client, "campaign_done")[-1]
    finally:
        client.close()
        worker.close()


class TestCampaignEventBuffer:
    def test_a_dropped_campaign_leaves_no_events_for_the_next(self):
        with FarmBroker(port=0, poll_s=0.05) as live:
            gone = _connect(live.address)
            assert _hello(gone, "client")["type"] == "welcome"
            assert _submit(gone, "campaign-A", ["u/1"])["type"] == "accepted"
            gone.close()  # no worker ever came: the campaign is dropped
            address = "%s:%d" % live.address
            deadline = time.monotonic() + 10.0
            while fetch_broker_stats(address)["campaign"] is not None:
                assert time.monotonic() < deadline, "campaign-A not dropped"
                time.sleep(0.02)
            done = _serve_one_campaign(live, "campaign-B", ["u/1"])
        traced = {payload.get("trace_id") for payload in done["telemetry"]}
        assert "campaign-A" not in traced
        started = [
            payload["campaign"] for payload in done["telemetry"]
            if payload["type"] == "broker_campaign_started"
        ]
        assert started == ["campaign-B"]

    def test_a_full_buffer_is_counted_on_the_client(self, monkeypatch):
        import repro.farm.remote.telemetry as mod
        from repro.farm.remote.executor import RemoteExecutor

        monkeypatch.setattr(mod, "EVENT_BUFFER_LIMIT", 2)
        with FarmBroker(port=0, poll_s=0.05) as live:
            done = _serve_one_campaign(live, "full", ["u/1", "u/2"])
            client = RemoteExecutor(broker=live.address)
        assert len(done["telemetry"]) == 2
        assert done["events_dropped"] > 0
        obs.enable()
        client._replay_broker_telemetry("full", done)
        dropped = obs.OBS.metrics.counters["farm.broker.dropped_events"]
        assert dropped.value == done["events_dropped"]


class TestHeartbeatSkewStamps:
    def test_each_beat_carries_a_fresh_monotone_stamp(self):
        ours, theirs = socket.socketpair()
        ours.settimeout(5.0)
        theirs.settimeout(5.0)
        frames = []
        try:
            with _HeartbeatPump(
                theirs, threading.Lock(), "u/1", 2, interval_s=0.05
            ):
                while len(frames) < 3:
                    frame = recv_frame(ours)
                    assert frame is not None
                    frames.append(frame)
        finally:
            ours.close()
            theirs.close()
        stamps = []
        for frame in frames:
            assert frame["type"] == "heartbeat"
            assert frame["key"] == "u/1" and frame["attempt"] == 2
            clock = frame["clock"]
            assert isinstance(clock["wall"], float)
            assert isinstance(clock["mono"], float)
            stamps.append(clock)
        # Stamped at send time, not pump construction: strictly
        # increasing monotonic values, and the wall clock tracks the
        # monotonic steps (no frozen or reused stamp).
        monos = [s["mono"] for s in stamps]
        assert monos == sorted(monos)
        assert len(set(monos)) == len(monos)
        for prev, cur in zip(stamps, stamps[1:]):
            wall_step = cur["wall"] - prev["wall"]
            mono_step = cur["mono"] - prev["mono"]
            assert mono_step > 0.0
            assert abs(wall_step - mono_step) < 0.25

    def test_broker_folds_heartbeat_stamps_into_the_estimator(self):
        with FarmBroker(port=0, poll_s=0.05) as live:
            client = _connect(live.address)
            worker = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                assert _submit(client, "hb-camp", ["u/1"])["type"] == \
                    "accepted"
                assert _hello(worker, "worker",
                              worker="w1")["type"] == "welcome"
                unit = _pull(worker)
                for _ in range(3):
                    send_frame(worker, {
                        "type": "heartbeat",
                        "key": unit["key"],
                        "attempt": unit["attempt"],
                        "clock": clock_stamp(),
                    })
                _deliver(worker, unit["key"], unit["attempt"])
                _drain_until(client, "campaign_done")
                offsets = live.telemetry.clock_offsets()
                assert "w1" in offsets
                # Same host, same clock: the estimate is a small
                # non-negative-delay bias away from zero.
                assert abs(offsets["w1"]) < 0.5
            finally:
                client.close()
                worker.close()


class TestStatsProtocol:
    def test_fetch_stats_from_idle_broker(self):
        with FarmBroker(port=0, poll_s=0.05) as live:
            host, port = live.address
            stats = fetch_broker_stats(f"{host}:{port}", timeout_s=5.0)
        assert stats["workers_connected"] == 0
        assert stats["queue_depth"] == 0
        assert stats["campaign"] is None
        assert stats["uptime_s"] >= 0.0
        assert stats["totals"]["campaigns"] == 0

    def test_stats_reflect_live_campaign_and_lease(self):
        with FarmBroker(port=0, poll_s=0.05) as live:
            client = _connect(live.address)
            worker = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                assert _submit(client, "top-camp",
                               ["u/1", "u/2"])["type"] == "accepted"
                assert _hello(worker, "worker",
                              worker="w1")["type"] == "welcome"
                unit = _pull(worker)
                host, port = live.address
                stats = fetch_broker_stats(f"{host}:{port}")
                assert stats["workers_connected"] == 1
                assert stats["leases_active"] == 1
                campaign = stats["campaign"]
                assert campaign["id"] == "top-camp"
                assert campaign["units"] == 2
                assert campaign["leased"] == 1
                (entry,) = stats["workers"]
                assert entry["name"] == "w1"
                assert entry["lease"]["key"] == unit["key"]
                assert entry["lease"]["age_s"] >= 0.0
                # The stats observer must not disturb the campaign.
                _deliver(worker, unit["key"], unit["attempt"])
                unit2 = _pull(worker)
                _deliver(worker, unit2["key"], unit2["attempt"])
                done = _drain_until(client, "campaign_done")[-1]
                assert done["completed"] == 2
            finally:
                client.close()
                worker.close()

    def test_unreachable_broker_raises_connection_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()  # nothing listens here any more
        with pytest.raises((ConnectionError, OSError)):
            fetch_broker_stats(f"{host}:{port}", timeout_s=1.0)


class TestMetricsEndpoint:
    def test_exposition_parses_and_reports_gauges(self):
        with FarmBroker(port=0, poll_s=0.05, metrics_port=0) as live:
            host, port = live.metrics_address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5.0
            ).read().decode("utf-8")
            samples = parse_exposition(body)
            uptime = find_sample(samples, "repro_farm_uptime_seconds", {})
            assert uptime is not None and uptime.value >= 0.0
            workers = find_sample(samples, "repro_farm_workers_connected", {})
            assert workers is not None and workers.value == 0.0
            active = find_sample(samples, "repro_farm_campaign_active", {})
            assert active is not None and active.value == 0.0

    def test_obs_alerts_cli_accepts_full_metrics_url(self, capsys):
        # farm-broker prints the complete .../metrics URL; `obs alerts
        # --url` must accept it verbatim (no /metrics double-append) as
        # well as the bare base URL.
        from repro import cli

        with FarmBroker(port=0, poll_s=0.05, metrics_port=0) as live:
            host, port = live.metrics_address
            full = f"http://{host}:{port}/metrics"
            assert cli.main(["obs", "alerts", "--url", full]) == 0
            assert cli.main(
                ["obs", "alerts", "--url", f"http://{host}:{port}"]
            ) == 0
        out = capsys.readouterr().out
        assert "repro_farm_reissue_rate" in out

    def test_healthz_and_unknown_path(self):
        with FarmBroker(port=0, poll_s=0.05, metrics_port=0) as live:
            host, port = live.metrics_address
            health = urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5.0
            )
            assert json.loads(health.read()) == {"status": "ok"}
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5.0
                )
            assert err.value.code == 404

    def test_counters_accumulate_across_a_campaign(self):
        with FarmBroker(port=0, poll_s=0.05, metrics_port=0) as live:
            client = _connect(live.address)
            worker = _connect(live.address)
            try:
                assert _hello(client, "client")["type"] == "welcome"
                assert _submit(client, "m-camp", ["u/1"])["type"] == \
                    "accepted"
                assert _hello(worker, "worker",
                              worker="w1")["type"] == "welcome"
                unit = _pull(worker)
                _deliver(worker, unit["key"], unit["attempt"])
                _drain_until(client, "campaign_done")
            finally:
                client.close()
                worker.close()
            host, port = live.metrics_address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5.0
            ).read().decode("utf-8")
        samples = parse_exposition(body)
        issued = find_sample(samples, "repro_farm_lease_issued_total", {})
        assert issued is not None and issued.value == 1.0
        completed = find_sample(samples, "repro_farm_units_completed_total", {})
        assert completed is not None and completed.value == 1.0
        per_worker = find_sample(
            samples, "repro_farm_worker_units_total", {"label": "w1"}
        )
        assert per_worker is not None and per_worker.value == 1.0


class _FakeStats:
    """A hand-built ``stats`` frame body, as the broker would send it."""

    @staticmethod
    def busy():
        return {
            "uptime_s": 125.0,
            "queue_depth": 3,
            "leases_active": 1,
            "workers_connected": 2,
            "workers": [
                {
                    "name": "rig-a", "worker_id": "rig-a#1",
                    "completed": 12, "failed": 1,
                    "units_per_minute": 4.8, "connected_s": 150.0,
                    "idle_s": 0.4, "clock_offset_s": 0.123,
                    "lease": {"key": "die/007", "attempt": 2, "age_s": 3.0},
                },
                {
                    "name": "rig-b", "worker_id": "rig-b#2",
                    "completed": 9, "failed": 0,
                    "units_per_minute": 3.6, "connected_s": 150.0,
                    "idle_s": 12.0, "clock_offset_s": -1.5,
                    "lease": None,
                },
            ],
            "totals": {
                "campaigns": 2, "units_completed": 21, "units_failed": 1,
                "reissues": 3, "duplicates_dropped": 1,
                "stale_heartbeats": 4,
            },
            "campaign": {
                "id": "lot-7", "units": 30, "pending": 3, "leased": 1,
                "completed": 21, "failed": 1, "reissues": 3,
                "duplicates_dropped": 1, "max_attempts": 3,
                "lease_s": 30.0, "finished": False,
            },
        }


class TestFarmTopRendering:
    def test_busy_frame_renders_every_section(self):
        screen = render_farm_top(_FakeStats.busy())
        assert "2 worker(s)" in screen
        assert "queue 3" in screen
        assert "campaign 'lot-7': 21/30 done, 3 pending" in screen
        assert "3 reissue(s)" in screen
        assert "lifetime: 2 campaign(s), 21 completed" in screen
        # The worker table: names, throughput, skew sign, lease cell.
        assert "rig-a" in screen and "rig-b" in screen
        assert "4.8" in screen
        assert "+0.123s" in screen
        assert "-1.500s" in screen
        assert "die/007 #2 (3s)" in screen
        lines = screen.splitlines()
        (header,) = [l for l in lines if l.startswith("WORKER")]
        for column in ("DONE", "FAIL", "U/MIN", "SKEW", "LEASE"):
            assert column in header

    def test_idle_frame_renders_fallbacks(self):
        screen = render_farm_top({
            "uptime_s": 5.0, "queue_depth": 0, "leases_active": 0,
            "workers_connected": 0, "workers": [], "totals": {},
            "campaign": None,
        })
        assert "no active campaign" in screen
        assert "(no workers connected)" in screen

    def test_age_formatting_scales_units(self):
        screen = render_farm_top({
            "uptime_s": 7200.0, "queue_depth": 0, "leases_active": 0,
            "workers_connected": 0, "workers": [], "totals": {},
            "campaign": None,
        })
        assert "up 2.0h" in screen

"""Socket-level broker tests: hand-rolled client and worker frames.

These talk the wire protocol directly (no RemoteExecutor, no
run_worker) so each broker decision — version rejection, stale
campaign pins, duplicate suppression, retry exhaustion — is
observable frame by frame.
"""

import socket
import threading

import pytest

from repro.farm.remote import broker as broker_module
from repro.farm.remote import (
    PROTOCOL_VERSION,
    FarmBroker,
    pack,
    recv_frame,
    send_frame,
)


@pytest.fixture
def broker():
    with FarmBroker(port=0, lease_timeout_s=30.0, poll_s=0.05) as live:
        yield live


def _connect(address):
    sock = socket.create_connection(address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _hello(sock, role, version=PROTOCOL_VERSION, **extra):
    send_frame(sock, {"type": "hello", "role": role, "version": version,
                      **extra})
    return recv_frame(sock)


def _submit(sock, campaign, keys, max_attempts=2):
    send_frame(sock, {
        "type": "submit",
        "campaign": campaign,
        "units": [{"key": key, "unit": pack({"key": key})} for key in keys],
        "runner": "tests.farm.runners:echo_runner",
        "config": None,
        "max_attempts": max_attempts,
        "lease_s": 30.0,
    })
    return recv_frame(sock)


def _pull(worker):
    send_frame(worker, {"type": "request"})
    return recv_frame(worker)


def _deliver(worker, key, attempt, ok=True, error=None):
    frame = {"type": "result", "key": key, "attempt": attempt, "ok": ok,
             "elapsed_s": 0.01}
    if ok:
        frame["outcome"] = pack({"key": key})
    else:
        frame["error"] = error or "boom"
    send_frame(worker, frame)
    return recv_frame(worker)


def _drain_until(sock, wanted, limit=50):
    frames = []
    for _ in range(limit):
        frame = recv_frame(sock)
        assert frame is not None, f"EOF before a {wanted!r} frame"
        frames.append(frame)
        if frame["type"] == wanted:
            return frames
    raise AssertionError(f"no {wanted!r} frame within {limit} frames")


class TestHandshake:
    def test_version_mismatch_rejected(self, broker):
        sock = _connect(broker.address)
        try:
            reply = _hello(sock, "worker", version=PROTOCOL_VERSION + 1)
            assert reply["type"] == "reject"
            assert "version" in reply["reason"]
        finally:
            sock.close()
        assert broker.stats_payload()["totals"]["workers_seen"] == 0

    def test_unknown_role_rejected(self, broker):
        sock = _connect(broker.address)
        try:
            reply = _hello(sock, "auditor")
            assert reply["type"] == "reject"
            assert "role" in reply["reason"]
        finally:
            sock.close()

    def test_worker_welcomed_and_idles_without_campaign(self, broker):
        sock = _connect(broker.address)
        try:
            assert _hello(sock, "worker", worker="w1")["type"] == "welcome"
            idle = _pull(sock)
            assert idle["type"] == "idle"
            assert idle["poll_s"] == broker.poll_s
        finally:
            sock.close()

    def test_second_client_rejected_while_campaign_active(self, broker):
        first = _connect(broker.address)
        second = _connect(broker.address)
        try:
            assert _hello(first, "client")["type"] == "welcome"
            assert _submit(first, "camp-a", ["u/1"])["type"] == "accepted"
            reply = _hello(second, "client")
            assert reply["type"] == "reject"
            assert "one campaign at a time" in reply["reason"]
        finally:
            first.close()
            second.close()

    def test_stale_campaign_pin_refused(self, broker):
        client = _connect(broker.address)
        pinned = _connect(broker.address)
        matching = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp-a", ["u/1"])["type"] == "accepted"
            # A worker pinned to a finished/previous campaign must not
            # pull camp-a units it was never meant for.
            reply = _hello(pinned, "worker", worker="w1", campaign="camp-b")
            assert reply["type"] == "reject"
            assert "stale campaign" in reply["reason"]
            # The same pin against the matching campaign is welcomed.
            reply = _hello(matching, "worker", worker="w2", campaign="camp-a")
            assert reply["type"] == "welcome"
        finally:
            client.close()
            pinned.close()
            matching.close()
        assert broker.stats_payload()["totals"]["workers_rejected"] == 1


class TestCampaignFlow:
    def test_dispatch_results_and_completion_frames(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            accepted = _submit(client, "camp", ["u/1", "u/2"])
            assert accepted["type"] == "accepted"
            assert accepted["pending"] == 2

            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
            for expected_key in ("u/1", "u/2"):
                unit = _pull(worker)
                assert unit["type"] == "unit"
                assert unit["key"] == expected_key
                assert unit["attempt"] == 1
                assert unit["runner"] == "tests.farm.runners:echo_runner"
                ack = _deliver(worker, unit["key"], unit["attempt"])
                assert ack == {"type": "ack", "accepted": True}
            assert _pull(worker)["type"] == "idle"

            frames = _drain_until(client, "campaign_done")
            kinds = [frame["type"] for frame in frames]
            assert kinds.count("leased") == 2
            assert kinds.count("done") == 2
            final = frames[-1]
            assert final["completed"] == 2
            assert final["failed"] == []
            assert final["reissues"] == 0
        finally:
            client.close()
            worker.close()
        assert broker.stats_payload()["totals"]["units_completed"] == 2

    def test_duplicate_delivery_suppressed(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            reply = _submit(client, "camp", ["u/1", "u/2"])
            assert reply["type"] == "accepted"
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
            unit = _pull(worker)
            assert _deliver(worker, unit["key"], 1)["accepted"] is True
            # Redeliver the first unit before the campaign finishes.
            again = _deliver(worker, unit["key"], 1)
            assert again["accepted"] is False
            assert "duplicate" in again["reason"]
            unit = _pull(worker)
            assert _deliver(worker, unit["key"], 1)["accepted"] is True
            frames = _drain_until(client, "campaign_done")
            assert [f["type"] for f in frames].count("done") == 2
            assert frames[-1]["duplicates_dropped"] == 1
        finally:
            client.close()
            worker.close()
        assert broker.stats_payload()["totals"]["duplicates_dropped"] == 1

    def test_failed_attempt_retries_then_exhausts(self, broker):
        client = _connect(broker.address)
        worker = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            reply = _submit(client, "camp", ["u/1"], max_attempts=2)
            assert reply["type"] == "accepted"
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"

            unit = _pull(worker)
            assert unit["attempt"] == 1
            assert _deliver(worker, "u/1", 1, ok=False,
                            error="first crash")["accepted"] is True
            retry = _pull(worker)
            assert retry["type"] == "unit"
            assert retry["attempt"] == 2
            assert _deliver(worker, "u/1", 2, ok=False,
                            error="second crash")["accepted"] is True
            assert _pull(worker)["type"] == "idle"

            frames = _drain_until(client, "campaign_done")
            kinds = [frame["type"] for frame in frames]
            assert "retry" in kinds
            assert "unit_failed" in kinds
            failed = next(f for f in frames if f["type"] == "unit_failed")
            assert failed["key"] == "u/1"
            assert "second crash" in failed["reason"]
            assert frames[-1]["failed"] == ["u/1"]
        finally:
            client.close()
            worker.close()
        assert broker.stats_payload()["totals"]["units_failed"] == 1
        assert broker.stats_payload()["totals"]["reissues"] == 1

    def test_worker_disconnect_requeues_leased_unit(self, broker):
        client = _connect(broker.address)
        first = _connect(broker.address)
        second = _connect(broker.address)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", ["u/1"])["type"] == "accepted"
            assert _hello(first, "worker", worker="w1")["type"] == "welcome"
            unit = _pull(first)
            assert unit["type"] == "unit"
            # The worker vanishes with the unit leased: its lease is
            # released on disconnect and the unit re-issued.
            first.close()
            assert _hello(second, "worker", worker="w2")["type"] == "welcome"
            reissued = None
            for _ in range(100):
                frame = _pull(second)
                if frame["type"] == "unit":
                    reissued = frame
                    break
            assert reissued is not None, "unit never re-issued"
            assert reissued["key"] == "u/1"
            assert reissued["attempt"] == 2
            assert _deliver(second, "u/1", 2)["accepted"] is True
            frames = _drain_until(client, "campaign_done")
            assert frames[-1]["completed"] == 1
            assert frames[-1]["reissues"] == 1
        finally:
            client.close()
            second.close()


class TestAcceptOrdering:
    def test_worker_request_during_accept_cannot_overtake_it(
        self, broker, monkeypatch
    ):
        """A worker asking for work while the broker is accepting a
        campaign must not get a unit (and push "leased" to the client)
        before the client has its "accepted" frame.

        The broker's "accepted" send is held until the worker's request
        has been served or one second has passed.  A broker that lets the
        request through serves it at once, the client's first frame is
        then "leased", and the test fails; a correct broker keeps the
        request waiting until the accept is out.
        """
        worker = _connect(broker.address)
        unit_sent = threading.Event()
        real_send = broker_module.send_frame

        def send(sock, frame):
            if frame.get("type") == "unit":
                unit_sent.set()
            elif frame.get("type") == "accepted":
                real_send(worker, {"type": "request"})
                unit_sent.wait(1.0)
            real_send(sock, frame)

        monkeypatch.setattr(broker_module, "send_frame", send)
        client = _connect(broker.address)
        try:
            assert _hello(worker, "worker", worker="w1")["type"] == "welcome"
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp-a", ["u/1"])["type"] == "accepted"
            unit = recv_frame(worker)
            assert unit["type"] == "unit"
            assert recv_frame(client)["type"] == "leased"
        finally:
            client.close()
            worker.close()


class TestCompletionOrdering:
    def test_campaign_done_cannot_overtake_a_done_frame(
        self, broker, monkeypatch
    ):
        """The last result to complete must not announce "campaign_done"
        while another worker's "done" frame is still on its way.

        The broker completes a result under its lock and pushes the
        "done" frame after releasing it.  Here the push of u/1's frame is
        held until u/2 has been delivered by a second worker and
        "campaign_done" has gone out, or one second has passed.  A broker
        that counts completions announces the end between the two, and
        the client never sees u/1's result; a broker that counts pushed
        results waits for it.
        """
        client = _connect(broker.address)
        first = _connect(broker.address)
        second = _connect(broker.address)
        finished = threading.Event()
        real_push = broker_module._Campaign.push

        def push(campaign, frame):
            if frame["type"] == "campaign_done":
                finished.set()
            elif frame["type"] == "done" and frame["key"] == "u/1":
                send_frame(second, {
                    "type": "result", "key": "u/2", "attempt": 1, "ok": True,
                    "elapsed_s": 0.01, "outcome": pack({"key": "u/2"}),
                })
                finished.wait(1.0)
            real_push(campaign, frame)

        monkeypatch.setattr(broker_module._Campaign, "push", push)
        try:
            assert _hello(client, "client")["type"] == "welcome"
            assert _submit(client, "camp", ["u/1", "u/2"])["type"] == "accepted"
            assert _hello(first, "worker", worker="w1")["type"] == "welcome"
            assert _hello(second, "worker", worker="w2")["type"] == "welcome"
            assert _pull(first)["key"] == "u/1"
            assert _pull(second)["key"] == "u/2"
            assert _deliver(first, "u/1", 1)["accepted"] is True
            assert recv_frame(second)["accepted"] is True
            frames = _drain_until(client, "campaign_done")
            done = sorted(f["key"] for f in frames if f["type"] == "done")
            assert done == ["u/1", "u/2"]
            assert frames[-1]["completed"] == 2
        finally:
            client.close()
            first.close()
            second.close()


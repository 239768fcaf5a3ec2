"""The farm broker: a TCP hub matching campaign units to socket workers.

One broker serves one campaign at a time (the submitting client owns it
until it finishes or the client disconnects) and any number of workers,
which may join and leave at any point:

* **Work-stealing dispatch** — workers *pull*: a ``request`` frame takes
  the next pending unit, so a fast worker simply asks more often and no
  static plan can strand a long unit behind a slow host.  The client
  still submits units longest-first by ``cost_hint``, which seeds the
  queue well; after that, completion order is whatever the
  workers make of it — the client's executor merges deterministically
  by submission order regardless.
* **Leases + heartbeats** — every dispatched unit is leased (see
  :mod:`repro.farm.remote.leases`); workers heartbeat while executing.
  A lease that expires (worker killed, network gone, heartbeats too
  slow) re-queues the unit as a new attempt, up to the campaign's
  ``max_attempts``; exhaustion fails the unit and the client raises the
  same :class:`~repro.farm.executor.FarmExecutionError` a process pool
  would.
* **Duplicate suppression** — results are accepted once per unit,
  keyed on unit id + attempt bookkeeping in the lease table.  A
  presumed-dead worker delivering late, or a worker delivering the same
  frame twice, gets ``ack accepted=false`` and the result is dropped,
  so a unit can never be double-merged.

The broker keeps no record of finished units across restarts: the
client's checkpoint (``--resume FILE``) is that record, so a re-run
against a fresh broker submits only the units it does not hold.

Pushes to the client happen under a per-campaign send lock from
whichever thread accepted the result; the client executor is always
draining its socket, so these sends cannot back up in practice (the
frames are small and the peer reads eagerly).
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.farm.remote.leases import LeaseTable
from repro.farm.remote.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.farm.remote.telemetry import BrokerTelemetry, MetricsHTTPServer
from repro.obs.events import event
from repro.obs.exposition import render_exposition

logger = logging.getLogger("repro.farm.remote")

#: How long an idle worker is told to wait before asking again.
DEFAULT_POLL_S = 0.25

#: Default lease lifetime; generous against heartbeat jitter, small
#: enough that a SIGKILLed worker's units re-issue promptly.
DEFAULT_LEASE_TIMEOUT_S = 30.0

#: ``stats_payload()["totals"]`` keys and the broker counters they read.
_TOTALS = {
    "campaigns": "farm.campaigns",
    "units_dispatched": "farm.lease_issued",
    "units_completed": "farm.units_completed",
    "units_failed": "farm.units_failed",
    "reissues": "farm.lease_reissued",
    "duplicates_dropped": "farm.duplicate_suppressed",
    "stale_heartbeats": "farm.stale_heartbeats",
    "workers_seen": "farm.workers_joined",
    "workers_left": "farm.workers_left",
    "workers_rejected": "farm.workers_rejected",
}


class _WorkerState:
    """Per-connection worker bookkeeping for stats and throughput."""

    __slots__ = (
        "name", "worker_id", "connected_mono", "completed", "failed",
        "last_seen_mono",
    )

    def __init__(self, name: str, worker_id: str) -> None:
        self.name = name
        self.worker_id = worker_id
        self.connected_mono = time.monotonic()
        self.completed = 0
        self.failed = 0
        self.last_seen_mono = self.connected_mono


class _Campaign:
    """State of the one active campaign: queue, leases, client socket."""

    def __init__(
        self,
        campaign_id: str,
        units: Dict[str, str],
        order: List[str],
        runner: str,
        config: Optional[str],
        max_attempts: int,
        lease_timeout_s: float,
        client: socket.socket,
    ) -> None:
        self.id = campaign_id
        self.units = units          # key -> packed WorkUnit
        self.order = order          # submission order (longest-first)
        self.runner = runner
        self.config = config
        self.max_attempts = max_attempts
        self.leases = LeaseTable(lease_timeout_s)
        self.pending: Deque[str] = deque(order)
        self.failed: Dict[str, str] = {}
        #: Keys whose "done" frame has been pushed to the client.  A
        #: result is completed under the broker lock but pushed after
        #: it, so the campaign counts pushes: "campaign_done" cannot
        #: overtake a "done" still on its way.
        self.delivered: Set[str] = set()
        self.client = client
        self.client_lock = threading.Lock()
        self.client_alive = True
        self.reissues = 0
        #: The hello name of the submitting client — keys its clock
        #: offset estimate in the broker telemetry.
        self.client_name = "client"

    @property
    def finished(self) -> bool:
        return len(self.delivered) + len(self.failed) >= len(self.units)

    def push(self, frame: Dict[str, Any]) -> None:
        """Send one frame to the campaign's client (best-effort)."""
        if not self.client_alive:
            return
        try:
            with self.client_lock:
                send_frame(self.client, frame)
        except OSError:
            self.client_alive = False


class FarmBroker:
    """Accepts client and worker connections; owns the campaign state.

    Parameters
    ----------
    host / port:
        Listen address; port 0 picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    lease_timeout_s:
        Default lease lifetime; a client's ``submit`` may override it
        per campaign (``lease_s``).
    poll_s:
        Back-off told to idle workers, and the granularity of the
        lease-expiry sweep.
    metrics_port:
        When given, :meth:`start` also binds a tiny HTTP endpoint on
        this port (0 picks a free one; see :attr:`metrics_address`)
        serving ``GET /metrics`` as Prometheus text.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        poll_s: float = DEFAULT_POLL_S,
        metrics_port: Optional[int] = None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.host = host
        self.port = port
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.metrics_port = metrics_port
        self.telemetry = BrokerTelemetry()
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._lock = threading.RLock()
        self._campaign: Optional[_Campaign] = None
        self._threads: List[threading.Thread] = []
        self._conn_seq = 0
        self._started_mono = time.monotonic()
        self._last_dispatch_mono: Optional[float] = None
        self._workers: Dict[str, _WorkerState] = {}

    # -- lifecycle --------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._sock is None:
            raise RuntimeError("broker is not started")
        addr = self._sock.getsockname()
        return addr[0], addr[1]

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """The metrics endpoint's ``(host, port)`` (needs ``metrics_port``)."""
        if self._metrics_server is None:
            raise RuntimeError("broker has no metrics endpoint")
        return self._metrics_server.address

    def start(self) -> Tuple[str, int]:
        """Bind, listen, spawn accept + sweep threads; returns address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(64)
        sock.settimeout(0.2)
        self._sock = sock
        self._started_mono = time.monotonic()
        if self.metrics_port is not None:
            self._metrics_server = MetricsHTTPServer(
                self.host, self.metrics_port, self.metrics_exposition
            )
            self._metrics_server.start()
        accept = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        sweep = threading.Thread(
            target=self._sweep_loop, name="broker-sweep", daemon=True
        )
        self._threads = [accept, sweep]
        accept.start()
        sweep.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (for the CLI entry point)."""
        while not self._stop.wait(0.5):
            pass

    def shutdown(self) -> None:
        """Stop accepting, drop the campaign, join the service threads."""
        self._stop.set()
        with self._lock:
            self._campaign = None
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
            self._metrics_server = None
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self._sock is not None:
            self._sock.close()

    def __enter__(self) -> "FarmBroker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- observability surfaces -------------------------------------------------
    def metrics_exposition(self) -> str:
        """The ``/metrics`` body: counters/histograms + live gauges.

        Counter and histogram families accumulate as the campaign runs
        (``farm.lease_issued``, ``farm.lease_age_seconds``, …); queue
        depth, rates and per-worker throughput are sampled at scrape
        time, because gauges describe *now*.  They come from one
        :meth:`stats_payload` snapshot, the one ``farm-top`` reads.
        """
        stats = self.stats_payload()
        totals = stats["totals"]
        dispatched = totals["units_dispatched"]
        seen = totals["workers_seen"]
        campaign = stats["campaign"]
        campaign_active = campaign is not None and not campaign["finished"]
        gauge = self.telemetry.metrics.gauge
        gauge("farm.uptime_seconds").set(stats["uptime_s"])
        gauge("farm.workers_connected").set(float(stats["workers_connected"]))
        gauge("farm.campaign_active").set(1.0 if campaign_active else 0.0)
        gauge("farm.queue_depth").set(float(stats["queue_depth"]))
        gauge("farm.leases_active").set(float(stats["leases_active"]))
        gauge("farm.reissue_rate").set(
            totals["reissues"] / dispatched if dispatched else 0.0
        )
        gauge("farm.duplicate_rate").set(
            totals["duplicates_dropped"] / dispatched if dispatched else 0.0
        )
        # Churn only signals while work is outstanding: after a campaign
        # finishes, workers idling out is normal, not an incident.
        gauge("farm.worker_churn").set(
            totals["workers_left"] / seen if seen and campaign_active else 0.0
        )
        gauge("farm.queue_stall_seconds").set(stats["queue_stall_s"])
        for worker in stats["workers"]:
            gauge(f"farm.worker.upm.{worker['name']}").set(
                worker["units_per_minute"]
            )
        return render_exposition(self.telemetry.metrics)

    def _totals(self) -> Dict[str, int]:
        """The ``totals`` of :meth:`stats_payload`, read off the counters."""
        counters = self.telemetry.metrics.counters
        return {
            key: counters[name].value if name in counters else 0
            for key, name in _TOTALS.items()
        }

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` protocol frame's body (``farm-top``'s feed)."""
        now = time.monotonic()
        offsets = self.telemetry.clock_offsets()
        with self._lock:
            campaign = self._campaign
            leases = (
                dict(campaign.leases.leases)
                if campaign is not None else {}
            )
            by_worker: Dict[str, Dict[str, Any]] = {}
            for lease in leases.values():
                by_worker[lease.worker] = {
                    "key": lease.key,
                    "attempt": lease.attempt,
                    "age_s": max(0.0, now - lease.issued_ts),
                }
            workers = []
            for state in sorted(
                self._workers.values(), key=lambda s: s.name
            ):
                minutes = max(1e-9, (now - state.connected_mono) / 60.0)
                workers.append({
                    "name": state.name,
                    "worker_id": state.worker_id,
                    "completed": state.completed,
                    "failed": state.failed,
                    "units_per_minute": state.completed / minutes,
                    "connected_s": max(0.0, now - state.connected_mono),
                    "idle_s": max(0.0, now - state.last_seen_mono),
                    "clock_offset_s": offsets.get(state.name, 0.0),
                    "lease": by_worker.get(state.worker_id),
                })
            queue_depth = len(campaign.pending) if campaign else 0
            stalled = (
                queue_depth > 0
                and not self._workers
                and self._last_dispatch_mono is not None
            )
            payload: Dict[str, Any] = {
                "uptime_s": max(0.0, now - self._started_mono),
                "queue_depth": queue_depth,
                "queue_stall_s": (
                    max(0.0, now - self._last_dispatch_mono) if stalled else 0.0
                ),
                "leases_active": len(leases),
                "workers_connected": len(self._workers),
                "workers": workers,
                "totals": self._totals(),
                "campaign": None,
            }
            if campaign is not None:
                payload["campaign"] = {
                    "id": campaign.id,
                    "units": len(campaign.units),
                    "pending": len(campaign.pending),
                    "leased": len(leases),
                    "completed": len(campaign.leases.completed),
                    "failed": len(campaign.failed),
                    "reissues": campaign.reissues,
                    "duplicates_dropped": campaign.leases.duplicates,
                    "max_attempts": campaign.max_attempts,
                    "lease_s": campaign.leases.timeout_s,
                    "finished": campaign.finished,
                }
        return payload

    def _serve_stats(self, conn: socket.socket, hello: Dict[str, Any]) -> None:
        """Serve ``stats`` frames to an observer (``repro farm-top``)."""
        self.telemetry.observe_clock(
            str(hello.get("worker") or "observer"), hello.get("clock")
        )
        send_frame(conn, {"type": "welcome", "version": PROTOCOL_VERSION})
        while not self._stop.is_set():
            frame = recv_frame(conn)
            if frame is None or frame.get("type") == "goodbye":
                return
            if frame.get("type") == "stats":
                send_frame(
                    conn, {"type": "stats", "stats": self.stats_payload()}
                )
            # unknown frame types are ignored (forward compatibility)

    # -- accept / sweep threads -------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                self._conn_seq += 1
                ident = self._conn_seq
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, peer, ident),
                name=f"broker-conn-{ident}",
                daemon=True,
            )
            thread.start()

    def _sweep_loop(self) -> None:
        while not self._stop.is_set():
            interval = max(0.05, min(self.poll_s, self.lease_timeout_s / 4))
            if self._stop.wait(interval):
                return
            with self._lock:
                campaign = self._campaign
                if campaign is None or campaign.finished:
                    continue
                now = time.monotonic()
                for lease in campaign.leases.expire(now):
                    self._note_lease_expired(campaign, lease, now)
                    self._requeue_or_fail(
                        campaign,
                        lease.key,
                        lease.attempt,
                        f"lease expired after {campaign.leases.timeout_s:g}s "
                        f"on {lease.worker}",
                    )
                self._maybe_finish(campaign)

    # -- connection handling ----------------------------------------------------
    def _serve_connection(
        self, conn: socket.socket, peer, ident: int
    ) -> None:
        try:
            try:
                hello = recv_frame(conn)
            except ProtocolError:
                return
            if hello is None or hello.get("type") != "hello":
                return
            if hello.get("version") != PROTOCOL_VERSION:
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"protocol version {hello.get('version')!r} != "
                        f"{PROTOCOL_VERSION}"
                    ),
                })
                return
            role = hello.get("role")
            if role == "worker":
                self._serve_worker(conn, hello, ident)
            elif role == "client":
                self._serve_client(conn, hello)
            elif role == "stats":
                self._serve_stats(conn, hello)
            else:
                send_frame(
                    conn, {"type": "reject", "reason": f"unknown role {role!r}"}
                )
        except (OSError, ProtocolError) as exc:
            logger.debug("connection %d (%s) dropped: %s", ident, peer, exc)
        finally:
            conn.close()

    # -- client side ------------------------------------------------------------
    def _serve_client(self, conn: socket.socket, hello: Dict[str, Any]) -> None:
        with self._lock:
            active = self._campaign
            if (
                active is not None
                and not active.finished
                and active.client_alive
            ):
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"campaign {active.id!r} is still active; "
                        f"one campaign at a time"
                    ),
                })
                return
        client_name = str(hello.get("worker") or "client")
        self.telemetry.observe_clock(client_name, hello.get("clock"))
        send_frame(conn, {"type": "welcome", "version": PROTOCOL_VERSION})
        submit = recv_frame(conn)
        if submit is None:
            return
        if submit.get("type") != "submit":
            send_frame(conn, {
                "type": "reject",
                "reason": f"expected submit, got {submit.get('type')!r}",
            })
            return
        self.telemetry.observe_clock(client_name, submit.get("clock"))
        campaign = self._accept_submit(conn, submit, client_name)
        if campaign is None:
            return
        try:
            # The client sends nothing else until the campaign ends; a
            # frame of None (EOF) or a goodbye means it is gone.  Either
            # way the campaign dies with its client.
            while True:
                frame = recv_frame(conn)
                if frame is None or frame.get("type") == "goodbye":
                    return
        except ProtocolError:
            return
        finally:
            with self._lock:
                campaign.client_alive = False
                if self._campaign is campaign:
                    if not campaign.finished:
                        logger.warning(
                            "client for campaign %r disconnected with "
                            "%d unit(s) unfinished; campaign dropped",
                            campaign.id,
                            len(campaign.units)
                            - len(campaign.leases.completed)
                            - len(campaign.failed),
                        )
                    # Its unshipped events must not open the next
                    # campaign's trace.
                    self.telemetry.drain_events()
                    self._campaign = None

    def _accept_submit(
        self,
        conn: socket.socket,
        submit: Dict[str, Any],
        client_name: str = "client",
    ) -> Optional[_Campaign]:
        campaign_id = str(submit.get("campaign") or "farm")
        raw_units = submit.get("units")
        if not isinstance(raw_units, list):
            send_frame(
                conn, {"type": "reject", "reason": "submit carries no units"}
            )
            return None
        units: Dict[str, str] = {}
        order: List[str] = []
        for entry in raw_units:
            key = str(entry["key"])
            units[key] = str(entry["unit"])
            order.append(key)
        max_attempts = max(1, int(submit.get("max_attempts") or 1))
        lease_s = float(submit.get("lease_s") or self.lease_timeout_s)
        campaign = _Campaign(
            campaign_id=campaign_id,
            units=units,
            order=order,
            runner=str(submit.get("runner") or ""),
            config=submit.get("config"),
            max_attempts=max_attempts,
            lease_timeout_s=lease_s,
            client=conn,
        )
        campaign.client_name = client_name
        self.telemetry.metrics.counter("farm.campaigns").inc()
        self.telemetry.emit(
            event(
                "broker_campaign_started",
                campaign=campaign_id,
                units=len(units),
                max_attempts=max_attempts,
                lease_s=lease_s,
            ),
            campaign=campaign_id,
        )
        logger.info("campaign %r accepted: %d unit(s)", campaign_id, len(units))
        # Publish the campaign and accept it under one lock hold.  Workers
        # lease (and their "leased", "done" and "campaign_done" frames
        # reach the client) only afterwards, so the client reads
        # "accepted" first.
        with self._lock:
            self._campaign = campaign
            send_frame(conn, {
                "type": "accepted",
                "campaign": campaign_id,
                "pending": len(campaign.pending),
            })
            # A submit of no units is finished as soon as it is accepted.
            self._maybe_finish(campaign)
        return campaign

    # -- worker side ------------------------------------------------------------
    def _serve_worker(
        self, conn: socket.socket, hello: Dict[str, Any], ident: int
    ) -> None:
        name = str(hello.get("worker") or f"worker-{ident}")
        pin = hello.get("campaign")
        worker_id = f"{name}#{ident}"
        with self._lock:
            active = self._campaign
            if (
                pin
                and active is not None
                and not active.finished
                and active.id != pin
            ):
                self.telemetry.metrics.counter("farm.workers_rejected").inc()
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"stale campaign {pin!r}; the active campaign is "
                        f"{active.id!r}"
                    ),
                })
                return
            self._workers[worker_id] = _WorkerState(name, worker_id)
            campaign_id = active.id if active is not None else None
        self.telemetry.observe_clock(name, hello.get("clock"))
        self.telemetry.metrics.counter("farm.workers_joined").inc()
        self.telemetry.emit(
            event("worker_joined", worker=name, worker_id=worker_id),
            campaign=campaign_id,
        )
        send_frame(conn, {"type": "welcome", "version": PROTOCOL_VERSION})
        logger.info("worker %s connected", worker_id)
        try:
            while not self._stop.is_set():
                frame = recv_frame(conn)
                if frame is None or frame.get("type") == "goodbye":
                    return
                kind = frame.get("type")
                if kind == "request":
                    send_frame(conn, self._next_unit(worker_id, name, pin))
                elif kind == "result":
                    send_frame(conn, self._take_result(worker_id, name, frame))
                elif kind == "heartbeat":
                    self._take_heartbeat(worker_id, name, frame)
                # unknown frame types are ignored (forward compatibility)
        finally:
            self._release_worker(worker_id)
            logger.info("worker %s disconnected", worker_id)

    def _next_unit(
        self, worker_id: str, name: str, pin: Optional[str]
    ) -> Dict[str, Any]:
        with self._lock:
            campaign = self._campaign
            if (
                campaign is None
                or campaign.finished
                or (pin and campaign.id != pin)
                or not campaign.pending
            ):
                return {"type": "idle", "poll_s": self.poll_s}
            now = time.monotonic()
            key = campaign.pending.popleft()
            lease = campaign.leases.issue(key, worker_id, now)
            self._last_dispatch_mono = now
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen_mono = now
            frame = {
                "type": "unit",
                "campaign": campaign.id,
                "key": key,
                "attempt": lease.attempt,
                "unit": campaign.units[key],
                "runner": campaign.runner,
                "config": campaign.config,
                "lease_s": campaign.leases.timeout_s,
            }
        self.telemetry.metrics.counter("farm.lease_issued").inc()
        self.telemetry.emit(
            event("lease_issued", key=key, attempt=lease.attempt, worker=name),
            campaign=campaign.id,
            span_id=key,
        )
        campaign.push({
            "type": "leased",
            "key": key,
            "attempt": lease.attempt,
            "worker": name,
        })
        return frame

    def _take_result(
        self, worker_id: str, name: str, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        key = str(frame.get("key"))
        attempt = int(frame.get("attempt") or 0)
        with self._lock:
            campaign = self._campaign
            now = time.monotonic()
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen_mono = now
            if campaign is None or key not in campaign.units:
                return {
                    "type": "ack", "accepted": False,
                    "reason": "no active campaign for this unit",
                }
            if not frame.get("ok"):
                released = campaign.leases.release(key, attempt)
                if released is None:
                    # the lease already expired and was handled
                    return {
                        "type": "ack", "accepted": False,
                        "reason": "attempt is no longer leased",
                    }
                if state is not None:
                    state.failed += 1
                age_s = max(0.0, now - released.issued_ts)
                self.telemetry.metrics.histogram(
                    "farm.lease_age_seconds"
                ).observe(age_s)
                self.telemetry.emit(
                    event(
                        "lease_completed",
                        key=key, attempt=attempt, worker=name,
                        age_s=age_s, ok=False,
                    ),
                    campaign=campaign.id,
                    span_id=key,
                )
                self._requeue_or_fail(
                    campaign, key, attempt,
                    str(frame.get("error") or "unit runner failed"),
                )
                self._maybe_finish(campaign)
                return {"type": "ack", "accepted": True}
            lease = campaign.leases.leases.get(key)
            lease_age_s = (
                max(0.0, now - lease.issued_ts)
                if lease is not None and lease.attempt == attempt
                else 0.0
            )
            if not campaign.leases.complete(key, attempt):
                self.telemetry.metrics.counter(
                    "farm.duplicate_suppressed"
                ).inc()
                self.telemetry.emit(
                    event(
                        "duplicate_suppressed",
                        key=key, attempt=attempt, worker=name,
                    ),
                    campaign=campaign.id,
                    span_id=key,
                )
                return {
                    "type": "ack", "accepted": False,
                    "reason": "duplicate delivery suppressed",
                }
            # A late result can race its own re-issue: the unit may be
            # back in pending (expired, not yet re-leased).  Completing
            # it must also pull it from the queue or a worker would run
            # a completed unit.
            if key in campaign.pending:
                campaign.pending.remove(key)
            campaign.failed.pop(key, None)
            if state is not None:
                state.completed += 1
        elapsed_s = float(frame.get("elapsed_s") or 0.0)
        metrics = self.telemetry.metrics
        metrics.counter("farm.units_completed").inc()
        metrics.counter("farm.worker_units").inc(label=name)
        metrics.histogram("farm.lease_age_seconds").observe(lease_age_s)
        metrics.histogram("farm.unit_seconds").observe(elapsed_s)
        self.telemetry.emit(
            event(
                "lease_completed",
                key=key, attempt=attempt, worker=name,
                age_s=lease_age_s, ok=True,
            ),
            campaign=campaign.id,
            span_id=key,
        )
        campaign.push({
            "type": "done",
            "key": key,
            "attempt": attempt,
            "worker": name,
            "elapsed_s": elapsed_s,
            "outcome": str(frame.get("outcome")),
            "telemetry": frame.get("telemetry"),
        })
        with self._lock:
            campaign.delivered.add(key)
            self._maybe_finish(campaign)
        return {"type": "ack", "accepted": True}

    def _take_heartbeat(
        self, worker_id: str, name: str, frame: Dict[str, Any]
    ) -> None:
        self.telemetry.observe_clock(name, frame.get("clock"))
        key = str(frame.get("key"))
        attempt = int(frame.get("attempt") or 0)
        with self._lock:
            campaign = self._campaign
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen_mono = time.monotonic()
            if campaign is None:
                return
            extended = campaign.leases.heartbeat(
                key, attempt, worker_id, time.monotonic()
            )
            campaign_id = campaign.id
        self.telemetry.metrics.counter(
            "farm.stale_heartbeats" if not extended else "farm.heartbeats"
        ).inc()
        self.telemetry.emit(
            event(
                "lease_heartbeat",
                key=key, attempt=attempt, worker=name, fresh=extended
            ),
            campaign=campaign_id,
            span_id=key,
        )

    def _release_worker(self, worker_id: str) -> None:
        with self._lock:
            state = self._workers.pop(worker_id, None)
            campaign = self._campaign
            campaign_id = campaign.id if campaign is not None else None
            dropped = (
                campaign.leases.release_worker(worker_id)
                if campaign is not None else []
            )
            now = time.monotonic()
            for lease in dropped:
                self._note_lease_expired(campaign, lease, now)
                self._requeue_or_fail(
                    campaign, lease.key, lease.attempt,
                    f"worker {lease.worker} disconnected",
                )
            if campaign is not None:
                self._maybe_finish(campaign)
        # Clock estimates are deliberately kept after disconnect: the
        # campaign_done frame still needs the dead worker's offset so
        # the timeline can align its events.
        if state is not None:
            self.telemetry.metrics.counter("farm.workers_left").inc()
            self.telemetry.emit(
                event(
                    "worker_left",
                    worker=state.name,
                    worker_id=worker_id,
                    completed=state.completed,
                    failed=state.failed,
                ),
                campaign=campaign_id,
            )

    # -- shared campaign bookkeeping (call with the lock held) -----------------
    def _note_lease_expired(
        self, campaign: _Campaign, lease, now: float
    ) -> None:
        """Count and announce one reclaimed lease (lock held)."""
        state = self._workers.get(lease.worker)
        name = state.name if state is not None else str(lease.worker)
        age_s = max(0.0, now - lease.issued_ts)
        self.telemetry.metrics.counter("farm.lease_expired").inc()
        self.telemetry.metrics.histogram("farm.lease_age_seconds").observe(
            age_s
        )
        self.telemetry.emit(
            event(
                "lease_expired",
                key=lease.key, attempt=lease.attempt, worker=name, age_s=age_s
            ),
            campaign=campaign.id,
            span_id=lease.key,
        )

    def _requeue_or_fail(
        self, campaign: _Campaign, key: str, attempt: int, reason: str
    ) -> None:
        if key in campaign.leases.completed or key in campaign.failed:
            return
        if campaign.leases.attempts.get(key, 0) >= campaign.max_attempts:
            campaign.failed[key] = reason
            self.telemetry.metrics.counter("farm.units_failed").inc()
            campaign.push({"type": "unit_failed", "key": key, "reason": reason})
            return
        campaign.pending.append(key)
        campaign.reissues += 1
        self.telemetry.metrics.counter("farm.lease_reissued").inc()
        self.telemetry.emit(
            event("lease_reissued", key=key, attempt=attempt, reason=reason),
            campaign=campaign.id,
            span_id=key,
        )
        campaign.push({
            "type": "retry", "key": key, "attempt": attempt, "reason": reason,
        })

    def _maybe_finish(self, campaign: _Campaign) -> None:
        if not campaign.finished or getattr(campaign, "_announced", False):
            return
        campaign._announced = True
        offsets = self.telemetry.clock_offsets()
        client_offset = offsets.pop(campaign.client_name, 0.0)
        events, dropped = self.telemetry.drain_events()
        campaign.push({
            "type": "campaign_done",
            "campaign": campaign.id,
            "completed": len(campaign.leases.completed),
            "failed": sorted(campaign.failed),
            "duplicates_dropped": campaign.leases.duplicates,
            "reissues": campaign.reissues,
            "telemetry": events,
            "events_dropped": dropped,
            "clock": {
                "offsets": offsets,
                "client_offset_s": client_offset,
            },
        })
        logger.info(
            "campaign %r finished: %d completed, %d failed, %d reissue(s)",
            campaign.id, len(campaign.leases.completed),
            len(campaign.failed), campaign.reissues,
        )

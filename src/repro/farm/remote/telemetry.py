"""Broker control-plane telemetry: metrics, events, clock skew, stats.

The farm broker is the one component that sees the whole fleet — every
lease, heartbeat, duplicate and worker (dis)connect crosses it — but
until this module it kept that knowledge in a private ``stats`` dict.
Here the control plane becomes observable through the same three
surfaces the rest of the repo already speaks:

* **Metrics** — :class:`BrokerTelemetry` owns a thread-safe
  :class:`~repro.obs.metrics.MetricsRegistry` (lease counters, lease-age
  and unit-latency histograms, per-worker throughput) rendered as
  Prometheus text by :class:`MetricsHTTPServer` for
  ``farm-broker --metrics-port`` and for the ``serve --broker`` proxy.
* **Events** — :mod:`repro.obs.events` payloads
  (``broker_campaign_started`` … ``duplicate_suppressed``), pre-stamped
  with ``ts`` and trace context (trace_id=campaign, span_id=unit key,
  worker=worker name) because the broker emits from many connection
  threads and the process-global trace context is not thread-safe.
  Payloads are buffered per campaign so the ``campaign_done`` frame can
  ship them, with the count a full buffer dropped, to the submitting
  client, whose trace then tells the broker-side story.  A campaign
  dropped with its client discards its buffer.
* **Clock skew** — :class:`ClockEstimator` turns the paired
  wall+monotonic stamps carried by hello/heartbeat frames into a
  min-filtered per-worker offset (the classic min-RTT argument: the
  smallest observed ``send→receive`` delta is the true offset plus the
  best-case one-way delay), so :mod:`repro.obs.timeline` can align
  multi-host tracks onto one axis.

Everything here is stdlib-only and import-safe from the lowest layers.
"""

from __future__ import annotations

import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import OBS
from repro.obs.metrics import MetricsRegistry
from repro.farm.remote.protocol import (
    PROTOCOL_VERSION,
    parse_address,
    recv_frame,
    send_frame,
)

#: A wall-clock step that disagrees with the monotonic clock by more
#: than this many seconds is treated as a clock jump (NTP step, manual
#: adjustment) and resets the offset estimator.
CLOCK_JUMP_TOLERANCE_S = 0.25

#: Cap on buffered broker events per campaign; beyond it the oldest
#: story is preserved (first events kept) and the overflow counted.
EVENT_BUFFER_LIMIT = 20_000


def clock_stamp() -> Dict[str, float]:
    """The paired wall+monotonic stamp carried by hello/heartbeat frames."""
    return {"wall": time.time(), "mono": time.monotonic()}


class ClockEstimator:
    """Min-filter estimate of one remote clock's offset from ours.

    Every stamped frame yields one sample ``delta = local_wall_at_receive
    − remote_wall_at_send = −offset + network_delay`` where ``offset`` is
    the remote clock minus ours.  Network delay is non-negative and
    varies; the offset (absent jumps) does not — so the *minimum* delta
    over many samples converges on ``−offset`` plus the best-case
    one-way delay.  :attr:`offset_s` therefore reports
    ``remote − local`` seconds, biased by at most that delay.

    The paired monotonic stamp guards against wall-clock steps: between
    consecutive samples ``Δwall`` must track ``Δmono``; a disagreement
    beyond :data:`CLOCK_JUMP_TOLERANCE_S` means the remote wall clock
    jumped, so the filter restarts (and counts the jump).
    """

    __slots__ = ("_min_delta", "samples", "jumps", "_last_wall", "_last_mono")

    def __init__(self) -> None:
        self._min_delta: Optional[float] = None
        self.samples = 0
        self.jumps = 0
        self._last_wall: Optional[float] = None
        self._last_mono: Optional[float] = None

    def observe(
        self,
        wall_sent: float,
        mono_sent: float,
        wall_received: Optional[float] = None,
    ) -> None:
        """Fold in one stamped frame (received now unless given)."""
        if wall_received is None:
            wall_received = time.time()
        if self._last_wall is not None and self._last_mono is not None:
            wall_step = wall_sent - self._last_wall
            mono_step = mono_sent - self._last_mono
            if abs(wall_step - mono_step) > CLOCK_JUMP_TOLERANCE_S:
                self._min_delta = None
                self.jumps += 1
        self._last_wall = wall_sent
        self._last_mono = mono_sent
        delta = wall_received - wall_sent
        if self._min_delta is None or delta < self._min_delta:
            self._min_delta = delta
        self.samples += 1

    @property
    def offset_s(self) -> float:
        """Estimated ``remote − local`` wall-clock offset in seconds."""
        if self._min_delta is None:
            return 0.0
        return -self._min_delta


class BrokerTelemetry:
    """The broker's observability hub: registry + events + clocks.

    One instance per broker, always on — counters are cheap, and the
    event buffer only fills while a campaign runs.  Events additionally
    flow to the local :data:`~repro.obs.OBS` sinks when observability is
    enabled in the broker process (``farm-broker --trace``).
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        self._events_dropped = 0
        self._clocks: Dict[str, ClockEstimator] = {}

    # -- events ----------------------------------------------------------------

    def emit(
        self,
        event: Dict[str, object],
        campaign: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Stamp, buffer and (if enabled) publish one broker event.

        A copy of ``event`` is pre-stamped with ``ts`` and trace context,
        so :class:`~repro.obs.events.TraceWriter`'s ``setdefault`` calls
        leave it untouched — the broker's threads never touch the global
        trace context.
        """
        payload = dict(event)
        payload["ts"] = time.time()
        if campaign is not None:
            payload["trace_id"] = campaign
        if span_id is not None:
            payload["span_id"] = span_id
        worker = payload.get("worker")
        if worker is None:
            payload["worker"] = "broker"
        with self._lock:
            if len(self._events) < EVENT_BUFFER_LIMIT:
                self._events.append(payload)
            else:
                self._events_dropped += 1
        if OBS.enabled:
            OBS.bus.emit(payload)
        return payload

    def drain_events(self) -> Tuple[List[Dict[str, object]], int]:
        """Hand over (and clear) the buffered event payloads, with the
        count of events the full buffer discarded since the last drain."""
        with self._lock:
            events, self._events = self._events, []
            dropped, self._events_dropped = self._events_dropped, 0
            return events, dropped

    # -- clock skew ------------------------------------------------------------

    def observe_clock(self, name: str, stamp: object) -> None:
        """Fold a frame's ``clock`` stamp into ``name``'s estimator."""
        if not isinstance(stamp, dict):
            return
        try:
            wall = float(stamp["wall"])
            mono = float(stamp["mono"])
        except (KeyError, TypeError, ValueError):
            return
        with self._lock:
            estimator = self._clocks.get(name)
            if estimator is None:
                estimator = self._clocks[name] = ClockEstimator()
        estimator.observe(wall, mono)

    def clock_offsets(self) -> Dict[str, float]:
        """Current ``name → remote − broker`` offset estimates."""
        with self._lock:
            estimators = dict(self._clocks)
        return {name: est.offset_s for name, est in estimators.items()}


class _MetricsHandler(BaseHTTPRequestHandler):
    """``GET /metrics`` (Prometheus text) and ``GET /healthz``."""

    server: "MetricsHTTPServer"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.render().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/healthz":
            body = b'{"status": "ok"}\n'
            content_type = "application/json"
        else:
            body = b"not found\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # scrapes are not worth a stderr line each


class MetricsHTTPServer:
    """Tiny embedded scrape endpoint for the broker's registry.

    ``render`` is called per scrape, so the broker can set
    sampled-at-scrape-time gauges (queue depth, rates) before handing
    the registry to :func:`~repro.obs.exposition.render_exposition`.
    """

    def __init__(
        self, host: str, port: int, render: Callable[[], str]
    ) -> None:
        self.render = render
        self._httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._httpd.daemon_threads = True
        self._httpd.render = render  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="broker-metrics",
            daemon=True,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when 0 was requested."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Serve scrapes on a daemon thread."""
        self._thread.start()

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)


def fetch_broker_stats(
    address: str, timeout_s: float = 5.0
) -> Dict[str, object]:
    """One ``stats`` frame from a running broker, over the farm protocol.

    Speaks the same hello handshake as workers/clients (role
    ``stats``), asks once, and hangs up — the transport behind
    ``repro farm-top`` and the ``serve --broker`` gauge proxy.
    """
    host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        send_frame(
            sock,
            {
                "type": "hello",
                "role": "stats",
                "version": PROTOCOL_VERSION,
                "worker": "farm-top",
                "clock": clock_stamp(),
            },
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise ConnectionError(
                f"broker at {address} refused the stats handshake: {welcome!r}"
            )
        send_frame(sock, {"type": "stats"})
        frame = recv_frame(sock)
        if frame is None or frame.get("type") != "stats":
            raise ConnectionError(
                f"broker at {address} sent no stats frame: {frame!r}"
            )
        try:
            send_frame(sock, {"type": "goodbye"})
        except OSError:
            pass
    payload = frame.get("stats")
    if not isinstance(payload, dict):
        raise ConnectionError(f"malformed stats frame from {address}")
    return payload

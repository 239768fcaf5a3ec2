"""Characterization-as-a-service: the HTTP/JSON job API.

Stdlib only (:class:`http.server.ThreadingHTTPServer`): no framework to
install on a test-floor host.  Endpoints::

    GET  /healthz                    liveness + job-state tally
    GET  /readyz                     readiness (503 when queue saturated)
    GET  /metrics                    Prometheus text-format exposition
    GET  /dash                       HTML operations dashboard
    GET  /jobs                       all jobs, oldest first
    POST /jobs                       submit a campaign spec -> 201 + job
    GET  /jobs/{id}                  job row + live progress
    POST /jobs/{id}/cancel           cancel (guaranteed while queued)
    GET  /jobs/{id}/events           trace events, paged (?offset=&limit=)
    GET  /jobs/{id}/stream           live Server-Sent Events trace tail
    GET  /jobs/{id}/report           self-contained HTML run report
    GET  /jobs/{id}/wcdb             worst-case database export (JSON)
    GET  /jobs/{id}/log              the job's captured CLI output

Responses are JSON except ``/report``/``/dash`` (HTML), ``/metrics``
(text exposition), ``/stream`` (``text/event-stream``), ``/wcdb`` (the
export file's exact bytes — parity with a direct CLI run is byte-level)
and ``/log`` (text).  Errors come back as ``{"error": ...}`` with a
4xx/5xx status.  See ``docs/service.md`` for a curl quickstart and the
Operations section.

Every request is instrumented: a per-route/per-status counter, a
latency histogram and an in-flight gauge feed ``GET /metrics``, and
each request carries an ``X-Request-Id`` (honoured from the inbound
header, minted otherwise) that is echoed in the response, written to
the structured JSON access log (``--access-log``) and — for ``POST
/jobs`` — stamped onto the job row and exported into the job
subprocess, where trace setup emits a ``request_context`` event.  The
access log, the store and the trace join on that one id.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.ioutil import durable_append_line
from repro.obs.exposition import render_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceFold
from repro.service.manager import JobManager
from repro.service.progress import read_events_page
from repro.service.spec import (
    JobSpec,
    LOG_FILENAME,
    REPORT_FILENAME,
    SpecError,
    TRACE_FILENAME,
)

#: Largest accepted POST body; a campaign spec is a few hundred bytes.
MAX_BODY_BYTES = 64 * 1024
#: Event-page size cap (a page is JSON in memory on both ends).
MAX_EVENT_PAGE = 5000
#: Queue depth beyond which ``/readyz`` reports 503 (load-balancer
#: back-pressure), unless overridden per server.
DEFAULT_READY_QUEUE_LIMIT = 64
#: SSE tail poll interval and idle-heartbeat period, seconds.
STREAM_POLL_S = 0.1
STREAM_HEARTBEAT_S = 5.0

#: Route templates the request metrics are labelled with — a closed set,
#: so a vandal probing random paths cannot mint unbounded label values.
_JOB_RESOURCES = ("cancel", "events", "stream", "report", "wcdb", "log")


def route_template(parts: List[str]) -> str:
    """The bounded-cardinality route label for a request path."""
    if not parts:
        return "/"
    if len(parts) == 1 and parts[0] in (
        "healthz", "readyz", "metrics", "dash", "jobs"
    ):
        return "/" + parts[0]
    if parts[0] == "jobs":
        if len(parts) == 2:
            return "/jobs/{id}"
        if len(parts) == 3 and parts[2] in _JOB_RESOURCES:
            return "/jobs/{id}/" + parts[2]
    return "(unknown)"


class CharacterizationServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`JobManager`.

    Also owns the service-level observability state: the request
    :class:`MetricsRegistry` (guarded by a lock — handler threads are
    concurrent, and the registry itself is not thread-safe), the
    in-flight count, the readiness queue limit and the optional access
    log (JSON lines, fsync'd via :func:`durable_append_line`).
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        access_log: Optional[Path] = None,
        ready_queue_limit: int = DEFAULT_READY_QUEUE_LIMIT,
    ) -> None:
        super().__init__(address, JobAPIHandler)
        self.manager = manager
        self.metrics = MetricsRegistry()
        self.started_ts = time.time()
        self.ready_queue_limit = ready_queue_limit
        # The registry is internally thread-safe; this small lock only
        # guards the in-flight integer.
        self._in_flight_lock = threading.Lock()
        self._in_flight = 0
        self._access_lock = threading.Lock()
        self.access_log_path = (
            Path(access_log) if access_log is not None else None
        )
        self._access_handle = None
        if self.access_log_path is not None:
            self.access_log_path.parent.mkdir(parents=True, exist_ok=True)
            self._access_handle = self.access_log_path.open("a")

    # -- request instrumentation -----------------------------------------------

    def request_started(self) -> None:
        with self._in_flight_lock:
            self._in_flight += 1

    def request_finished(
        self, method: str, route: str, status: int, duration_s: float
    ) -> None:
        with self._in_flight_lock:
            self._in_flight -= 1
        self.metrics.counter("http.requests").inc(label=f"{method} {route}")
        self.metrics.counter("http.responses").inc(label=str(status))
        self.metrics.histogram("http.request_seconds").observe(duration_s)

    def write_access_log(self, record: Dict[str, object]) -> None:
        """Append one JSON access-log line (no-op without ``--access-log``)."""
        if self._access_handle is None:
            return
        line = json.dumps(record, sort_keys=True)
        with self._access_lock:
            durable_append_line(self._access_handle, line)

    def metrics_exposition(self) -> str:
        """The ``/metrics`` body: request metrics + live job gauges.

        Job-manager state (queue depth, running, per-state counts,
        failure rate) is sampled at scrape time — gauges describe *now*,
        not request history.
        """
        tally = self.manager.state_tally()
        finished = tally.get("completed", 0) + tally.get("failed", 0)
        with self._in_flight_lock:
            in_flight = self._in_flight
        gauge = self.metrics.gauge
        gauge("http.in_flight").set(float(in_flight))
        gauge("service.uptime_seconds").set(
            max(0.0, time.time() - self.started_ts)
        )
        gauge("jobs.workers_max").set(float(self.manager.max_workers))
        gauge("jobs.queue_depth").set(float(tally.get("queued", 0)))
        gauge("jobs.running").set(float(tally.get("running", 0)))
        gauge("jobs.failure_rate").set(
            tally.get("failed", 0) / finished if finished else 0.0
        )
        for state, count in tally.items():
            gauge(f"jobs.state.{state}").set(float(count))
        self._set_broker_gauges()
        return render_exposition(self.metrics)

    def _set_broker_gauges(self) -> None:
        """Proxy farm-broker gauges into the service registry.

        When the manager delegates to a remote broker (``serve
        --broker``), one scrape of the service should cover both planes:
        a ``stats`` frame is fetched over the farm socket protocol and
        summarized as ``farm.*`` gauges.  ``farm.broker_up`` reports
        reachability; an unreachable broker degrades to 0 instead of
        failing the scrape.
        """
        address = getattr(self.manager, "broker", None)
        if not address:
            return
        gauge = self.metrics.gauge
        try:
            from repro.farm.remote.telemetry import fetch_broker_stats

            stats = fetch_broker_stats(address, timeout_s=2.0)
        except Exception:
            gauge("farm.broker_up").set(0.0)
            return
        gauge("farm.broker_up").set(1.0)
        for name in (
            "queue_depth",
            "leases_active",
            "workers_connected",
        ):
            value = stats.get(name)
            if value is not None:
                gauge(f"farm.{name}").set(float(value))
        uptime = stats.get("uptime_s")
        if uptime is not None:
            gauge("farm.uptime_seconds").set(float(uptime))
        totals = stats.get("totals") or {}
        for name in (
            "units_completed",
            "units_failed",
            "reissues",
            "duplicates_dropped",
        ):
            value = totals.get(name)
            if value is not None:
                gauge(f"farm.{name}").set(float(value))

    def ready(self) -> Tuple[bool, Dict[str, object]]:
        """Readiness: can this instance absorb more submissions now?"""
        queued = self.manager.state_tally().get("queued", 0)
        ok = queued <= self.ready_queue_limit
        return ok, {
            "status": "ok" if ok else "saturated",
            "queued": queued,
            "queue_limit": self.ready_queue_limit,
        }

    def server_close(self) -> None:  # noqa: D102 — stdlib override
        super().server_close()
        if self._access_handle is not None and not self._access_handle.closed:
            self._access_handle.close()


class JobAPIHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's job manager."""

    server: CharacterizationServer
    protocol_version = "HTTP/1.1"

    # -- middleware ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        """The instrumentation middleware every request flows through.

        Assigns the request id, counts the request in-flight, times it,
        routes it, and on the way out records the metrics and writes the
        access-log line — including for handlers that raised.
        """
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        inbound = (self.headers.get("X-Request-Id") or "").strip()
        self.request_id = inbound[:128] or uuid.uuid4().hex[:16]
        self.response_status = 0
        self.resolved_job_id = ""
        route = route_template(parts)
        started = time.monotonic()
        self.server.request_started()
        try:
            try:
                self._route(method, parsed.path, parts, parse_qs(parsed.query))
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing left to send
            except Exception as exc:  # noqa: BLE001 — one request must not kill the thread
                if self.response_status == 0:
                    self._send_json(500, {"error": f"internal error: {exc}"})
        finally:
            duration = time.monotonic() - started
            status = self.response_status or 500
            self.server.request_finished(method, route, status, duration)
            self.server.write_access_log(
                {
                    "ts": round(time.time(), 6),
                    "request_id": self.request_id,
                    "method": method,
                    "path": parsed.path,
                    "route": route,
                    "status": status,
                    "duration_ms": round(duration * 1000.0, 3),
                    "job_id": self.resolved_job_id,
                    "client": self.client_address[0],
                }
            )

    def _route(
        self,
        method: str,
        path: str,
        parts: List[str],
        query: Dict[str, list],
    ) -> None:
        if method == "GET":
            if parts == ["healthz"]:
                self._send_json(200, self._health())
            elif parts == ["readyz"]:
                ok, payload = self.server.ready()
                self._send_json(200 if ok else 503, payload)
            elif parts == ["metrics"]:
                self._send_bytes(
                    200,
                    self.server.metrics_exposition().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts == ["dash"]:
                self._send_dashboard()
            elif parts == ["jobs"]:
                self._send_json(200, {"jobs": self.server.manager.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs":
                self._get_job_resource(parts[1], parts[2], query)
            else:
                self._send_json(404, {"error": f"no such route: {path}"})
        elif method == "POST":
            if parts == ["jobs"]:
                self._submit_job()
            elif (
                len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel"
            ):
                self._cancel_job(parts[1])
            else:
                self._send_json(404, {"error": f"no such route: {path}"})

    # -- handlers --------------------------------------------------------------

    def _health(self) -> Dict[str, object]:
        tally: Dict[str, int] = {}
        for job in self.server.manager.jobs():
            state = str(job["state"])
            tally[state] = tally.get(state, 0) + 1
        return {
            "status": "ok",
            "max_workers": self.server.manager.max_workers,
            "jobs": tally,
        }

    def _send_dashboard(self) -> None:
        from repro.service.dashboard import build_dashboard

        html = build_dashboard(
            self.server.manager.jobs(),
            self.server.metrics_exposition(),
            uptime_s=max(0.0, time.time() - self.server.started_ts),
            max_workers=self.server.manager.max_workers,
        )
        self._send_bytes(
            200, html.encode("utf-8"), "text/html; charset=utf-8"
        )

    def _submit_job(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "missing or oversized JSON body"})
            return
        body = self.rfile.read(length)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"body is not JSON: {exc}"})
            return
        try:
            spec = JobSpec.from_payload(payload)
            # submit() can also reject a valid-looking spec against the
            # deployment (e.g. backend 'remote' with no broker wired).
            job = self.server.manager.submit(
                spec, request_id=self.request_id
            )
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self.resolved_job_id = str(job["job_id"])
        self._send_json(201, {"job": job})

    def _get_job(self, job_id: str) -> None:
        job = self.server.manager.job(job_id)
        if job is None:
            self._send_json(404, {"error": f"no such job: {job_id}"})
            return
        self.resolved_job_id = job_id
        self._send_json(
            200,
            {"job": job, "progress": self.server.manager.progress(job_id)},
        )

    def _cancel_job(self, job_id: str) -> None:
        try:
            cancelled = self.server.manager.cancel(job_id)
        except KeyError:
            self._send_json(404, {"error": f"no such job: {job_id}"})
            return
        self.resolved_job_id = job_id
        job = self.server.manager.job(job_id)
        self._send_json(200, {"job": job, "cancelled": cancelled})

    def _get_job_resource(
        self, job_id: str, resource: str, query: Dict[str, list]
    ) -> None:
        job = self.server.manager.job(job_id)
        if job is None:
            self._send_json(404, {"error": f"no such job: {job_id}"})
            return
        self.resolved_job_id = job_id
        job_dir = Path(str(job["job_dir"]))
        if resource == "events":
            offset = _query_int(query, "offset", 0)
            limit = min(_query_int(query, "limit", 500), MAX_EVENT_PAGE)
            numbered, next_offset, malformed = read_events_page(
                job_dir / TRACE_FILENAME, offset=offset, limit=limit
            )
            self._send_json(
                200,
                {
                    "events": [record for _, record in numbered],
                    "next_offset": next_offset,
                    "malformed": malformed,
                    "state": job["state"],
                },
            )
        elif resource == "stream":
            self._stream_job(job_id, job_dir, query)
        elif resource == "report":
            html = _job_report(job, job_dir)
            if html is None:
                self._send_json(
                    404, {"error": f"job {job_id} has no trace to report on"}
                )
            else:
                self._send_bytes(
                    200, html.encode("utf-8"), "text/html; charset=utf-8"
                )
        elif resource == "wcdb":
            wcdb = JobSpec.from_payload(job["spec"]).wcdb_path(job_dir)
            if wcdb is None or not wcdb.exists():
                self._send_json(
                    404,
                    {"error": f"job {job_id} produced no worst-case export"},
                )
            else:
                self._send_bytes(
                    200, wcdb.read_bytes(), "application/json"
                )
        elif resource == "log":
            log = job_dir / LOG_FILENAME
            if not log.exists():
                self._send_json(404, {"error": f"job {job_id} has no log yet"})
            else:
                self._send_bytes(
                    200, log.read_bytes(), "text/plain; charset=utf-8"
                )
        else:
            self._send_json(
                404, {"error": f"no such job resource: {resource}"}
            )

    # -- SSE streaming ---------------------------------------------------------

    def _stream_job(
        self, job_id: str, job_dir: Path, query: Dict[str, list]
    ) -> None:
        """``GET /jobs/{id}/stream``: live Server-Sent Events trace tail.

        Frames: ``event: trace`` per trace record (``id:`` = trace line
        number, so ``Last-Event-ID`` resumes exactly), ``event:
        progress`` after each batch and state change, and a final
        ``event: end`` with the terminal job row.  ``:`` heartbeat
        comments keep idle connections alive.  The response is
        ``Connection: close`` — the stream's length is unknowable, and
        the socket closing is its end-of-stream marker.
        """
        last_id = (self.headers.get("Last-Event-ID") or "").strip()
        if not last_id and query.get("last_event_id"):
            last_id = str(query["last_event_id"][0])
        try:
            offset = max(0, int(last_id))
        except (TypeError, ValueError):
            offset = 0

        self.response_status = 200
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("X-Request-Id", self.request_id)
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        trace = job_dir / TRACE_FILENAME
        # Replaying from an offset: the fold only covers what this
        # stream sees, so resumed streams report incremental progress
        # counts.  Fresh streams (offset 0) see the full history.
        fold = TraceFold()
        last_state = ""
        last_write = time.monotonic()
        while True:
            job = self.server.manager.job(job_id)
            if job is None:
                break
            state = str(job["state"])
            terminal = state not in ("queued", "running")
            numbered, next_offset, _malformed = read_events_page(
                trace,
                offset=offset,
                limit=MAX_EVENT_PAGE,
                complete_lines_only=not terminal,
            )
            advanced = next_offset != offset
            offset = next_offset
            for line_no, record in numbered:
                fold.add(record)
                self._sse_frame("trace", record, event_id=line_no)
            if advanced or state != last_state:
                progress = fold.progress()
                progress["state"] = state
                self._sse_frame("progress", progress, event_id=offset)
                last_state = state
                last_write = time.monotonic()
            if terminal and not advanced:
                self._sse_frame("end", {"job": job}, event_id=offset)
                self.wfile.flush()
                return
            if time.monotonic() - last_write >= STREAM_HEARTBEAT_S:
                self.wfile.write(b": ping\n\n")
                self.wfile.flush()
                last_write = time.monotonic()
            time.sleep(STREAM_POLL_S)

    def _sse_frame(
        self, event: str, data: Dict[str, object], event_id: int
    ) -> None:
        frame = (
            f"id: {event_id}\n"
            f"event: {event}\n"
            f"data: {json.dumps(data, sort_keys=True)}\n\n"
        )
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        self._send_bytes(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            "application/json",
        )

    def _send_bytes(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Quiet on stderr; the structured access log replaces this."""


def _job_report(job: Dict[str, object], job_dir: Path) -> Optional[str]:
    """The job's self-contained HTML report (rendered from its trace).

    Completed jobs cache the render next to the trace; running jobs are
    rendered fresh from the live trace on every request.  The builder is
    :func:`repro.obs.html.build_html_report` — the same one behind
    ``repro obs report``, so the served bytes match a direct CLI render
    of the same trace.
    """
    from repro import obs

    trace = job_dir / TRACE_FILENAME
    if not trace.exists():
        return None
    cache = job_dir / REPORT_FILENAME
    terminal = job["state"] in ("completed", "failed")
    if terminal and cache.exists():
        return cache.read_text()
    fold = obs.TraceFold()
    records = list(fold.read(trace))
    html = obs.build_html_report(
        fold, records, title=f"Characterization job {job['job_id']}"
    )
    if terminal:
        from repro.ioutil import atomic_write_text

        atomic_write_text(cache, html)
    return html


def _query_int(query: Dict[str, list], name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        return max(0, int(values[0]))
    except (TypeError, ValueError):
        return default


def create_server(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    access_log: Optional[Path] = None,
    ready_queue_limit: int = DEFAULT_READY_QUEUE_LIMIT,
) -> CharacterizationServer:
    """Bind the API server (``port=0`` picks a free port)."""
    return CharacterizationServer(
        (host, port),
        manager,
        access_log=access_log,
        ready_queue_limit=ready_queue_limit,
    )


def serve_in_thread(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    access_log: Optional[Path] = None,
    ready_queue_limit: int = DEFAULT_READY_QUEUE_LIMIT,
) -> Tuple[CharacterizationServer, threading.Thread]:
    """Bind and serve on a daemon thread; returns (server, thread).

    The embedding pattern tests and notebooks use::

        server, _ = serve_in_thread(manager)
        url = f"http://{server.server_address[0]}:{server.server_address[1]}"
        ...
        server.shutdown()
    """
    server = create_server(
        manager,
        host=host,
        port=port,
        access_log=access_log,
        ready_queue_limit=ready_queue_limit,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="job-api", daemon=True
    )
    thread.start()
    return server, thread

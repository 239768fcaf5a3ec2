"""Telemetry events, their schema, and the bus that carries them.

Every hot path of the characterization stack emits a small event — one
ATE measurement, one SUTP walk step, one GA generation, one NN epoch,
one campaign phase boundary — onto a process-local :class:`EventBus`.
An event is a plain dict built by :func:`event`, which checks its fields
against the one schema table, :data:`EVENT_FIELDS`.  The same dict is
what a trace line, a worker spool and the broker's buffer hold.  Sinks
subscribe to the bus:

* :class:`TraceWriter` appends one JSON object per event to a ``.jsonl``
  file (the ``--trace`` CLI flag), timestamped at write time;
* :class:`RingBufferSink` keeps the last N events in memory (tests,
  interactive inspection);
* :class:`LoggingSink` mirrors events onto stdlib :mod:`logging`
  (the ``-v`` CLI flag).

The bus itself knows nothing about the instruments — enable/disable policy
lives in :mod:`repro.obs.runtime`, and instrumented code guards every emit
behind a single ``OBS.enabled`` attribute check so the disabled path costs
nothing measurable.
"""

from __future__ import annotations

import collections
import contextlib
import json
import logging
import time
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

logger = logging.getLogger("repro.obs")


#: Process-local trace context: ``trace_id`` (campaign), ``span_id`` (work
#: unit) and ``worker`` (process name).  Set by the farm collector around
#: unit execution — in the parent *and* inside worker processes — so every
#: serialized event can be attributed to the campaign and unit that
#: produced it, across process boundaries.
_TRACE_CONTEXT: Optional[Dict[str, object]] = None


def set_trace_context(
    trace_id: Optional[str] = None,
    span_id: Optional[str] = None,
    worker: Optional[str] = None,
    attempt: Optional[int] = None,
) -> None:
    """Install the current trace context (``None`` fields are omitted).

    ``attempt`` distinguishes re-dispatches of the same unit (attempt 1
    is the first try): a retried unit's events carry ``attempt: 2`` so
    duplicate-delivery suppression and Perfetto retry instants can tell
    the attempts apart even though trace/span ids are identical.
    """
    global _TRACE_CONTEXT
    context = {
        key: value
        for key, value in (
            ("trace_id", trace_id),
            ("span_id", span_id),
            ("worker", worker),
            ("attempt", attempt),
        )
        if value
    }
    _TRACE_CONTEXT = context or None


def clear_trace_context() -> None:
    """Drop the current trace context."""
    global _TRACE_CONTEXT
    _TRACE_CONTEXT = None


def current_trace_context() -> Optional[Dict[str, object]]:
    """The installed trace context (a copy), or ``None``."""
    return dict(_TRACE_CONTEXT) if _TRACE_CONTEXT else None


@contextlib.contextmanager
def trace_context(
    trace_id: Optional[str] = None,
    span_id: Optional[str] = None,
    worker: Optional[str] = None,
    attempt: Optional[int] = None,
):
    """Scoped :func:`set_trace_context`; restores the previous context."""
    global _TRACE_CONTEXT
    saved = _TRACE_CONTEXT
    set_trace_context(
        trace_id=trace_id, span_id=span_id, worker=worker, attempt=attempt
    )
    try:
        yield
    finally:
        _TRACE_CONTEXT = saved


#: The event schema: each ``type`` discriminator and its field names, in
#: the order they are written.  ``docs/observability.md`` documents what
#: each field means.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # -- characterization: ATE, searches, SUTP (eqs. 3/4), NN, GA, WCR
    "measurement": ("index", "test_name", "strobe_ns", "passed"),
    "search_started": ("method", "low", "high"),
    "search_converged": ("method", "trip_point", "measurements"),
    "sutp_walk_step": ("iteration", "value", "passed"),
    "sutp_fallback": ("iteration", "value"),
    "sutp_window_escalated": (
        "iteration", "step", "window", "probes", "fallback",
    ),
    "sutp_test_measured": (
        "test_name", "trip_point", "measurements", "used_full_search",
        "iterations", "rtp", "drift",
    ),
    "ga_generation": (
        "generation", "best_fitness", "mean_fitness", "evaluations",
        "restarts", "std_fitness", "sequence_diversity",
        "condition_diversity", "best_operator",
    ),
    "nn_epoch": ("epoch", "train_loss", "val_loss"),
    "nn_vote": (
        "sample", "votes", "predicted", "actual", "entropy", "margin",
        "agreement",
    ),
    "nn_calibration": (
        "round", "labels", "matrix", "accuracy", "mean_entropy",
        "mean_margin",
    ),
    "wcr_classified": ("test_name", "technique", "wcr", "wcr_class", "value"),
    # -- process: resources, profiles, the service request, phases
    "resource_sample": (
        "cpu_user_s", "cpu_system_s", "rss_kb", "max_rss_kb", "gc_gen0",
        "gc_gen1", "gc_gen2", "phase",
    ),
    "profile": (
        "mode", "unit", "samples", "interval_s", "duration_s", "folded",
        "truncated",
    ),
    "request_context": ("request_id", "job_id"),
    "campaign_phase": ("phase", "status", "duration_s"),
    # -- farm executors
    "farm_unit_dispatched": ("key", "kind", "attempt", "executor"),
    "farm_run_started": ("campaign", "units", "executor", "workers"),
    "farm_unit_completed": (
        "key", "kind", "attempt", "elapsed_s", "measurements", "worker",
    ),
    "farm_unit_merged": (
        "key", "events", "dropped_events", "measurements", "worker",
    ),
    "farm_checkpoint_dropped": ("path", "lines"),
    "farm_unit_retried": ("key", "attempt", "error"),
    "farm_unit_skipped": ("key",),
    "farm_worker_pool": ("status", "workers"),
    "farm_workers_clamped": ("requested", "workers"),
    # -- remote farm: the broker's control plane, stamped with ``ts`` and
    # trace context by ``BrokerTelemetry.emit``; the client emits the
    # closing ``broker_clock_sync``
    "broker_campaign_started": (
        "campaign", "units", "restored", "max_attempts", "lease_s",
    ),
    "worker_joined": ("worker", "worker_id"),
    "worker_left": ("worker", "worker_id", "completed", "failed"),
    "lease_issued": ("key", "attempt", "worker"),
    "lease_heartbeat": ("key", "attempt", "worker", "fresh"),
    "lease_expired": ("key", "attempt", "worker", "age_s"),
    "lease_reissued": ("key", "attempt", "reason"),
    "lease_completed": ("key", "attempt", "worker", "age_s", "ok"),
    "duplicate_suppressed": ("key", "attempt", "worker"),
    "spool_restored": ("campaign", "restored", "dropped"),
    "broker_clock_sync": ("campaign", "offsets", "client_offset_s"),
}


def event(type: str, **fields: object) -> Dict[str, object]:
    """One event payload: ``{"type": type, <fields in table order>}``.

    Raises :class:`TypeError` for a ``type`` absent from
    :data:`EVENT_FIELDS`, a missing field or an extra one.
    """
    names = EVENT_FIELDS.get(type)
    if names is None:
        raise TypeError(f"unknown event type {type!r}")
    payload: Dict[str, object] = {"type": type}
    try:
        for name in names:
            payload[name] = fields.pop(name)
    except KeyError as missing:
        raise TypeError(f"{type} event missing field {missing}") from None
    if fields:
        raise TypeError(f"{type} event got unexpected {sorted(fields)}")
    return payload


class EventBus:
    """Fan-out dispatcher from instrumented code to subscribed sinks.

    A sink is anything with ``handle(event)``; ``close()`` is optional.
    Every sink receives the emitted payload dict itself and must not
    mutate it.
    """

    def __init__(self) -> None:
        self._sinks: List[object] = []

    @property
    def sinks(self) -> List[object]:
        """The subscribed sinks (read-only view)."""
        return list(self._sinks)

    def subscribe(self, sink: object) -> None:
        """Attach a sink (must expose ``handle(event)``)."""
        self._sinks.append(sink)

    def unsubscribe(self, sink: object) -> None:
        """Detach a sink (no error if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def emit(self, event: Dict[str, object]) -> None:
        """Deliver ``event`` to every sink, in subscription order."""
        for sink in self._sinks:
            sink.handle(event)

    def close(self) -> None:
        """Close every sink that supports it and clear subscriptions."""
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()
        self._sinks.clear()


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buffer: Deque[Dict[str, object]] = collections.deque(
            maxlen=capacity
        )

    def handle(self, event: Dict[str, object]) -> None:
        """Store one event (oldest dropped at capacity)."""
        self._buffer.append(event)

    @property
    def events(self) -> List[Dict[str, object]]:
        """Buffered events, oldest first."""
        return list(self._buffer)

    def of_type(self, wanted: str) -> List[Dict[str, object]]:
        """Buffered events whose ``type`` is ``wanted``."""
        return [e for e in self._buffer if e.get("type") == wanted]

    def clear(self) -> None:
        """Drop all buffered events."""
        self._buffer.clear()


class TraceWriter:
    """JSONL sink: one ``{"type": ..., "ts": ..., ...}`` object per line.

    The timestamp is wall-clock seconds (``time.time()``) stamped as the
    event is written; a replayed event (from a worker spool or the
    broker) keeps the ``ts`` it was captured with, so merged traces
    preserve the worker-side timeline.  The current trace context
    (campaign/unit/worker ids) is stamped onto every line.  Each line is flushed as it
    is written — the buffer is always empty, so a forked worker process
    inheriting this sink can never replay buffered parent data.  Use
    :meth:`repro.obs.report.TraceFold.read` to load the file back.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w")

    def handle(self, event: Dict[str, object]) -> None:
        """Serialize and append one event (stamped on a copy)."""
        payload = dict(event)
        payload.setdefault("ts", time.time())
        context = current_trace_context()
        if context:
            for key, value in context.items():
                payload.setdefault(key, value)
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


#: Phase-level event types surfaced at INFO by :class:`LoggingSink`;
#: everything else (per-measurement, per-step) is DEBUG.
_INFO_EVENT_TYPES = frozenset(
    {
        "campaign_phase",
        "search_converged",
        "ga_generation",
        "nn_calibration",
        "sutp_fallback",
        "farm_run_started",
        "farm_unit_retried",
        "farm_unit_skipped",
        "farm_worker_pool",
        "farm_workers_clamped",
        "farm_checkpoint_dropped",
        "broker_campaign_started",
        "worker_joined",
        "worker_left",
        "spool_restored",
        "broker_clock_sync",
    }
)


class LoggingSink:
    """Mirrors events onto the ``repro.obs`` stdlib logger."""

    def handle(self, event: Dict[str, object]) -> None:
        """Log one event (INFO for phase-level types, DEBUG otherwise)."""
        name = event.get("type")
        level = logging.INFO if name in _INFO_EVENT_TYPES else logging.DEBUG
        if logger.isEnabledFor(level):
            fields = ", ".join(
                f"{key}={value}" for key, value in event.items()
                if key != "type"
            )
            logger.log(level, "%s: %s", name, fields)

"""Telemetry events, their schema, and the bus that carries them.

Every hot path of the characterization stack emits a small event — one
ATE measurement, one SUTP walk step, one GA generation, one NN epoch,
one campaign phase boundary — onto a process-local :class:`EventBus`.
An event is a plain dict built by :func:`event`, which checks its fields
against the one schema table, :data:`EVENT_FIELDS`, where each field
also has its type.  The same dict is what a trace line, a worker spool
and the broker's buffer hold.  Sinks subscribe to the bus:

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
import math
import time
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

logger = logging.getLogger("repro.obs")

Coerce = Callable[[object], object]


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


# -- field types.  A type is the function that coerces a parsed JSON value
# to it: it returns a value that already has the type unchanged (so a
# well-formed line is never copied) and raises TypeError, ValueError or
# OverflowError for one that does not coerce.


def _int(value: object) -> int:
    number = value if type(value) is int else int(value)
    float(number)  # beyond double range: views divide these
    return number


def _float(value: object) -> float:
    number = float(value)
    # A JSON int stays an int, so a view prints it as it was written,
    # unless a double cannot hold it exactly.
    exact = type(value) is int and abs(value) <= 2**53
    return value if exact or type(value) is float else number


def _finite(value: object) -> float:
    number = _float(value)
    if not math.isfinite(number):
        raise ValueError(f"not finite: {number!r}")
    return number


def _exactly(kind: type) -> Coerce:
    def coerce(value: object) -> object:
        if type(value) is not kind:
            raise TypeError(f"not a {kind.__name__}: {value!r}")
        return value
    return coerce


_str, _bool = _exactly(str), _exactly(bool)


def _optional(kind: Coerce) -> Coerce:
    return lambda value: None if value is None else kind(value)


def _same(items: list, value: Sequence) -> object:
    return value if all(a is b for a, b in zip(items, value)) else items


def _list_of(kind: Coerce) -> Coerce:
    def coerce(value: object) -> object:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"not a list: {value!r}")
        return _same([kind(item) for item in value], value)
    return coerce


def _row(*kinds: Coerce) -> Coerce:
    def coerce(value: object) -> object:
        if not isinstance(value, (list, tuple)) or len(value) != len(kinds):
            raise TypeError(f"not a {len(kinds)}-item row: {value!r}")
        return _same([kind(item) for kind, item in zip(kinds, value)], value)
    return coerce


def _map_of(kind: Coerce) -> Coerce:
    def coerce(value: object) -> object:
        if not isinstance(value, dict):
            raise TypeError(f"not an object: {value!r}")
        items = {_str(key): kind(item) for key, item in value.items()}
        same = all(items[key] is item for key, item in value.items())
        return value if same else items
    return coerce


#: Every field type by the name the schema spells it with (``?``: or
#: ``null``; ``[...]``: a list of; ``{...}``: an object of).
_TYPES: Dict[str, Coerce] = {
    "int": _int, "float": _float, "finite": _finite, "str": _str,
    "bool": _bool, "float?": _optional(_float), "str?": _optional(_str),
    "[int]": _list_of(_int), "[str]": _list_of(_str),
    "[[int]]": _list_of(_list_of(_int)),
    "[[str,str,int]]": _list_of(_row(_str, _str, _int)),
    "{finite}": _map_of(_finite),
}


def _fields(spec: str) -> Dict[str, Coerce]:
    return {
        name: _TYPES[kind]
        for name, _, kind in (field.partition(":") for field in spec.split())
    }


#: The event schema: each ``type`` discriminator and its fields, in the
#: order they are written, each with its type.  ``docs/observability.md``
#: documents what each field means.  :class:`repro.obs.report.TraceFold`
#: coerces every trace line through this table (and
#: :data:`ENVELOPE_FIELDS`), so the views read typed records.
EVENT_FIELDS: Dict[str, Dict[str, Coerce]] = {
    kind: _fields(spec) for kind, spec in {
        # -- characterization: ATE, searches, SUTP (eqs. 3/4), NN, GA, WCR
        "measurement": "index:int test_name:str strobe_ns:finite passed:bool",
        "search_started": "method:str low:float high:float",
        "search_converged": "method:str trip_point:float? measurements:int",
        "sutp_walk_step": "iteration:int value:float passed:bool",
        "sutp_fallback": "iteration:int value:float",
        "sutp_window_escalated": "iteration:int step:float window:float "
        "probes:int fallback:bool",
        "sutp_test_measured": "test_name:str trip_point:float? "
        "measurements:int used_full_search:bool iterations:int rtp:float? "
        "drift:float?",
        "ga_generation": "generation:int best_fitness:float "
        "mean_fitness:float evaluations:int restarts:int std_fitness:float "
        "sequence_diversity:float condition_diversity:float "
        "best_operator:str",
        "nn_epoch": "epoch:int train_loss:float val_loss:float?",
        "nn_vote": "sample:int votes:[int] predicted:int actual:int "
        "entropy:finite margin:float agreement:float",
        "nn_calibration": "round:int labels:[str] matrix:[[int]] "
        "accuracy:float mean_entropy:float mean_margin:float",
        "wcr_classified": "test_name:str technique:str wcr:float? "
        "wcr_class:str value:float?",
        # -- process: resources, profiles, the service request, phases
        "resource_sample": "cpu_user_s:float cpu_system_s:float rss_kb:int "
        "max_rss_kb:int gc_gen0:int gc_gen1:int gc_gen2:int phase:str?",
        "profile": "mode:str unit:str samples:int interval_s:float "
        "duration_s:float folded:[[str,str,int]] truncated:int",
        "request_context": "request_id:str job_id:str",
        "campaign_phase": "phase:str status:str duration_s:float?",
        # -- farm executors
        "farm_unit_dispatched": "key:str kind:str attempt:int executor:str",
        "farm_run_started": "campaign:str units:int executor:str workers:int",
        "farm_unit_completed": "key:str kind:str attempt:int "
        "elapsed_s:float measurements:int worker:str",
        "farm_unit_merged": "key:str events:int dropped_events:int "
        "measurements:int worker:str",
        "farm_checkpoint_dropped": "path:str lines:int",
        "farm_unit_retried": "key:str attempt:int error:str",
        "farm_unit_skipped": "key:str",
        "farm_worker_pool": "status:str workers:int",
        "farm_workers_clamped": "requested:int workers:int",
        # -- remote farm: the broker's control plane, stamped with ``ts``
        # and trace context by ``BrokerTelemetry.emit``; the client emits
        # the closing ``broker_clock_sync``
        "broker_campaign_started": "campaign:str units:int max_attempts:int "
        "lease_s:float",
        "worker_joined": "worker:str worker_id:str",
        "worker_left": "worker:str worker_id:str completed:int failed:int",
        "lease_issued": "key:str attempt:int worker:str",
        "lease_heartbeat": "key:str attempt:int worker:str fresh:bool",
        "lease_expired": "key:str attempt:int worker:str age_s:float",
        "lease_reissued": "key:str attempt:int reason:str",
        "lease_completed": "key:str attempt:int worker:str age_s:float "
        "ok:bool",
        "duplicate_suppressed": "key:str attempt:int worker:str",
        "broker_clock_sync": "campaign:str offsets:{finite} "
        "client_offset_s:finite",
    }.items()
}

#: The fields :class:`TraceWriter` stamps onto every line (``ts``) or
#: onto lines written under a trace context, with their types.  An event
#: field of the same name has the same type.
ENVELOPE_FIELDS = _fields("ts:finite worker:str attempt:int trace_id:str span_id:str")


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

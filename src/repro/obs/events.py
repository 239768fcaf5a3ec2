"""Typed telemetry events and the bus that carries them.

Every hot path of the characterization stack emits a small frozen event —
one ATE measurement, one SUTP walk step, one GA generation, one NN epoch,
one campaign phase boundary — onto a process-local :class:`EventBus`.
Sinks subscribe to the bus:

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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, ClassVar, Deque, Dict, List, Optional, Tuple, Union

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


@dataclass(frozen=True)
class Event:
    """Base telemetry event; subclasses set :attr:`type`."""

    type: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form: the fields plus a ``type`` discriminator."""
        payload: Dict[str, object] = {"type": self.type}
        payload.update(asdict(self))
        return payload


@dataclass(frozen=True)
class MeasurementEvent(Event):
    """One strobed pass/fail measurement charged by :meth:`ATE.apply`."""

    type: ClassVar[str] = "measurement"

    index: int
    test_name: str
    strobe_ns: float
    passed: bool


@dataclass(frozen=True)
class SearchStarted(Event):
    """A trip-point searcher began a bracketed search."""

    type: ClassVar[str] = "search_started"

    method: str
    low: float
    high: float


@dataclass(frozen=True)
class SearchConverged(Event):
    """A trip-point searcher finished (trip point or ``None``)."""

    type: ClassVar[str] = "search_converged"

    method: str
    trip_point: Optional[float]
    measurements: int


@dataclass(frozen=True)
class SUTPWalkStep(Event):
    """One incremental ±SF(IT) probe of the SUTP walk (eqs. 3/4)."""

    type: ClassVar[str] = "sutp_walk_step"

    iteration: int
    value: float
    passed: bool


@dataclass(frozen=True)
class SUTPFallback(Event):
    """The SUTP walk left the characterization range; full search follows."""

    type: ClassVar[str] = "sutp_fallback"

    iteration: int
    value: float


@dataclass(frozen=True)
class SUTPWindowEscalated(Event):
    """The incremental walk needed more than one ±SF step (eqs. 3/4).

    Emitted once per incremental search whose bracketing took ``IT >= 2``
    (or that fell off the range entirely): the SF·IT window *escalated*
    past the base step before the state flip.  A test absent from these
    events reused the RTP cheaply — bracketing on the very first step.

    Attributes
    ----------
    iteration:
        Final ``IT`` of the walk.
    step:
        Last step size ``SF * IT``.
    window:
        Cumulative distance walked from the RTP, ``SF * IT(IT+1)/2``.
    probes:
        Oracle probes the walk had spent when it escalated.
    fallback:
        True when the escalation ended in a full-range fallback.
    """

    type: ClassVar[str] = "sutp_window_escalated"

    iteration: int
    step: float
    window: float
    probes: int
    fallback: bool = False


@dataclass(frozen=True)
class SUTPTestMeasured(Event):
    """One test's complete SUTP outcome, with the test's identity.

    Emitted by :class:`~repro.core.trip_point.MultipleTripPointRunner`
    (which, unlike the searcher, knows the test name) after every SUTP
    measurement.  The sequence of these events is the per-parameter
    trip-point *drift series*, and the per-test audit table of
    :mod:`repro.obs.insight` is built from them.
    """

    type: ClassVar[str] = "sutp_test_measured"

    test_name: str
    trip_point: Optional[float]
    measurements: int
    used_full_search: bool
    iterations: int
    rtp: Optional[float] = None
    drift: Optional[float] = None


@dataclass(frozen=True)
class GAGeneration(Event):
    """End of one GA generation across all populations.

    The trailing fields are the decision-level extension (fig. 5
    convergence telemetry): fitness dispersion, chromosome diversity for
    both species, and which variation operators produced the generation's
    best individual.  They default so traces written by older builds stay
    loadable.
    """

    type: ClassVar[str] = "ga_generation"

    generation: int
    best_fitness: float
    mean_fitness: float
    evaluations: int
    restarts: int
    std_fitness: float = float("nan")
    sequence_diversity: float = float("nan")
    condition_diversity: float = float("nan")
    best_operator: str = ""


@dataclass(frozen=True)
class NNEpoch(Event):
    """One training epoch of the fig. 4 learning loop."""

    type: ClassVar[str] = "nn_epoch"

    epoch: int
    train_loss: float
    val_loss: Optional[float]


@dataclass(frozen=True)
class NNVote(Event):
    """One validation sample's ensemble vote (fig. 4 voting machine).

    ``votes`` is the per-class member vote vector; ``entropy`` the
    disagreement entropy of that vector in bits (0 = unanimous);
    ``margin`` the soft-vote probability gap between the top two
    classes; ``agreement`` the fraction of members voting with the
    majority.
    """

    type: ClassVar[str] = "nn_vote"

    sample: int
    votes: "Tuple[int, ...]"
    predicted: int
    actual: int
    entropy: float
    margin: float
    agreement: float


@dataclass(frozen=True)
class NNCalibration(Event):
    """Calibration of predicted fuzzy class vs. measured TPV class.

    Emitted once per learning round over the validation split:
    ``matrix[i][j]`` counts samples whose *measured* trip point coded to
    class ``i`` and whose ensemble prediction was class ``j``.
    """

    type: ClassVar[str] = "nn_calibration"

    round: int
    labels: "Tuple[str, ...]"
    matrix: "Tuple[Tuple[int, ...], ...]"
    accuracy: float
    mean_entropy: float
    mean_margin: float


@dataclass(frozen=True)
class WCRClassified(Event):
    """One worst-case-database record's fig. 6 classification."""

    type: ClassVar[str] = "wcr_classified"

    test_name: str
    technique: str
    wcr: Optional[float]
    wcr_class: str
    value: Optional[float] = None


@dataclass(frozen=True)
class ResourceSample(Event):
    """One periodic reading of this process's resource consumption.

    Emitted by :class:`~repro.obs.profile.ResourceSampler` (the parent
    process under ``--profile``, and each farm worker around its unit).
    CPU times are cumulative process totals (``getrusage``), so series
    consumers difference consecutive samples; RSS comes from
    ``/proc/self/status`` where available with a ``ru_maxrss``-derived
    portable fallback.
    """

    type: ClassVar[str] = "resource_sample"

    cpu_user_s: float
    cpu_system_s: float
    rss_kb: int
    max_rss_kb: int
    gc_gen0: int
    gc_gen1: int
    gc_gen2: int
    phase: str = ""


@dataclass(frozen=True)
class ProfileRecorded(Event):
    """One finished profiling session's folded call stacks.

    ``folded`` holds ``(phase, stack, weight)`` triples where ``stack``
    is a ``;``-joined root-to-leaf frame list (``module:function``) —
    the flamegraph.pl collapsed-stack format, phase-attributed.  The
    weight unit depends on the mode: stack *samples* for the background
    sampling profiler, self-time *milliseconds* for the deterministic
    ``cProfile`` mode (whose "stacks" are single frames).
    """

    type: ClassVar[str] = "profile"

    mode: str  # "sampling" | "cprofile"
    unit: str  # "samples" | "ms"
    samples: int
    interval_s: float
    duration_s: float
    folded: "Tuple[Tuple[str, str, int], ...]"
    truncated: int = 0


@dataclass(frozen=True)
class RequestContext(Event):
    """The HTTP request that caused this run, stamped into its trace.

    Emitted once, at trace setup, when the process was launched by the
    characterization service on behalf of an HTTP request (the runner
    exports ``REPRO_REQUEST_ID``/``REPRO_JOB_ID`` into the job
    subprocess).  It is the join key of the operational story: the
    service's access log, the job row in the store, and the job's trace
    all carry the same ``request_id``.
    """

    type: ClassVar[str] = "request_context"

    request_id: str
    job_id: str = ""


@dataclass(frozen=True)
class CampaignPhase(Event):
    """Start/end of a named campaign phase (``duration_s`` on end)."""

    type: ClassVar[str] = "campaign_phase"

    phase: str
    status: str  # "start" | "end"
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class FarmUnitDispatched(Event):
    """A work unit was handed to an executor (attempt 1 = first try)."""

    type: ClassVar[str] = "farm_unit_dispatched"

    key: str
    kind: str
    attempt: int
    executor: str  # "serial" | "parallel"


@dataclass(frozen=True)
class FarmRunStarted(Event):
    """A farm executor accepted a batch of work units."""

    type: ClassVar[str] = "farm_run_started"

    campaign: str
    units: int
    executor: str  # "serial" | "parallel"
    workers: int


@dataclass(frozen=True)
class FarmUnitCompleted(Event):
    """A work unit finished; cost flows back from the (possibly remote)
    worker through the outcome, and — when a collector is active — its
    spooled telemetry is merged into the parent's sinks afterwards."""

    type: ClassVar[str] = "farm_unit_completed"

    key: str
    kind: str
    attempt: int
    elapsed_s: float
    measurements: int
    worker: str = ""


@dataclass(frozen=True)
class FarmUnitMerged(Event):
    """A unit's worker-side telemetry was merged into the parent sinks.

    Emitted by the collector in submission order, after the whole batch
    completed — the deterministic closing bracket of a unit's lifecycle
    (queued -> running -> [retried ->] merged)."""

    type: ClassVar[str] = "farm_unit_merged"

    key: str
    events: int
    dropped_events: int
    measurements: int
    worker: str = ""


@dataclass(frozen=True)
class FarmCheckpointDropped(Event):
    """A checkpoint load dropped corrupt/undecodable lines — data loss
    that would otherwise only surface as a logging warning."""

    type: ClassVar[str] = "farm_checkpoint_dropped"

    path: str
    lines: int


@dataclass(frozen=True)
class FarmUnitRetried(Event):
    """A unit's attempt failed (timeout, worker death, error); it will be
    re-dispatched."""

    type: ClassVar[str] = "farm_unit_retried"

    key: str
    attempt: int
    error: str


@dataclass(frozen=True)
class FarmUnitSkipped(Event):
    """A unit's result was loaded from a checkpoint instead of re-run."""

    type: ClassVar[str] = "farm_unit_skipped"

    key: str


@dataclass(frozen=True)
class FarmWorkerPool(Event):
    """Worker-pool lifecycle: ``started``, ``stopped`` or ``recycled``
    (after a timeout or worker death poisoned the pool)."""

    type: ClassVar[str] = "farm_worker_pool"

    status: str
    workers: int


@dataclass(frozen=True)
class FarmWorkersClamped(Event):
    """``make_executor`` was asked for more pool workers than this process
    has CPUs, and sized the pool to the CPUs instead."""

    type: ClassVar[str] = "farm_workers_clamped"

    requested: int
    workers: int


# -- farm-broker control-plane events -----------------------------------------
#
# Emitted by :class:`repro.farm.remote.telemetry.BrokerTelemetry` on the
# broker's connection threads.  The broker pre-stamps each payload with
# ``ts`` and trace context (trace_id=campaign, span_id=unit key,
# worker=worker name) instead of using the process-global trace context,
# which is not thread-safe.


@dataclass(frozen=True)
class BrokerCampaignStarted(Event):
    """A client submitted a campaign to the farm broker."""

    type: ClassVar[str] = "broker_campaign_started"

    campaign: str
    units: int
    restored: int
    max_attempts: int
    lease_s: float


@dataclass(frozen=True)
class WorkerJoined(Event):
    """A remote worker completed its hello handshake with the broker."""

    type: ClassVar[str] = "worker_joined"

    worker: str
    worker_id: str


@dataclass(frozen=True)
class WorkerLeft(Event):
    """A remote worker's connection closed (graceful or not)."""

    type: ClassVar[str] = "worker_left"

    worker: str
    worker_id: str
    completed: int
    failed: int


@dataclass(frozen=True)
class LeaseIssued(Event):
    """The broker leased a work unit to a worker."""

    type: ClassVar[str] = "lease_issued"

    key: str
    attempt: int
    worker: str


@dataclass(frozen=True)
class LeaseHeartbeat(Event):
    """A worker heartbeat extended (``fresh``) or was refused (stale)."""

    type: ClassVar[str] = "lease_heartbeat"

    key: str
    attempt: int
    worker: str
    fresh: bool


@dataclass(frozen=True)
class LeaseExpired(Event):
    """The sweep loop reclaimed a lease whose deadline passed."""

    type: ClassVar[str] = "lease_expired"

    key: str
    attempt: int
    worker: str
    age_s: float


@dataclass(frozen=True)
class LeaseReissued(Event):
    """An expired/failed unit went back on the queue for another attempt."""

    type: ClassVar[str] = "lease_reissued"

    key: str
    attempt: int
    reason: str


@dataclass(frozen=True)
class LeaseCompleted(Event):
    """A leased unit's first result landed (closes the lease span)."""

    type: ClassVar[str] = "lease_completed"

    key: str
    attempt: int
    worker: str
    age_s: float
    ok: bool


@dataclass(frozen=True)
class DuplicateSuppressed(Event):
    """A result arrived for an already-completed unit and was dropped."""

    type: ClassVar[str] = "duplicate_suppressed"

    key: str
    attempt: int
    worker: str


@dataclass(frozen=True)
class SpoolRestored(Event):
    """A resubmitted campaign recovered results from the broker spool."""

    type: ClassVar[str] = "spool_restored"

    campaign: str
    restored: int
    dropped: int


@dataclass(frozen=True)
class BrokerClockSync(Event):
    """Per-worker clock offsets the broker estimated for a campaign.

    ``offsets`` maps worker name → estimated ``worker wall − broker
    wall`` seconds (min-filtered, so network delay biases it by at most
    the best-case one-way latency).  ``client_offset_s`` is the same
    estimate for the submitting client, letting the timeline re-anchor
    broker timestamps into the client's clock frame.
    """

    type: ClassVar[str] = "broker_clock_sync"

    campaign: str
    offsets: Dict[str, float]
    client_offset_s: float


#: A sink is anything with ``handle(event)``; ``close()`` is optional.
Sink = Callable

#: What the bus carries: a typed :class:`Event`, or a pre-serialized event
#: payload (a ``dict`` with a ``type`` key, and usually a ``ts`` and trace
#: context) replayed from a worker spool by the farm collector.
EventLike = Union[Event, Dict[str, object]]


def known_event_types() -> "frozenset[str]":
    """The ``type`` discriminators of every event class in this module."""
    types = set()
    stack = [Event]
    while stack:
        cls = stack.pop()
        types.add(cls.type)
        stack.extend(cls.__subclasses__())
    return frozenset(types)


def event_payload(event: EventLike) -> Dict[str, object]:
    """``event`` as a plain serializable dict (a copy for dict inputs)."""
    if isinstance(event, dict):
        return dict(event)
    return event.to_dict()


def event_type(event: EventLike) -> str:
    """The ``type`` discriminator of a typed or pre-serialized event."""
    if isinstance(event, dict):
        return str(event.get("type", "event"))
    return event.type


class EventBus:
    """Fan-out dispatcher from instrumented code to subscribed sinks."""

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

    def emit(self, event: EventLike) -> None:
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
        self._buffer: Deque[EventLike] = collections.deque(maxlen=capacity)

    def handle(self, event: EventLike) -> None:
        """Store one event (oldest dropped at capacity)."""
        self._buffer.append(event)

    @property
    def events(self) -> List[EventLike]:
        """Buffered events, oldest first."""
        return list(self._buffer)

    def of_type(self, wanted: Union[str, type]) -> List[EventLike]:
        """Buffered events of one type (by ``type`` string or class)."""
        if isinstance(wanted, str):
            return [e for e in self._buffer if event_type(e) == wanted]
        return [e for e in self._buffer if isinstance(e, wanted)]

    def clear(self) -> None:
        """Drop all buffered events."""
        self._buffer.clear()


class TraceWriter:
    """JSONL sink: one ``{"type": ..., "ts": ..., ...}`` object per line.

    The timestamp is wall-clock seconds (``time.time()``) stamped as the
    event is written; a pre-serialized event (a worker-spool replay)
    keeps the ``ts`` it was captured with, so merged traces preserve the
    worker-side timeline.  The current trace context (campaign/unit/
    worker ids) is stamped onto every line.  Each line is flushed as it
    is written — the buffer is always empty, so a forked worker process
    inheriting this sink can never replay buffered parent data.  Use
    :meth:`repro.obs.report.TraceFold.read` to load the file back.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w")

    def handle(self, event: EventLike) -> None:
        """Serialize and append one event."""
        payload = event_payload(event)
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

    def handle(self, event: EventLike) -> None:
        """Log one event (INFO for phase-level types, DEBUG otherwise)."""
        name = event_type(event)
        level = logging.INFO if name in _INFO_EVENT_TYPES else logging.DEBUG
        if logger.isEnabledFor(level):
            if isinstance(event, dict):
                items = [
                    (key, value)
                    for key, value in event.items()
                    if key != "type"
                ]
            else:
                items = list(asdict(event).items())
            fields = ", ".join(f"{key}={value}" for key, value in items)
            logger.log(level, "%s: %s", name, fields)

"""Cross-process farm telemetry: worker spools, trace context, merge.

PR 3's tester farm ran worker processes with telemetry force-disabled —
exactly the runs the paper's measurement-cost argument cares most about
(parallel lot/wafer/campaign characterization) were blind spots.  This
module closes them:

* **Worker spool** — inside a worker (or around a serial unit), the
  global switchboard is swapped to a fresh bus feeding a bounded
  in-memory :class:`SpoolSink` plus a raw-tracking metrics registry.
  Everything the unit emits (per-measurement events, SUTP walk steps,
  histogram observations) is captured, timestamped at emit time, and
  carried back to the parent as one picklable :class:`WorkerTelemetry`.
* **Trace-context propagation** — the campaign id travels to the worker
  as the *trace id* and the unit key becomes the *span id*; every
  spooled event is stamped with both (plus the worker process name), so
  a merged trace attributes each event to the unit and process that
  produced it.
* **Deterministic merge** — :class:`FarmCollector` replays every unit's
  spooled events and metric observations into the parent's sinks in
  **submission order**, regardless of worker count, scheduling or
  completion order.  Every executor runs a unit through :func:`run_unit`
  and merges its telemetry here, so a 4-worker run's merged trace and
  metric histograms are identical to the serial run's.

:class:`FarmProgressReporter` is the live half: a plain sink that turns
farm lifecycle events into one stderr line per unit as the run proceeds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO

from repro.obs.events import (
    EventBus,
    clear_trace_context,
    current_trace_context,
    event,
    set_trace_context,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    ProfileConfig,
    ProfileSession,
    active_profile_config,
)
from repro.obs.runtime import OBS

#: Per-unit spool bound.  A unit past this many events keeps running;
#: the overflow is counted (``dropped_events``) and surfaced as a
#: ``farm.spool.dropped_events`` counter at merge time.
SPOOL_CAPACITY = 200_000


@dataclass(frozen=True)
class WorkerCaptureConfig:
    """What a worker needs to capture telemetry for one unit.

    Picklable and tiny — the parent ships it with every dispatch.
    ``trace_id`` is the campaign identity; the span id is derived from
    the unit key on the worker side.  When the parent process is
    profiling (``--profile``), ``profile`` carries its
    :class:`~repro.obs.profile.ProfileConfig` so each unit runs its own
    sampler pair inside the executing process.
    """

    trace_id: str
    profile: Optional[ProfileConfig] = None


@dataclass
class WorkerTelemetry:
    """One unit's captured telemetry, shipped back across the boundary."""

    unit_key: str
    worker: str
    started_ts: float
    ended_ts: float
    events: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    dropped_events: int = 0
    #: Which dispatch produced this capture (1 = first try); retried
    #: units ship attempt=2... so merged traces distinguish attempts.
    attempt: int = 1


class SpoolSink:
    """Bounded in-memory sink of stamped event copies.

    Each event payload is copied at emit time and the copy stamped with
    the wall-clock timestamp and the current trace context — the exact
    line a :class:`~repro.obs.events.TraceWriter` would have written,
    ready to replay through any sink in the parent process.
    """

    def __init__(self, capacity: int = SPOOL_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: List[Dict[str, object]] = []
        self.dropped = 0

    def handle(self, event: Dict[str, object]) -> None:
        """Capture one event (overflow counted, not stored)."""
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        payload = dict(event)
        payload.setdefault("ts", time.time())
        context = current_trace_context()
        if context:
            for key, value in context.items():
                payload.setdefault(key, value)
        self.events.append(payload)


class UnitCapture:
    """Swaps the global switchboard to a per-unit spool, and back.

    :func:`run_unit` wraps every captured unit run in one, whichever
    executor runs it.  While active, ``OBS.bus`` feeds only the spool
    and ``OBS.metrics`` is a fresh raw-tracking registry, so nothing the
    unit emits reaches the parent sinks directly — it all arrives via
    the deterministic merge.  The previous bus/registry/context are
    restored on :meth:`finish` or :meth:`abort` (inherited sinks are
    detached, never closed: in a forked worker they belong to the
    parent).
    """

    def __init__(
        self,
        config: WorkerCaptureConfig,
        unit_key: str,
        worker: str,
        attempt: int = 1,
    ) -> None:
        self.unit_key = unit_key
        self.worker = worker
        self.attempt = attempt
        self.spool = SpoolSink(SPOOL_CAPACITY)
        self._saved_enabled = OBS.enabled
        self._saved_bus = OBS.bus
        self._saved_metrics = OBS.metrics
        self._saved_context = current_trace_context()
        bus = EventBus()
        bus.subscribe(self.spool)
        OBS.bus = bus
        OBS.metrics = MetricsRegistry(keep_raw=True)
        OBS.enabled = True
        set_trace_context(
            trace_id=config.trace_id,
            span_id=unit_key,
            worker=worker,
            attempt=attempt,
        )
        # Per-unit profiling: the session starts *after* the switchboard
        # swap, so it binds the spool bus — its profile/resource events
        # ride back inside this unit's WorkerTelemetry like any other.
        self._profile: Optional[ProfileSession] = None
        if config.profile is not None:
            self._profile = ProfileSession(config.profile).start()
        self.started_ts = time.time()

    def finish(self) -> WorkerTelemetry:
        """Restore the switchboard; the captured telemetry."""
        if self._profile is not None:
            self._profile.stop()
            self._profile = None
        telemetry = WorkerTelemetry(
            unit_key=self.unit_key,
            worker=self.worker,
            started_ts=self.started_ts,
            ended_ts=time.time(),
            events=self.spool.events,
            metrics=OBS.metrics.dump_raw(),
            dropped_events=self.spool.dropped,
            attempt=self.attempt,
        )
        self._restore()
        return telemetry

    def abort(self) -> None:
        """Restore the switchboard, discarding the capture (failed
        attempt — matches a worker death, which loses its spool too)."""
        if self._profile is not None:
            self._profile.stop(emit=False)
            self._profile = None
        self._restore()

    def _restore(self) -> None:
        OBS.enabled = self._saved_enabled
        OBS.bus = self._saved_bus
        OBS.metrics = self._saved_metrics
        saved = self._saved_context
        if saved:
            set_trace_context(**saved)
        else:
            clear_trace_context()


def run_unit(
    runner,
    unit,
    config: Optional[WorkerCaptureConfig],
    worker: str,
    attempt: int = 1,
):
    """Run ``runner(unit)``; ``(outcome, elapsed_s, telemetry)``.

    The one unit call of every executor: serial, a pool worker and a
    socket worker.  With a ``config`` the unit runs under a
    :class:`UnitCapture` stamped with ``worker`` and ``attempt`` (so a
    retry's events are distinguishable from the first try's), and
    ``telemetry`` is its :class:`WorkerTelemetry`; without one it runs
    bare and ``telemetry`` is ``None``.  On an exception the capture is
    discarded and the error propagates (the parent counts the attempt as
    failed either way).
    """
    start = time.perf_counter()
    if config is None:
        outcome = runner(unit)
        return outcome, time.perf_counter() - start, None
    capture = UnitCapture(config, unit.key, worker, attempt=attempt)
    try:
        outcome = runner(unit)
    except BaseException:
        capture.abort()
        raise
    telemetry = capture.finish()
    return outcome, time.perf_counter() - start, telemetry


def _telemetry_measurements(telemetry: WorkerTelemetry) -> int:
    counters = telemetry.metrics.get("counters", {})
    data = counters.get("ate.measurements") if counters else None
    return int(data.get("value", 0)) if data else 0


class FarmCollector:
    """Per-run accumulator of unit telemetry, merged in submission order.

    Created by the executors when telemetry is enabled.  ``collect``
    stores the latest successful attempt's telemetry per unit; ``merge``
    replays everything into the parent's live sinks and registry — each
    unit closed by a ``farm_unit_merged`` event —
    walking the *submission* order, so the merged section of a trace is
    identical for any worker count and any completion order.
    """

    def __init__(self, campaign: str, unit_keys: Sequence[str]) -> None:
        self.campaign = campaign or "farm"
        self._order: List[str] = list(unit_keys)
        self._telemetry: Dict[str, WorkerTelemetry] = {}
        self._merged = False

    def worker_config(self) -> WorkerCaptureConfig:
        """The capture config every unit of the run is dispatched with."""
        return WorkerCaptureConfig(
            trace_id=self.campaign, profile=active_profile_config()
        )

    def collect(self, telemetry: Optional[WorkerTelemetry]) -> None:
        """Store one unit's telemetry (latest successful attempt wins)."""
        if telemetry is not None:
            self._telemetry[telemetry.unit_key] = telemetry

    def merge(self) -> None:
        """Replay all collected telemetry into the parent sinks.

        Idempotent; called by the executors in a ``finally`` so even a
        run that raises :class:`~repro.farm.executor.FarmExecutionError`
        flushes the telemetry of every unit that did complete.
        """
        if self._merged or not OBS.enabled:
            self._merged = True
            return
        self._merged = True
        for key in self._order:
            telemetry = self._telemetry.get(key)
            if telemetry is None:
                continue  # checkpoint-skipped or never completed
            for payload in telemetry.events:
                OBS.bus.emit(payload)
            OBS.metrics.merge_raw(telemetry.metrics)
            if telemetry.dropped_events:
                OBS.metrics.counter("farm.spool.dropped_events").inc(
                    telemetry.dropped_events
                )
            OBS.bus.emit(
                event(
                    "farm_unit_merged",
                    key=key,
                    events=len(telemetry.events),
                    dropped_events=telemetry.dropped_events,
                    measurements=_telemetry_measurements(telemetry),
                    worker=telemetry.worker,
                )
            )


class FarmProgressReporter:
    """Live per-unit progress lines on stderr during a farm run.

    A plain event-bus sink — subscribe it (the CLI's ``--progress``
    flag does) and every unit lifecycle change prints one line::

        [farm 12/16] die/0011 done in 0.42s (381 meas) on ForkProcess-3

    Replayed events are ignored: progress reflects the live run, the
    merged trace stays the deterministic record.  A replay — from a
    worker spool or the broker — is stamped with ``ts`` before it reaches
    the bus, and a live event is not (sinks stamp copies), so ``ts``
    tells them apart.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0

    def _line(self, text: str) -> None:
        print(text, file=self._stream, flush=True)

    def handle(self, event: Dict[str, object]) -> None:
        """React to live farm lifecycle events; ignore everything else."""
        if "ts" in event:
            return
        name = event["type"]
        if name == "farm_run_started":
            self._total = event["units"]
            self._done = 0
            self._line(
                f"[farm] {event['campaign']}: {event['units']} unit(s) on "
                f"{event['workers']} worker(s) ({event['executor']})"
            )
        elif name == "farm_unit_completed":
            self._done += 1
            worker = f" on {event['worker']}" if event["worker"] else ""
            self._line(
                f"[farm {self._done}/{self._total}] {event['key']} done in "
                f"{event['elapsed_s']:.2f}s ({event['measurements']} meas)"
                f"{worker}"
            )
        elif name == "farm_unit_skipped":
            self._done += 1
            self._line(
                f"[farm {self._done}/{self._total}] {event['key']} "
                f"restored from checkpoint"
            )
        elif name == "farm_unit_retried":
            self._line(
                f"[farm] retrying {event['key']} after attempt "
                f"{event['attempt']}: {event['error']}"
            )
        elif name == "farm_checkpoint_dropped":
            self._line(
                f"[farm] warning: {event['lines']} corrupt checkpoint "
                f"line(s) dropped from {event['path']}"
            )

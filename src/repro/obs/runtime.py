"""The process-wide observability switchboard.

One global :data:`OBS` object couples the event bus and the metrics
registry behind a single ``enabled`` flag.  Instrumented hot paths follow
one idiom::

    from repro.obs.runtime import OBS

    if OBS.enabled:
        OBS.metrics.counter("ate.measurements").inc(label=test_name)
        OBS.bus.emit(event("measurement", index=..., ...))

With telemetry off (the default) the entire cost of instrumentation is the
``OBS.enabled`` attribute load — benchmarks are unaffected.  Enabling is
explicit: :func:`enable` (optionally attaching sinks), or the CLI's
``--trace`` / ``--metrics`` / ``-v`` flags which call it for you.

The layer is deliberately process-local and single-threaded, matching the
rest of the stack (one tester, one device, one campaign per process).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.obs.events import EventBus, LoggingSink, RingBufferSink, TraceWriter
from repro.obs.metrics import MetricsRegistry


class Observability:
    """Enabled flag + event bus + metrics registry, as one unit."""

    __slots__ = ("enabled", "bus", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.bus = EventBus()
        self.metrics = MetricsRegistry()

    def enable(self, *sinks: object) -> "Observability":
        """Turn telemetry on, subscribing any given sinks; returns self."""
        for sink in sinks:
            self.bus.subscribe(sink)
        self.enabled = True
        return self

    def disable(self) -> None:
        """Turn telemetry off (sinks stay subscribed but receive nothing)."""
        self.enabled = False

    def detach(self) -> None:
        """Disable and swap in a fresh bus and registry, closing nothing.

        For a child process: under the ``fork`` start method it inherits
        the parent's enabled switchboard *and* its open trace file
        descriptors, and concurrent writes would interleave garbage.  The
        inherited sinks are detached, never closed — the file handles
        belong to the parent.
        """
        self.enabled = False
        self.bus = EventBus()
        self.metrics = MetricsRegistry()

    def reset(self) -> None:
        """Disable, close/detach every sink and drop all metrics.

        Any live profiling session is stopped first *without* emitting —
        its sampler threads must not write into sinks being closed.
        """
        from repro.obs import profile as _profile  # lazy: profile imports OBS

        _profile.stop_profiling(emit=False)
        self.enabled = False
        self.bus.close()
        self.metrics.reset()


#: The process-wide observability instance every instrumented module uses.
OBS = Observability()


def enable(*sinks: object) -> Observability:
    """Enable the global :data:`OBS`, attaching ``sinks``; returns it."""
    return OBS.enable(*sinks)


def disable() -> None:
    """Disable the global :data:`OBS` (metrics and sinks are kept)."""
    OBS.disable()


def reset() -> None:
    """Fully reset the global :data:`OBS` (tests, fresh campaigns)."""
    OBS.reset()


def configure(
    trace_path: Optional[Union[str, Path]] = None,
    ring_buffer: Optional[int] = None,
    log_events: bool = False,
    profile: Optional[object] = None,
) -> Observability:
    """One-call setup used by the CLI and the examples.

    Parameters
    ----------
    trace_path:
        When given, attach a :class:`TraceWriter` writing JSONL here.
    ring_buffer:
        When given, attach a :class:`RingBufferSink` of this capacity.
    log_events:
        When True, attach a :class:`LoggingSink` (stdlib logging).
    profile:
        When given, start the process-wide profiling session: either a
        :class:`~repro.obs.profile.ProfileConfig` or any truthy value
        for the defaults.  Stop it with
        :func:`repro.obs.profile.stop_profiling` (or :func:`reset`).

    Telemetry is enabled even with no sinks — the metrics registry alone
    is often all a ``--metrics`` run needs.
    """
    sinks = []
    if trace_path is not None:
        sinks.append(TraceWriter(trace_path))
    if ring_buffer is not None:
        sinks.append(RingBufferSink(ring_buffer))
    if log_events:
        sinks.append(LoggingSink())
    obs = OBS.enable(*sinks)
    if profile:
        from repro.obs.profile import ProfileConfig, start_profiling

        config = profile if isinstance(profile, ProfileConfig) else None
        start_profiling(config)
    return obs

"""Wall-clock spans feeding the metrics registry and the event bus.

``span(name)`` wraps any block in a timed campaign phase: a
``campaign_phase`` start/end event pair on the bus
plus a ``span.<name>.seconds`` histogram observation in the registry.
``@timed`` is the decorator form for whole functions.  Both are no-ops
(single attribute check, no timer read) while telemetry is disabled.

The module also keeps the *live phase stack*: while telemetry is on,
every active span pushes its name so :func:`current_phase` answers
"which campaign phase is the process in right now?" — the sampling
profiler (:mod:`repro.obs.profile`) reads it from its background thread
to attribute each stack sample to a phase.  Phase *listeners* are the
synchronous hook for the deterministic profiling mode: a listener's
``phase_started``/``phase_ended`` methods run inline at every span
boundary (only while any listener is registered, so the common case
stays a single truthiness check).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, TypeVar

from repro.obs.events import event
from repro.obs.runtime import OBS

F = TypeVar("F", bound=Callable)

#: Names of the spans currently open, innermost last.  Appends/pops are
#: GIL-atomic, so a background sampler thread can read the top safely.
_PHASE_STACK: List[str] = []

#: Objects with ``phase_started(name)`` / ``phase_ended(name)`` methods,
#: called synchronously at span boundaries while registered.
_PHASE_LISTENERS: List[object] = []


def current_phase() -> str:
    """The innermost open span's name, or ``""`` outside any span."""
    try:
        return _PHASE_STACK[-1]
    except IndexError:
        return ""


def add_phase_listener(listener: object) -> None:
    """Register a span-boundary listener (deterministic profiler)."""
    _PHASE_LISTENERS.append(listener)


def remove_phase_listener(listener: object) -> None:
    """Detach a span-boundary listener (no error if absent)."""
    try:
        _PHASE_LISTENERS.remove(listener)
    except ValueError:
        pass


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time the enclosed block as campaign phase ``name``."""
    if not OBS.enabled:
        yield
        return
    OBS.bus.emit(
        event("campaign_phase", phase=name, status="start", duration_s=None)
    )
    _PHASE_STACK.append(name)
    if _PHASE_LISTENERS:
        for listener in list(_PHASE_LISTENERS):
            listener.phase_started(name)
    start = time.perf_counter()
    try:
        yield
    finally:
        duration = time.perf_counter() - start
        if _PHASE_LISTENERS:
            for listener in list(_PHASE_LISTENERS):
                listener.phase_ended(name)
        if _PHASE_STACK and _PHASE_STACK[-1] == name:
            _PHASE_STACK.pop()
        OBS.metrics.histogram(f"span.{name}.seconds").observe(duration)
        OBS.bus.emit(
            event(
                "campaign_phase", phase=name, status="end", duration_s=duration
            )
        )


def timed(name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator: run the function inside :func:`span`.

    ``name`` defaults to the function's qualified name::

        @timed("lot.die")
        def measure_die(...): ...
    """

    def decorate(function: F) -> F:
        span_name = name if name is not None else function.__qualname__

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return function(*args, **kwargs)
            with span(span_name):
                return function(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate

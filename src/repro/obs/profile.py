"""Continuous profiling and resource telemetry (``--profile``).

The obs stack records *what* a campaign did (events, metrics, insight)
but, until this module, not *where the CPU went* — exactly the question
ROADMAP item 6 ("name the remaining scalar loops") needs answered.  Two
recorders run alongside tracing, both stdlib-only and both emitting
ordinary telemetry events so profiles ride the existing trace/spool/
merge machinery unchanged:

* :class:`SamplingProfiler` — a background daemon thread wakes ~100
  times a second, reads the profiled thread's frame stack via
  ``sys._current_frames()`` and aggregates the stacks into collapsed
  (folded) counts keyed by the live campaign phase
  (:func:`repro.obs.timing.current_phase`).  Statistical, near-zero
  overhead on the profiled thread, safe for production runs.
* :class:`CProfileSession` — the optional deterministic mode: one
  ``cProfile.Profile`` per campaign phase, switched at span boundaries
  through the phase-listener hook.  Exact call counts and self time,
  at ``cProfile``'s usual overhead; its "stacks" are single frames
  weighted by self-time milliseconds.

Either way the session ends in one ``profile`` event, and a
:class:`ResourceSampler` periodically records ``getrusage`` CPU time,
RSS (``/proc/self/status`` with a portable fallback) and GC counters as
``resource_sample`` events plus ``proc.*`` gauges.  Farm work units run
their own pair inside the worker capture, so profiles and resource
series ship back inside ``WorkerTelemetry`` and merge deterministically
like every other event.

The second half of the module is the read side, over a
:class:`repro.obs.report.TraceFold`: aggregate its profiles into
per-phase hot-path tables (``repro obs profile``), export flamegraph.pl /
speedscope-compatible folded stacks (``repro obs flame``), and derive
per-worker busy/idle utilization from the unit spans and resource
series.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import timing
from repro.obs.events import EventBus, event
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceFold
from repro.obs.runtime import OBS

#: Default sampling cadence: ~100 Hz keeps per-sample cost invisible
#: while resolving phases tens of milliseconds long.
DEFAULT_INTERVAL_S = 0.01

#: Default resource-sample cadence.  Each sample is a couple of syscalls;
#: 4 Hz bounds trace growth on long campaigns.
DEFAULT_RESOURCE_INTERVAL_S = 0.25

#: Deepest stack recorded per sample; frames beyond are dropped rootward.
MAX_STACK_DEPTH = 64

#: Phase label for samples taken outside any open span.
TOP_PHASE = "(top)"


@dataclass(frozen=True)
class ProfileConfig:
    """What to record; tiny and picklable so farm dispatches can ship it.

    ``mode`` selects the recorder: ``"sampling"`` (the default
    statistical profiler) or ``"cprofile"`` (deterministic, per-phase).
    ``max_stacks`` bounds the folded table carried by the ``profile``
    event; overflow is counted in ``truncated``, never silently lost.
    """

    mode: str = "sampling"
    interval_s: float = DEFAULT_INTERVAL_S
    resource_interval_s: float = DEFAULT_RESOURCE_INTERVAL_S
    max_stacks: int = 2000

    def __post_init__(self) -> None:
        if self.mode not in ("sampling", "cprofile"):
            raise ValueError(f"unknown profile mode {self.mode!r}")
        if self.interval_s <= 0 or self.resource_interval_s <= 0:
            raise ValueError("profile intervals must be positive")
        if self.max_stacks < 1:
            raise ValueError("max_stacks must be >= 1")


# -- resource readings ---------------------------------------------------------------


def process_cpu_seconds(include_children: bool = False) -> Tuple[float, float]:
    """This process's cumulative ``(user_s, system_s)`` CPU time.

    Uses ``resource.getrusage`` where available and ``os.times`` as the
    portable fallback; ``include_children`` folds in reaped child
    processes (farm workers) — the right total for a campaign record.
    """
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        user, system = usage.ru_utime, usage.ru_stime
        if include_children:
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            user += children.ru_utime
            system += children.ru_stime
        return user, system
    except (ImportError, OSError):
        times = os.times()
        user, system = times.user, times.system
        if include_children:
            user += times.children_user
            system += times.children_system
        return user, system


def _max_rss_kb() -> int:
    """Peak RSS in KiB from ``getrusage`` (0 where unsupported).

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes; normalize.
    """
    try:
        import resource

        peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):
        return 0
    if sys.platform == "darwin":
        peak //= 1024
    return peak


def _proc_rss_kb() -> int:
    """Current RSS in KiB via ``/proc/self/status`` (0 where absent)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def read_resource_sample(phase: Optional[str] = None) -> Dict[str, object]:
    """One ``resource_sample`` event for the calling process, right now."""
    user, system = process_cpu_seconds()
    max_rss = _max_rss_kb()
    rss = _proc_rss_kb() or max_rss
    counts = gc.get_count()
    return event(
        "resource_sample",
        cpu_user_s=round(user, 6),
        cpu_system_s=round(system, 6),
        rss_kb=rss,
        max_rss_kb=max_rss,
        gc_gen0=counts[0],
        gc_gen1=counts[1],
        gc_gen2=counts[2],
        phase=timing.current_phase() if phase is None else phase,
    )


class ResourceSampler:
    """Background thread emitting ``resource_sample`` events.

    The bus and registry are bound at :meth:`start` — a farm unit
    capture swaps the global switchboard, and each sampler must keep
    feeding the sinks it was started against (the parent's trace, or
    the unit's spool), never whichever bus is current when its timer
    fires.  :meth:`stop` takes one final synchronous sample, so even a
    unit shorter than the interval records its resource footprint.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_RESOURCE_INTERVAL_S,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.samples = 0
        self._bus = bus
        self._metrics = metrics
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ResourceSampler":
        """Bind the current switchboard and launch the sampler thread."""
        if self._thread is not None:
            return self
        if self._bus is None:
            self._bus = OBS.bus
        if self._metrics is None:
            self._metrics = OBS.metrics
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _emit(self) -> None:
        sample = read_resource_sample()
        self.samples += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge("proc.cpu.user_s").set(sample["cpu_user_s"])
            metrics.gauge("proc.cpu.system_s").set(sample["cpu_system_s"])
            metrics.gauge("proc.rss_kb").set(sample["rss_kb"])
            metrics.gauge("proc.rss_peak_kb").set(sample["max_rss_kb"])
        if self._bus is not None:
            self._bus.emit(sample)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._emit()

    def stop(self) -> None:
        """Stop the thread and record the final synchronous sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._emit()


# -- sampling profiler ---------------------------------------------------------------


def _frame_stack(frame) -> Tuple[str, ...]:
    """``frame``'s stack as root-first ``module:function`` labels."""
    parts: List[str] = []
    while frame is not None and len(parts) < MAX_STACK_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return tuple(parts)


class SamplingProfiler:
    """Statistical profiler: periodic stack captures of one thread.

    A daemon thread wakes every ``interval_s`` and reads the *target*
    thread's current frame via ``sys._current_frames()`` — the profiled
    thread itself is never interrupted, so the observed computation is
    bit-identical with the profiler on or off.  Each captured stack is
    attributed to the campaign phase live at capture time and counted
    into a folded-stack table.
    """

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        self.config = config if config is not None else ProfileConfig()
        self.samples = 0
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target_id: Optional[int] = None
        self._started = 0.0

    def start(self) -> "SamplingProfiler":
        """Profile the calling thread from now until :meth:`stop`."""
        if self._thread is not None:
            return self
        self._target_id = threading.get_ident()
        self._started = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        interval = self.config.interval_s
        while not self._stop.wait(interval):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:
                continue
            phase = timing.current_phase() or TOP_PHASE
            key = (phase, _frame_stack(frame))
            self._counts[key] = self._counts.get(key, 0) + 1
            self.samples += 1

    def stop(self) -> Dict[str, object]:
        """Stop sampling; the session's ``profile`` event."""
        duration = time.perf_counter() - self._started
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        ranked = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        kept = ranked[: self.config.max_stacks]
        folded = tuple(
            (phase, ";".join(stack), count)
            for (phase, stack), count in kept
        )
        return event(
            "profile",
            mode="sampling",
            unit="samples",
            samples=self.samples,
            interval_s=self.config.interval_s,
            duration_s=round(duration, 6),
            folded=folded,
            truncated=len(ranked) - len(kept),
        )


class CProfileSession:
    """Deterministic per-phase profiling via ``cProfile``.

    One ``cProfile.Profile`` per campaign phase, switched inline at
    span boundaries through :func:`repro.obs.timing.add_phase_listener`
    (only one profile can own the profiling hook at a time, so entering
    a phase suspends the enclosing one).  Exact call counts, at
    ``cProfile`` overhead — results are still bit-identical because the
    instrumentation never touches the RNG or the tester.

    The folded output weights each function (a single-frame "stack") by
    its self time in milliseconds, so the hot-path table and flame
    export work unchanged; caller context is not preserved.
    """

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        import cProfile

        self.config = config if config is not None else ProfileConfig(mode="cprofile")
        self._make = cProfile.Profile
        self._profiles: Dict[str, object] = {}
        self._active: List[Tuple[str, object]] = []
        self._started = 0.0

    def _profile_for(self, phase: str):
        profile = self._profiles.get(phase)
        if profile is None:
            profile = self._profiles[phase] = self._make()
        return profile

    def _push(self, phase: str) -> None:
        if self._active:
            self._active[-1][1].disable()
        profile = self._profile_for(phase)
        self._active.append((phase, profile))
        profile.enable()

    def _pop(self, phase: str) -> None:
        if not self._active or self._active[-1][0] != phase:
            return
        self._active.pop()[1].disable()
        if self._active:
            self._active[-1][1].enable()

    # Phase-listener protocol (see repro.obs.timing).
    def phase_started(self, name: str) -> None:
        self._push(name)

    def phase_ended(self, name: str) -> None:
        self._pop(name)

    def start(self) -> "CProfileSession":
        """Start profiling (phase :data:`TOP_PHASE` until a span opens)."""
        if self._active:
            return self
        self._started = time.perf_counter()
        timing.add_phase_listener(self)
        self._push(TOP_PHASE)
        return self

    def stop(self) -> Dict[str, object]:
        """Stop all phase profiles; the ``profile`` event."""
        import pstats

        timing.remove_phase_listener(self)
        while self._active:
            self._active.pop()[1].disable()
        duration = time.perf_counter() - self._started
        entries: List[Tuple[str, str, int]] = []
        calls = 0
        for phase in sorted(self._profiles):
            stats = pstats.Stats(self._profiles[phase])
            for (filename, _, name), row in stats.stats.items():  # type: ignore[attr-defined]
                cc, nc, tt, ct, callers = row
                calls += int(nc)
                weight = int(round(tt * 1000.0))
                if weight <= 0:
                    continue
                module = Path(filename).stem if filename else "?"
                entries.append((phase, f"{module}:{name}", weight))
        entries.sort(key=lambda e: (-e[2], e[0], e[1]))
        kept = entries[: self.config.max_stacks]
        return event(
            "profile",
            mode="cprofile",
            unit="ms",
            samples=calls,
            interval_s=0.0,
            duration_s=round(duration, 6),
            folded=tuple(kept),
            truncated=len(entries) - len(kept),
        )


class ProfileSession:
    """One profiler + resource sampler pair with a bound event bus.

    The CLI runs one session for the whole process; every farm unit
    capture runs its own inside the executing process.  :meth:`stop`
    emits the session's ``profile`` event (and the resource sampler's
    final reading) onto the bus that was live at :meth:`start`, then
    sets the ``profile.*`` bookkeeping gauges.
    """

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        self.config = config if config is not None else ProfileConfig()
        self._bus: Optional[EventBus] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._profiler: Optional[object] = None
        self._resources: Optional[ResourceSampler] = None

    def start(self) -> "ProfileSession":
        """Start both recorders against the current switchboard."""
        if self._profiler is not None:
            return self
        self._bus = OBS.bus
        self._metrics = OBS.metrics
        self._resources = ResourceSampler(
            self.config.resource_interval_s,
            bus=self._bus,
            metrics=self._metrics,
        ).start()
        if self.config.mode == "cprofile":
            self._profiler = CProfileSession(self.config).start()
        else:
            self._profiler = SamplingProfiler(self.config).start()
        return self

    def stop(self, emit: bool = True) -> Optional[Dict[str, object]]:
        """Stop both recorders; emit and return the ``profile`` event.

        With ``emit=False`` the threads are stopped and everything is
        discarded — the teardown safety net for :func:`repro.obs.reset`,
        which must never write into sinks it is about to close.
        """
        if self._profiler is None:
            return None
        profiler, self._profiler = self._profiler, None
        resources, self._resources = self._resources, None
        if not emit and resources is not None:
            resources._bus = None  # discard: stop without a final emit
            resources._metrics = None
        if resources is not None:
            resources.stop()
        recorded = profiler.stop()
        if not emit:
            return None
        if self._bus is not None:
            self._bus.emit(recorded)
        if self._metrics is not None:
            self._metrics.gauge("profile.samples").set(recorded["samples"])
            self._metrics.gauge("profile.duration_s").set(
                recorded["duration_s"]
            )
        return recorded


#: The process-wide session (CLI ``--profile``) and its config; farm
#: collectors read the config to ship per-unit profiling to workers.
_ACTIVE_CONFIG: Optional[ProfileConfig] = None
_ACTIVE_SESSION: Optional[ProfileSession] = None


def active_profile_config() -> Optional[ProfileConfig]:
    """The config of the running process-wide session, else ``None``."""
    return _ACTIVE_CONFIG


def start_profiling(config: Optional[ProfileConfig] = None) -> ProfileSession:
    """Start (or return) the process-wide profiling session."""
    global _ACTIVE_CONFIG, _ACTIVE_SESSION
    if _ACTIVE_SESSION is not None:
        return _ACTIVE_SESSION
    _ACTIVE_CONFIG = config if config is not None else ProfileConfig()
    _ACTIVE_SESSION = ProfileSession(_ACTIVE_CONFIG).start()
    return _ACTIVE_SESSION


def stop_profiling(emit: bool = True) -> Optional[Dict[str, object]]:
    """Stop the process-wide session (idempotent); its profile event."""
    global _ACTIVE_CONFIG, _ACTIVE_SESSION
    session, _ACTIVE_SESSION = _ACTIVE_SESSION, None
    _ACTIVE_CONFIG = None
    if session is None:
        return None
    return session.stop(emit=emit)


# -- trace analysis ------------------------------------------------------------------


def merged_folded(
    fold: TraceFold,
    phase: Optional[str] = None,
) -> Dict[Tuple[str, str], int]:
    """Summed folded-stack weights across every profile in the trace.

    Keys are ``(phase, stack)``; ``phase`` filters to one campaign
    phase.  Weights from different units/workers simply add — sample
    counts and milliseconds both accumulate meaningfully per mode.
    """
    totals: Dict[Tuple[str, str], int] = {}
    for profile in fold.profiles:
        for entry_phase, stack, weight in profile.get("folded", ()):
            if phase is not None and entry_phase != phase:
                continue
            key = (entry_phase, stack)
            totals[key] = totals.get(key, 0) + weight
    return totals


@dataclass
class HotPath:
    """One function's aggregated profile weight within a phase."""

    phase: str
    function: str
    self_weight: int = 0
    cum_weight: int = 0


@dataclass
class ProfileSummary:
    """Per-phase hot-path attribution for a loaded trace."""

    unit: str = "samples"
    modes: List[str] = field(default_factory=list)
    total_weight: int = 0
    truncated: int = 0
    phases: Dict[str, List[HotPath]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.phases


def build_profile_summary(
    fold: TraceFold,
    phase: Optional[str] = None,
) -> ProfileSummary:
    """Aggregate a trace's profile events into per-phase hot paths.

    Self weight counts stacks where the function is the leaf;
    cumulative weight counts stacks containing it anywhere — the usual
    flame-graph semantics, computed from the folded table.
    """
    summary = ProfileSummary()
    for profile in fold.profiles:
        mode = profile.get("mode", "sampling")
        if mode not in summary.modes:
            summary.modes.append(mode)
        summary.unit = profile.get("unit", "samples")
        summary.truncated += profile.get("truncated", 0)
    table: Dict[Tuple[str, str], HotPath] = {}
    for (entry_phase, stack), weight in merged_folded(
        fold, phase=phase
    ).items():
        summary.total_weight += weight
        frames = stack.split(";")
        leaf = frames[-1]
        for function in set(frames):
            row = table.get((entry_phase, function))
            if row is None:
                row = table[(entry_phase, function)] = HotPath(
                    phase=entry_phase, function=function
                )
            row.cum_weight += weight
            if function == leaf:
                row.self_weight += weight
    for row in table.values():
        summary.phases.setdefault(row.phase, []).append(row)
    for rows in summary.phases.values():
        rows.sort(key=lambda r: (-r.self_weight, -r.cum_weight, r.function))
    return summary


def _phase_order(summary: ProfileSummary) -> List[str]:
    """Phases by total self weight, descending (ties by name)."""
    weights = {
        phase: sum(r.self_weight for r in rows)
        for phase, rows in summary.phases.items()
    }
    return sorted(weights, key=lambda p: (-weights[p], p))


def render_profile(
    summary: ProfileSummary, top: int = 15
) -> str:
    """``repro obs profile``: the per-phase hot-path table as text."""
    if summary.empty:
        return "(no profile events in trace — record one with --profile)"
    unit = summary.unit
    lines = [
        f"== profile: {summary.total_weight} {unit} across "
        f"{len(summary.phases)} phase(s) "
        f"(mode: {', '.join(summary.modes)}) =="
    ]
    for phase in _phase_order(summary):
        rows = summary.phases[phase]
        phase_total = sum(r.self_weight for r in rows)
        lines.append(f"phase {phase}: {phase_total} {unit}")
        lines.append(
            f"  {'self':>8} {'self%':>6} {'cum':>8} {'cum%':>6}  function"
        )
        for row in rows[:top]:
            self_pct = 100.0 * row.self_weight / max(1, phase_total)
            cum_pct = 100.0 * row.cum_weight / max(1, phase_total)
            lines.append(
                f"  {row.self_weight:>8} {self_pct:>5.1f}% "
                f"{row.cum_weight:>8} {cum_pct:>5.1f}%  {row.function}"
            )
        hidden = len(rows) - min(len(rows), top)
        if hidden > 0:
            lines.append(f"  ... {hidden} more function(s)")
    if summary.truncated:
        lines.append(
            f"({summary.truncated} folded stack(s) truncated at record "
            f"time — raise ProfileConfig.max_stacks to keep more)"
        )
    return "\n".join(lines)


def profile_summary_data(
    summary: ProfileSummary, top: int = 15
) -> Dict[str, object]:
    """Machine-readable form of the hot-path table (``--json``)."""
    return {
        "unit": summary.unit,
        "modes": list(summary.modes),
        "total_weight": summary.total_weight,
        "truncated": summary.truncated,
        "phases": {
            phase: [
                {
                    "function": row.function,
                    "self": row.self_weight,
                    "cum": row.cum_weight,
                }
                for row in summary.phases[phase][:top]
            ]
            for phase in _phase_order(summary)
        },
    }


def write_folded(
    fold: TraceFold,
    path: Union[str, Path],
    phase: Optional[str] = None,
) -> int:
    """Export a trace's profiles as collapsed stacks; lines written.

    One ``phase;frame;...;frame weight`` line per distinct stack — the
    flamegraph.pl collapsed format, which speedscope also imports
    directly.  The phase rides as the root frame so per-phase flames
    separate visually.
    """
    totals = merged_folded(fold, phase=phase)
    ordered = sorted(totals.items(), key=lambda kv: (kv[0][0], -kv[1], kv[0][1]))
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for (entry_phase, stack), weight in ordered:
            handle.write(f"{entry_phase};{stack} {weight}\n")
    return len(ordered)


# -- worker utilization --------------------------------------------------------------


@dataclass
class WorkerUtilization:
    """One worker's busy/idle picture over a farm run."""

    worker: str
    units: int = 0
    busy_s: float = 0.0
    span_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0

    @property
    def utilization(self) -> float:
        """Busy fraction of the run span (0..1; 0 when span unknown)."""
        if self.span_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.span_s)


def worker_utilization(fold: TraceFold) -> List[WorkerUtilization]:
    """Per-worker busy/idle utilization derived from unit spans.

    Busy time sums each worker's ``farm_unit_completed`` durations; the
    run span stretches from ``farm_run_started`` (or the earliest unit
    start) to the last completion, so idle time is scheduling gaps plus
    tail imbalance.  CPU seconds and peak RSS come from each worker's
    ``resource_sample`` series when profiling was on.
    """
    span = 0.0
    if fold.run_start is not None and fold.run_end is not None:
        span = max(0.0, fold.run_end - fold.run_start)
    rows: List[WorkerUtilization] = []
    for worker, (units, busy_s) in sorted(fold.busy.items()):
        low, high = fold.cpu_bounds.get(worker, (0.0, 0.0))
        rows.append(
            WorkerUtilization(
                worker=worker,
                units=units,
                busy_s=round(busy_s, 6),
                span_s=round(span, 6),
                cpu_s=round(high - low, 6),
                peak_rss_kb=fold.peak_rss_kb.get(worker, 0),
            )
        )
    return rows


def render_worker_utilization(rows: Sequence[WorkerUtilization]) -> str:
    """The per-worker utilization table as aligned text."""
    if not rows:
        return "(no farm unit spans in trace)"
    lines = [
        f"  {'worker':<24}{'units':>6}{'busy s':>10}{'util':>7}"
        f"{'cpu s':>9}{'peak rss':>12}"
    ]
    for row in rows:
        rss = f"{row.peak_rss_kb / 1024.0:.1f} MB" if row.peak_rss_kb else "n/a"
        cpu = f"{row.cpu_s:.3f}" if row.cpu_s else "n/a"
        lines.append(
            f"  {row.worker:<24}{row.units:>6}{row.busy_s:>10.3f}"
            f"{100.0 * row.utilization:>6.1f}%{cpu:>9}{rss:>12}"
        )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_INTERVAL_S",
    "DEFAULT_RESOURCE_INTERVAL_S",
    "CProfileSession",
    "HotPath",
    "ProfileConfig",
    "ProfileSession",
    "ProfileSummary",
    "ResourceSampler",
    "SamplingProfiler",
    "WorkerUtilization",
    "active_profile_config",
    "build_profile_summary",
    "merged_folded",
    "process_cpu_seconds",
    "profile_summary_data",
    "read_resource_sample",
    "render_profile",
    "render_worker_utilization",
    "start_profiling",
    "stop_profiling",
    "worker_utilization",
    "write_folded",
]

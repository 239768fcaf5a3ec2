"""Structured telemetry for the characterization stack.

The paper's central claim is a *measurement-cost* argument — SUTP's
incremental walk (eqs. 3/4) against the full-range search (eq. 2), the
NN+GA hunt against exhaustive random characterization (Table 1).  This
package turns every such cost into an observable:

* :mod:`repro.obs.events` — events (one measurement, one SUTP walk step,
  one GA generation, one NN epoch, one campaign phase) as plain dicts
  built by :func:`event` from one typed schema table, on an
  :class:`EventBus`, with JSONL (:class:`TraceWriter`), in-memory
  (:class:`RingBufferSink`) and logging (:class:`LoggingSink`) sinks,
  plus the process-local trace context (campaign/unit/worker ids)
  stamped onto every serialized event;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and streaming histograms (``ate.measurements``,
  ``sutp.fallbacks``, ``search.probes_per_trip``, ``ga.fitness_evals``,
  ``nn.epoch_loss``, ...);
* :mod:`repro.obs.timing` — :func:`span`/:func:`timed` wall-clock phase
  timers feeding both;
* :mod:`repro.obs.collector` — cross-process farm telemetry: per-unit
  worker spools, trace-context propagation, the deterministic
  submission-order merge, and the live :class:`FarmProgressReporter`;
* :mod:`repro.obs.timeline` — Chrome-trace / Perfetto export of a
  merged farm trace (one track per worker);
* :mod:`repro.obs.history` — the per-campaign ``runs.jsonl`` run store
  and the cost-regression comparison behind ``repro obs compare``;
* :mod:`repro.obs.report` — :class:`TraceFold`, the one tolerant pass
  that types a trace for every ``repro obs`` view and job progress, and
  the text summaries drawn from it, including the fig. 3 per-test cost
  profile;
* :mod:`repro.obs.insight` — decision-level introspection: the SUTP
  search audit (RTP reuse vs. window escalation, drift, wasted probes),
  NN ensemble vote breakdowns with calibration, GA convergence and
  operator attribution, and the WCR classification tally;
* :mod:`repro.obs.html` — ``repro obs report``: every insight view plus
  the shmoo heatmap, resource utilization and run history rendered into
  one self-contained HTML file (inline SVG, no scripts, no external
  assets);
* :mod:`repro.obs.profile` — continuous profiling & resource telemetry:
  a background sampling profiler (optional deterministic per-phase
  ``cProfile`` mode) folding stacks per campaign phase, a resource
  sampler (``getrusage`` CPU, RSS, GC) emitting ``resource_sample``
  events, per-worker sessions that ride the farm telemetry merge, and
  the hot-path / folded-stack / utilization analysis behind
  ``repro obs profile`` and ``repro obs flame``.

Everything hangs off the global :data:`OBS` switchboard and is **off by
default**: the disabled path is a single attribute check, so benchmarks
and production runs pay nothing.  See ``docs/observability.md``.

The package re-exports only the names its callers import through it;
everything else is imported from its submodule.
"""

from repro.obs.collector import FarmProgressReporter
from repro.obs.events import EventBus, RingBufferSink, event
from repro.obs.history import (
    RunHistory,
    bench_run_record,
    build_run_record,
    compare_runs,
)
from repro.obs.html import build_html_report
from repro.obs.insight import build_insight, render_insight
from repro.obs.profile import (
    ProfileConfig,
    build_profile_summary,
    process_cpu_seconds,
    profile_summary_data,
    render_profile,
    render_worker_utilization,
    stop_profiling,
    worker_utilization,
    write_folded,
)
from repro.obs.report import (
    TraceFold,
    render_metrics_summary,
    render_slowest,
    render_trace_cost_profile,
    render_trace_summary,
    trace_summary_data,
)
from repro.obs.runtime import OBS, configure, enable, reset
from repro.obs.timeline import build_chrome_trace

__all__ = [
    "EventBus",
    "FarmProgressReporter",
    "OBS",
    "ProfileConfig",
    "RingBufferSink",
    "RunHistory",
    "TraceFold",
    "bench_run_record",
    "build_chrome_trace",
    "build_html_report",
    "build_insight",
    "build_profile_summary",
    "build_run_record",
    "compare_runs",
    "configure",
    "enable",
    "event",
    "process_cpu_seconds",
    "profile_summary_data",
    "render_insight",
    "render_metrics_summary",
    "render_profile",
    "render_slowest",
    "render_trace_cost_profile",
    "render_trace_summary",
    "render_worker_utilization",
    "reset",
    "stop_profiling",
    "trace_summary_data",
    "worker_utilization",
    "write_folded",
]

"""Characterization-as-a-service: job API over the campaign stack.

The CLI runs one campaign per invocation; this package runs campaigns
as *jobs* behind a long-running HTTP/JSON service (ROADMAP item 1):

* :mod:`repro.service.spec` — :class:`JobSpec`: the whitelisted
  campaign submission (command + parameters + seed + workers), and its
  translation to the exact ``repro.cli`` argv;
* :mod:`repro.service.manager` — :class:`JobManager`: FIFO queue,
  bounded worker pool (``max_workers`` campaigns at once), cancel
  semantics, store persistence, restart recovery, and the default
  :class:`SubprocessJobRunner` (one CLI subprocess per job, so the
  service's results are byte-for-byte the direct CLI's);
* :mod:`repro.service.progress` — live progress rolled up from the
  job's flushed-per-event telemetry trace;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer`` API
  (submit, status, events, SSE stream, report, wcdb, cancel) plus the
  operational endpoints (``/metrics`` Prometheus exposition,
  ``/readyz`` back-pressure, ``/dash``), request instrumentation,
  ``X-Request-Id`` propagation and the structured JSON access log;
* :mod:`repro.service.dashboard` — the ``/dash`` HTML operations view
  (zero dependencies, same SVG chart kit as the run report);
* :mod:`repro.service.client` — the urllib client behind the
  ``repro jobs`` CLI family, with backoff polling and SSE streaming.

Jobs and worst-case results persist in :class:`repro.store.ResultStore`,
so a restarted server lists and serves completed work and fails whatever
the dead process left in flight; each completed job's run record is
appended to the ``runs.jsonl`` history next to the store file.  See
``docs/service.md``.
"""

# Exports resolve lazily (PEP 562): the CLI reads the farm command list
# from repro.service.spec on every start, and an eager import here would
# load the HTTP server, the client and the result store with it.
_LAZY_EXPORTS = {
    "TERMINAL_STATES": "repro.service.client",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "build_dashboard": "repro.service.dashboard",
    "JobManager": "repro.service.manager",
    "JobOutcome": "repro.service.manager",
    "SubprocessJobRunner": "repro.service.manager",
    "job_progress": "repro.service.progress",
    "read_events_page": "repro.service.progress",
    "DEFAULT_READY_QUEUE_LIMIT": "repro.service.server",
    "CharacterizationServer": "repro.service.server",
    "create_server": "repro.service.server",
    "route_template": "repro.service.server",
    "serve_in_thread": "repro.service.server",
    "FARM_JOB_COMMANDS": "repro.service.spec",
    "JOB_COMMANDS": "repro.service.spec",
    "JobSpec": "repro.service.spec",
    "SpecError": "repro.service.spec",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "CharacterizationServer",
    "DEFAULT_READY_QUEUE_LIMIT",
    "FARM_JOB_COMMANDS",
    "JOB_COMMANDS",
    "JobManager",
    "JobOutcome",
    "JobSpec",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "SubprocessJobRunner",
    "TERMINAL_STATES",
    "build_dashboard",
    "create_server",
    "job_progress",
    "read_events_page",
    "route_template",
    "serve_in_thread",
]

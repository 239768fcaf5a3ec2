"""``GET /dash``: the zero-dependency HTML operations dashboard.

One self-contained page over what the service already knows — the job
rows in the store and the live ``/metrics`` exposition — rendered with
the same inline-SVG chart helpers as the run report
(:mod:`repro.obs.html`), so it ships no scripts, no external assets,
and stays XML-well-formed after the doctype (the CI ElementTree gate
covers it like every other HTML artifact).

Sections: service overview (uptime, workers, queue, failure rate, HTTP
request tallies), job throughput over time, queue-wait distribution,
failure rate and latency per campaign command.  Everything is derived
read-only; rendering the dashboard cannot touch a job result.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.exposition import find_sample, parse_exposition
from repro.obs.html import (  # noqa: F401 — shared chart kit
    _CSS,
    _bar_chart,
    _esc,
    _fmt,
    _line_chart,
    _section,
    _table,
)
from repro.obs.metrics import nearest_rank

#: Buckets of the throughput chart.
THROUGHPUT_BUCKETS = 24


def _job_command(job: Dict[str, object]) -> str:
    spec = job.get("spec")
    if isinstance(spec, dict):
        return str(spec.get("command", "?"))
    return "?"


def _overview_section(
    jobs: Sequence[Dict[str, object]],
    exposition: str,
    uptime_s: float,
    max_workers: int,
) -> str:
    tally: Dict[str, int] = {}
    for job in jobs:
        state = str(job["state"])
        tally[state] = tally.get(state, 0) + 1
    finished = tally.get("completed", 0) + tally.get("failed", 0)
    failure_rate = tally.get("failed", 0) / finished if finished else 0.0
    try:
        samples = parse_exposition(exposition)
    except ValueError:
        samples = []
    requests = find_sample(samples, "repro_http_requests_total", {})
    latency_p95 = find_sample(
        samples, "repro_http_request_seconds", {"quantile": "0.95"}
    )
    rows: List[Sequence[object]] = [
        ("uptime", f"{uptime_s:.0f} s"),
        ("workers", max_workers),
        ("jobs total", len(jobs)),
        ("queued", tally.get("queued", 0)),
        ("running", tally.get("running", 0)),
        ("completed", tally.get("completed", 0)),
        ("failed", tally.get("failed", 0)),
        ("cancelled", tally.get("cancelled", 0)),
        ("failure rate", _fmt(failure_rate)),
    ]
    if requests is not None:
        rows.append(("http requests served", _fmt(requests.value)))
    if latency_p95 is not None:
        rows.append(("http p95 latency", f"{_fmt(latency_p95.value, 4)} s"))
    return _section(
        "Service overview",
        _table((("metric", False), ("value", True)), rows),
    )


def _throughput_section(
    jobs: Sequence[Dict[str, object]], now: float
) -> str:
    finished = sorted(
        float(job["finished_ts"])
        for job in jobs
        if job["state"] == "completed" and job.get("finished_ts")
    )
    if not finished:
        return _section(
            "Job throughput", '<p class="note">(no completed jobs yet)</p>'
        )
    lo = finished[0]
    hi = max(finished[-1], now)
    span = max(hi - lo, 1e-9)
    counts = [0.0] * THROUGHPUT_BUCKETS
    for ts in finished:
        bucket = min(
            THROUGHPUT_BUCKETS - 1, int((ts - lo) / span * THROUGHPUT_BUCKETS)
        )
        counts[bucket] += 1.0
    return _section(
        "Job throughput",
        _line_chart(
            [("completed jobs", counts, "--accent")],
            x_label=f"time ({span:.0f} s window, "
            f"{THROUGHPUT_BUCKETS} buckets)",
            label="completed jobs per time bucket",
        ),
    )


def _queue_wait_section(jobs: Sequence[Dict[str, object]]) -> str:
    waits = [
        max(0.0, float(job["started_ts"]) - float(job["created_ts"]))
        for job in jobs
        if job.get("started_ts") and job.get("created_ts")
    ]
    if not waits:
        return _section(
            "Queue wait", '<p class="note">(no started jobs yet)</p>'
        )
    rows = [
        ("jobs started", len(waits)),
        ("p50 wait", f"{_fmt(nearest_rank(waits, 0.5), 4)} s"),
        ("p95 wait", f"{_fmt(nearest_rank(waits, 0.95), 4)} s"),
        ("max wait", f"{_fmt(max(waits), 4)} s"),
    ]
    return _section(
        "Queue wait",
        _table((("metric", False), ("value", True)), rows),
    )


def _per_command_section(jobs: Sequence[Dict[str, object]]) -> str:
    by_command: Dict[str, Dict[str, List[float]]] = {}
    for job in jobs:
        command = _job_command(job)
        slot = by_command.setdefault(
            command, {"runs": [], "failed": [], "finished": []}
        )
        state = str(job["state"])
        if state in ("completed", "failed"):
            slot["finished"].append(1.0)
            if state == "failed":
                slot["failed"].append(1.0)
        if (
            state == "completed"
            and job.get("started_ts")
            and job.get("finished_ts")
        ):
            slot["runs"].append(
                max(0.0, float(job["finished_ts"]) - float(job["started_ts"]))
            )
    if not by_command:
        return _section(
            "Per-command latency and failures",
            '<p class="note">(no jobs yet)</p>',
        )
    rows: List[Sequence[object]] = []
    bars: List[Tuple[str, float, str]] = []
    for command in sorted(by_command):
        slot = by_command[command]
        finished = len(slot["finished"])
        failed = len(slot["failed"])
        rate = failed / finished if finished else 0.0
        p95 = nearest_rank(slot["runs"], 0.95)
        rows.append(
            (
                command,
                finished,
                failed,
                _fmt(rate),
                f"{_fmt(nearest_rank(slot['runs'], 0.5), 4)} s",
                f"{_fmt(p95, 4)} s",
            )
        )
        if p95 == p95:
            bars.append(
                (command, p95, f"{command}: p95 run {_fmt(p95, 4)} s")
            )
    body = [
        _table(
            (
                ("command", False),
                ("finished", True),
                ("failed", True),
                ("failure rate", True),
                ("p50 run", True),
                ("p95 run", True),
            ),
            rows,
        )
    ]
    if bars:
        body.append(
            _bar_chart(
                bars,
                color="--accent",
                x_label="campaign command (bar = p95 run seconds)",
                label="p95 run seconds per command",
            )
        )
    return _section("Per-command latency and failures", *body)


def build_dashboard(
    jobs: Sequence[Dict[str, object]],
    exposition: str,
    uptime_s: float = 0.0,
    max_workers: int = 0,
    now: Optional[float] = None,
    title: str = "Characterization service operations",
) -> str:
    """Render the operations dashboard as one self-contained HTML page."""
    now_ts = time.time() if now is None else now
    head = (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8"/>'
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head>"
    )
    body = [
        '<body class="viz-root">',
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{len(jobs)} job(s) on record.</p>',
        _overview_section(jobs, exposition, uptime_s, max_workers),
        _throughput_section(jobs, now_ts),
        _queue_wait_section(jobs),
        _per_command_section(jobs),
        '<p class="note">Live view over the result store and /metrics '
        "&#8212; self-contained, no external assets, no scripts.</p>",
        "</body></html>",
    ]
    return head + "".join(body)


__all__ = ["build_dashboard"]

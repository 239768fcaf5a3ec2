"""Render telemetry into human-readable cost summaries.

Two views of one campaign:

* :func:`render_metrics_summary` — the registry as an aligned text table:
  every counter (with its top label breakdown — e.g. measurements per
  test), every gauge, every histogram with count/p50/p95/max.  This is what
  the CLI's ``--metrics`` flag prints at exit.
* :func:`render_trace_cost_profile` — the fig. 3 per-test measurement-cost
  profile rebuilt from a live JSONL trace: consecutive
  ``measurement`` events are grouped per test and drawn as a bar per test,
  reproducing the "number of search steps" axis of the paper's figure from
  observed data instead of a bespoke benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.ioutil import iter_jsonl
from repro.obs.events import known_event_types
from repro.obs.metrics import MetricsRegistry


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a :class:`~repro.obs.events.TraceWriter` JSONL file.

    Raises
    ------
    ValueError
        On a line that is not a JSON object with a ``type`` field
        (line-numbered, so a truncated trace is easy to diagnose).
    """
    records: List[Dict[str, object]] = []
    for line_number, record in iter_jsonl(path):
        if record is None or "type" not in record:
            raise ValueError(
                f"trace line {line_number}: not a JSON event object"
            )
        records.append(record)
    return records


@dataclass
class TraceLoadResult:
    """A tolerantly-loaded trace plus what had to be forgiven."""

    records: List[Dict[str, object]] = field(default_factory=list)
    dropped_lines: int = 0
    unknown_types: Dict[str, int] = field(default_factory=dict)


def load_trace(path: Union[str, Path]) -> TraceLoadResult:
    """Load a trace *tolerantly* (the ``repro obs`` commands use this).

    Unlike :func:`read_trace`, a malformed line is counted and skipped
    rather than fatal, and records whose ``type`` is not one of this
    build's event classes are *kept* (and tallied in
    :attr:`TraceLoadResult.unknown_types`) — so traces and ``runs.jsonl``
    baselines written by older or newer schema versions stay loadable.
    """
    known = known_event_types()
    loaded = TraceLoadResult()
    for _, record in iter_jsonl(path):
        if record is None or "type" not in record:
            loaded.dropped_lines += 1
            continue
        kind = str(record["type"])
        if kind not in known:
            loaded.unknown_types[kind] = loaded.unknown_types.get(kind, 0) + 1
        loaded.records.append(record)
    return loaded


def render_metrics_summary(
    registry: MetricsRegistry,
    title: str = "telemetry summary",
    max_labels: int = 15,
) -> str:
    """The whole registry as one aligned text block."""
    lines = [f"== {title} =="]
    if registry.counters:
        lines.append("counters:")
        for name in sorted(registry.counters):
            counter = registry.counters[name]
            lines.append(f"  {name:<40} {counter.value:>10}")
            shown = counter.top_labels(max_labels)
            for label, value in shown:
                lines.append(f"    - {label:<36} {value:>10}")
            hidden = len(counter.by_label) - len(shown)
            if hidden > 0:
                lines.append(f"    - ... {hidden} more label(s)")
    if registry.gauges:
        lines.append("gauges:")
        for name in sorted(registry.gauges):
            gauge = registry.gauges[name]
            value = "n/a" if gauge.value is None else f"{gauge.value:.4f}"
            lines.append(f"  {name:<40} {value:>10}")
    if registry.histograms:
        lines.append(
            f"histograms:{'':<31}{'count':>8}{'p50':>10}"
            f"{'p95':>10}{'max':>10}"
        )
        for name in sorted(registry.histograms):
            hist = registry.histograms[name]
            if hist.count == 0:
                lines.append(f"  {name:<40}{0:>8}")
                continue
            lines.append(
                f"  {name:<40}{hist.count:>8}{hist.p50:>10.3f}"
                f"{hist.p95:>10.3f}{hist.max:>10.3f}"
            )
    if len(lines) == 1:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)


def per_test_measurement_counts(
    records: Iterable[Dict[str, object]],
) -> List[Tuple[str, int]]:
    """Measurement cost per test from a trace, in campaign order.

    Consecutive ``measurement`` events with the same test name form one
    per-test group (the same test re-measured later — e.g. the Table-1
    final re-measurement — starts a new group, as on the real tester).
    """
    groups: List[Tuple[str, int]] = []
    for record in records:
        if record.get("type") != "measurement":
            continue
        name = str(record.get("test_name", "unnamed"))
        if groups and groups[-1][0] == name:
            groups[-1] = (name, groups[-1][1] + 1)
        else:
            groups.append((name, 1))
    return groups


def render_trace_cost_profile(
    records: Iterable[Dict[str, object]],
    max_tests: Optional[int] = 60,
    bar_width: int = 40,
) -> str:
    """Fig. 3-style per-test measurement-cost bars from a trace."""
    groups = per_test_measurement_counts(records)
    if not groups:
        return "(no measurement events in trace)"
    lines = ["per-test measurement cost (from trace):"]
    shown = groups if max_tests is None else groups[:max_tests]
    peak = max(count for _, count in groups)
    scale = max(1, -(-peak // bar_width))  # ceil division
    for index, (name, count) in enumerate(shown):
        bar = "#" * max(1, count // scale)
        lines.append(f"  {index:>4} {name[:28]:<28} {bar} {count}")
    if len(shown) < len(groups):
        rest = groups[len(shown):]
        total = sum(count for _, count in rest)
        lines.append(
            f"  ... {len(rest)} more test(s), {total} measurement(s)"
        )
    lines.append(
        f"total: {sum(c for _, c in groups)} measurements over "
        f"{len(groups)} test group(s)"
    )
    return "\n".join(lines)


def _farm_unit_rows(
    records: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """One row per completed unit (last completion wins on retry)."""
    rows: Dict[str, Dict[str, object]] = {}
    for record in records:
        if record.get("type") != "farm_unit_completed":
            continue
        rows[str(record.get("key"))] = {
            "key": str(record.get("key")),
            "kind": record.get("kind", ""),
            "attempt": int(record.get("attempt", 1) or 1),
            "elapsed_s": float(record.get("elapsed_s", 0.0) or 0.0),
            "measurements": int(record.get("measurements", 0) or 0),
            "worker": str(record.get("worker", "") or "serial"),
        }
    return list(rows.values())


def _resource_rollup(
    records: Iterable[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """Totals over the trace's ``resource_sample`` events (None if none).

    CPU seconds are summed per process (the samples carry *cumulative*
    ``getrusage`` values, so each process contributes max - min); peak
    RSS is the maximum across processes.
    """
    bounds: Dict[str, Tuple[float, float]] = {}
    peak_rss = 0
    samples = 0
    for record in records:
        if record.get("type") != "resource_sample":
            continue
        samples += 1
        worker = str(record.get("worker", "") or "serial")
        cpu = float(record.get("cpu_user_s", 0.0) or 0.0) + float(
            record.get("cpu_system_s", 0.0) or 0.0
        )
        low, high = bounds.get(worker, (cpu, cpu))
        bounds[worker] = (min(low, cpu), max(high, cpu))
        peak_rss = max(peak_rss, int(record.get("max_rss_kb", 0) or 0))
    if not samples:
        return None
    return {
        "samples": samples,
        "workers": len(bounds),
        "cpu_s": round(sum(high - low for low, high in bounds.values()), 6),
        "peak_rss_kb": peak_rss,
    }


def trace_summary_data(loaded: TraceLoadResult) -> Dict[str, object]:
    """``repro obs summary --json``: the summary as plain data.

    :func:`render_trace_summary` renders this same data as text, so CI
    can assert on fields instead of scraping the text table.
    """
    records = loaded.records
    counts: Dict[str, int] = {}
    for record in records:
        kind = str(record.get("type"))
        counts[kind] = counts.get(kind, 0) + 1
    units = _farm_unit_rows(records)
    by_worker: Dict[str, Dict[str, object]] = {}
    for row in units:
        worker = str(row["worker"])
        agg = by_worker.setdefault(
            worker, {"units": 0, "busy_s": 0.0, "measurements": 0}
        )
        agg["units"] = int(agg["units"]) + 1
        agg["busy_s"] = round(
            float(agg["busy_s"]) + float(row["elapsed_s"]), 6
        )
        agg["measurements"] = int(agg["measurements"]) + int(
            row["measurements"]
        )
    groups = per_test_measurement_counts(records)
    per_test: Dict[str, int] = {}
    for name, count in groups:
        per_test[name] = per_test.get(name, 0) + count
    return {
        "events": len(records),
        "events_by_type": counts,
        "farm": {
            "units": len(units),
            "workers": by_worker,
            "retries": counts.get("farm_unit_retried", 0),
            "skipped": counts.get("farm_unit_skipped", 0),
            "merged": counts.get("farm_unit_merged", 0),
        },
        "measurements": {
            "total": sum(per_test.values()),
            "groups": len(groups),
            "per_test": per_test,
        },
        "resources": _resource_rollup(records),
        "profile_sessions": counts.get("profile", 0),
        "dropped_lines": loaded.dropped_lines,
        "unknown_types": dict(loaded.unknown_types),
    }


def render_trace_summary(loaded: TraceLoadResult) -> str:
    """``repro obs summary``: one screen describing a merged trace.

    Event counts by type, the farm section (units, workers, retries,
    merge bookkeeping), measurement totals with the costliest tests, and
    an honesty footer for anything the tolerant loader had to forgive.
    """
    records = loaded.records
    data = trace_summary_data(loaded)
    counts: Dict[str, int] = data["events_by_type"]
    lines = [f"== trace summary: {data['events']} event(s) =="]
    lines.append("events by type:")
    for kind in sorted(counts, key=lambda k: (-counts[k], k)):
        lines.append(f"  {kind:<30} {counts[kind]:>8}")

    farm: Dict[str, object] = data["farm"]
    workers: Dict[str, Dict[str, object]] = farm["workers"]
    if farm["units"]:
        lines.append(
            f"farm: {farm['units']} unit(s) completed on "
            f"{len(workers)} worker(s), {farm['skipped']} restored from "
            f"checkpoint, {farm['retries']} retry(ies), "
            f"{farm['merged']} merged"
        )
        for worker in sorted(workers):
            row = workers[worker]
            lines.append(
                f"  {worker:<24} {row['units']:>4} unit(s)"
                f" {row['busy_s']:>9.3f}s busy {row['measurements']:>9} meas"
            )
        dropped_events = sum(
            int(r.get("dropped_events", 0) or 0)
            for r in records
            if r.get("type") == "farm_unit_merged"
        )
        if dropped_events:
            lines.append(
                f"  warning: {dropped_events} worker event(s) dropped "
                f"(spool capacity)"
            )
    checkpoint_dropped = sum(
        int(r.get("lines", 0) or 0)
        for r in records
        if r.get("type") == "farm_checkpoint_dropped"
    )
    if checkpoint_dropped:
        lines.append(
            f"  warning: {checkpoint_dropped} corrupt checkpoint "
            f"line(s) dropped"
        )

    measurements: Dict[str, object] = data["measurements"]
    totals: Dict[str, int] = measurements["per_test"]
    if measurements["groups"]:
        lines.append(
            f"measurements: {measurements['total']} over "
            f"{measurements['groups']} test group(s); costliest:"
        )
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        for name, count in ranked:
            lines.append(f"  {name[:40]:<40} {count:>8}")

    resources = data["resources"]
    if resources is not None:
        lines.append(
            f"resources: {resources['samples']} sample(s), "
            f"cpu {resources['cpu_s']:.3f}s, "
            f"peak rss {resources['peak_rss_kb'] / 1024.0:.1f} MB "
            f"across {resources['workers']} process(es)"
        )
    profiles = [r for r in records if r.get("type") == "profile"]
    if profiles:
        weight = sum(
            sum(int(entry[2]) for entry in (p.get("folded") or ()))
            for p in profiles
        )
        unit = str(profiles[0].get("unit", "samples"))
        lines.append(
            f"profile: {len(profiles)} session(s), {weight} {unit} "
            f"recorded (see `repro obs profile`)"
        )

    if loaded.dropped_lines:
        lines.append(f"({loaded.dropped_lines} malformed line(s) skipped)")
    if loaded.unknown_types:
        # Name the drifted schemas, most frequent first, so "what wrote
        # this trace?" is answerable from the summary alone.
        ranked_unknown = sorted(
            loaded.unknown_types.items(), key=lambda kv: (-kv[1], kv[0])
        )
        shown_unknown = ranked_unknown[:5]
        detail = ", ".join(
            f"{kind} x{count}" for kind, count in shown_unknown
        )
        hidden = len(ranked_unknown) - len(shown_unknown)
        if hidden > 0:
            detail += f", ... {hidden} more type(s)"
        lines.append(f"({sum(loaded.unknown_types.values())} event(s) of "
                     f"unknown type kept: {detail})")
    return "\n".join(lines)


def render_slowest(loaded: TraceLoadResult, count: int = 10) -> str:
    """``repro obs slowest``: the wall-clock and cost hot spots."""
    records = loaded.records
    lines: List[str] = []
    units = sorted(
        _farm_unit_rows(records),
        key=lambda r: (-float(r["elapsed_s"]), str(r["key"])),
    )[:count]
    if units:
        lines.append(f"slowest {len(units)} unit(s):")
        for row in units:
            attempt = (
                f" (attempt {row['attempt']})" if int(row["attempt"]) > 1
                else ""
            )
            lines.append(
                f"  {str(row['key'])[:32]:<32} {float(row['elapsed_s']):>9.3f}s"
                f" {int(row['measurements']):>8} meas on {row['worker']}"
                f"{attempt}"
            )
    totals: Dict[str, int] = {}
    for name, meas in per_test_measurement_counts(records):
        totals[name] = totals.get(name, 0) + meas
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:count]
    if ranked:
        lines.append(f"costliest {len(ranked)} test(s):")
        for name, meas in ranked:
            lines.append(f"  {name[:40]:<40} {meas:>8} meas")
    if not lines:
        lines.append("(no farm units or measurements in trace)")
    return "\n".join(lines)

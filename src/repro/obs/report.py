"""Fold a telemetry trace once and render it as cost summaries.

* :class:`TraceFold` — one tolerant pass over a JSONL trace that keeps
  everything the ``repro obs`` views, job progress and the SSE stream
  read: event counts, per-test measurement groups (the fig. 3 cost
  axis), farm unit rows, per-worker resource series, the open campaign
  phase, and the decision and profile events.  It keeps no
  ``measurement`` or ``sutp_walk_step`` record, so its memory grows
  with tests and units, never with probes.
* :func:`render_metrics_summary` — the registry as an aligned text table:
  every counter (with its top label breakdown — e.g. measurements per
  test), every gauge, every histogram with count/p50/p95/max.  This is what
  the CLI's ``--metrics`` flag prints at exit.
* :func:`render_trace_cost_profile`, :func:`render_trace_summary` and
  :func:`render_slowest` — text views of a fold.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.ioutil import iter_jsonl
from repro.obs.events import ENVELOPE_FIELDS, EVENT_FIELDS
from repro.obs.insight import INSIGHT_EVENT_TYPES
from repro.obs.metrics import MetricsRegistry

#: Every field type of every known event type, envelope included.
_FIELD_TYPES = {
    kind: {**ENVELOPE_FIELDS, **fields} for kind, fields in EVENT_FIELDS.items()
}

#: What a field that does not coerce raises (``int("4x")``,
#: ``int(float("inf"))``, a string where a list belongs, ...).
_COERCE_ERRORS = (TypeError, ValueError, OverflowError)


class UnitRow(NamedTuple):
    """One completed farm unit (``farm_unit_completed``)."""

    key: str
    attempt: int
    elapsed_s: float
    measurements: int
    worker: str


def _worker(record: Dict[str, object]) -> str:
    return record.get("worker") or "serial"


class TraceFold:
    """Everything the trace views read, folded in one pass.

    Feed it parsed trace lines with :meth:`add` (``None`` stands for an
    unparseable line), or build it from a file with :meth:`load` or
    :meth:`read`.  Every line is coerced exactly once, here, through the
    field types of :data:`~repro.obs.events.EVENT_FIELDS` and
    :data:`~repro.obs.events.ENVELOPE_FIELDS`: a line that is not an
    event object, or whose fields do not coerce, is skipped and counted
    in :attr:`dropped_lines`.  An absent field stays absent and an
    undeclared one passes through.  Events of a type this build does not
    know are kept (their envelope coerced) and tallied in
    :attr:`unknown_types`, so traces written by older or newer schema
    versions stay readable.
    """

    def __init__(self) -> None:
        self.events = 0
        self.dropped_lines = 0
        self.unknown_types: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: Consecutive measurements of one test form a group, in campaign
        #: order; a test re-measured later (the Table-1 final
        #: re-measurement) starts a new group, as on the real tester.
        self.groups: List[Tuple[str, int]] = []
        #: Completed units by key; the last completion wins on retry.
        self.units: Dict[str, UnitRow] = {}
        #: Per worker ``(completions, busy seconds)`` over every
        #: completion event, retries included.
        self.busy: Dict[str, Tuple[int, float]] = {}
        self.run_start: Optional[float] = None
        self.run_end: Optional[float] = None
        self.units_total = 0
        self.dropped_events = 0
        self.checkpoint_dropped = 0
        self.resource_samples = 0
        #: Per worker ``(min, max)`` cumulative CPU seconds.
        self.cpu_bounds: Dict[str, Tuple[float, float]] = {}
        self.peak_rss_kb: Dict[str, int] = {}
        #: Per worker ``(ts, rss_kb, cpu_s)`` of every timestamped sample.
        self.resource_series: Dict[str, List[Tuple[float, float, float]]] = {}
        #: The typed ``profile`` events, in trace order.
        self.profiles: List[Dict[str, object]] = []
        #: The decision-level events insight reads, by type, in trace order.
        self.decisions: Dict[str, List[Dict[str, object]]] = {
            kind: [] for kind in INSIGHT_EVENT_TYPES
        }
        self._phases: List[str] = []

    @classmethod
    def of(
        cls, records: Iterable[Optional[Dict[str, object]]]
    ) -> "TraceFold":
        """The fold of in-memory records."""
        fold = cls()
        for record in records:
            fold.add(record)
        return fold

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceFold":
        """The fold of a trace file (tolerant: torn lines are counted)."""
        return cls.of(record for _, record in iter_jsonl(path))

    def read(self, path: Union[str, Path]) -> Iterator[Dict[str, object]]:
        """Fold every line of ``path``, yielding each typed record it keeps.

        For the views that draw individual events (the timeline and the
        shmoo heatmap); everything else reads the fold.
        """
        for _, record in iter_jsonl(path):
            typed = self.add(record)
            if typed is not None:
                yield typed

    def add(
        self, record: Optional[Dict[str, object]]
    ) -> Optional[Dict[str, object]]:
        """Fold one parsed trace line: its typed record, ``None`` if dropped.

        The typed record is ``record`` itself when every field already
        had its type, else a coerced copy; ``record`` is never mutated.
        """
        if record is None or "type" not in record:
            self.dropped_lines += 1
            return None
        kind = str(record["type"])
        types = _FIELD_TYPES.get(kind, ENVELOPE_FIELDS)
        typed = record
        try:
            for name, value in record.items():
                coerce = types.get(name)
                if coerce is not None:
                    coerced = coerce(value)
                    if coerced is not value:
                        if typed is record:
                            typed = dict(record)
                        typed[name] = coerced
        except _COERCE_ERRORS:
            self.dropped_lines += 1
            return None
        self.events += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        fold_fields = _FIELD_FOLDS.get(kind)
        if fold_fields is not None:
            fold_fields(self, typed)
        elif kind not in EVENT_FIELDS:
            self.unknown_types[kind] = self.unknown_types.get(kind, 0) + 1
        elif kind in self.decisions:
            self.decisions[kind].append(typed)
        elif kind == "profile":
            self.profiles.append(typed)
        return typed

    def _measurement(self, record: Dict[str, object]) -> None:
        name = record.get("test_name", "unnamed")
        if self.groups and self.groups[-1][0] == name:
            self.groups[-1] = (name, self.groups[-1][1] + 1)
        else:
            self.groups.append((name, 1))

    def _unit_completed(self, record: Dict[str, object]) -> None:
        row = UnitRow(
            key=record.get("key", ""),
            attempt=record.get("attempt", 1),
            elapsed_s=record.get("elapsed_s", 0.0),
            measurements=record.get("measurements", 0),
            worker=_worker(record),
        )
        end = record.get("ts")
        self.units[row.key] = row
        count, busy_s = self.busy.get(row.worker, (0, 0.0))
        self.busy[row.worker] = (count + 1, busy_s + row.elapsed_s)
        if end is not None:
            self._extend_run(end - row.elapsed_s, end)

    def _run_started(self, record: Dict[str, object]) -> None:
        start = record.get("ts")
        self.units_total += record.get("units", 0)
        if start is not None:
            self._extend_run(start, None)

    def _extend_run(self, start: float, end: Optional[float]) -> None:
        if self.run_start is None or start < self.run_start:
            self.run_start = start
        if end is not None and (self.run_end is None or end > self.run_end):
            self.run_end = end

    def _unit_merged(self, record: Dict[str, object]) -> None:
        self.dropped_events += record.get("dropped_events", 0)

    def _checkpoint_dropped(self, record: Dict[str, object]) -> None:
        self.checkpoint_dropped += record.get("lines", 0)

    def _resource_sample(self, record: Dict[str, object]) -> None:
        worker = _worker(record)
        cpu = record.get("cpu_user_s", 0.0) + record.get("cpu_system_s", 0.0)
        peak = record.get("max_rss_kb", 0)
        rss = record.get("rss_kb", 0)
        ts = record.get("ts")
        self.resource_samples += 1
        low, high = self.cpu_bounds.get(worker, (cpu, cpu))
        self.cpu_bounds[worker] = (min(low, cpu), max(high, cpu))
        self.peak_rss_kb[worker] = max(self.peak_rss_kb.get(worker, 0), peak)
        if ts is not None:
            self.resource_series.setdefault(worker, []).append((ts, rss, cpu))

    def _campaign_phase(self, record: Dict[str, object]) -> None:
        phase = record.get("phase", "")
        if record.get("status") == "start":
            self._phases.append(phase)
        elif self._phases and self._phases[-1] == phase:
            self._phases.pop()

    # -- derived views -------------------------------------------------------

    @property
    def decision_count(self) -> int:
        """Decision-level events (every type insight reads) in the trace."""
        return sum(len(records) for records in self.decisions.values())

    def per_test_totals(self) -> Dict[str, int]:
        """Measurements per test name, summed over its groups."""
        totals: Dict[str, int] = {}
        for name, count in self.groups:
            totals[name] = totals.get(name, 0) + count
        return totals

    def progress(self) -> Dict[str, object]:
        """The job progress dict (``GET /jobs/{id}``, SSE ``progress``).

        ``events`` counts the event lines folded, ``units_total`` /
        ``units_done`` / ``units_skipped`` the farm work units (skipped =
        restored from checkpoint), and ``phase`` is the innermost
        campaign phase still open (``None`` outside every phase).
        """
        return {
            "events": self.events,
            "measurements": self.counts.get("measurement", 0),
            "units_total": self.units_total,
            "units_done": self.counts.get("farm_unit_completed", 0),
            "units_skipped": self.counts.get("farm_unit_skipped", 0),
            "phase": self._phases[-1] if self._phases else None,
        }


_FIELD_FOLDS = {
    "measurement": TraceFold._measurement,
    "farm_unit_completed": TraceFold._unit_completed,
    "farm_run_started": TraceFold._run_started,
    "farm_unit_merged": TraceFold._unit_merged,
    "farm_checkpoint_dropped": TraceFold._checkpoint_dropped,
    "resource_sample": TraceFold._resource_sample,
    "campaign_phase": TraceFold._campaign_phase,
}


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


def render_trace_cost_profile(
    fold: TraceFold,
    max_tests: Optional[int] = 60,
    bar_width: int = 40,
) -> str:
    """Fig. 3-style per-test measurement-cost bars from a trace."""
    groups = fold.groups
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


def _ranked(counts: Dict[str, int], count: int) -> List[Tuple[str, int]]:
    """The ``count`` largest entries, ties broken by name."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:count]


def trace_summary_data(fold: TraceFold) -> Dict[str, object]:
    """``repro obs summary --json``: the summary as plain data.

    :func:`render_trace_summary` renders this same data as text, so CI
    can assert on fields instead of scraping the text table.
    """
    by_worker: Dict[str, Dict[str, object]] = {}
    for row in fold.units.values():
        agg = by_worker.setdefault(
            row.worker, {"units": 0, "busy_s": 0.0, "measurements": 0}
        )
        agg["units"] = int(agg["units"]) + 1
        agg["busy_s"] = round(float(agg["busy_s"]) + row.elapsed_s, 6)
        agg["measurements"] = int(agg["measurements"]) + row.measurements
    per_test = fold.per_test_totals()
    resources = None
    if fold.resource_samples:
        cpu_s = sum((high - low for low, high in fold.cpu_bounds.values()), 0.0)
        resources = {
            "samples": fold.resource_samples,
            "workers": len(fold.cpu_bounds),
            "cpu_s": round(cpu_s, 6),
            "peak_rss_kb": max([0, *fold.peak_rss_kb.values()]),
        }
    counts = fold.counts
    return {
        "events": fold.events,
        "events_by_type": dict(counts),
        "farm": {
            "units": len(fold.units),
            "workers": by_worker,
            "retries": counts.get("farm_unit_retried", 0),
            "skipped": counts.get("farm_unit_skipped", 0),
            "merged": counts.get("farm_unit_merged", 0),
        },
        "measurements": {
            "total": sum(per_test.values()),
            "groups": len(fold.groups),
            "per_test": per_test,
        },
        "resources": resources,
        "profile_sessions": counts.get("profile", 0),
        "dropped_lines": fold.dropped_lines,
        "unknown_types": dict(fold.unknown_types),
    }


def render_trace_summary(fold: TraceFold) -> str:
    """``repro obs summary``: one screen describing a merged trace.

    Event counts by type, the farm section (units, workers, retries,
    merge bookkeeping), measurement totals with the costliest tests, and
    an honesty footer for anything the tolerant loader had to forgive.
    """
    data = trace_summary_data(fold)
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
        if fold.dropped_events:
            lines.append(
                f"  warning: {fold.dropped_events} worker event(s) dropped "
                f"(spool capacity)"
            )
    if fold.checkpoint_dropped:
        lines.append(
            f"  warning: {fold.checkpoint_dropped} corrupt checkpoint "
            f"line(s) dropped"
        )

    measurements: Dict[str, object] = data["measurements"]
    if measurements["groups"]:
        lines.append(
            f"measurements: {measurements['total']} over "
            f"{measurements['groups']} test group(s); costliest:"
        )
        for name, count in _ranked(measurements["per_test"], 10):
            lines.append(f"  {name[:40]:<40} {count:>8}")

    resources = data["resources"]
    if resources is not None:
        lines.append(
            f"resources: {resources['samples']} sample(s), "
            f"cpu {resources['cpu_s']:.3f}s, "
            f"peak rss {resources['peak_rss_kb'] / 1024.0:.1f} MB "
            f"across {resources['workers']} process(es)"
        )
    if fold.profiles:
        weight = sum(
            weight
            for profile in fold.profiles
            for _, _, weight in profile.get("folded", ())
        )
        lines.append(
            f"profile: {len(fold.profiles)} session(s), {weight} "
            f"{fold.profiles[0].get('unit', 'samples')} recorded "
            f"(see `repro obs profile`)"
        )

    if fold.dropped_lines:
        lines.append(f"({fold.dropped_lines} malformed line(s) skipped)")
    if fold.unknown_types:
        # Name the drifted schemas, most frequent first, so "what wrote
        # this trace?" is answerable from the summary alone.
        ranked_unknown = _ranked(fold.unknown_types, len(fold.unknown_types))
        detail = ", ".join(
            f"{kind} x{count}" for kind, count in ranked_unknown[:5]
        )
        hidden = len(ranked_unknown) - 5
        if hidden > 0:
            detail += f", ... {hidden} more type(s)"
        lines.append(f"({sum(fold.unknown_types.values())} event(s) of "
                     f"unknown type kept: {detail})")
    return "\n".join(lines)


def render_slowest(fold: TraceFold, count: int = 10) -> str:
    """``repro obs slowest``: the wall-clock and cost hot spots."""
    lines: List[str] = []
    units = sorted(
        fold.units.values(), key=lambda r: (-r.elapsed_s, r.key)
    )[:count]
    if units:
        lines.append(f"slowest {len(units)} unit(s):")
        for row in units:
            attempt = f" (attempt {row.attempt})" if row.attempt > 1 else ""
            lines.append(
                f"  {row.key[:32]:<32} {row.elapsed_s:>9.3f}s"
                f" {row.measurements:>8} meas on {row.worker}{attempt}"
            )
    ranked = _ranked(fold.per_test_totals(), count)
    if ranked:
        lines.append(f"costliest {len(ranked)} test(s):")
        for name, meas in ranked:
            lines.append(f"  {name[:40]:<40} {meas:>8} meas")
    if not lines:
        lines.append("(no farm units or measurements in trace)")
    return "\n".join(lines)

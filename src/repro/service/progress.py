"""Live job progress, derived from the job's telemetry trace.

Every job runs with ``--trace`` pointing into its job directory, and the
:class:`~repro.obs.events.TraceWriter` flushes each event line as it is
emitted — so the trace file *is* the live progress stream.  This module
reads it tolerantly through :func:`repro.ioutil.iter_jsonl` (a torn
final line is simply the event in flight) and rolls the per-unit farm
events, measurement events and campaign phases up into the small
progress dict ``GET /jobs/{id}`` returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.ioutil import iter_jsonl


class ProgressTally:
    """Incremental form of :func:`job_progress`.

    Feed it parsed trace records one at a time (:meth:`add`) and read the
    same progress dict at any point (:meth:`as_dict`).  The SSE stream
    handler uses this to keep live progress while *tailing* a trace —
    one pass over each line ever, instead of re-scanning the whole file
    per poll.
    """

    def __init__(self) -> None:
        self.events = 0
        self.measurements = 0
        self.units_total = 0
        self.units_done = 0
        self.units_skipped = 0
        self._phase_stack: List[str] = []

    def add(self, record: Dict[str, object]) -> None:
        """Fold one parsed trace record into the tally."""
        self.events += 1
        kind = record.get("type")
        if kind == "measurement":
            self.measurements += 1
        elif kind == "farm_run_started":
            self.units_total += int(record.get("units", 0) or 0)
        elif kind == "farm_unit_completed":
            self.units_done += 1
        elif kind == "farm_unit_skipped":
            self.units_skipped += 1
        elif kind == "campaign_phase":
            phase = str(record.get("phase", "") or "")
            if record.get("status") == "start":
                self._phase_stack.append(phase)
            elif self._phase_stack and self._phase_stack[-1] == phase:
                self._phase_stack.pop()

    def as_dict(self) -> Dict[str, object]:
        """The progress dict ``GET /jobs/{id}`` returns."""
        return {
            "events": self.events,
            "measurements": self.measurements,
            "units_total": self.units_total,
            "units_done": self.units_done,
            "units_skipped": self.units_skipped,
            "phase": self._phase_stack[-1] if self._phase_stack else None,
        }


def job_progress(trace_path: Union[str, Path]) -> Dict[str, object]:
    """Roll a (possibly still growing) trace up into progress numbers.

    Returns ``events`` (total event lines parsed), ``measurements``,
    ``units_total``/``units_done``/``units_skipped`` (farm work units;
    skipped = restored from checkpoint), and ``phase`` — the innermost
    campaign phase currently open (``None`` before the first phase or
    after the last one closes).
    """
    path = Path(trace_path)
    tally = ProgressTally()
    if path.exists():
        for _, record in iter_jsonl(path):
            if record is not None and "type" in record:
                tally.add(record)
    return tally.as_dict()


def read_events_page(
    trace_path: Union[str, Path],
    offset: int = 0,
    limit: int = 500,
    complete_lines_only: bool = False,
) -> Tuple[List[Tuple[int, Dict[str, object]]], int, int]:
    """One page of trace events, each paired with its trace line number.

    Backs both ``GET /jobs/{id}/events`` and the SSE stream.  Offsets
    count *file lines* (not parsed events), so a page boundary is stable
    while the file grows, and the SSE stream can use each event's
    1-based line number as its ``id:`` — a client reconnecting with
    ``Last-Event-ID: N`` resumes at ``offset=N`` without replaying or
    skipping events.

    Returns ``(numbered, next_offset, malformed)``: ``next_offset`` is
    the line offset to pass for the following page, and ``malformed``
    counts skipped lines within the page that are not event objects
    (normally just a torn in-flight final line).  With
    ``complete_lines_only`` a final line missing its newline is left
    *unconsumed*: it is the event in flight, and a tailing reader must
    pick it up whole on the next poll instead of skipping its truncated
    half as malformed.
    """
    path = Path(trace_path)
    numbered: List[Tuple[int, Dict[str, object]]] = []
    malformed = 0
    next_offset = offset
    if path.exists():
        for number, record in iter_jsonl(
            path, offset, limit, complete_lines_only
        ):
            next_offset = number
            if record is None or "type" not in record:
                malformed += 1
            else:
                numbered.append((number, record))
    return numbered, next_offset, malformed

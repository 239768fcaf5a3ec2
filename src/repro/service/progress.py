"""Live job progress, derived from the job's telemetry trace.

Every job runs with ``--trace`` pointing into its job directory, and the
:class:`~repro.obs.events.TraceWriter` flushes each event line as it is
emitted — so the trace file *is* the live progress stream.  Progress is
the :meth:`~repro.obs.report.TraceFold.progress` of that trace, read
tolerantly (a torn final line is simply the event in flight), and the
SSE handler keeps its own fold while it tails the file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.ioutil import iter_jsonl
from repro.obs.report import TraceFold


def job_progress(trace_path: Union[str, Path]) -> Dict[str, object]:
    """Roll a (possibly still growing) trace up into progress numbers.

    Returns ``events`` (total event lines parsed), ``measurements``,
    ``units_total``/``units_done``/``units_skipped`` (farm work units;
    skipped = restored from checkpoint), and ``phase`` — the innermost
    campaign phase currently open (``None`` before the first phase or
    after the last one closes).
    """
    path = Path(trace_path)
    fold = TraceFold.load(path) if path.exists() else TraceFold()
    return fold.progress()


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

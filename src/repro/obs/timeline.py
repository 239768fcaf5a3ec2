"""Chrome-trace / Perfetto timeline export of a merged farm trace.

Turns the JSONL trace of a (possibly parallel) campaign into the Chrome
Trace Event Format — load the output at ``ui.perfetto.dev`` or
``chrome://tracing`` to see the farm run as a timeline:

* one track per worker process, a span per unit execution
  (``farm_unit_completed`` carries the worker, end time and duration);
* a ``farm queue`` track with each unit's queued period
  (dispatch -> execution start) and retry markers;
* a ``campaign`` track with the ``span()`` phase brackets
  (``lot``, ``sweep``, ``optimization.ga``, ...);
* a ``merge`` track with the deterministic per-unit merge points;
* when the campaign ran on the remote farm with broker telemetry, a
  ``broker`` track — lease lifetimes as spans (issue → completion or
  expiry), re-issues, duplicates and worker (dis)connects as instants —
  with every broker/worker timestamp skew-corrected onto the client's
  clock via the ``broker_clock_sync`` offsets
  (:mod:`repro.obs.farm`), so the multi-host picture is truthful;
* when the run was profiled (``--profile``), per-worker *counter*
  tracks — CPU% derived from consecutive ``resource_sample`` events'
  cumulative CPU deltas, and RSS in MB — drawn as Perfetto counters.

Timestamps are microseconds relative to the earliest event in the
trace; durations come from the events themselves, so the picture is the
*live* execution — the merged measurement events keep their worker-side
timestamps and are deliberately not drawn individually (a lot-sized
trace holds hundreds of thousands; the unit spans carry their counts).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.farm import align_records

#: Reserved track (tid) numbers; worker tracks are assigned from
#: :data:`_FIRST_WORKER_TID` upward in order of first appearance.
_PID = 1
_TID_CAMPAIGN = 1
_TID_QUEUE = 2
_TID_MERGE = 3
_TID_BROKER = 4
_FIRST_WORKER_TID = 10


def _us(ts: float, t0: float) -> float:
    return round((ts - t0) * 1e6, 3)


def build_chrome_trace(
    records: Iterable[Dict[str, object]],
) -> Dict[str, object]:
    """The Chrome-trace dict for a list of trace records.

    ``records`` are typed records, as
    :meth:`repro.obs.report.TraceFold.read` yields them.  Records
    without a ``ts`` and unknown event types are ignored, so traces from
    newer schemas still render.
    """
    records = [r for r in records if "ts" in r]
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    # Re-anchor broker/worker timestamps onto the client clock first —
    # an identity pass unless a broker_clock_sync record is present.
    records = align_records(records)
    t0 = min(r["ts"] for r in records)

    events: List[Dict[str, object]] = []
    # Worker name -> track (tid), first appearance wins.
    tracks: Dict[str, int] = {}
    dispatch_ts: Dict[str, float] = {}
    phase_stack: Dict[str, List[float]] = {}
    # Per-worker previous (ts, cumulative cpu_s) for the CPU% counter.
    cpu_prev: Dict[str, Tuple[float, float]] = {}
    # Open leases by unit key -> (issue ts, attempt, worker); the broker
    # track draws a span when lease_completed/lease_expired closes one.
    open_leases: Dict[str, Tuple[float, int, str]] = {}
    saw_broker = False

    for record in records:
        kind = record.get("type")
        ts = record["ts"]
        if kind == "farm_unit_dispatched":
            # Latest dispatch wins: a retried unit's queued period is
            # measured from its final dispatch.
            dispatch_ts[record.get("key", "")] = ts
        elif kind == "farm_unit_completed":
            key = record.get("key", "")
            elapsed = record.get("elapsed_s", 0.0)
            start = ts - elapsed
            worker = record.get("worker") or "serial"
            queued_from = dispatch_ts.get(key)
            if queued_from is not None and queued_from < start:
                events.append(
                    {
                        "name": key,
                        "cat": "queued",
                        "ph": "X",
                        "pid": _PID,
                        "tid": _TID_QUEUE,
                        "ts": _us(queued_from, t0),
                        "dur": round((start - queued_from) * 1e6, 3),
                        "args": {"attempt": record.get("attempt", 1)},
                    }
                )
            events.append(
                {
                    "name": key,
                    "cat": "running",
                    "ph": "X",
                    "pid": _PID,
                    "tid": tracks.setdefault(
                        worker, _FIRST_WORKER_TID + len(tracks)
                    ),
                    "ts": _us(start, t0),
                    "dur": round(elapsed * 1e6, 3),
                    "args": {
                        "kind": record.get("kind"),
                        "attempt": record.get("attempt", 1),
                        "measurements": record.get("measurements", 0),
                    },
                }
            )
        elif kind == "farm_unit_retried":
            events.append(
                {
                    "name": f"retry {record.get('key')}",
                    "cat": "retry",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _TID_QUEUE,
                    "ts": _us(ts, t0),
                    "args": {"error": record.get("error", "")},
                }
            )
        elif kind == "farm_unit_merged":
            events.append(
                {
                    "name": f"merge {record.get('key')}",
                    "cat": "merge",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _TID_MERGE,
                    "ts": _us(ts, t0),
                    "args": {
                        "events": record.get("events", 0),
                        "measurements": record.get("measurements", 0),
                        "worker": record.get("worker", ""),
                    },
                }
            )
        elif kind == "resource_sample":
            worker = record.get("worker") or "serial"
            rss_kb = record.get("rss_kb", 0)
            if rss_kb > 0:
                events.append(
                    {
                        "name": f"rss MB ({worker})",
                        "cat": "resource",
                        "ph": "C",
                        "pid": _PID,
                        "ts": _us(ts, t0),
                        "args": {"rss_mb": round(rss_kb / 1024.0, 2)},
                    }
                )
            cpu = record.get("cpu_user_s", 0.0) + record.get(
                "cpu_system_s", 0.0
            )
            prev = cpu_prev.get(worker)
            cpu_prev[worker] = (ts, cpu)
            # The first sample has no baseline to difference against.
            if prev is not None and ts > prev[0]:
                pct = max(0.0, 100.0 * (cpu - prev[1]) / (ts - prev[0]))
                events.append(
                    {
                        "name": f"cpu % ({worker})",
                        "cat": "resource",
                        "ph": "C",
                        "pid": _PID,
                        "ts": _us(ts, t0),
                        "args": {"cpu_pct": round(pct, 1)},
                    }
                )
        elif kind == "lease_issued":
            saw_broker = True
            open_leases[record.get("key", "")] = (
                ts, record.get("attempt", 1), record.get("worker", ""),
            )
        elif kind in ("lease_completed", "lease_expired"):
            saw_broker = True
            key = record.get("key", "")
            issued = open_leases.pop(key, None)
            if issued is not None:
                start, attempt, worker = issued
                events.append(
                    {
                        "name": key,
                        "cat": "lease",
                        "ph": "X",
                        "pid": _PID,
                        "tid": _TID_BROKER,
                        "ts": _us(min(start, ts), t0),
                        # Clamped: skew correction must never produce a
                        # negative lease lifetime.
                        "dur": max(0.0, round((ts - start) * 1e6, 3)),
                        "args": {
                            "worker": worker,
                            "attempt": attempt,
                            "outcome": (
                                "expired" if kind == "lease_expired"
                                else ("ok" if record.get("ok") else "error")
                            ),
                        },
                    }
                )
        elif kind in (
            "lease_reissued",
            "duplicate_suppressed",
            "worker_joined",
            "worker_left",
            "broker_campaign_started",
        ):
            saw_broker = True
            if kind == "lease_reissued":
                name = f"reissue {record.get('key')}"
                args: Dict[str, object] = {"reason": record.get("reason", "")}
            elif kind == "duplicate_suppressed":
                name = f"duplicate {record.get('key')}"
                args = {"worker": record.get("worker", "")}
            elif kind in ("worker_joined", "worker_left"):
                verb = "join" if kind == "worker_joined" else "leave"
                name = f"{verb} {record.get('worker')}"
                args = {"worker_id": record.get("worker_id", "")}
            else:
                name = f"campaign {record.get('campaign')}"
                args = {"units": record.get("units", 0)}
            events.append(
                {
                    "name": name,
                    "cat": "broker",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _TID_BROKER,
                    "ts": _us(ts, t0),
                    "args": args,
                }
            )
        elif kind == "campaign_phase":
            phase = record.get("phase", "")
            if record.get("status") == "start":
                phase_stack.setdefault(phase, []).append(ts)
            elif record.get("status") == "end":
                stack = phase_stack.get(phase)
                start = stack.pop() if stack else ts - (
                    record.get("duration_s") or 0.0
                )
                events.append(
                    {
                        "name": phase,
                        "cat": "phase",
                        "ph": "X",
                        "pid": _PID,
                        "tid": _TID_CAMPAIGN,
                        "ts": _us(start, t0),
                        "dur": max(0.0, _us(ts, t0) - _us(start, t0)),
                        "args": {"duration_s": record.get("duration_s")},
                    }
                )

    metadata: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": _PID,
            "name": "process_name",
            "args": {"name": "repro farm"},
        },
        _thread_name(_TID_CAMPAIGN, "campaign"),
        _thread_name(_TID_QUEUE, "farm queue"),
        _thread_name(_TID_MERGE, "merge"),
    ]
    if saw_broker:
        metadata.append(_thread_name(_TID_BROKER, "broker"))
    metadata.extend(
        _thread_name(tid, f"worker {name}") for name, tid in tracks.items()
    )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }


def _thread_name(tid: int, name: str) -> Dict[str, object]:
    return {
        "ph": "M",
        "pid": _PID,
        "tid": tid,
        "name": "thread_name",
        "args": {"name": name},
    }

"""SQLite-backed characterization result store.

:class:`ResultStore` is the persistence layer behind the
characterization service.  It holds two kinds of records (see
:mod:`repro.store.schema`): worst-case test records and service jobs.
Run-cost records live in the ``runs.jsonl`` history next to the store
file (:attr:`ResultStore.history_path`).

Concurrency model: the store opens one short-lived connection per
operation.  That keeps the class thread-safe without sharing
connections across the service's handler and worker threads (SQLite
serializes writers itself; a 30 s busy timeout absorbs contention), and
it is exactly the discipline a Postgres port would replace with a
connection pool.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.store.schema import SCHEMA_VERSION, ensure_schema

#: Job states, in lifecycle order.  ``queued`` and ``running`` are the
#: non-terminal states a restarted server marks as failed.
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
ACTIVE_JOB_STATES = ("queued", "running")


class ResultStore:
    """One SQLite file holding worst-case records and service jobs."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: The run history: the service appends each completed job's
        #: record here, and the version-3 migration moved the old
        #: ``runs`` table here.
        self.history_path = self.path.with_name("runs.jsonl")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            self.schema_version = ensure_schema(conn, self.history_path)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        try:
            yield conn
            conn.commit()
        finally:
            conn.close()

    # -- worst-case records ----------------------------------------------------

    def import_wcdb_payload(
        self, payload: Dict[str, object], scope: str = ""
    ) -> int:
        """Import a worst-case database export (``export_payload`` shape).

        Deduplication key is ``(scope, test_name, condition)``: the same
        test at the same operating point appears once per scope.  On a
        duplicate, the *worse* record wins — a larger WCR replaces a
        smaller one, and a functional failure always replaces a
        parametric record (mirroring the paper's "store the worst case"
        intent).  Returns the number of rows inserted or updated.
        """
        changed = 0
        rows = list(payload.get("records") or [])
        rows += list(payload.get("functional_failures") or [])
        with self._connect() as conn:
            for summary in rows:
                changed += self._upsert_wc_record(conn, summary, scope)
        return changed

    @staticmethod
    def _upsert_wc_record(
        conn: sqlite3.Connection, summary: Dict[str, object], scope: str
    ) -> int:
        condition = json.dumps(summary.get("condition") or {}, sort_keys=True)
        test_name = str(summary.get("test_name") or "")
        is_failure = 1 if summary.get("functional_failure") else 0
        wcr = summary.get("wcr")
        existing = conn.execute(
            "SELECT wcr, functional_failure FROM worst_case_records "
            "WHERE scope = ? AND test_name = ? AND condition = ?",
            (scope, test_name, condition),
        ).fetchone()
        if existing is not None:
            old_wcr, old_failure = existing
            keep_new = (
                (is_failure and not old_failure)
                or (
                    is_failure == old_failure
                    and wcr is not None
                    and (old_wcr is None or float(wcr) > float(old_wcr))
                )
            )
            if not keep_new:
                return 0
        conn.execute(
            "INSERT INTO worst_case_records (scope, test_name, condition, "
            "technique, cycles, measured_value, wcr, wcr_class, "
            "functional_failure, note) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (scope, test_name, condition) DO UPDATE SET "
            "technique = excluded.technique, cycles = excluded.cycles, "
            "measured_value = excluded.measured_value, wcr = excluded.wcr, "
            "wcr_class = excluded.wcr_class, "
            "functional_failure = excluded.functional_failure, "
            "note = excluded.note",
            (
                scope,
                test_name,
                condition,
                str(summary.get("technique") or ""),
                summary.get("cycles"),
                summary.get("measured_value"),
                wcr,
                summary.get("wcr_class"),
                is_failure,
                str(summary.get("note") or ""),
            ),
        )
        return 1

    def export_wcdb_payload(self, scope: Optional[str] = None) -> Dict[str, object]:
        """Rebuild the ``WorstCaseDatabase.export_payload`` shape.

        Parametric records come ranked worst-first (ties keep insertion
        order, like :meth:`WorstCaseDatabase.ranked`), functional
        failures in insertion order.  ``scope=None`` exports everything.
        """
        where, params = "", ()
        if scope is not None:
            where, params = "AND scope = ?", (scope,)
        with self._connect() as conn:
            records = conn.execute(
                "SELECT test_name, condition, technique, cycles, "
                "measured_value, wcr, wcr_class, functional_failure, note "
                f"FROM worst_case_records WHERE functional_failure = 0 {where} "
                "ORDER BY wcr DESC, id",
                params,
            ).fetchall()
            failures = conn.execute(
                "SELECT test_name, condition, technique, cycles, "
                "measured_value, wcr, wcr_class, functional_failure, note "
                f"FROM worst_case_records WHERE functional_failure = 1 {where} "
                "ORDER BY id",
                params,
            ).fetchall()
        return {
            "records": [self._wc_summary(row) for row in records],
            "functional_failures": [self._wc_summary(row) for row in failures],
        }

    @staticmethod
    def _wc_summary(row) -> Dict[str, object]:
        (test_name, condition, technique, cycles, measured_value, wcr,
         wcr_class, functional_failure, note) = row
        return {
            "test_name": test_name,
            "technique": technique,
            "cycles": cycles,
            "condition": json.loads(condition),
            "measured_value": measured_value,
            "wcr": wcr,
            "wcr_class": wcr_class,
            "functional_failure": bool(functional_failure),
            "note": note,
        }

    def wc_record_count(self, scope: Optional[str] = None) -> int:
        """Stored worst-case rows (failures included)."""
        where, params = "", ()
        if scope is not None:
            where, params = "WHERE scope = ?", (scope,)
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT COUNT(*) FROM worst_case_records {where}", params
            ).fetchone()
        return int(row[0])

    # -- jobs ------------------------------------------------------------------

    def create_job(
        self,
        job_id: str,
        spec: Dict[str, object],
        job_dir: str = "",
        state: str = "queued",
        request_id: str = "",
    ) -> Dict[str, object]:
        """Insert a new job row; returns it as a dict."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO jobs (job_id, state, spec, created_ts, job_dir, "
                "request_id) VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, state, json.dumps(spec, sort_keys=True),
                 time.time(), job_dir, request_id),
            )
        job = self.get_job(job_id)
        assert job is not None
        return job

    def update_job(self, job_id: str, **fields: object) -> None:
        """Update job columns (``state``, ``started_ts``, ``error``, ...)."""
        allowed = {
            "state", "started_ts", "finished_ts", "exit_code", "error",
            "job_dir", "request_id",
        }
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        state = fields.get("state")
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        if not fields:
            return
        names = sorted(fields)
        assignments = ", ".join(f"{name} = ?" for name in names)
        with self._connect() as conn:
            conn.execute(
                f"UPDATE jobs SET {assignments} WHERE job_id = ?",
                tuple(fields[name] for name in names) + (job_id,),
            )

    def get_job(self, job_id: str) -> Optional[Dict[str, object]]:
        """One job row as a dict (spec parsed), or ``None``."""
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        return _job_row_to_dict(row) if row else None

    def list_jobs(
        self, states: Optional[List[str]] = None
    ) -> List[Dict[str, object]]:
        """All jobs (optionally filtered by state), oldest first."""
        query = f"SELECT {_JOB_COLUMNS} FROM jobs"
        params: tuple = ()
        if states:
            placeholders = ", ".join("?" for _ in states)
            query += f" WHERE state IN ({placeholders})"
            params = tuple(states)
        query += " ORDER BY created_ts, job_id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [_job_row_to_dict(row) for row in rows]

    def fail_interrupted_jobs(
        self, error: str = "interrupted by server restart"
    ) -> List[str]:
        """Mark every queued/running job failed; returns their ids.

        Called by the service on startup: those jobs' worker threads
        died with the previous process, so the rows would otherwise
        claim progress forever.
        """
        interrupted = [
            str(job["job_id"])
            for job in self.list_jobs(states=list(ACTIVE_JOB_STATES))
        ]
        now = time.time()
        with self._connect() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'failed', error = ?, "
                "finished_ts = ? WHERE state IN ('queued', 'running')",
                (error, now),
            )
        return interrupted

_JOB_COLUMNS = (
    "job_id, state, spec, created_ts, started_ts, finished_ts, "
    "exit_code, error, job_dir, request_id"
)


def _job_row_to_dict(row) -> Dict[str, object]:
    (job_id, state, spec, created_ts, started_ts, finished_ts, exit_code,
     error, job_dir, request_id) = row
    return {
        "job_id": job_id,
        "state": state,
        "spec": json.loads(spec),
        "created_ts": created_ts,
        "started_ts": started_ts,
        "finished_ts": finished_ts,
        "exit_code": exit_code,
        "error": error,
        "job_dir": job_dir,
        "request_id": request_id,
    }


__all__ = [
    "ACTIVE_JOB_STATES",
    "JOB_STATES",
    "ResultStore",
    "SCHEMA_VERSION",
]

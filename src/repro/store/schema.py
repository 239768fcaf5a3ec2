"""Versioned SQL schema for the characterization result store.

Schema version 3 has two typed tables plus a metadata table:

* ``worst_case_records`` — :class:`repro.core.database.WorstCaseDatabase`
  rows, deduplicated on ``(scope, test_name, condition)``;
* ``jobs`` — the characterization-service job table (spec, state
  machine, artifact paths).

Run-cost records are not kept here: they live in the ``runs.jsonl``
history next to the store file (:class:`repro.obs.history.RunHistory`).
Versions 1 and 2 also had ``runs`` and ``bench_records`` tables; the
version-3 migration copies every ``runs`` row to that history before it
drops both.

Portability is a design constraint: every statement sticks to the SQL
subset SQLite and PostgreSQL share — ``TEXT``/``INTEGER``/``REAL``
columns, plain ``UNIQUE`` constraints, no SQLite-only pragmas in the
DDL, all parameter binding through the driver.  Porting the store is a
connection-string change plus swapping ``?`` placeholders for the
driver's style, not a schema rewrite.

Migrations are append-only: ``MIGRATIONS[n]`` upgrades a version-``n``
database to version ``n + 1``.  :func:`ensure_schema` creates a fresh
database at :data:`SCHEMA_VERSION` or walks an old one forward.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import List, Sequence

from repro.ioutil import fsync_handle

SCHEMA_VERSION = 3

#: DDL for a fresh version-1 database.
SCHEMA_V1: Sequence[str] = (
    """
    CREATE TABLE IF NOT EXISTS store_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS runs (
        id           INTEGER PRIMARY KEY,
        run          TEXT NOT NULL,
        campaign     TEXT NOT NULL DEFAULT '',
        command      TEXT NOT NULL DEFAULT '',
        ts           REAL NOT NULL DEFAULT 0,
        wall_s       REAL NOT NULL DEFAULT 0,
        cpu_s        REAL,
        measurements INTEGER NOT NULL DEFAULT 0,
        record       TEXT NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_runs_run ON runs (run)",
    """
    CREATE TABLE IF NOT EXISTS worst_case_records (
        id                 INTEGER PRIMARY KEY,
        scope              TEXT NOT NULL DEFAULT '',
        test_name          TEXT NOT NULL,
        condition          TEXT NOT NULL,
        technique          TEXT NOT NULL DEFAULT '',
        cycles             INTEGER,
        measured_value     REAL,
        wcr                REAL,
        wcr_class          TEXT,
        functional_failure INTEGER NOT NULL DEFAULT 0,
        note               TEXT NOT NULL DEFAULT '',
        UNIQUE (scope, test_name, condition)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS jobs (
        job_id      TEXT PRIMARY KEY,
        state       TEXT NOT NULL,
        spec        TEXT NOT NULL,
        created_ts  REAL NOT NULL DEFAULT 0,
        started_ts  REAL,
        finished_ts REAL,
        exit_code   INTEGER,
        error       TEXT NOT NULL DEFAULT '',
        job_dir     TEXT NOT NULL DEFAULT ''
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS bench_records (
        id          INTEGER PRIMARY KEY,
        bench       TEXT NOT NULL,
        imported_ts REAL NOT NULL DEFAULT 0,
        wall_s      REAL NOT NULL DEFAULT 0,
        cpu_s       REAL,
        payload     TEXT NOT NULL
    )
    """,
)

#: Version 1 -> 2: the service stamps the submitting HTTP request's id
#: onto the job row, joining it to the access log and the job's trace.
SCHEMA_V2: Sequence[str] = (
    "ALTER TABLE jobs ADD COLUMN request_id TEXT NOT NULL DEFAULT ''",
)

#: Version 2 -> 3: run records move to the ``runs.jsonl`` history;
#: :func:`ensure_schema` appends the ``runs`` rows there first.  The raw
#: bench payloads go with ``bench_records``: their gateable records are
#: rows of ``runs``.
SCHEMA_V3: Sequence[str] = (
    "DROP TABLE runs",
    "DROP TABLE bench_records",
)

#: ``MIGRATIONS[n]`` is the statement list taking version n -> n + 1.
#: Version 0 means "empty database": the fresh-create path.
MIGRATIONS: List[Sequence[str]] = [SCHEMA_V1, SCHEMA_V2, SCHEMA_V3]


def schema_version(conn: sqlite3.Connection) -> int:
    """The schema version recorded in ``store_meta`` (0 when absent)."""
    try:
        row = conn.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
    except sqlite3.OperationalError:  # no store_meta table yet
        return 0
    return int(row[0]) if row else 0


def ensure_schema(conn: sqlite3.Connection, history_path: Path) -> int:
    """Create or upgrade the schema; returns the resulting version.

    Each step runs in one transaction with its version bump.  The
    version-3 step first appends the ``runs`` rows, in id order, to the
    ``runs.jsonl`` file at ``history_path``; a crash before the step
    commits repeats those lines on the next open rather than losing them.

    Raises
    ------
    RuntimeError
        When the database records a *newer* schema version than this
        build knows — refusing to write beats corrupting a newer
        store's invariants.
    """
    version = schema_version(conn)
    if version > SCHEMA_VERSION:
        raise RuntimeError(
            f"store schema version {version} is newer than this build "
            f"supports ({SCHEMA_VERSION}); upgrade repro instead of "
            f"downgrading the store"
        )
    while version < SCHEMA_VERSION:
        if version == 2:
            _copy_runs_to_history(conn, history_path)
        conn.execute("BEGIN")
        for statement in MIGRATIONS[version]:
            conn.execute(statement)
        version += 1
        conn.execute(
            "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (str(version),),
        )
        conn.commit()
    return version


def _copy_runs_to_history(conn: sqlite3.Connection, history_path: Path) -> None:
    """Append the ``runs`` table's records to the JSONL history, durably.

    The ``record`` column holds each record as ``RunHistory.append``
    writes it (sorted-key JSON), so the lines are the history's own.
    """
    rows = conn.execute("SELECT record FROM runs ORDER BY id").fetchall()
    if not rows:
        return
    with history_path.open("a") as handle:
        handle.write("".join(record + "\n" for (record,) in rows))
        fsync_handle(handle)

"""Persistent result store for the characterization service (SQLite).

A long-running characterization service needs a real store for what
its jobs produce.  This package provides it: :class:`ResultStore`, one
SQLite file with typed tables for worst-case test records (deduplicated
on test + condition) and service jobs.

Run-cost records are not stored here.  The one run history is the
``runs.jsonl`` file (:class:`repro.obs.history.RunHistory`); the
service appends each completed job's record to the one next to the
store file, and ``obs compare`` / ``obs report`` read it.

The schema (:mod:`repro.store.schema`) is versioned and written in the
SQL subset SQLite shares with PostgreSQL, so scaling the store up is a
connection-string change, not a rewrite.  See ``docs/service.md``.
"""

from repro.store.db import ACTIVE_JOB_STATES, JOB_STATES, ResultStore
from repro.store.schema import SCHEMA_VERSION, ensure_schema, schema_version

__all__ = [
    "ACTIVE_JOB_STATES",
    "JOB_STATES",
    "ResultStore",
    "SCHEMA_VERSION",
    "ensure_schema",
    "schema_version",
]

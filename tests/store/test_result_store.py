"""SQLite result store: schema and migrations, worst-case dedup, jobs."""

import json
import sqlite3

import pytest

from repro.obs.history import RUN_KIND, RUN_SCHEMA, RunHistory
from repro.store import (
    ACTIVE_JOB_STATES,
    JOB_STATES,
    ResultStore,
    SCHEMA_VERSION,
    schema_version,
)
from repro.store.schema import SCHEMA_V1, SCHEMA_V2


def _run_record(name, measurements, wall_s=1.0):
    return {
        "schema": RUN_SCHEMA,
        "kind": RUN_KIND,
        "run": name,
        "campaign": "c",
        "command": "lot",
        "ts": 1000.0,
        "wall_s": wall_s,
        "cpu_s": wall_s,
        "workers": None,
        "seed": 0,
        "measurements": measurements,
        "per_test": {},
        "farm_units": 0,
        "farm_retries": 0,
        "checkpoint_dropped_lines": 0,
    }


def _wc_summary(test_name="t1", wcr=0.5, vdd=1.8, failure=False, **extra):
    summary = {
        "test_name": test_name,
        "technique": "vdd_binary_search",
        "cycles": 100,
        "condition": {"vdd": vdd, "temperature": 25.0},
        "measured_value": 20.0,
        "wcr": None if failure else wcr,
        "wcr_class": None if failure else "marginal",
        "functional_failure": failure,
        "note": "",
    }
    summary.update(extra)
    return summary


class TestSchema:
    def test_fresh_store_is_at_current_version(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        assert store.schema_version == SCHEMA_VERSION
        with sqlite3.connect(str(store.path)) as conn:
            assert schema_version(conn) == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "store.db"
        ResultStore(path).create_job("job-0001", {"command": "lot"})
        again = ResultStore(path)
        assert again.schema_version == SCHEMA_VERSION
        assert [j["job_id"] for j in again.list_jobs()] == ["job-0001"]
        # a store that never had run rows writes no history
        assert not again.history_path.exists()

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "store.db"
        ResultStore(path)
        with sqlite3.connect(str(path)) as conn:
            conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        with pytest.raises(RuntimeError, match="newer"):
            ResultStore(path)

    def test_parent_directory_is_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "store.db")
        assert store.path.exists()


class TestWorstCaseRecords:
    def test_import_export_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        payload = {
            "records": [
                _wc_summary("t1", wcr=0.4),
                _wc_summary("t2", wcr=0.9),
            ],
            "functional_failures": [_wc_summary("t3", failure=True)],
        }
        assert store.import_wcdb_payload(payload) == 3
        out = store.export_wcdb_payload()
        # ranked worst-first, like WorstCaseDatabase.ranked()
        assert [r["test_name"] for r in out["records"]] == ["t2", "t1"]
        assert [r["test_name"] for r in out["functional_failures"]] == ["t3"]
        assert out["records"][0]["condition"] == {
            "vdd": 1.8, "temperature": 25.0,
        }

    def test_dedup_keeps_the_worse_record(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.5)]})
        # better (lower) WCR at the same (test, condition): ignored
        assert (
            store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.3)]})
            == 0
        )
        # worse WCR: replaces
        assert (
            store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.7)]})
            == 1
        )
        out = store.export_wcdb_payload()
        assert len(out["records"]) == 1
        assert out["records"][0]["wcr"] == 0.7

    def test_functional_failure_beats_parametric(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.9)]})
        assert (
            store.import_wcdb_payload(
                {"functional_failures": [_wc_summary("t", failure=True)]}
            )
            == 1
        )
        out = store.export_wcdb_payload()
        assert out["records"] == []
        assert len(out["functional_failures"]) == 1
        # ...and a parametric record never downgrades a failure
        assert (
            store.import_wcdb_payload({"records": [_wc_summary("t", wcr=0.9)]})
            == 0
        )

    def test_different_conditions_are_distinct_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload(
            {"records": [_wc_summary("t", vdd=1.8), _wc_summary("t", vdd=2.5)]}
        )
        assert store.wc_record_count() == 2

    def test_scopes_isolate_jobs(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.import_wcdb_payload(
            {"records": [_wc_summary("t", wcr=0.5)]}, scope="job-1"
        )
        store.import_wcdb_payload(
            {"records": [_wc_summary("t", wcr=0.8)]}, scope="job-2"
        )
        assert store.wc_record_count() == 2
        only = store.export_wcdb_payload(scope="job-1")
        assert [r["wcr"] for r in only["records"]] == [0.5]

class TestJobs:
    SPEC = {"command": "lot", "params": {"dies": 2}, "seed": 0}

    def test_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        job = store.create_job("job-0001", self.SPEC, job_dir="/tmp/j")
        assert job["state"] == "queued"
        assert job["spec"] == self.SPEC
        store.update_job("job-0001", state="running", started_ts=1.0)
        store.update_job(
            "job-0001", state="completed", finished_ts=2.0, exit_code=0
        )
        done = store.get_job("job-0001")
        assert done["state"] == "completed"
        assert done["exit_code"] == 0

    def test_unknown_state_and_field_are_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.create_job("j", self.SPEC)
        with pytest.raises(ValueError, match="state"):
            store.update_job("j", state="paused")
        with pytest.raises(ValueError, match="fields"):
            store.update_job("j", steak="rare")
        with pytest.raises(ValueError, match="state"):
            store.create_job("k", self.SPEC, state="paused")

    def test_list_filters_by_state(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.create_job("a", self.SPEC)
        store.create_job("b", self.SPEC)
        store.update_job("b", state="completed")
        active = store.list_jobs(states=list(ACTIVE_JOB_STATES))
        assert [j["job_id"] for j in active] == ["a"]
        assert {j["state"] for j in store.list_jobs()} <= set(JOB_STATES)

    def test_fail_interrupted_jobs(self, tmp_path):
        # What a restarted server does to the previous process's leftovers.
        store = ResultStore(tmp_path / "store.db")
        store.create_job("queued-one", self.SPEC)
        store.create_job("running-one", self.SPEC)
        store.update_job("running-one", state="running")
        store.create_job("done-one", self.SPEC)
        store.update_job("done-one", state="completed")
        failed = store.fail_interrupted_jobs()
        assert sorted(failed) == ["queued-one", "running-one"]
        assert store.get_job("queued-one")["state"] == "failed"
        assert "restart" in store.get_job("running-one")["error"]
        assert store.get_job("done-one")["state"] == "completed"


def _v2_store(path, runs):
    """A store file as version 2 left it: jobs, worst-case rows, the
    ``runs`` table (rows inserted out of id order) and one bench row."""
    with sqlite3.connect(str(path)) as conn:
        for statement in (*SCHEMA_V1, *SCHEMA_V2):
            conn.execute(statement)
        conn.execute(
            "INSERT INTO store_meta (key, value) "
            "VALUES ('schema_version', '2')"
        )
        conn.execute(
            "INSERT INTO jobs (job_id, state, spec, created_ts, job_dir, "
            "request_id) VALUES ('job-0001', 'completed', "
            "'{\"command\": \"lot\"}', 5.0, '/srv/jobs/job-0001', 'rid-1')"
        )
        conn.execute(
            "INSERT INTO worst_case_records (scope, test_name, condition, "
            "technique, wcr, functional_failure) "
            "VALUES ('job-0001', 't1', '{\"vdd\": 1.8}', 'ga', 0.7, 0)"
        )
        for row_id, record in runs:
            conn.execute(
                "INSERT INTO runs (id, run, record) VALUES (?, ?, ?)",
                (row_id, record["run"], json.dumps(record, sort_keys=True)),
            )
        conn.execute(
            "INSERT INTO bench_records (bench, payload) "
            "VALUES ('grid', '{\"bench\": \"grid\"}')"
        )


def _rows(path, table):
    with sqlite3.connect(str(path)) as conn:
        return conn.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()


def _tables(path):
    with sqlite3.connect(str(path)) as conn:
        rows = conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
    return {name for (name,) in rows}


class TestMigrationToV3:
    RUNS = [
        (2, _run_record("second", 20)),
        (1, _run_record("first", 10)),
        (3, _run_record("third", 30)),
    ]

    def test_run_rows_move_to_the_history_in_id_order(self, tmp_path):
        path = tmp_path / "store.db"
        _v2_store(path, self.RUNS)
        jobs, wc_rows = _rows(path, "jobs"), _rows(path, "worst_case_records")

        store = ResultStore(path)

        assert store.schema_version == 3 == SCHEMA_VERSION
        with sqlite3.connect(str(path)) as conn:
            assert schema_version(conn) == 3
        assert _rows(path, "jobs") == jobs
        assert _rows(path, "worst_case_records") == wc_rows
        assert store.get_job("job-0001")["request_id"] == "rid-1"
        assert store.history_path == tmp_path / "runs.jsonl"
        loaded = RunHistory(store.history_path).load()
        assert loaded.dropped_lines == 0
        assert loaded.records == [
            record for _, record in sorted(self.RUNS, key=lambda r: r[0])
        ]
        assert not {"runs", "bench_records"} & _tables(path)

    def test_records_append_after_an_existing_history(self, tmp_path):
        history = RunHistory(tmp_path / "runs.jsonl")
        history.append(_run_record("older", 5))
        _v2_store(tmp_path / "store.db", self.RUNS)
        ResultStore(tmp_path / "store.db")
        ResultStore(tmp_path / "store.db")  # a second open copies nothing
        names = [r["run"] for r in history.load().records]
        assert names == ["older", "first", "second", "third"]

    def test_fresh_store_has_neither_run_table(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        assert _tables(store.path) == {
            "store_meta", "worst_case_records", "jobs",
        }

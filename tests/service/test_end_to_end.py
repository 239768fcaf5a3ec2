"""Service-vs-CLI parity, end to end with real campaign subprocesses.

The service's contract is that a submitted campaign IS the CLI
campaign: same seed in, same worst-case database bytes out.  These
tests run a real ``lot`` job through the default
:class:`SubprocessJobRunner` and hold the service's artifacts against a
direct in-process CLI run of the identical command.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.obs.history import RunHistory
from repro.service import JobManager, JobSpec, ServiceClient, serve_in_thread
from repro.store import ResultStore

WAIT = 120.0

SEED = 11
PARAMS = {"dies": 2, "tests": 2}


@pytest.fixture(scope="module")
def service_artifacts(tmp_path_factory):
    """Run real lot jobs through the full HTTP + subprocess stack.

    Two identical same-seed jobs: one followed by the polling
    :meth:`ServiceClient.wait`, one by the SSE
    :meth:`ServiceClient.wait_streaming` — the observability layer must
    leave their results byte-identical.
    """
    tmp_path = tmp_path_factory.mktemp("service-e2e")
    access_log = tmp_path / "access.jsonl"
    store = ResultStore(tmp_path / "store.db")
    manager = JobManager(store, tmp_path / "data", max_workers=1)
    manager.start()
    server, _ = serve_in_thread(manager, access_log=access_log)
    host, port = server.server_address[0], server.server_address[1]
    client = ServiceClient(f"http://{host}:{port}", timeout=WAIT)
    try:
        spec = JobSpec(command="lot", params=PARAMS, seed=SEED)
        job = client.submit(spec)
        job_id = str(job["job_id"])
        final = client.wait(job_id, timeout=WAIT, poll_s=0.1)
        log = client.log(job_id).decode("utf-8", "replace")
        assert final["state"] == "completed", f"job failed; log:\n{log}"

        streamed = client.submit(spec)
        streamed_id = str(streamed["job_id"])
        stream_events = []
        stream_final = client.wait_streaming(
            streamed_id, timeout=WAIT, on_event=stream_events.append
        )
        stream_log = client.log(streamed_id).decode("utf-8", "replace")
        assert stream_final["state"] == "completed", (
            f"streamed job failed; log:\n{stream_log}"
        )
        yield {
            "job_id": job_id,
            "wcdb": client.wcdb(job_id),
            "report": client.report(job_id).decode("utf-8"),
            "progress": client.job(job_id)["progress"],
            "store": store,
            "job_dir": str(final["job_dir"]),
            "streamed_id": streamed_id,
            "streamed_wcdb": client.wcdb(streamed_id),
            "streamed_job": stream_final,
            "streamed_job_dir": str(stream_final["job_dir"]),
            "stream_events": stream_events,
            "access_log": access_log,
        }
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()


@pytest.fixture(scope="module")
def direct_wcdb(tmp_path_factory):
    """The same campaign run directly through the CLI, in-process."""
    tmp_path = tmp_path_factory.mktemp("direct")
    target = tmp_path / "wcdb.json"
    assert main(
        ["--seed", str(SEED), "lot",
         "--dies", str(PARAMS["dies"]), "--tests", str(PARAMS["tests"]),
         "--database", str(target)]
    ) == 0
    return target.read_bytes()


class TestParity:
    def test_wcdb_bytes_identical_to_direct_cli_run(
        self, service_artifacts, direct_wcdb
    ):
        assert service_artifacts["wcdb"] == direct_wcdb

    def test_report_is_wellformed_and_matches_trace_render(
        self, service_artifacts
    ):
        from pathlib import Path

        from repro import obs

        html = service_artifacts["report"]
        # the same well-formedness gate CI applies to obs reports
        ET.fromstring(html)
        fold = obs.TraceFold()
        records = list(
            fold.read(Path(service_artifacts["job_dir"]) / "trace.jsonl")
        )
        rebuilt = obs.build_html_report(
            fold,
            records,
            title=f"Characterization job {service_artifacts['job_id']}",
        )
        assert html == rebuilt

    def test_progress_reflects_the_real_campaign(self, service_artifacts):
        progress = service_artifacts["progress"]
        assert progress["units_total"] == PARAMS["dies"]
        assert progress["units_done"] == PARAMS["dies"]
        assert progress["measurements"] > 0
        assert progress["phase"] is None  # campaign finished

    def test_sse_watched_job_wcdb_identical_to_polled_and_direct(
        self, service_artifacts, direct_wcdb
    ):
        # The observability layer must not perturb results: the job
        # followed over the SSE stream exports the same bytes as the
        # polled job and the direct CLI run.
        assert service_artifacts["streamed_wcdb"] == service_artifacts["wcdb"]
        assert service_artifacts["streamed_wcdb"] == direct_wcdb

    def test_stream_delivered_every_trace_event_in_order(
        self, service_artifacts
    ):
        from pathlib import Path

        trace_path = (
            Path(service_artifacts["streamed_job_dir"]) / "trace.jsonl"
        )
        lines = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        streamed = service_artifacts["stream_events"]
        assert [r["type"] for r in streamed] == [r["type"] for r in lines]

    def test_request_id_joins_access_log_store_row_and_trace(
        self, service_artifacts
    ):
        from pathlib import Path

        store = service_artifacts["store"]
        job_id = service_artifacts["streamed_id"]
        row = store.get_job(job_id)
        assert row is not None
        request_id = str(row["request_id"])
        assert request_id

        # ...the same id is on the access-log line that accepted the job...
        access_lines = [
            json.loads(line)
            for line in service_artifacts["access_log"]
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        submits = [
            rec
            for rec in access_lines
            if rec["route"] == "/jobs"
            and rec["method"] == "POST"
            and rec["job_id"] == job_id
        ]
        assert len(submits) == 1
        assert submits[0]["request_id"] == request_id
        assert submits[0]["status"] == 201

        # ...and inside the job's own trace, carried through the
        # subprocess environment as a request_context event.
        trace_path = (
            Path(service_artifacts["streamed_job_dir"]) / "trace.jsonl"
        )
        contexts = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
            and json.loads(line)["type"] == "request_context"
        ]
        assert len(contexts) == 1
        assert contexts[0]["request_id"] == request_id
        assert contexts[0]["job_id"] == job_id

    def test_results_are_folded_into_the_store(self, service_artifacts):
        store = service_artifacts["store"]
        job_id = service_artifacts["job_id"]
        # worst-case records are queryable under the job's scope...
        assert store.wc_record_count(scope=job_id) > 0
        exported = store.export_wcdb_payload(scope=job_id)
        served = json.loads(service_artifacts["wcdb"].decode("utf-8"))
        assert (
            {r["test_name"] for r in exported["records"]}
            == {r["test_name"] for r in served["records"]}
        )
        # ...and the job appended a run-cost record for obs compare
        record = RunHistory(store.history_path).find(job_id)
        assert record is not None
        assert record["measurements"] == service_artifacts["progress"][
            "measurements"
        ]

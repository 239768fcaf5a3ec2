"""Trace paging over HTTP: ``/events`` pages and the SSE tail.

Pins three behaviours of the line-offset cursor that both endpoints
share: a torn line is counted as ``malformed`` (not silently lost), a
live tail leaves an unterminated last line unconsumed until it is
whole, and a stream resumed from ``Last-Event-ID`` neither replays nor
skips an event.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.service import (
    JobManager,
    JobOutcome,
    JobSpec,
    ServiceClient,
    serve_in_thread,
)
from repro.store import ResultStore

WAIT = 10.0

EVENTS = [
    {"type": "campaign_phase", "phase": "probe", "status": "start"},
    {"type": "measurement", "test": "t1"},
    {"type": "measurement", "test": "t2"},
    {"type": "measurement", "test": "t3"},
    {"type": "campaign_phase", "phase": "probe", "status": "end"},
]


class FixedTraceRunner:
    """Writes ``text`` verbatim as the job's trace, then completes."""

    def __init__(self, text):
        self.text = text

    def run(self, job):
        Path(str(job["job_dir"]), "trace.jsonl").write_text(self.text)
        return JobOutcome(exit_code=0)


class TailingRunner:
    """Leaves the trace with a half-written last line until released."""

    def __init__(self):
        self.lines = [json.dumps(event) for event in EVENTS]
        self.partial_written = threading.Event()
        self.release = threading.Event()

    def run(self, job):
        third = self.lines[2]
        with Path(str(job["job_dir"]), "trace.jsonl").open("w") as handle:
            handle.write(self.lines[0] + "\n" + self.lines[1] + "\n")
            handle.write(third[:12])
            handle.flush()
            self.partial_written.set()
            self.release.wait(WAIT)
            handle.write(third[12:] + "\n")
            for line in self.lines[3:]:
                handle.write(line + "\n")
        return JobOutcome(exit_code=0)


@pytest.fixture
def serve(tmp_path):
    """Factory: ``serve(runner)`` -> client of a live server using it."""
    started = []

    def _serve(runner):
        store = ResultStore(tmp_path / "store.db")
        manager = JobManager(
            store, tmp_path / "data", max_workers=1, runner=runner
        )
        manager.start()
        server, _ = serve_in_thread(manager)
        started.append((server, manager))
        host, port = server.server_address[0], server.server_address[1]
        return ServiceClient(f"http://{host}:{port}", timeout=WAIT)

    yield _serve
    for server, manager in started:
        server.shutdown()
        server.server_close()
        manager.shutdown()


def _finished_job(client):
    job = client.submit(JobSpec(command="hunt"))
    job_id = str(job["job_id"])
    assert client.wait(job_id, timeout=WAIT, poll_s=0.02)["state"] == (
        "completed"
    )
    return job_id


def _lines(events):
    return "".join(json.dumps(event) + "\n" for event in events)


class TestEventsPageMalformed:
    def test_torn_final_line_is_counted_malformed(self, serve):
        torn = json.dumps(EVENTS[0])[:15]
        client = serve(FixedTraceRunner(_lines(EVENTS) + torn))
        job_id = _finished_job(client)

        page = client.events(job_id, offset=0, limit=100)
        assert page["events"] == EVENTS
        assert page["malformed"] == 1
        assert page["next_offset"] == len(EVENTS) + 1

        tail = client.events(job_id, offset=len(EVENTS) - 1, limit=100)
        assert tail["events"] == EVENTS[-1:]
        assert tail["malformed"] == 1
        assert tail["next_offset"] == len(EVENTS) + 1

    def test_pages_cover_every_line_once(self, serve):
        text = _lines(EVENTS[:2]) + "not json\n" + _lines(EVENTS[2:])
        client = serve(FixedTraceRunner(text))
        job_id = _finished_job(client)
        for limit in (1, 2, 3, 100):
            events, malformed, offset = [], 0, 0
            while True:
                page = client.events(job_id, offset=offset, limit=limit)
                if page["next_offset"] == offset:
                    break
                events.extend(page["events"])
                malformed += page["malformed"]
                offset = page["next_offset"]
            assert events == EVENTS
            assert malformed == 1
            assert offset == len(EVENTS) + 1


class TestStreamTail:
    def test_unterminated_last_line_waits_until_whole(self, serve):
        runner = TailingRunner()
        client = serve(runner)
        job_id = str(client.submit(JobSpec(command="hunt"))["job_id"])
        assert runner.partial_written.wait(WAIT)

        frames = client.stream(job_id)
        seen = []
        for name, frame_id, data in frames:
            seen.append((name, frame_id, data))
            if name == "progress":
                break
        # Only the two whole lines are consumed: the progress cursor
        # stops before the half-written third line.
        assert [(n, i) for n, i, _ in seen] == [
            ("trace", 1), ("trace", 2), ("progress", 2),
        ]
        assert seen[-1][2]["state"] == "running"

        runner.release.set()
        rest = list(frames)
        traces = [(i, d) for n, i, d in seen + rest if n == "trace"]
        assert traces == list(enumerate(EVENTS, start=1))
        assert rest[-1][0] == "end"
        assert rest[-1][2]["job"]["state"] == "completed"


class TestStreamResume:
    def test_resume_from_any_id_neither_replays_nor_skips(self, serve):
        text = _lines(EVENTS[:2]) + "{torn\n" + _lines(EVENTS[2:])
        client = serve(FixedTraceRunner(text))
        job_id = _finished_job(client)

        full = [
            (frame_id, data)
            for name, frame_id, data in client.stream(job_id)
            if name == "trace"
        ]
        assert [frame_id for frame_id, _ in full] == [1, 2, 4, 5, 6]
        assert [data for _, data in full] == EVENTS

        for cursor in range(0, len(EVENTS) + 2):
            resumed = [
                (frame_id, data)
                for name, frame_id, data in client.stream(
                    job_id, last_event_id=cursor
                )
                if name == "trace"
            ]
            expected = [(i, d) for i, d in full if i > cursor]
            assert resumed == expected, cursor

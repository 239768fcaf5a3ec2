"""Golden outputs: every ``repro obs`` view and job progress, byte for byte.

The traces under ``tests/obs/golden/`` are real runs kept small:

* ``serial.jsonl`` — a serial campaign emitting every decision event
  type (SUTP audit, NN votes and calibration, GA generations, WCR
  classes);
* ``profiled.jsonl`` — a ``--profile`` random run (profile and resource
  events);
* ``lot.jsonl`` — a 2-worker profiled lot (farm unit, merge and
  per-worker resource events);
* ``torn`` — the lot trace with a junk line spliced in and its tail cut
  mid-record, built here so it stays byte-stable.

``expected.json`` holds what each view printed when it was recorded:
the text itself for the small views, a SHA-256 digest for the HTML
report, the Perfetto timeline and the folded stacks.  Re-record it after
an intentional output change with::

    PYTHONPATH=src python -m tests.obs.test_golden_views --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from repro.cli import main
from repro.service import JobManager, JobOutcome, JobSpec, ServiceClient
from repro.service import job_progress, serve_in_thread
from repro.store import ResultStore

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"
FIXTURES = ("serial", "profiled", "lot", "torn")


def fixture_bytes(name: str) -> bytes:
    """The trace bytes of one golden fixture."""
    if name != "torn":
        return (GOLDEN / f"{name}.jsonl").read_bytes()
    lines = (GOLDEN / "lot.jsonl").read_bytes().splitlines(keepends=True)
    return (
        b"".join(lines[:10])
        + b"\xff\xfe\n42\n"
        + b"".join(lines[10:])[:-40]
    )


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _cli(argv, tmp: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit={code}\n" + out.getvalue().replace(str(tmp), "<tmp>")


def cli_views(trace: Path, tmp: Path) -> Dict[str, str]:
    """Every ``repro obs`` view of ``trace``, as recorded text."""
    t = str(trace)
    views = {
        "summary": _cli(["obs", "summary", t], tmp),
        "summary_json": _cli(["obs", "summary", t, "--json"], tmp),
        "slowest": _cli(["obs", "slowest", t, "-n", "5"], tmp),
        "insight": _cli(["obs", "insight", t], tmp),
        "profile": _cli(["obs", "profile", t, "-n", "5"], tmp),
        "profile_json": _cli(["obs", "profile", t, "--json"], tmp),
    }
    report, timeline, folded = (
        tmp / "report.html", tmp / "timeline.json", tmp / "stacks.folded"
    )
    views["report"] = _cli(["obs", "report", t, str(report)], tmp)
    views["report_html"] = _digest(report.read_bytes())
    views["timeline"] = _cli(["obs", "timeline", t, "-o", str(timeline)], tmp)
    views["timeline_json"] = _digest(timeline.read_bytes())
    views["flame"] = _cli(["obs", "flame", t, str(folded)], tmp)
    views["flame_folded"] = _digest(folded.read_bytes())
    views["job_progress"] = json.dumps(job_progress(trace), sort_keys=True)
    return views


class _FixedTraceRunner:
    """Writes a fixed trace as the job's trace, then completes."""

    def __init__(self, data: bytes):
        self.data = data

    def run(self, job):
        Path(str(job["job_dir"]), "trace.jsonl").write_bytes(self.data)
        return JobOutcome(exit_code=0)


def service_views(data: bytes, tmp: Path) -> Dict[str, str]:
    """``GET /jobs/{id}`` progress, SSE progress frames and the report."""
    store = ResultStore(tmp / "store.db")
    manager = JobManager(
        store, tmp / "data", max_workers=1, runner=_FixedTraceRunner(data)
    )
    manager.start()
    server, _ = serve_in_thread(manager)
    try:
        host, port = server.server_address[0], server.server_address[1]
        client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
        job_id = str(client.submit(JobSpec(command="hunt"))["job_id"])
        assert client.wait(job_id, timeout=10.0, poll_s=0.02)["state"] == (
            "completed"
        )
        middle = data.count(b"\n") // 2
        frames = []
        for cursor in (None, middle):
            for name, frame_id, payload in client.stream(
                job_id, last_event_id=cursor
            ):
                if name == "progress":
                    frames.append([frame_id, payload])
        return {
            "job_row_progress": json.dumps(
                client.job(job_id)["progress"], sort_keys=True
            ),
            "sse_progress": json.dumps(frames, sort_keys=True),
            "served_report_html": _digest(client.report(job_id)),
        }
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()


def record_views(name: str, tmp: Path) -> Dict[str, str]:
    """All recorded views of one fixture."""
    trace = tmp / f"{name}.jsonl"
    trace.write_bytes(fixture_bytes(name))
    views = cli_views(trace, tmp)
    service_tmp = tmp / "service"
    service_tmp.mkdir()
    views.update(service_views(fixture_bytes(name), service_tmp))
    return views


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", FIXTURES)
def test_views_match_golden(name, tmp_path, expected):
    assert record_views(name, tmp_path) == expected[name]


def test_fixtures_stay_small():
    total = sum(p.stat().st_size for p in GOLDEN.glob("*.jsonl"))
    assert total < 400_000


if __name__ == "__main__" and "--record" in sys.argv:
    recorded = {}
    for fixture in FIXTURES:
        with tempfile.TemporaryDirectory() as scratch:
            recorded[fixture] = record_views(fixture, Path(scratch))
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} fixture(s) into {EXPECTED}")

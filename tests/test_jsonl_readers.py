"""Every JSONL reader survives arbitrary bytes between valid records.

Traces, the run history, farm checkpoints and the broker's result spool
are all read through :func:`repro.ioutil.iter_jsonl`.  Whatever lands
between two valid records — a torn write, a stray byte that is not
UTF-8, valid JSON that is not an object — each reader must recover every
valid record and either count the bad lines or raise only its own typed
error.  ``UnicodeDecodeError``, ``AttributeError`` and ``KeyError`` are
never acceptable.
"""

import base64
import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.farm.checkpoint import CheckpointMismatch, CheckpointStore
from repro.farm.remote.broker import ResultSpool
from repro.ioutil import iter_jsonl
from repro.obs.history import RUN_KIND, RUN_SCHEMA, RunHistory
from repro.obs.report import load_trace, read_trace
from repro.service.progress import job_progress, read_events_page

#: ``None`` marks a slot for a valid record; bytes are written verbatim.
PARTS = st.lists(st.one_of(st.none(), st.binary(max_size=24)), max_size=12)
TORN = [b"\xff\xfe", None, b"42", None, b"[1,2]", b'"x"', b"{\"ty", None]


def _file_bytes(parts, valid_line, header=b""):
    """The file, and the valid records in order."""
    chunks, valid = [header], []
    for index, part in enumerate(parts):
        if part is None:
            record = valid_line(index)
            valid.append(record)
            part = json.dumps(record, sort_keys=True).encode("ascii")
        chunks.append(part + b"\n")
    return b"".join(chunks), valid


def _nonblank_lines(data):
    return sum(
        1 for raw in data.split(b"\n")
        if raw.decode("utf-8", "replace").strip()
    )


def _is_subsequence(needles, haystack):
    it = iter(haystack)
    return all(any(needle == item for item in it) for needle in needles)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file, rewritten by every example."""
    path = tmp_path_factory.mktemp("jsonl") / "file.jsonl"

    def write(data):
        path.write_bytes(data)
        return path

    return write


def _event(index):
    return {"type": "measurement", "test_name": f"t{index}", "index": index}


class TestIterJsonl:
    @settings(max_examples=200, deadline=None)
    @given(PARTS, st.booleans())
    @example(TORN, False)
    def test_every_nonblank_line_yields_once(self, scratch, parts, terminated):
        data, valid = _file_bytes(parts, _event)
        if not terminated:
            data = data.rstrip(b"\n")
        path = scratch(data)
        pairs = list(iter_jsonl(path))
        assert len(pairs) == _nonblank_lines(data)
        numbers = [number for number, _ in pairs]
        assert numbers == sorted(set(numbers))
        records = [record for _, record in pairs if record is not None]
        assert all(isinstance(record, dict) for record in records)
        assert _is_subsequence(valid, records)

    def test_paging_and_complete_lines_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"a": 1}\n\n[2]\n{"a": 3}\n{"a": 4')
        assert list(iter_jsonl(path)) == [
            (1, {"a": 1}), (3, None), (4, {"a": 3}), (5, None),
        ]
        assert list(iter_jsonl(path, offset=1, limit=2)) == [
            (3, None), (4, {"a": 3}),
        ]
        assert list(iter_jsonl(path, offset=3, complete_lines_only=True)) == [
            (4, {"a": 3}),
        ]
        assert list(iter_jsonl(path, limit=0)) == []

    def test_nesting_too_deep_to_decode_is_a_bad_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"[" * 100_000 + b'\n{"a": 1}\n')
        assert list(iter_jsonl(path)) == [(1, None), (2, {"a": 1})]


class TestTraceReaders:
    @settings(max_examples=150, deadline=None)
    @given(PARTS)
    @example(TORN)
    def test_load_trace_recovers_and_counts(self, scratch, parts):
        data, valid = _file_bytes(parts, _event)
        loaded = load_trace(scratch(data))
        assert _is_subsequence(valid, loaded.records)
        assert len(loaded.records) + loaded.dropped_lines == (
            _nonblank_lines(data)
        )

    @settings(max_examples=150, deadline=None)
    @given(PARTS)
    @example(TORN)
    def test_read_trace_returns_or_raises_value_error(self, scratch, parts):
        data, valid = _file_bytes(parts, _event)
        try:
            records = read_trace(scratch(data))
        except ValueError as exc:
            assert not isinstance(exc, UnicodeDecodeError)
            assert str(exc).startswith("trace line ")
        else:
            assert _is_subsequence(valid, records)
            assert len(records) == _nonblank_lines(data)

    @settings(max_examples=150, deadline=None)
    @given(PARTS)
    @example(TORN)
    def test_job_progress_counts_every_valid_event(self, scratch, parts):
        data, valid = _file_bytes(parts, _event)
        progress = job_progress(scratch(data))
        assert progress["measurements"] >= len(valid)
        assert progress["events"] <= _nonblank_lines(data)

    @settings(max_examples=150, deadline=None)
    @given(PARTS, st.integers(1, 4), st.booleans())
    @example(TORN, 1, True)
    def test_event_pages_cover_every_line(
        self, scratch, parts, limit, complete_lines_only
    ):
        data, valid = _file_bytes(parts, _event)
        in_flight = _event(len(parts))
        path = scratch(data + json.dumps(in_flight).encode("ascii"))
        events, malformed, offset = [], 0, 0
        while True:
            numbered, next_offset, bad = read_events_page(
                path, offset=offset, limit=limit,
                complete_lines_only=complete_lines_only,
            )
            if next_offset == offset:
                break
            events.extend(record for _, record in numbered)
            malformed += bad
            offset = next_offset
        lines = _nonblank_lines(data)
        if not complete_lines_only:
            valid, lines = valid + [in_flight], lines + 1
        assert _is_subsequence(valid, events)
        assert (in_flight in events) is not complete_lines_only
        assert len(events) + malformed == lines


class TestStoreReaders:
    @settings(max_examples=150, deadline=None)
    @given(PARTS)
    @example(TORN)
    def test_spool_recovers_and_counts(self, scratch, parts):
        header = {"schema": 1, "kind": "repro.farm.remote.spool",
                  "campaign": "c"}
        data, valid = _file_bytes(
            parts,
            lambda index: {"key": f"u{index}", "outcome": "AAAA"},
            header=json.dumps(header).encode("ascii") + b"\n",
        )
        results, dropped = ResultSpool(scratch(data), "c").load()
        for record in valid:
            assert results[record["key"]] == record
        assert len(results) + dropped + 1 == _nonblank_lines(data)

    @settings(max_examples=150, deadline=None)
    @given(PARTS)
    @example(TORN)
    def test_checkpoint_recovers_and_counts(self, scratch, parts):
        header = {"schema": 1, "kind": "repro.farm.checkpoint",
                  "campaign": "c"}

        def result_line(index):
            return {
                "unit": f"d{index}", "index": index, "measurements": 3,
                "value_b64": base64.b64encode(
                    pickle.dumps(index)
                ).decode("ascii"),
            }

        data, valid = _file_bytes(
            parts, result_line,
            header=json.dumps(header).encode("ascii") + b"\n",
        )
        obs.enable(obs.RingBufferSink())
        try:
            results = CheckpointStore(scratch(data), campaign="c").load()
        except CheckpointMismatch:
            return
        finally:
            counter = obs.OBS.metrics.counters.get(
                "farm.checkpoint.dropped_lines"
            )
            obs.reset()
        for record in valid:
            assert results[record["unit"]].value == record["index"]
        dropped = counter.value if counter is not None else 0
        assert len(results) + dropped + 1 == _nonblank_lines(data)

    @settings(max_examples=150, deadline=None)
    @given(PARTS)
    @example(TORN)
    def test_history_recovers_and_counts(self, scratch, parts):
        data, valid = _file_bytes(
            parts,
            lambda index: {"kind": RUN_KIND, "schema": RUN_SCHEMA,
                           "run": f"r{index}"},
        )
        loaded = RunHistory(scratch(data)).load()
        assert _is_subsequence(valid, loaded.records)
        assert len(loaded.records) + loaded.dropped_lines == (
            _nonblank_lines(data)
        )

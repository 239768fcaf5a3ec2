"""Tests for the JSONL checkpoint store."""

import json

import pytest

from repro.farm.checkpoint import CheckpointMismatch, CheckpointStore
from repro.farm.workunit import WorkResult


def _result(key, index=0, value=None):
    return WorkResult(
        unit_key=key, index=index,
        value=value if value is not None else {"k": key},
        measurements=11, rtp=31.5, attempts=2, elapsed_s=0.125,
        worker="worker-1",
    )


class TestRoundTrip:
    def test_record_then_load(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path, campaign="c1") as store:
            store.record(_result("die/0000", 0))
            store.record(_result("die/0001", 1))
        loaded = CheckpointStore(path, campaign="c1").load()
        assert set(loaded) == {"die/0000", "die/0001"}
        result = loaded["die/0001"]
        assert result.index == 1
        assert result.value == {"k": "die/0001"}
        assert result.measurements == 11
        assert result.rtp == 31.5
        assert result.attempts == 2
        assert result.from_checkpoint is True

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        store = CheckpointStore(path, campaign="c1")
        store.record(_result("a"))
        store.close()
        reopened = CheckpointStore(path, campaign="c1")
        reopened.record(_result("b"))
        reopened.close()
        lines = path.read_text().splitlines()
        headers = [l for l in lines if '"repro.farm.checkpoint"' in l]
        assert len(headers) == 1
        assert len(lines) == 3

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.jsonl").load() == {}

    def test_completed_keys(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path) as store:
            store.record(_result("a"))
        assert set(CheckpointStore(path).load()) == {"a"}


class TestRobustness:
    def test_truncated_final_line_dropped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path, campaign="c1") as store:
            store.record(_result("a", 0))
            store.record(_result("b", 1))
        # Simulate a kill mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 40])
        loaded = CheckpointStore(path, campaign="c1").load()
        assert set(loaded) == {"a"}

    def test_campaign_mismatch_raises(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path, campaign="lot:seed=1") as store:
            store.record(_result("a"))
        with pytest.raises(CheckpointMismatch):
            CheckpointStore(path, campaign="lot:seed=2").load()

    def test_empty_campaign_accepts_anything(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path, campaign="lot:seed=1") as store:
            store.record(_result("a"))
        assert set(CheckpointStore(path).load()) == {"a"}

    def test_undecodable_value_dropped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path) as store:
            store.record(_result("good"))
        with path.open("a") as handle:
            handle.write(json.dumps({"unit": "bad", "index": 0,
                                     "value_b64": "!!!"}) + "\n")
        assert set(CheckpointStore(path).load()) == {"good"}


class TestDroppedLineTelemetry:
    def _corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path) as store:
            store.record(_result("good"))
        with path.open("a") as handle:
            handle.write("{broken json\n")
            handle.write(json.dumps({"unit": "bad", "index": 0,
                                     "value_b64": "!!!"}) + "\n")
        return path

    def test_dropped_lines_counted_and_announced(self, tmp_path):
        from repro import obs

        path = self._corrupt_checkpoint(tmp_path)
        sink = obs.RingBufferSink()
        obs.enable(sink)
        try:
            loaded = CheckpointStore(path).load()
        finally:
            counter = obs.OBS.metrics.counters.get(
                "farm.checkpoint.dropped_lines"
            )
            events = sink.of_type("farm_checkpoint_dropped")
            obs.reset()
        assert set(loaded) == {"good"}
        assert counter is not None and counter.value == 2
        assert len(events) == 1
        assert events[0]["path"] == str(path)
        assert events[0]["lines"] == 2

    def test_no_telemetry_when_disabled(self, tmp_path):
        from repro import obs

        path = self._corrupt_checkpoint(tmp_path)
        assert not obs.OBS.enabled
        assert set(CheckpointStore(path).load()) == {"good"}
        assert "farm.checkpoint.dropped_lines" not in obs.OBS.metrics.counters


class TestNonObjectLines:
    def test_valid_json_that_is_not_an_object_is_dropped(self, tmp_path):
        from repro import obs

        path = tmp_path / "ckpt.jsonl"
        with CheckpointStore(path, campaign="c1") as store:
            store.record(_result("a", 0))
        with path.open("a") as handle:
            handle.write('42\n[1,2]\n"x"\n')
        with CheckpointStore(path, campaign="c1") as store:
            store.record(_result("b", 1))
        sink = obs.RingBufferSink()
        obs.enable(sink)
        try:
            loaded = CheckpointStore(path, campaign="c1").load()
        finally:
            counter = obs.OBS.metrics.counters.get(
                "farm.checkpoint.dropped_lines"
            )
            events = sink.of_type("farm_checkpoint_dropped")
            obs.reset()
        assert set(loaded) == {"a", "b"}
        assert counter is not None and counter.value == 3
        assert [event["lines"] for event in events] == [3]

"""CLI smoke tests for --trace / --metrics / -v."""

import logging

from repro import obs
from repro.cli import main
from repro.obs.report import TraceFold


class TestCLITelemetry:
    def test_metrics_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "--seed",
                "3",
                "--metrics",
                "--trace",
                str(trace),
                "random",
                "--tests",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "ate.measurements" in out
        assert f"telemetry trace written: {trace}" in out

        fold = TraceFold.load(trace)
        assert fold.events, "trace should not be empty"
        assert fold.dropped_lines == 0
        assert "measurement" in fold.counts
        assert len(fold.groups) == 8  # one group per random test

    def test_flags_accepted_after_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(
            ["random", "--tests", "5", "--metrics", "--trace", str(trace)]
        )
        assert code == 0
        assert trace.exists()
        assert "telemetry summary" in capsys.readouterr().out

    def test_verbose_enables_logging_sink(self, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            code = main(["-v", "random", "--tests", "3"])
        assert code == 0
        assert any(
            r.name == "repro.obs" and "search_converged" in r.getMessage()
            for r in caplog.records
        )

    def test_bad_trace_path_is_a_clean_error(self):
        import pytest

        with pytest.raises(SystemExit, match="cannot open trace file"):
            main(["--trace", "/nonexistent/dir/t.jsonl", "random", "--tests", "1"])
        assert not obs.OBS.enabled

    def test_no_flags_leaves_telemetry_off(self, capsys):
        code = main(["random", "--tests", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry summary" not in out
        assert not obs.OBS.enabled
        assert not obs.OBS.metrics.counters

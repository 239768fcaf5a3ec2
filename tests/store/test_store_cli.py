"""CLI surfaces around the result store: the wcdb export the service
ingests, and the run-history flags that read ``runs.jsonl`` only."""

import json

import pytest

from repro.cli import _build_parser, main


class TestRemovedStoreSurfaces:
    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "runs", "--db", "x.db"],
            ["store", "import", "--db", "x.db", "runs.jsonl"],
            ["obs", "compare", "--db", "x.db", "--baseline", "b"],
            ["obs", "compare", "runs.jsonl", "--db", "x.db",
             "--baseline", "b"],
            ["obs", "bench-import", "runs.jsonl", "B.json", "--db", "x.db"],
            ["obs", "report", "trace.jsonl", "--db", "x.db"],
        ],
        ids=[
            "store-runs", "store-import", "compare-db-only",
            "compare-runs-and-db", "bench-import-db", "report-db",
        ],
    )
    def test_is_an_argparse_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no database was created

    def test_store_paths_of_serve_and_alerts_remain(self):
        parser = _build_parser()
        assert parser.parse_args(["serve", "--db", "s.db"]).db == "s.db"
        assert parser.parse_args(
            ["obs", "alerts", "--db", "s.db"]
        ).db == "s.db"


class TestLotDatabaseExport:
    def test_export_matches_report_database(self, tmp_path, capsys):
        target = tmp_path / "wcdb.json"
        assert main(
            ["--seed", "5", "lot", "--dies", "2", "--tests", "3",
             "--database", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case database exported" in out
        payload = json.loads(target.read_text())
        assert payload["records"]  # every die contributes worst cases
        for record in payload["records"]:
            assert set(record) >= {"test_name", "condition", "wcr"}

    def test_same_seed_same_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            assert main(
                ["--seed", "5", "lot", "--dies", "2", "--tests", "2",
                 "--database", str(target)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()

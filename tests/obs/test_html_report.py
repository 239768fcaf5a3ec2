"""The self-contained HTML run report and its ``repro obs report`` CLI.

The report's contract: one file, no scripts, no external assets, and
XML-well-formed after the doctype line (CI parses it with
``xml.etree.ElementTree``).
"""

import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.obs.html import build_html_report
from repro.obs.report import TraceFold

GA_RECORDS = [
    {"type": "ga_generation", "generation": g, "best_fitness": 0.5 + 0.05 * g,
     "mean_fitness": 0.4 + 0.05 * g, "evaluations": 10, "restarts": 0,
     "std_fitness": 0.05, "sequence_diversity": 0.8 - 0.1 * g,
     "condition_diversity": 0.2, "best_operator": "crossover"}
    for g in range(1, 4)
]

WCR_RECORDS = [
    {"type": "wcr_classified", "test_name": "a", "technique": "nnga",
     "wcr": 0.9, "wcr_class": "weakness", "value": 28.0},
    {"type": "wcr_classified", "test_name": "b", "technique": "random",
     "wcr": 0.7, "wcr_class": "pass", "value": 30.1},
]

MEASUREMENTS = [
    {"type": "measurement", "index": i, "test_name": f"t{i % 3}",
     "strobe_ns": 20.0 + 0.5 * (i % 20), "passed": i % 4 != 0}
    for i in range(60)
]


def report(records, **kwargs):
    """The HTML report of in-memory trace records."""
    return build_html_report(TraceFold.of(records), records, **kwargs)


def parse_report(text):
    """ElementTree parse after stripping the doctype line."""
    assert text.startswith("<!DOCTYPE html>\n")
    return ET.fromstring(text.split("\n", 1)[1])


class TestBuildHtmlReport:
    def test_empty_trace_is_still_a_complete_document(self):
        text = report([])
        root = parse_report(text)
        assert root.tag == "html"
        assert "Characterization run report" in text

    def test_sections_render_from_records(self):
        records = MEASUREMENTS + GA_RECORDS + WCR_RECORDS
        runs = [
            {"run": "r1", "campaign": "lot", "wall_s": 1.5, "workers": 1,
             "measurements": 60, "farm_units": 0, "farm_retries": 0},
        ]
        text = report(records, runs=runs, title="Smoke")
        parse_report(text)
        assert "<title>Smoke</title>" in text
        assert "Shmoo (pass fraction)" in text
        assert "GA convergence (fig. 5)" in text
        assert "WCR classification (fig. 6)" in text
        assert "Run history" in text
        assert "60 tester measurement(s)" in text
        # Charts are inline SVG with accessible labels.
        assert "<svg" in text
        assert "aria-label=" in text

    def test_self_contained_no_scripts_no_external_assets(self):
        text = report(MEASUREMENTS + GA_RECORDS)
        lowered = text.lower()
        assert "<script" not in lowered
        assert "<link" not in lowered
        assert "@import" not in lowered
        assert " src=" not in lowered
        assert " href=" not in lowered
        # The only URL is the SVG namespace identifier, never a fetch.
        assert lowered.count("http://") == lowered.count(
            'xmlns="http://www.w3.org/2000/svg"'
        )
        assert "https://" not in lowered

    def test_dark_mode_and_tooltips_present(self):
        text = report(MEASUREMENTS + GA_RECORDS)
        assert "prefers-color-scheme: dark" in text
        assert "<title>" in text.split("</head>")[1]  # SVG tooltips

    def test_title_is_escaped(self):
        text = report([], title='<b>&"x"')
        parse_report(text)
        assert "&lt;b&gt;&amp;&quot;x&quot;" in text


class TestObsReportCLI:
    @pytest.fixture
    def lot_trace(self, tmp_path, capsys):
        trace = tmp_path / "lot.jsonl"
        runs = tmp_path / "runs.jsonl"
        assert main(
            ["--trace", str(trace), "--run-log", str(runs),
             "lot", "--dies", "2", "--tests", "2"]
        ) == 0
        capsys.readouterr()
        return trace, runs

    def test_report_written_and_well_formed(
        self, lot_trace, tmp_path, capsys
    ):
        trace, runs = lot_trace
        out = tmp_path / "out.html"
        code = main(
            ["obs", "report", str(trace), str(out), "--runs", str(runs)]
        )
        assert code == 0
        message = capsys.readouterr().out
        assert f"report written: {out}" in message
        assert "decision event(s)" in message
        text = out.read_text()
        parse_report(text)
        # Lot runs carry SUTP decision events into the audit section.
        assert "SUTP search audit (eqs. 3/4)" in text
        assert "Run history" in text
        fold = TraceFold.load(trace)
        assert fold.dropped_lines == 0
        assert f"{fold.events} trace event(s)" in text

    def test_default_output_path_appends_html(self, lot_trace, capsys):
        trace, _ = lot_trace
        assert main(["obs", "report", str(trace)]) == 0
        capsys.readouterr()
        default = trace.parent / (trace.name + ".html")
        assert default.exists()
        parse_report(default.read_text())

    def test_custom_title_flows_through(self, lot_trace, tmp_path, capsys):
        trace, _ = lot_trace
        out = tmp_path / "titled.html"
        assert main(
            ["obs", "report", str(trace), str(out), "--title", "Lot 42"]
        ) == 0
        capsys.readouterr()
        assert "<title>Lot 42</title>" in out.read_text()

    def test_missing_trace_is_clean_error(self, tmp_path, capsys):
        code = main(["obs", "report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_runs_file_is_an_error(
        self, lot_trace, tmp_path, capsys
    ):
        # RunHistory.load() reads a missing file as an empty history,
        # but a mistyped --runs path must not render "no history
        # supplied" and exit 0.
        trace, _ = lot_trace
        out = tmp_path / "no-runs.html"
        code = main(
            ["obs", "report", str(trace), str(out),
             "--runs", str(tmp_path / "absent-runs.jsonl")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read run history: ")
        assert "absent-runs.jsonl" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

"""Tests for the metrics summary, the trace fold and its text views."""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import render_worker_utilization, worker_utilization
from repro.obs.report import (
    TraceFold,
    render_metrics_summary,
    render_slowest,
    render_trace_cost_profile,
    render_trace_summary,
    trace_summary_data,
)
from repro.service.progress import job_progress


def measurement_record(name):
    return {"type": "measurement", "test_name": name, "passed": True}


class TestMetricsSummary:
    def test_empty_registry(self):
        text = render_metrics_summary(MetricsRegistry())
        assert "(no telemetry recorded)" in text

    def test_counters_with_labels(self):
        registry = MetricsRegistry()
        registry.counter("ate.measurements").inc(10, label="march_c-")
        registry.counter("ate.measurements").inc(4, label="rnd_0")
        registry.counter("sutp.fallbacks")
        text = render_metrics_summary(registry)
        assert "ate.measurements" in text
        assert "14" in text
        assert "march_c-" in text
        assert "sutp.fallbacks" in text  # explicit zero

    def test_label_overflow_elided(self):
        registry = MetricsRegistry()
        for i in range(20):
            registry.counter("c").inc(label=f"t{i:02d}")
        text = render_metrics_summary(registry, max_labels=5)
        assert "... 15 more label(s)" in text

    def test_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.gauge("nn.val_accuracy").set(0.9375)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("sutp.walk_iterations").observe(value)
        text = render_metrics_summary(registry)
        assert "0.9375" in text
        assert "sutp.walk_iterations" in text


class TestCostProfile:
    def test_consecutive_grouping(self):
        records = [
            measurement_record("a"),
            measurement_record("a"),
            measurement_record("b"),
            {"type": "ga_generation", "generation": 1},
            measurement_record("a"),  # re-measured later: new group
        ]
        assert TraceFold.of(records).groups == [
            ("a", 2),
            ("b", 1),
            ("a", 1),
        ]

    def test_profile_render(self):
        records = [measurement_record("a")] * 5 + [measurement_record("b")] * 2
        text = render_trace_cost_profile(TraceFold.of(records))
        assert "total: 7 measurements over 2 test group(s)" in text
        assert "#####" in text

    def test_profile_truncates_long_campaigns(self):
        records = []
        for i in range(10):
            records.append(measurement_record(f"t{i}"))
        text = render_trace_cost_profile(TraceFold.of(records), max_tests=4)
        assert "... 6 more test(s), 6 measurement(s)" in text

    def test_profile_empty(self):
        assert "no measurement events" in render_trace_cost_profile(
            TraceFold()
        )


#: The event types whose fields the fold coerces, and those fields.
FOLDED_TYPES = (
    "measurement",
    "farm_run_started",
    "farm_unit_completed",
    "farm_unit_merged",
    "farm_checkpoint_dropped",
    "resource_sample",
    "campaign_phase",
    "profile",
)
FOLDED_FIELDS = (
    "test_name", "key", "attempt", "elapsed_s", "measurements", "worker",
    "ts", "units", "dropped_events", "lines", "cpu_user_s", "cpu_system_s",
    "max_rss_kb", "rss_kb", "phase", "status", "mode", "unit", "truncated",
    "folded",
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
EVENTS = st.builds(
    lambda kind, fields: {"type": kind, **fields},
    st.sampled_from(FOLDED_TYPES),
    st.dictionaries(st.sampled_from(FOLDED_FIELDS), JSON_VALUES, max_size=6),
)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestTraceFold:
    def test_wrong_typed_unit_is_a_malformed_line(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        good = {"type": "farm_unit_completed", "key": "u0", "elapsed_s": 1.5}
        bad = {"type": "farm_unit_completed", "key": "u1", "elapsed_s": "x"}
        trace.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        fold = TraceFold.load(trace)
        assert (fold.events, fold.dropped_lines) == (1, 1)
        assert list(fold.units) == ["u0"]
        code, out = _cli(["obs", "summary", str(trace)])
        assert code == 0
        assert "(1 malformed line(s) skipped)" in out
        code, out = _cli(["obs", "slowest", str(trace)])
        assert code == 0 and "u1" not in out

    def test_rejected_record_leaves_no_key(self):
        fold = TraceFold.of([{"type": "farm_run_started", "units": "4x"}])
        assert fold.dropped_lines == 1
        assert fold.counts == {} and fold.units_total == 0
        assert fold.progress() == TraceFold().progress()

    def test_unknown_types_are_kept_and_tallied(self):
        fold = TraceFold.of(
            [{"type": "from_the_future", "x": 1}, None, {"no_type": 1}]
        )
        assert fold.events == 1
        assert fold.dropped_lines == 2
        assert fold.unknown_types == {"from_the_future": 1}

    def test_no_measurement_or_walk_records_are_kept(self):
        records = [
            {"type": "measurement", "test_name": "a"},
            {"type": "sutp_walk_step", "iteration": 1},
        ] * 50
        fold = TraceFold.of(records)
        assert fold.groups == [("a", 50)]
        assert fold.decision_count == 0 and fold.profiles == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(EVENTS, min_size=1, max_size=6))
    @example([{"type": "resource_sample", "max_rss_kb": 10**400}])
    def test_wrong_typed_fields_never_raise(self, events):
        """Every fold-backed view survives arbitrary field values."""
        lines = [json.dumps(event) for event in events]
        fold = TraceFold.of(json.loads(line) for line in lines)
        assert fold.events + fold.dropped_lines == len(events)
        render_trace_summary(fold)
        json.dumps(trace_summary_data(fold), sort_keys=True)
        render_slowest(fold)
        render_worker_utilization(worker_utilization(fold))
        # The SSE handler folds the same records and frames this dict.
        json.dumps(fold.progress(), sort_keys=True)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(EVENTS, min_size=1, max_size=4))
    def test_wrong_typed_fields_never_fail_the_cli(
        self, tmp_path_factory, events
    ):
        trace = tmp_path_factory.mktemp("fold") / "t.jsonl"
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        for argv in (
            ["obs", "summary", str(trace)],
            ["obs", "summary", str(trace), "--json"],
            ["obs", "slowest", str(trace)],
        ):
            assert _cli(argv)[0] == 0
        json.dumps(job_progress(trace), sort_keys=True)

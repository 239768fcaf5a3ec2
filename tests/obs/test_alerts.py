"""Alert-rule grammar, evaluation semantics, and store synthesis."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.alerts import (
    DEFAULT_RULES,
    AlertRuleError,
    evaluate_rules,
    parse_rule,
    render_results,
    store_samples,
    worst_level,
)
from repro.obs.exposition import ExpositionError, Sample, parse_exposition


class TestParseRule:
    def test_simple_rule(self):
        rule = parse_rule("repro_jobs_queue_depth >= 10")
        assert rule.metric == "repro_jobs_queue_depth"
        assert rule.op == ">="
        assert rule.warn == 10.0
        assert rule.crit is None
        assert rule.labels == {}
        assert rule.required is True

    def test_warn_and_crit(self):
        rule = parse_rule("x > 1:5")
        assert (rule.warn, rule.crit) == (1.0, 5.0)

    def test_labels(self):
        rule = parse_rule('latency{quantile="0.95"} >= 2:10')
        assert rule.labels == {"quantile": "0.95"}

    def test_whitespace_is_optional(self):
        assert parse_rule("x>=1").warn == 1.0
        assert parse_rule("  x  <=  1.5  ").op == "<="

    def test_all_operators(self):
        for op in (">=", "<=", ">", "<"):
            assert parse_rule(f"x {op} 1").op == op

    def test_describe_round_trips_through_parse(self):
        rule = parse_rule('latency{quantile="0.95"} >= 2.0:10.0')
        assert parse_rule(rule.describe()) == rule

    def test_rejects_garbage(self):
        for bad in ("", "x", "x == 1", "x >=", "x >= one", "1x >= 2"):
            with pytest.raises(AlertRuleError):
                parse_rule(bad)

    def test_rejects_crit_less_strict_than_warn(self):
        with pytest.raises(AlertRuleError, match="at least as strict"):
            parse_rule("x >= 10:5")
        with pytest.raises(AlertRuleError, match="at least as strict"):
            parse_rule("x <= 5:10")

    def test_crit_equal_to_warn_is_allowed(self):
        assert parse_rule("x >= 5:5").crit == 5.0


class TestEvaluateRules:
    def test_levels_escalate_with_the_value(self):
        rule = parse_rule("depth >= 10:50")
        for value, level in ((9.0, "ok"), (10.0, "warning"), (50.0, "critical")):
            results = evaluate_rules([Sample("depth", value)], [rule])
            assert [r.level for r in results] == [level]

    def test_missing_metric_warns_when_required(self):
        results = evaluate_rules([], [parse_rule("absent >= 1")])
        assert len(results) == 1
        assert results[0].level == "warning"
        assert results[0].value is None
        assert "not found" in results[0].message

    def test_missing_metric_skips_silently_when_not_required(self):
        rule = parse_rule("absent >= 1", required=False)
        assert evaluate_rules([], [rule]) == []

    def test_nan_never_breaches(self):
        rule = parse_rule("latency >= 0")
        results = evaluate_rules(
            [Sample("latency", float("nan"))], [rule]
        )
        assert results[0].level == "ok"
        assert math.isnan(results[0].value)

    def test_labels_select_the_sample(self):
        samples = [
            Sample("latency", 0.1, {"quantile": "0.5"}),
            Sample("latency", 99.0, {"quantile": "0.95"}),
        ]
        rule = parse_rule('latency{quantile="0.95"} >= 2')
        results = evaluate_rules(samples, [rule])
        assert results[0].level == "warning"
        assert results[0].value == 99.0

    def test_default_rules_ok_on_a_healthy_exposition(self):
        samples = parse_exposition(
            "repro_jobs_queue_depth 0\nrepro_jobs_failure_rate 0\n"
        )
        results = evaluate_rules(samples, DEFAULT_RULES)
        assert worst_level(results) == 0
        # absent defaults (HTTP latency etc.) were dropped, not warned
        assert len(results) == 2


class TestWorstLevelAndRendering:
    def test_worst_level_is_the_exit_code(self):
        rule = parse_rule("x >= 1:2")
        assert worst_level(evaluate_rules([Sample("x", 0.0)], [rule])) == 0
        assert worst_level(evaluate_rules([Sample("x", 1.0)], [rule])) == 1
        assert worst_level(evaluate_rules([Sample("x", 2.0)], [rule])) == 2
        assert worst_level([]) == 0

    def test_render_results_one_line_per_rule(self):
        rule = parse_rule("x >= 1:2")
        text = render_results(evaluate_rules([Sample("x", 5.0)], [rule]))
        assert text.startswith("CRITICAL")
        assert "x >= 1.0:2.0" in text
        assert "value 5" in text

    def test_render_results_empty(self):
        assert "no rules evaluated" in render_results([])


class TestStoreSamples:
    def _store(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store.db")
        # create_job stamps created_ts with the wall clock, so anchor
        # the synthetic started/finished times off the real rows
        t1 = store.create_job("job-1", {"command": "lot"})["created_ts"]
        store.update_job("job-1", state="running", started_ts=t1 + 1.0)
        store.update_job("job-1", state="completed", finished_ts=t1 + 5.0)
        t2 = store.create_job("job-2", {"command": "lot"})["created_ts"]
        store.update_job("job-2", state="running", started_ts=t2 + 3.0)
        store.update_job("job-2", state="failed", finished_ts=t2 + 4.0)
        store.create_job("job-3", {"command": "lot"})
        return store

    def test_store_samples_mirror_the_service_gauges(self, tmp_path):
        samples = store_samples(self._store(tmp_path))
        by_name = {
            (s.name, tuple(sorted(s.labels.items()))): s.value
            for s in samples
        }
        assert by_name[("repro_jobs_queue_depth", ())] == 1.0
        assert by_name[("repro_jobs_running", ())] == 0.0
        assert by_name[("repro_jobs_failure_rate", ())] == 0.5
        assert by_name[("repro_jobs_state", (("state", "queued"),))] == 1.0
        assert by_name[("repro_jobs_state", (("state", "completed"),))] == 1.0
        assert by_name[("repro_jobs_state", (("state", "failed"),))] == 1.0
        assert by_name[("repro_jobs_run_seconds_count", ())] == 2.0
        # queue waits: 1 s and 3 s; run times: 4 s and 1 s
        wait_p95 = by_name[
            ("repro_jobs_queue_wait_seconds", (("quantile", "0.95"),))
        ]
        assert wait_p95 == 3.0
        run_p95 = by_name[
            ("repro_jobs_run_seconds", (("quantile", "0.95"),))
        ]
        assert run_p95 == 4.0

    def test_default_rules_evaluate_against_store_samples(self, tmp_path):
        samples = store_samples(self._store(tmp_path))
        results = evaluate_rules(samples, DEFAULT_RULES)
        # queue depth 1 (ok), failure rate 0.5 (critical), run p95 ok
        levels = {r.rule.metric: r.level for r in results}
        assert levels["repro_jobs_queue_depth"] == "ok"
        assert levels["repro_jobs_failure_rate"] == "critical"
        assert worst_level(results) == 2


class TestFarmDefaultRules:
    def test_default_rules_cover_farm_fleet_health(self):
        metrics = {rule.metric for rule in DEFAULT_RULES}
        assert {
            "repro_farm_reissue_rate",
            "repro_farm_duplicate_rate",
            "repro_farm_worker_churn",
            "repro_farm_queue_stall_seconds",
        } <= metrics
        # All farm rules are optional: a farm-less service skips them.
        assert all(
            not rule.required
            for rule in DEFAULT_RULES
            if rule.metric.startswith("repro_farm_")
        )

    def test_healthy_broker_scrape_exits_zero(self):
        samples = parse_exposition(
            "repro_farm_reissue_rate 0.0\n"
            "repro_farm_duplicate_rate 0.0\n"
            "repro_farm_worker_churn 0.0\n"
            "repro_farm_queue_stall_seconds 0.0\n"
        )
        results = evaluate_rules(samples, DEFAULT_RULES)
        assert worst_level(results) == 0
        assert {r.rule.metric for r in results} == {
            "repro_farm_reissue_rate",
            "repro_farm_duplicate_rate",
            "repro_farm_worker_churn",
            "repro_farm_queue_stall_seconds",
        }

    def test_farmless_scrape_skips_farm_rules_silently(self):
        samples = parse_exposition("repro_jobs_queue_depth 0\n")
        results = evaluate_rules(samples, DEFAULT_RULES)
        assert worst_level(results) == 0
        assert all(
            not r.rule.metric.startswith("repro_farm_") for r in results
        )

    def test_reissue_storm_escalates_to_critical(self):
        samples = parse_exposition("repro_farm_reissue_rate 0.62\n")
        results = evaluate_rules(samples, DEFAULT_RULES)
        assert worst_level(results) == 2
        (hit,) = [
            r for r in results
            if r.rule.metric == "repro_farm_reissue_rate"
        ]
        assert hit.level == "critical"

    def test_queue_stall_warns_before_critical(self):
        samples = parse_exposition("repro_farm_queue_stall_seconds 90\n")
        results = evaluate_rules(samples, DEFAULT_RULES)
        assert worst_level(results) == 1


#: Rule and exposition grammar fragments, so generated text reaches the
#: label and value parsers instead of failing the first regex.
_FRAGMENTS = st.sampled_from(
    ["a", "x_y", "{", "}", "=", '"', "\\", ",", " ", ">=", "<", ":", "1",
     "-2.5e3", "e", ".", "NaN", "+Inf", "\n", "# TYPE ", "# HELP ", "gauge"]
)
_JUMBLE = st.lists(_FRAGMENTS, max_size=14).map("".join)
_NUMBERS = st.lists(st.sampled_from("0123456789+-.eE:"), min_size=1).map(
    "".join
)
#: ``METRIC{labels} OP VALUE`` with a jumbled label body and value: the
#: shape of both a rule and an exposition sample line.
_SHAPED = st.builds(
    "{}{{{}}} {} {}".format,
    st.sampled_from(["a", "x_y"]),
    _JUMBLE,
    st.sampled_from([">=", "<=", ">", "<", ""]),
    _NUMBERS,
)
TEXTS = st.text() | _JUMBLE | _SHAPED


class TestParserErrors:
    @settings(max_examples=500, deadline=None)
    @given(TEXTS)
    def test_parse_rule_raises_only_alert_rule_error(self, text):
        try:
            parse_rule(text)
        except AlertRuleError:
            pass

    @settings(max_examples=500, deadline=None)
    @given(TEXTS)
    def test_parse_exposition_raises_only_exposition_error(self, text):
        try:
            parse_exposition(text)
        except ExpositionError:
            pass

    def test_malformed_label_is_a_rule_error(self):
        with pytest.raises(AlertRuleError, match="malformed label pair"):
            parse_rule("a{b} >= 1")

    def test_cli_reports_a_bad_rule_without_a_traceback(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        metrics = tmp_path / "m.txt"
        metrics.write_text("x 1\n")
        assert main(
            ["obs", "alerts", "--metrics-file", str(metrics),
             "--rule", "a{b} >= 1"]
        ) == 3
        assert "error: invalid alert rule" in capsys.readouterr().err

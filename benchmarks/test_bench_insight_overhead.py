"""Overhead discipline for decision-level introspection.

The insight layer (``sutp_test_measured``, ``sutp_window_escalated``,
vote/calibration/GA events) must observe a campaign, never steer it: a
fully traced fig. 3 SUTP campaign has to land within 5% of the
telemetry-off measurement cost — and, since the instrumentation adds no
tester strobes at all, in practice exactly on it, boundary for boundary.
"""

import pytest

from benchmarks.conftest import RESOLUTION, SEARCH_RANGE, fresh_ate
from repro import obs
from repro.core.trip_point import MultipleTripPointRunner
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

N_TESTS = 50
OVERHEAD_BUDGET = 0.05


def make_tests():
    return [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=29).batch(N_TESTS)
    ]


def run_campaign():
    ate = fresh_ate(seed=29)
    runner = MultipleTripPointRunner(
        ate, SEARCH_RANGE, strategy="sutp", resolution=RESOLUTION,
        search_factor=0.5,
    )
    return runner.run(make_tests())


@pytest.mark.benchmark(group="insight")
def test_insight_overhead(report_sink, tmp_path):
    trace_path = tmp_path / "fig3.jsonl"

    obs.reset()
    off_dsv = run_campaign()

    obs.configure(trace_path=trace_path)
    try:
        insight_dsv = run_campaign()
    finally:
        obs.reset()

    off = off_dsv.total_measurements
    traced = insight_dsv.total_measurements
    overhead = traced / off - 1.0

    fold = obs.TraceFold.load(trace_path)
    assert fold.dropped_lines == 0
    insight = obs.build_insight(fold)

    report_sink.json(
        tests=N_TESTS,
        off_measurements=off,
        insight_measurements=traced,
        overhead_pct=round(100.0 * overhead, 3),
        trace_events=fold.events,
        decision_events=fold.decision_count,
    )
    report_sink(f"fig. 3 SUTP campaign, {N_TESTS} tests:")
    report_sink(f"  telemetry off:          {off:>6} measurements")
    report_sink(
        f"  trace + insight events: {traced:>6} measurements "
        f"({overhead:+.2%} — budget {OVERHEAD_BUDGET:.0%})"
    )
    report_sink(
        f"  trace: {fold.events} event(s), "
        f"{fold.decision_count} decision-level"
    )

    # Gate: within budget, and in fact bit-identical boundaries — the
    # instrumentation may not add a single tester strobe.
    assert abs(overhead) < OVERHEAD_BUDGET
    assert traced == off
    assert insight_dsv.values() == off_dsv.values()

    # The traced run must actually carry the decision story it paid
    # (nothing) for: one sutp_test_measured per test, a non-empty audit.
    assert len(fold.decisions["sutp_test_measured"]) == N_TESTS
    assert not insight.empty
    assert len(insight.sutp.rows) == N_TESTS
    report_sink(
        f"  audit: {insight.sutp.reused_count} RTP-reuse, "
        f"{len(insight.sutp.escalated_rows)} escalated, "
        f"{insight.sutp.total_wasted} wasted probe(s) "
        f"vs observed-optimal {insight.sutp.optimal_cost}"
    )

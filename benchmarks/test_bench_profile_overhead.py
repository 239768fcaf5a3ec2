"""Overhead discipline for the continuous profiler.

The sampling profiler and resource sampler run on background threads and
read interpreter state — they must *observe* a campaign, never steer it.
A profiled fig. 3 SUTP campaign has to stay bit-identical to the
profiler-off run (same trip points, same measurement count, strobe for
strobe) and its wall clock has to land within 5% of the off run.  The
bit-identity is the hard gate; the wall-clock budget is asserted softly
via the BENCH record so the CI benchmark gate (``repro obs compare``)
catches drift without a noisy hard failure on loaded runners.
"""

import time

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
    started = time.perf_counter()
    dsv = runner.run(make_tests())
    return dsv, time.perf_counter() - started


@pytest.mark.benchmark(group="profile")
def test_profile_overhead(report_sink, tmp_path):
    trace_path = tmp_path / "fig3.jsonl"

    obs.reset()
    off_dsv, off_wall = run_campaign()

    obs.configure(
        trace_path=trace_path,
        profile=obs.ProfileConfig(interval_s=0.01, resource_interval_s=0.05),
    )
    try:
        profiled_dsv, profiled_wall = run_campaign()
        obs.stop_profiling()  # emit the session before the bus closes
    finally:
        obs.reset()

    off = off_dsv.total_measurements
    profiled = profiled_dsv.total_measurements
    wall_overhead = profiled_wall / off_wall - 1.0

    fold = obs.TraceFold.load(trace_path)
    assert fold.dropped_lines == 0
    summary = obs.build_profile_summary(fold)

    report_sink.json(
        tests=N_TESTS,
        off_measurements=off,
        profiled_measurements=profiled,
        off_wall_s=round(off_wall, 6),
        profiled_wall_s=round(profiled_wall, 6),
        wall_overhead_pct=round(100.0 * wall_overhead, 3),
        profile_samples=summary.total_weight,
        resource_samples=fold.resource_samples,
    )
    report_sink(f"fig. 3 SUTP campaign, {N_TESTS} tests:")
    report_sink(f"  profiler off: {off:>6} measurements, {off_wall:.3f}s")
    report_sink(
        f"  profiler on:  {profiled:>6} measurements, {profiled_wall:.3f}s "
        f"({wall_overhead:+.2%} wall — budget {OVERHEAD_BUDGET:.0%})"
    )
    report_sink(
        f"  recorded: {summary.total_weight} stack sample(s) across "
        f"{len(summary.phases)} phase(s), "
        f"{fold.resource_samples} resource sample(s)"
    )

    # Hard gate: the profiler may not add a single tester strobe — trip
    # points, measurement count and datalog boundaries stay bit-identical.
    assert profiled == off
    assert profiled_dsv.values() == off_dsv.values()

    # The profiled run must actually carry a profile: one session, some
    # samples, and at least one resource sample (final-sample guarantee).
    assert len(fold.profiles) == 1
    assert summary.total_weight >= 0
    assert fold.resource_samples >= 1

"""Tests for post-hoc datalog analysis."""

import numpy as np
import pytest

from repro.analysis.datalog_tools import (
    estimate_trip_points,
    measurements_per_test,
    per_test_curves,
    reconstruct_shmoo_counts,
)
from repro.ate.datalog import Datalog, DatalogRecord
from repro.search.base import PassRegion


def record(index, name, strobe, passed, vdd=1.8):
    return DatalogRecord(
        index=index, test_name=name, vdd=vdd, temperature=25.0,
        clock_period=40.0, strobe_ns=strobe, passed=passed,
    )


def synthetic_log(trip=30.0, name="t", repeat=1):
    """Clean log: pass below trip, fail above, levels every 1 ns."""
    log = Datalog()
    index = 0
    for level in np.arange(25.0, 35.0, 1.0):
        for _ in range(repeat):
            index += 1
            log.append(record(index, name, float(level), level <= trip))
    return log


class TestCurves:
    def test_curve_sorted_and_aggregated(self):
        log = synthetic_log(repeat=3)
        curves = per_test_curves(log)
        curve = curves["t"]
        levels = [level for level, _, _ in curve]
        assert levels == sorted(levels)
        assert all(n == 3 for _, _, n in curve)

    def test_noisy_level_has_fractional_rate(self):
        log = Datalog()
        log.append(record(1, "t", 30.0, True))
        log.append(record(2, "t", 30.0, False))
        curve = per_test_curves(log)["t"]
        assert curve[0][1] == pytest.approx(0.5)


class TestTripPointEstimates:
    def test_clean_log_estimate(self):
        estimates = estimate_trip_points(synthetic_log(trip=30.0))
        estimate = estimates["t"]
        assert estimate.found
        assert estimate.trip_point == pytest.approx(30.5)  # mid(30, 31)
        assert estimate.last_pass_level == pytest.approx(30.0)
        assert estimate.first_fail_level == pytest.approx(31.0)
        assert estimate.ambiguous_levels == 0

    def test_noise_voting(self):
        """A level measured 3x with 2 passes counts as passing."""
        log = synthetic_log(trip=30.0, repeat=3)
        # corrupt level 30.0 with one noisy fail
        log.append(record(99, "t", 30.0, False))
        estimate = estimate_trip_points(log)["t"]
        assert estimate.trip_point == pytest.approx(30.5)
        assert estimate.ambiguous_levels == 1

    def test_all_pass_log_not_found(self):
        log = synthetic_log(trip=100.0)
        estimate = estimate_trip_points(log)["t"]
        assert not estimate.found
        assert estimate.first_fail_level is None

    def test_pass_high_orientation(self):
        log = Datalog()
        for i, level in enumerate(np.arange(1.4, 2.2, 0.1), start=1):
            log.append(record(i, "v", float(level), level >= 1.75))
        estimate = estimate_trip_points(log, pass_region=PassRegion.HIGH)["v"]
        assert estimate.found
        assert 1.7 <= estimate.trip_point <= 1.8

    def test_multiple_tests_separated(self):
        log = synthetic_log(trip=28.0, name="a")
        for rec in synthetic_log(trip=32.0, name="b"):
            log.append(rec)
        estimates = estimate_trip_points(log)
        assert estimates["a"].trip_point < estimates["b"].trip_point

    def test_real_search_log_reconstructs_boundary(self, quiet_ate, march_test_case):
        """Estimates from a real binary-search log match the searcher."""
        from repro.search.binary import BinarySearch
        from repro.search.oracles import make_ate_oracle

        searcher = BinarySearch(resolution=0.05)
        outcome = searcher.search(
            make_ate_oracle(quiet_ate, march_test_case), 15.0, 45.0
        )
        estimate = estimate_trip_points(quiet_ate.datalog)["march_c-"]
        assert estimate.found
        assert estimate.trip_point == pytest.approx(outcome.trip_point, abs=0.1)


class TestAccountingAndShmoo:
    def test_measurements_per_test(self):
        log = synthetic_log(name="a")
        for rec in synthetic_log(name="b", repeat=2):
            log.append(rec)
        costs = measurements_per_test(log)
        assert costs["a"] == 10
        assert costs["b"] == 20

    def test_reconstruct_shmoo_counts(self):
        log = Datalog()
        index = 0
        for vdd in (1.6, 1.8):
            for level in (29.0, 31.0):
                index += 1
                log.append(
                    record(index, "s", level, level <= 30.0, vdd=vdd)
                )
        counts = reconstruct_shmoo_counts(log, [1.6, 1.8], [29.0, 31.0])
        assert counts.shape == (2, 2)
        assert counts[:, 0].tolist() == [1, 1]  # 29 ns passes at both vdds
        assert counts[:, 1].tolist() == [0, 0]

    def test_off_grid_points_ignored(self):
        log = Datalog()
        log.append(record(1, "s", 29.5, True, vdd=1.7))
        counts = reconstruct_shmoo_counts(log, [1.8], [29.0])
        assert counts.sum() == 0


# -- column readers against the record-per-row loops they replaced -------------------
def loop_per_test_curves(datalog):
    buckets = {}
    for r in datalog:
        buckets.setdefault(r.test_name, {}).setdefault(r.strobe_ns, []).append(r.passed)
    return {
        name: [(level, float(np.mean(outcomes)), len(outcomes))
               for level, outcomes in sorted(levels.items())]
        for name, levels in buckets.items()
    }


def loop_measurements_per_test(datalog):
    costs = {}
    for r in datalog:
        costs[r.test_name] = costs.get(r.test_name, 0) + 1
    return costs


def loop_shmoo_counts(datalog, vdd_values, level_values, vdd_tolerance=1e-6,
                      level_tolerance=1e-6):
    vdds = np.asarray(list(vdd_values), dtype=float)
    levels = np.asarray(list(level_values), dtype=float)
    counts = np.zeros((len(vdds), len(levels)), dtype=int)
    for r in datalog:
        i = np.flatnonzero(np.abs(vdds - r.vdd) <= vdd_tolerance)
        j = np.flatnonzero(np.abs(levels - r.strobe_ns) <= level_tolerance)
        if i.size and j.size and r.passed:
            counts[i[0], j[0]] += 1
    return counts


def _campaign_log(kind):
    from repro.ate.measurement import MeasurementModel
    from repro.ate.shmoo import ShmooPlotter
    from repro.ate.tester import ATE
    from repro.core.sutp import SearchUntilTripPoint
    from repro.core.wcr import WCRScreen
    from repro.device.memory_chip import MemoryTestChip
    from repro.patterns.random_gen import RandomTestGenerator
    from repro.search.oracles import make_ate_oracle

    tests = RandomTestGenerator(seed=9).batch(5)
    ate = ATE(MemoryTestChip(), measurement=MeasurementModel(0.04, seed=3))
    if kind == "sutp":
        sutp = SearchUntilTripPoint((15.0, 45.0), resolution=0.05)
        for test in tests:
            sutp.measure(make_ate_oracle(ate, test))
    elif kind == "wcr":
        WCRScreen(ate).run(tests, 15.0, 45.0, 0.25, engine="batched")
    else:
        plotter = ShmooPlotter(ate)
        for test in tests[:2]:
            plotter.sweep(test, SHMOO_VDDS, SHMOO_LEVELS, engine="batched")
    return ate.datalog


SHMOO_VDDS = [1.6, 1.7, 1.8, 2.0]
SHMOO_LEVELS = np.linspace(15.0, 45.0, 61)


class TestColumnReadersMatchRecordLoop:
    @pytest.fixture(params=["sutp", "wcr", "shmoo", "noisy-synthetic", "evicted"])
    def log(self, request):
        if request.param == "noisy-synthetic":
            log = synthetic_log(name="a", repeat=3)
            log.append(record(99, "a", 27.0, False))
            return log
        if request.param == "evicted":
            log = Datalog(capacity=500)
            log.extend(_campaign_log("shmoo"))
            return log
        return _campaign_log(request.param)

    def test_per_test_curves(self, log):
        assert per_test_curves(log) == loop_per_test_curves(log)

    def test_measurements_per_test(self, log):
        costs = measurements_per_test(log)
        assert costs == loop_measurements_per_test(log)
        assert list(costs) == list(loop_measurements_per_test(log))
        assert sum(costs.values()) == len(log)

    def test_shmoo_counts(self, log):
        levels = [float(level) for level in SHMOO_LEVELS]
        for vdds, grid in ((SHMOO_VDDS, levels), ([1.8], [27.0, 30.0]), ([], levels),
                           (SHMOO_VDDS[::-1], levels[::-1])):
            counts = reconstruct_shmoo_counts(log, vdds, grid)
            assert counts.tolist() == loop_shmoo_counts(log, vdds, grid).tolist()
        wide = reconstruct_shmoo_counts(log, SHMOO_VDDS, levels, 0.2, 0.6)
        assert wide.tolist() == loop_shmoo_counts(log, SHMOO_VDDS, levels, 0.2, 0.6).tolist()

"""Grid-based WCR classification screen: semantics, farm sharding, merge."""

import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.wcr import (
    ScreenEntry,
    ScreenReport,
    WCRClass,
    WCRScreen,
    merge_screens,
    run_screen_farm,
    run_wcr_unit,
    wcr_screen_units,
)
from repro.device.memory_chip import MemoryTestChip
from repro.device.process import NOMINAL_DIE
from repro.farm.executor import make_executor
from repro.patterns.random_gen import RandomTestGenerator

SEARCH_RANGE = (15.0, 45.0)


def _tests(n=6, seed=3):
    return RandomTestGenerator(seed=seed).batch(n)


def _ate(seed=0, noise=0.0):
    return ATE(
        MemoryTestChip(), measurement=MeasurementModel(noise, seed=seed)
    )


def test_screen_classifies_every_test():
    tests = _tests(5)
    report = WCRScreen(_ate()).run(tests, *SEARCH_RANGE, 0.5)
    assert len(report.entries) == 5
    grid_points = report.entries[0].measurements
    assert report.measurements == 5 * grid_points
    for entry in report.entries:
        assert entry.trip_point is not None
        assert entry.wcr is not None
        assert entry.wcr_class in WCRClass
    counts = report.counts()
    assert sum(counts.values()) == 5


def test_screen_trip_point_is_last_passing_grid_level():
    ate = _ate()  # noise-free: the grid boundary is exact
    test = _tests(1)[0]
    report = WCRScreen(ate).run([test], *SEARCH_RANGE, 0.5)
    trip = report.entries[0].trip_point
    # strobing at the reported trip passes; one step beyond fails
    assert ate.apply(test, trip)
    assert not ate.apply(test, trip + 0.5)


def test_screen_rejects_unknown_engine_and_empty_grid():
    screen = WCRScreen(_ate())
    with pytest.raises(ValueError):
        screen.run(_tests(1), *SEARCH_RANGE, 0.5, engine="turbo")
    with pytest.raises(ValueError):
        screen.run(_tests(1), 45.0, 15.0, 0.5)


def test_screen_worst_and_render():
    report = WCRScreen(_ate()).run(_tests(4), *SEARCH_RANGE, 0.5)
    worst = report.worst()
    assert worst.wcr == max(e.wcr for e in report.entries)
    text = report.render()
    assert "totals:" in text
    for entry in report.entries:
        assert entry.test_name in text


def test_tripless_test_is_classified_fail():
    report = ScreenReport(
        entries=(ScreenEntry("dead", None, None, WCRClass.FAIL, 10),)
    )
    assert report.counts()[WCRClass.FAIL] == 1
    assert report.worst().test_name == "dead"
    assert "dead" in report.render()


def test_units_chunking_and_merge_identity():
    tests = _tests(7)
    units = wcr_screen_units(
        tests, *SEARCH_RANGE, 0.5,
        die=NOMINAL_DIE, parameter=MemoryTestChip().parameter,
        noise_sigma=0.02, campaign_seed=5, chunk_size=3,
    )
    assert [len(u.payload["tests"]) for u in units] == [3, 3, 1]
    assert len({u.seed for u in units}) == len(units)
    outcomes = [run_wcr_unit(u) for u in units]
    merged = merge_screens([o.value for o in outcomes])
    assert len(merged.entries) == 7
    assert sum(o.measurements for o in outcomes) == merged.measurements


def test_farm_serial_vs_workers_identical():
    tests = _tests(6)
    kwargs = dict(
        die=NOMINAL_DIE,
        parameter=MemoryTestChip().parameter,
        noise_sigma=0.04,
        campaign_seed=9,
        chunk_size=2,
    )
    serial = run_screen_farm(tests, *SEARCH_RANGE, 0.5, **kwargs)
    parallel = run_screen_farm(
        tests, *SEARCH_RANGE, 0.5, executor=make_executor(2), **kwargs
    )
    assert serial == parallel


def test_merge_requires_at_least_one_report():
    with pytest.raises(ValueError):
        merge_screens([])

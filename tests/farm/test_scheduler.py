"""Tests for the dispatch order and RTP broadcast."""

from repro.ate.shmoo import shmoo_overlay_units
from repro.device.parameters import T_DQ_PARAMETER
from repro.device.process import NOMINAL_DIE
from repro.farm.executor import SerialExecutor
from repro.farm.scheduler import RTPBroadcast, dispatch_order
from repro.farm.workunit import WorkUnit
from repro.obs import OBS, RingBufferSink
from repro.patterns.random_gen import RandomTestGenerator

from tests.farm.runners import echo_runner


def _unit(key, index=0, cost_hint=1.0):
    return WorkUnit(key=key, kind="lot_die", index=index, cost_hint=cost_hint)


class TestScheduler:
    def test_longest_expected_first(self):
        units = [
            _unit("a", index=0, cost_hint=1.0),
            _unit("b", index=1, cost_hint=5.0),
            _unit("c", index=2, cost_hint=3.0),
        ]
        assert [u.key for u in dispatch_order(units)] == ["b", "c", "a"]

    def test_ties_break_by_submission_order(self):
        units = [_unit(k, index=i, cost_hint=2.0)
                 for i, k in enumerate("zyx")]
        assert [u.key for u in dispatch_order(units)] == ["z", "y", "x"]

    def test_telemetry_does_not_change_dispatch_order(self):
        # A traced campaign measures tests before its shmoo phase, so the
        # ate.measurements counter holds labels that collide with the
        # shmoo units' test names.  Dispatch must still go by cost_hint.
        tests = RandomTestGenerator(seed=3).batch(6)
        units = shmoo_overlay_units(
            tests, (1.7, 1.8, 1.9),
            strobe_start=15.0, strobe_stop=45.0, strobe_step=0.5,
            search_resolution=0.05, die=NOMINAL_DIE,
            parameter=T_DQ_PARAMETER, noise_sigma=0.0,
        )
        expected = [
            u.key for u in sorted(units, key=lambda u: (-u.cost_hint, u.index))
        ]
        sink = RingBufferSink()
        OBS.reset()
        OBS.enable(sink)
        try:
            measured = OBS.metrics.counter("ate.measurements")
            for rank, test in enumerate(tests[::2]):
                measured.inc(6 + rank, label=test.name)
            SerialExecutor().run(units, echo_runner)
        finally:
            OBS.reset()
        dispatched = [e["key"] for e in sink.of_type("farm_unit_dispatched")]
        assert dispatched == expected


class TestRTPBroadcast:
    def test_first_writer_wins(self):
        broadcast = RTPBroadcast()
        assert broadcast.value is None
        broadcast.offer(None)
        assert broadcast.value is None
        broadcast.offer(31.5)
        broadcast.offer(99.0)
        assert broadcast.value == 31.5

    def test_apply_stamps_hint(self):
        broadcast = RTPBroadcast()
        unit = _unit("a")
        assert broadcast.apply(unit) is unit  # nothing to broadcast yet
        broadcast.offer(30.0)
        assert broadcast.apply(unit).rtp_hint == 30.0

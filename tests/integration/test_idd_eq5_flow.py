"""Eq. (5) end-to-end: characterizing a max-limited parameter.

The paper's WCR eq. (5) covers parameters with a maximum spec limit
("power consumption, peak current, voltage").  This exercises the whole
stack — tester compare semantics, PassRegion.HIGH searches, SUTP, DSV
worst-case selection and WCR classification — on the peak-supply-current
parameter.
"""

import numpy as np
import pytest

from repro.ate.shmoo import merge_overlays, run_shmoo_unit, shmoo_overlay_units
from repro.core.characterizer import DeviceCharacterizer
from repro.core.trip_point import MultipleTripPointRunner
from repro.core.wcr import WCRClass, WCRClassifier
from repro.device.parameters import IDD_PEAK_PARAMETER
from repro.farm.executor import SerialExecutor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator
from repro.search.base import PassRegion

IDD_RANGE = (20.0, 120.0)
SHMOO_VDDS = (1.6, 1.8, 2.0)
SHMOO_STEP = 5.0


def _idd_characterizer():
    return DeviceCharacterizer.with_default_setup(
        seed=2,
        parameter=IDD_PEAK_PARAMETER,
        noise_sigma_ns=0.0,
        search_range=IDD_RANGE,
        search_factor=1.0,
        resolution=0.2,
    )


@pytest.fixture
def idd_characterizer():
    return _idd_characterizer()


@pytest.fixture
def nominal_tests():
    generator = RandomTestGenerator(seed=5)
    return [t.with_condition(NOMINAL_CONDITION) for t in generator.batch(6)]


class TestIddCharacterization:
    def test_pass_region_is_high(self, idd_characterizer):
        """A current clamp passes above the device's draw (eq. 4 case)."""
        assert idd_characterizer.pass_region is PassRegion.HIGH

    def test_march_trip_is_its_current_draw(self, idd_characterizer):
        test, entry = idd_characterizer.characterize_march()
        assert entry.value is not None
        true_idd = idd_characterizer.ate.chip.true_parameter_value(
            test, account_heating=False
        )
        assert entry.value == pytest.approx(true_idd, abs=0.5)

    def test_tester_compare_semantics(self, idd_characterizer):
        """Clamp above the draw passes, below fails."""
        test, entry = idd_characterizer.characterize_march()
        ate = idd_characterizer.ate
        assert ate.apply(test, entry.value + 2.0)
        assert not ate.apply(test, entry.value - 2.0)

    def test_worst_case_is_maximum_current(self, idd_characterizer):
        dsv = idd_characterizer.characterize_random(n_tests=30)
        assert dsv.worst().value == pytest.approx(max(dsv.values()))

    def test_busy_patterns_draw_more(self, idd_characterizer):
        """Worst IDD test has higher activity than the march baseline."""
        _, march_entry = idd_characterizer.characterize_march()
        dsv = idd_characterizer.characterize_random(n_tests=30)
        assert dsv.worst().value > march_entry.value

    def test_wcr_uses_eq5(self, idd_characterizer):
        dsv = idd_characterizer.characterize_random(n_tests=30)
        worst = dsv.worst()
        wcr = idd_characterizer.objective.fitness(worst.value)
        assert wcr == pytest.approx(worst.value / IDD_PEAK_PARAMETER.spec_limit)

    def test_sutp_works_in_high_orientation(self, idd_characterizer):
        """SUTP's incremental walk handles the inverted pass region."""
        dsv = idd_characterizer.characterize_random(n_tests=12)
        incremental = sum(1 for e in dsv if not e.used_full_search)
        assert incremental >= 10
        # Cross-check a few boundaries against the true draw.
        for entry in list(dsv)[:5]:
            true_idd = idd_characterizer.ate.chip.true_parameter_value(
                entry.test, account_heating=False
            )
            assert entry.value == pytest.approx(true_idd, abs=1.0)

    def test_classification_of_hot_pattern(self, idd_characterizer):
        dsv = idd_characterizer.characterize_random(n_tests=40)
        worst = dsv.worst()
        region = WCRClassifier().classify(
            idd_characterizer.objective.fitness(worst.value)
        )
        assert region in (WCRClass.WEAKNESS, WCRClass.PASS)


class TestPassSideFollowsTheParameter:
    """Runners and shmoo overlays built without a pass side read it from
    the chip's parameter, as the characterizer does."""

    def test_plain_runner_matches_new_runner(
        self, idd_characterizer, nominal_tests
    ):
        plain = MultipleTripPointRunner(
            idd_characterizer.ate,
            IDD_RANGE,
            search_factor=idd_characterizer.search_factor,
            resolution=idd_characterizer.resolution,
        )
        assert plain.pass_region is PassRegion.HIGH
        got = plain.run(nominal_tests).values()
        want = _idd_characterizer().new_runner().run(nominal_tests).values()
        assert got == want and len(got) == len(nominal_tests)

    def test_shmoo_boundaries_where_the_runner_trips(
        self, idd_characterizer, nominal_tests
    ):
        plot = idd_characterizer.shmoo_overlay(
            nominal_tests, SHMOO_VDDS, strobe_step=SHMOO_STEP
        )
        dsv = _idd_characterizer().new_runner().run(nominal_tests)
        nominal_row = SHMOO_VDDS.index(1.8)
        for (_, bounds), entry in zip(plot.boundaries, dsv):
            assert entry.value is not None
            assert bounds[nominal_row] == pytest.approx(entry.value, abs=0.5)

    def test_shmoo_cells_count_tests_passing_at_their_level(
        self, idd_characterizer, nominal_tests
    ):
        plot = idd_characterizer.shmoo_overlay(
            nominal_tests, SHMOO_VDDS, strobe_step=SHMOO_STEP
        )
        # A clamp passes at and above each boundary.
        expected = np.zeros_like(plot.counts)
        for _, bounds in plot.boundaries:
            for row, bound in enumerate(bounds):
                expected[row] += plot.strobe_values >= bound
        assert np.array_equal(plot.counts, expected)
        assert plot.counts[:, 0].sum() == 0
        assert (plot.counts[:, -1] == len(nominal_tests)).all()
        # ... which is where the tester passes the test.
        ate = _idd_characterizer().ate
        for test, (_, bounds) in zip(nominal_tests, plot.boundaries):
            for vdd, bound in zip(SHMOO_VDDS, bounds):
                at_vdd = test.with_condition(test.condition.with_vdd(vdd))
                assert ate.apply(at_vdd, bound + 2.0)
                assert not ate.apply(at_vdd, bound - 2.0)

    def test_farmed_shmoo_matches_in_process(
        self, idd_characterizer, nominal_tests
    ):
        plot = idd_characterizer.shmoo_overlay(
            nominal_tests, SHMOO_VDDS, strobe_step=SHMOO_STEP
        )
        units = shmoo_overlay_units(
            nominal_tests,
            SHMOO_VDDS,
            strobe_start=IDD_RANGE[0],
            strobe_stop=IDD_RANGE[1],
            strobe_step=SHMOO_STEP,
            search_resolution=idd_characterizer.resolution,
            die=idd_characterizer.ate.chip.die,
            parameter=IDD_PEAK_PARAMETER,
            noise_sigma=0.0,
        )
        farmed = merge_overlays(
            [r.value for r in SerialExecutor().run(units, run_shmoo_unit)]
        )
        assert np.array_equal(farmed.counts, plot.counts)
        assert farmed.boundaries == plot.boundaries
        assert None not in {b for _, bounds in farmed.boundaries for b in bounds}

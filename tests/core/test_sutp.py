"""Tests for the Search-Until-Trip-Point algorithm (section 4)."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sutp import SearchUntilTripPoint
from repro.search.base import PassRegion
from repro.search.oracles import CountingOracle
from repro.search.successive import SuccessiveApproximation


def pass_low(trip):
    return lambda x: x <= trip


def pass_high(trip):
    return lambda x: x >= trip


class TestConstruction:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            SearchUntilTripPoint((45.0, 15.0))

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            SearchUntilTripPoint((15.0, 45.0), search_factor=0.0)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            SearchUntilTripPoint((15.0, 45.0), resolution=-1.0)


class TestBootstrap:
    def test_first_measurement_is_full_search(self):
        sutp = SearchUntilTripPoint((15.0, 45.0), resolution=0.05)
        result = sutp.measure(pass_low(30.0))
        assert result.used_full_search
        assert result.iterations == 0
        assert result.trip_point == pytest.approx(30.0, abs=0.06)
        assert sutp.reference_trip_point == pytest.approx(30.0, abs=0.06)

    def test_reset_forgets_rtp(self):
        sutp = SearchUntilTripPoint((15.0, 45.0))
        sutp.measure(pass_low(30.0))
        sutp.reset()
        assert sutp.reference_trip_point is None
        assert sutp.measure(pass_low(25.0)).used_full_search


class TestIncremental:
    def test_subsequent_measurements_incremental(self):
        sutp = SearchUntilTripPoint((15.0, 45.0), search_factor=0.5, resolution=0.05)
        sutp.measure(pass_low(30.0))
        result = sutp.measure(pass_low(31.0))
        assert not result.used_full_search
        assert result.iterations >= 1
        assert result.trip_point == pytest.approx(31.0, abs=0.06)

    def test_walk_down_when_rtp_fails(self):
        sutp = SearchUntilTripPoint((15.0, 45.0), search_factor=0.5, resolution=0.05)
        sutp.measure(pass_low(30.0))
        result = sutp.measure(pass_low(27.5))
        assert not result.used_full_search
        assert result.trip_point == pytest.approx(27.5, abs=0.06)

    def test_nearby_trips_cost_far_less_than_full_search(self):
        """The paper's headline claim: SF(IT) steps << CR-wide searches."""
        sutp = SearchUntilTripPoint((15.0, 45.0), search_factor=0.5, resolution=0.05)
        first = sutp.measure(pass_low(30.0))
        costs = []
        for trip in (30.2, 29.9, 30.4, 29.7, 30.1):
            oracle = CountingOracle(pass_low(trip))
            result = sutp.measure(oracle)
            assert result.trip_point == pytest.approx(trip, abs=0.06)
            costs.append(result.measurements)
        assert max(costs) < first.measurements
        assert sum(costs) / len(costs) < first.measurements / 2

    def test_eq4_pass_high_orientation(self):
        sutp = SearchUntilTripPoint(
            (1.0, 2.2), search_factor=0.02, resolution=0.005,
            pass_region=PassRegion.HIGH,
        )
        first = sutp.measure(pass_high(1.60))
        assert first.trip_point == pytest.approx(1.60, abs=0.006)
        result = sutp.measure(pass_high(1.63))
        assert not result.used_full_search
        assert result.trip_point == pytest.approx(1.63, abs=0.006)

    def test_growing_step_covers_large_drift(self):
        """SF(IT) = SF*IT accelerates: an 8 ns drift is still caught."""
        sutp = SearchUntilTripPoint((15.0, 45.0), search_factor=0.5, resolution=0.05)
        sutp.measure(pass_low(30.0))
        oracle = CountingOracle(pass_low(22.0))
        result = sutp.measure(oracle)
        assert result.trip_point == pytest.approx(22.0, abs=0.06)
        # Quadratic walk positions: 0.5, 1.5, 3.0, 5.0, 7.5, 10.5 -> 6 steps
        # + refinement; far fewer than a 30 ns / 0.05 ns linear search.
        assert result.measurements < 20

    def test_reference_not_updated_by_default(self):
        sutp = SearchUntilTripPoint((15.0, 45.0), resolution=0.05)
        sutp.measure(pass_low(30.0))
        rtp = sutp.reference_trip_point
        sutp.measure(pass_low(35.0))
        assert sutp.reference_trip_point == rtp

    def test_reference_follows_when_requested(self):
        sutp = SearchUntilTripPoint(
            (15.0, 45.0), resolution=0.05, update_reference=True
        )
        sutp.measure(pass_low(30.0))
        sutp.measure(pass_low(35.0))
        assert sutp.reference_trip_point == pytest.approx(35.0, abs=0.06)


class TestFallback:
    def test_walk_off_range_falls_back_to_full_search(self):
        """A drift beyond the range re-runs the generous full search."""
        sutp = SearchUntilTripPoint((15.0, 45.0), search_factor=2.0, resolution=0.05)
        sutp.measure(pass_low(44.0))  # RTP near the top
        # New trip far below: the downward walk exits at 15 and falls back.
        result = sutp.measure(pass_low(16.0))
        assert result.trip_point == pytest.approx(16.0, abs=0.06)

    def test_convergence_guaranteed_anywhere_in_range(self):
        sutp = SearchUntilTripPoint((15.0, 45.0), search_factor=0.5, resolution=0.05)
        sutp.measure(pass_low(30.0))
        for trip in (16.0, 44.0, 20.0, 43.0, 15.5):
            result = sutp.measure(pass_low(trip))
            assert result.found
            assert result.trip_point == pytest.approx(trip, abs=0.06)

    @settings(max_examples=40, deadline=None)
    @given(
        rtp_trip=st.floats(16.0, 44.0),
        next_trip=st.floats(16.0, 44.0),
    )
    def test_property_accuracy_matches_full_search(self, rtp_trip, next_trip):
        """SUTP's answer equals the truth within resolution regardless of
        where the next trip point lands relative to the RTP."""
        sutp = SearchUntilTripPoint(
            (15.0, 45.0), search_factor=0.5, resolution=0.05
        )
        sutp.measure(pass_low(rtp_trip))
        result = sutp.measure(pass_low(next_trip))
        assert result.found
        assert result.trip_point == pytest.approx(next_trip, abs=0.06)


class SpyThreshold:
    """Threshold oracle that records every probe, in order."""

    def __init__(self, trip, pass_region):
        self.trip = trip
        self.pass_region = pass_region
        self.probes = []

    def passes(self, x):
        if self.pass_region is PassRegion.LOW:
            return x <= self.trip
        return x >= self.trip

    def __call__(self, x):
        self.probes.append(x)
        return self.passes(x)


@st.composite
def walk_cases(draw):
    """A characterization range CR, an RTP and a trip point inside it, a
    search factor SF, and the side the pass region lies on."""
    low = draw(st.floats(-100.0, 100.0))
    width = draw(st.floats(1.0, 200.0))
    fraction = st.floats(0.0, 1.0)
    rtp = low + draw(fraction) * width
    trip = low + draw(fraction) * width
    search_factor = draw(st.floats(0.01, 1.0)) * width
    pass_region = draw(st.sampled_from(list(PassRegion)))
    return low, low + width, rtp, trip, search_factor, pass_region


_RESOLUTION = 0.05


class TestWalkProperties:
    """Eqs. 3/4: from the RTP the walk steps SF·IT at iteration IT, and a
    walk that would leave CR falls back to the eq. 2 full search."""

    @settings(max_examples=200, deadline=None)
    @given(case=walk_cases())
    @example(case=(0.0, 10.0, 5.0, 6.2, 0.5, PassRegion.LOW))  # brackets
    @example(case=(0.0, 10.0, 5.0, 9.5, 4.0, PassRegion.LOW))  # leaves CR
    @example(case=(0.0, 10.0, 5.0, 0.5, 4.0, PassRegion.HIGH))  # leaves CR
    def test_walk_steps_are_sf_times_it(self, case):
        low, high, rtp, trip, search_factor, pass_region = case
        sutp = SearchUntilTripPoint(
            (low, high),
            search_factor=search_factor,
            pass_region=pass_region,
            resolution=_RESOLUTION,
        )
        sutp.seed_reference(rtp)
        spy = SpyThreshold(trip, pass_region)
        result = sutp.measure(spy)

        rtp_passes = spy.passes(rtp)
        direction = pass_region.toward_fail() * (1.0 if rtp_passes else -1.0)
        # The step that would leave CR is never probed.
        walked = result.iterations
        if result.used_full_search:
            walked -= 1
        walk = spy.probes[: walked + 1]
        assert walk[0] == rtp
        for k in range(1, len(walk)):
            assert math.isclose(
                walk[k] - walk[k - 1],
                direction * search_factor * k,
                rel_tol=1e-9,
                abs_tol=1e-9 * (abs(low) + abs(high)),
            )
            assert low <= walk[k] <= high

        if result.used_full_search:
            beyond = walk[-1] + direction * search_factor * result.iterations
            assert not low <= beyond <= high
            assert all(spy.passes(x) == rtp_passes for x in walk)
            full = SuccessiveApproximation(
                resolution=_RESOLUTION, pass_region=pass_region
            ).search(SpyThreshold(trip, pass_region), low, high)
            if full.trip_point is None:  # the whole range passes
                assert result.trip_point is None
            else:
                assert abs(result.trip_point - full.trip_point) <= _RESOLUTION
        else:
            # The state flips at the last walk probe and not before.
            assert all(spy.passes(x) == rtp_passes for x in walk[:-1])
            assert spy.passes(walk[-1]) != rtp_passes

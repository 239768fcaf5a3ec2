"""Multiple-trip-point characterization (section 3, eq. 1, fig. 2).

Conventional characterization measures one trip point for a handful of
pre-defined tests.  The multiple-trip-point concept instead measures a trip
point *per test* over a large set of non-deterministic random tests:

    ``DSV = TPV(T_1 .. T_N)``                                   (eq. 1)

The resulting :class:`DesignSpecificationValues` is the set of trip points;
its worst element and its spread are what single-trip-point flows cannot
see.  :class:`MultipleTripPointRunner` executes the concept on a tester,
using SUTP (section 4) or per-test full searches (the costly baseline the
F3 bench compares against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ate.tester import ATE
from repro.core.sutp import SearchUntilTripPoint, SUTPResult
from repro.obs.events import event
from repro.obs.runtime import OBS
from repro.device.parameters import DeviceParameter, SpecDirection
from repro.patterns.features import fill_features
from repro.patterns.testcase import TestCase
from repro.search.base import PassRegion, TripPointSearcher
from repro.search.oracles import make_ate_oracle
from repro.search.successive import SuccessiveApproximation


@dataclass(frozen=True)
class TripPointValue:
    """One test's measured trip point (one element of the DSV set)."""

    test: TestCase
    value: Optional[float]
    measurements: int
    used_full_search: bool = True

    @property
    def found(self) -> bool:
        """True when the trip point was located inside the range."""
        return self.value is not None


class DesignSpecificationValues:
    """The DSV set of eq. 1: trip points over N tests, plus statistics."""

    def __init__(
        self, parameter: DeviceParameter, entries: Sequence[TripPointValue]
    ) -> None:
        if not entries:
            raise ValueError("DSV needs at least one trip point entry")
        self.parameter = parameter
        self.entries: Tuple[TripPointValue, ...] = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def values(self) -> List[float]:
        """All located trip-point values, in measurement order."""
        return [e.value for e in self.entries if e.value is not None]

    @property
    def total_measurements(self) -> int:
        """Total tester measurements spent on the whole DSV."""
        return sum(e.measurements for e in self.entries)

    @property
    def found_count(self) -> int:
        """How many tests produced a trip point."""
        return len(self.values())

    def worst(self) -> TripPointValue:
        """The worst-case entry per the parameter's spec direction.

        For a min-limited parameter the worst case is the *smallest* trip
        point ("the minimum value is the worst case", section 6); for a
        max-limited one the largest.
        """
        located = [e for e in self.entries if e.value is not None]
        if not located:
            raise ValueError("no trip point was found in any test")
        if self.parameter.direction is SpecDirection.MIN_IS_WORST:
            return min(located, key=lambda e: e.value)
        return max(located, key=lambda e: e.value)

    def spread(self) -> float:
        """Worst-case trip-point variation (max - min), fig. 2's key quantity."""
        values = self.values()
        if len(values) < 2:
            return 0.0
        return float(max(values) - min(values))

    def mean(self) -> float:
        """Mean located trip point."""
        values = self.values()
        if not values:
            raise ValueError("no trip point was found in any test")
        return float(np.mean(values))

    def std(self) -> float:
        """Standard deviation of located trip points."""
        values = self.values()
        if len(values) < 2:
            return 0.0
        return float(np.std(values))


class MultipleTripPointRunner:
    """Measures a DSV over a set of tests on a tester.

    Parameters
    ----------
    ate:
        The tester (provides the pass/fail oracle and the cost counters).
    search_range:
        Generous characterization range ``(S1, S2)``.
    strategy:
        ``"sutp"`` (default) uses Search-Until-Trip-Point across the test
        set; ``"full"`` re-runs a full-range search per test — the
        conventional, expensive approach used as the fig. 3 baseline.
    search_factor, resolution:
        SUTP step base / trip-point resolution.
    full_searcher:
        Full-range method (successive approximation by default).
    """

    def __init__(
        self,
        ate: ATE,
        search_range: Tuple[float, float],
        strategy: str = "sutp",
        search_factor: float = 0.5,
        resolution: float = 0.05,
        full_searcher: Optional[TripPointSearcher] = None,
    ) -> None:
        if strategy not in ("sutp", "full"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.ate = ate
        self.search_range = search_range
        self.strategy = strategy
        # The pass side is the swept parameter's: eq. (3) or eq. (4).
        self.pass_region = pass_region = PassRegion.of(ate.chip.parameter)
        self.full_searcher = (
            full_searcher
            if full_searcher is not None
            else SuccessiveApproximation(
                resolution=resolution, pass_region=pass_region
            )
        )
        self.sutp = SearchUntilTripPoint(
            search_range=search_range,
            search_factor=search_factor,
            pass_region=pass_region,
            full_searcher=self.full_searcher,
            resolution=resolution,
        )

    def measure_one(self, test: TestCase) -> TripPointValue:
        """Measure a single test's trip point with the configured strategy."""
        oracle = make_ate_oracle(self.ate, test)
        if self.strategy == "sutp":
            rtp_before = self.sutp.reference_trip_point
            result: SUTPResult = self.sutp.measure(oracle)
            if OBS.enabled:
                drift = (
                    result.trip_point - rtp_before
                    if result.trip_point is not None and rtp_before is not None
                    else None
                )
                OBS.bus.emit(
                    event(
                        "sutp_test_measured",
                        test_name=test.name or "unnamed",
                        trip_point=result.trip_point,
                        measurements=result.measurements,
                        used_full_search=result.used_full_search,
                        iterations=result.iterations,
                        rtp=rtp_before,
                        drift=drift,
                    )
                )
                if drift is not None:
                    OBS.metrics.histogram("sutp.trip_point_drift").observe(
                        drift
                    )
            return TripPointValue(
                test=test,
                value=result.trip_point,
                measurements=result.measurements,
                used_full_search=result.used_full_search,
            )
        low, high = self.search_range
        outcome = self.full_searcher.search(oracle, low, high)
        return TripPointValue(
            test=test,
            value=outcome.trip_point,
            measurements=outcome.measurements,
            used_full_search=True,
        )

    def run(
        self,
        tests: Sequence[TestCase],
        progress: Optional[Callable[[int, TripPointValue], None]] = None,
    ) -> DesignSpecificationValues:
        """Measure the whole DSV (eq. 1) over ``tests``.

        ``progress`` is invoked after each test with ``(index, entry)``.
        """
        if not tests:
            raise ValueError("need at least one test")
        fill_features(test.sequence for test in tests)
        entries: List[TripPointValue] = []
        for index, test in enumerate(tests):
            entry = self.measure_one(test)
            entries.append(entry)
            if progress is not None:
                progress(index, entry)
        return DesignSpecificationValues(self.ate.chip.parameter, entries)

    def reset(self) -> None:
        """Forget the SUTP reference (new characterization campaign)."""
        self.sutp.reset()

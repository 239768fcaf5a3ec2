"""Search-Until-Trip-Point (SUTP) — section 4.

The first test's trip point is found with a conventional full-range search
over the generous characterization range ``CR`` (eq. 2) and becomes the
*reference trip point* ``RTP``.  Every subsequent test is then searched
*incrementally from RTP* (eqs. 3/4): probe at RTP; while the device keeps
passing, step into the fail region by the growing search factor
``SF(IT) = SF * IT``; while it keeps failing, step into the pass region the
same way; the state flip brackets the new trip point.  Because properly
designed devices vary "only in a very narrow range with respect to
different input tests", the incremental walk costs a handful of
measurements instead of a full ``CR``-wide search — "huge savings of
measurement time and guaranteed automatic convergence".

If the walk runs off the characterization range (an unexpectedly large
drift provoked by a worst-case test), SUTP transparently falls back to the
full-range search, so convergence is guaranteed for any boundary inside
``CR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.events import event
from repro.obs.runtime import OBS
from repro.search.base import Oracle, PassRegion, TripPointSearcher
from repro.search.successive import SuccessiveApproximation


@dataclass(frozen=True)
class SUTPResult:
    """Result of one SUTP trip-point measurement.

    Attributes
    ----------
    trip_point:
        Edge of the pass region (last passing value), or ``None``.
    measurements:
        Oracle probes spent on this test.
    used_full_search:
        True for the RTP bootstrap (eq. 2) or a fallback after the
        incremental walk left the characterization range.
    iterations:
        Incremental steps ``IT`` consumed by the walk (0 for full searches).
    """

    trip_point: Optional[float]
    measurements: int
    used_full_search: bool
    iterations: int

    @property
    def found(self) -> bool:
        """True when a trip point was located."""
        return self.trip_point is not None


class SearchUntilTripPoint:
    """Stateful SUTP searcher over a sequence of tests.

    Parameters
    ----------
    search_range:
        The generous characterization range ``(S1, S2)`` = ``CR``.
    search_factor:
        Base step ``SF`` of the incremental walk; ``SF(IT) = SF * IT``.
    pass_region:
        :attr:`~repro.search.base.PassRegion.LOW` selects eq. (3)
        (pass region below fail region), ``HIGH`` selects eq. (4).
    full_searcher:
        Full-range method for eq. (2) and fallbacks; the paper recommends
        successive approximation, which is the default.
    resolution:
        Refinement resolution: after the walk brackets the boundary, a
        short bisection narrows it to this resolution.
    max_iterations:
        Safety bound on walk steps per test.
    update_reference:
        When True the RTP follows each measured trip point (useful under
        strong drift); the paper keeps the first reference, the default.
    """

    def __init__(
        self,
        search_range: Tuple[float, float],
        search_factor: float = 0.5,
        pass_region: PassRegion = PassRegion.LOW,
        full_searcher: Optional[TripPointSearcher] = None,
        resolution: float = 0.05,
        max_iterations: int = 1000,
        update_reference: bool = False,
    ) -> None:
        low, high = search_range
        if low >= high:
            raise ValueError("search range must satisfy S1 < S2")
        if search_factor <= 0:
            raise ValueError("search factor must be positive")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.search_range = (float(low), float(high))
        self.search_factor = search_factor
        self.pass_region = pass_region
        self.resolution = resolution
        self.max_iterations = max_iterations
        self.update_reference = update_reference
        self.full_searcher = (
            full_searcher
            if full_searcher is not None
            else SuccessiveApproximation(
                resolution=resolution, pass_region=pass_region
            )
        )
        self._rtp: Optional[float] = None

    @property
    def reference_trip_point(self) -> Optional[float]:
        """The current RTP (``None`` before the first measurement)."""
        return self._rtp

    def reset(self) -> None:
        """Forget the RTP (new characterization campaign)."""
        self._rtp = None

    def seed_reference(self, rtp: float) -> None:
        """Adopt an externally supplied RTP before the first measurement.

        Used by the tester farm's RTP broadcast (section 4 applied across
        workers): the pilot unit's full-range bootstrap is shared, so
        every other unit starts with the incremental walk of eqs. (3)/(4)
        instead of paying eq. (2) again.  Falls back to the full search
        automatically if the walk leaves the characterization range.
        """
        low, high = self.search_range
        if not low <= rtp <= high:
            raise ValueError(
                f"reference trip point {rtp} outside the characterization "
                f"range [{low}, {high}]"
            )
        self._rtp = float(rtp)

    # -- public entry point ---------------------------------------------------
    def measure(self, oracle: Oracle) -> SUTPResult:
        """Trip point of the next test: eq. (2) first, eqs. (3)/(4) after."""
        if self._rtp is None:
            result = self._full_search(oracle)
        else:
            result = self._incremental_search(oracle, self._rtp)
        if result.found and (self.update_reference or self._rtp is None):
            self._rtp = result.trip_point
        if OBS.enabled:
            metrics = OBS.metrics
            # Touch the fallback counter so a clean campaign still reports
            # an explicit 0 in the summary.
            metrics.counter("sutp.fallbacks")
            if result.used_full_search:
                metrics.counter("sutp.full_searches").inc()
            else:
                metrics.counter("sutp.incremental_searches").inc()
            if result.iterations:
                metrics.histogram("sutp.walk_iterations").observe(
                    result.iterations
                )
            metrics.histogram("sutp.measurements_per_test").observe(
                result.measurements
            )
        return result

    # -- eq. (2): full-range bootstrap ------------------------------------------
    def _full_search(self, oracle: Oracle) -> SUTPResult:
        low, high = self.search_range
        outcome = self.full_searcher.search(oracle, low, high)
        return SUTPResult(
            trip_point=outcome.trip_point,
            measurements=outcome.measurements,
            used_full_search=True,
            iterations=0,
        )

    # -- eqs. (3)/(4): incremental walk from RTP -----------------------------------
    def _incremental_search(self, oracle: Oracle, rtp: float) -> SUTPResult:
        low, high = self.search_range
        toward_fail = self.pass_region.toward_fail()
        measurements = 0

        def probe(x: float) -> bool:
            nonlocal measurements
            measurements += 1
            return bool(oracle(x))

        rtp_passes = probe(rtp)
        direction = toward_fail if rtp_passes else -toward_fail
        previous = rtp
        for iteration in range(1, self.max_iterations + 1):
            step = self.search_factor * iteration  # SF(IT) = SF * IT
            x = previous + direction * step
            if not low <= x <= high:
                # Drift larger than the remaining range: fall back to the
                # generous full search; convergence stays guaranteed.
                if OBS.enabled:
                    OBS.metrics.counter("sutp.fallbacks").inc()
                    OBS.bus.emit(
                        event("sutp_fallback", iteration=iteration, value=x)
                    )
                    self._emit_escalation(
                        iteration, measurements, fallback=True
                    )
                fallback = self._full_search(oracle)
                return SUTPResult(
                    trip_point=fallback.trip_point,
                    measurements=measurements + fallback.measurements,
                    used_full_search=True,
                    iterations=iteration,
                )
            state = probe(x)
            if OBS.enabled:
                OBS.bus.emit(
                    event(
                        "sutp_walk_step",
                        iteration=iteration, value=x, passed=state,
                    )
                )
            if state != rtp_passes:
                # Bracketed between `previous` and `x`; refine.
                if OBS.enabled and iteration >= 2:
                    self._emit_escalation(iteration, measurements)
                if rtp_passes:
                    pass_side, fail_side = previous, x
                else:
                    pass_side, fail_side = x, previous
                trip, extra = self._refine(oracle, pass_side, fail_side)
                return SUTPResult(
                    trip_point=trip,
                    measurements=measurements + extra,
                    used_full_search=False,
                    iterations=iteration,
                )
            previous = x

        return SUTPResult(
            trip_point=None,
            measurements=measurements,
            used_full_search=False,
            iterations=self.max_iterations,
        )

    def _emit_escalation(
        self, iteration: int, probes: int, fallback: bool = False
    ) -> None:
        """One ``sutp_window_escalated`` event per escalated walk."""
        step = self.search_factor * iteration
        window = self.search_factor * iteration * (iteration + 1) / 2.0
        OBS.metrics.counter("sutp.window_escalations").inc()
        OBS.metrics.histogram("sutp.escalation_window").observe(window)
        OBS.bus.emit(
            event(
                "sutp_window_escalated",
                iteration=iteration,
                step=step,
                window=window,
                probes=probes,
                fallback=fallback,
            )
        )

    def _refine(
        self, oracle: Oracle, pass_side: float, fail_side: float
    ) -> Tuple[float, int]:
        """Bisect the walk's bracket down to the resolution."""
        count = 0
        while abs(fail_side - pass_side) > self.resolution:
            middle = 0.5 * (pass_side + fail_side)
            count += 1
            if oracle(middle):
                pass_side = middle
            else:
                fail_side = middle
        return pass_side, count

"""Common contract of all trip-point searchers.

A *trip point* is "the pass/fail point of an associated parameter" (section
1): the boundary of the device pass region along one swept scalar (a strobe
edge, a frequency, a voltage).  A searcher probes a pass/fail oracle at
chosen sweep values and reports the boundary to a requested resolution.

Orientation
-----------
:class:`PassRegion` states which side of the boundary passes.  ``LOW`` is the
paper's eq. (3) situation (pass region below the fail region — e.g. strobe
time: strobing early passes, strobing past the valid window fails).  ``HIGH``
is eq. (4) (e.g. supply voltage: high Vdd passes, low fails).  The reported
trip point is always the *last passing* value, i.e. the edge of the pass
region, within one resolution step.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.device.parameters import DeviceParameter, SpecDirection
from repro.obs.events import event
from repro.obs.runtime import OBS

#: A pass/fail probe of the device at one sweep value.
Oracle = Callable[[float], bool]


def probe_batch(oracle: Oracle, values: Sequence[float]) -> List[bool]:
    """Probe an oracle at a batch of sweep values, in request order.

    The *batch-oracle protocol*: an oracle exposing a ``probe_many(values)``
    method evaluates the whole batch in one call (one pattern load, one
    vectorized device evaluation, one block of noise draws — see
    ``docs/performance.md``); a plain callable is probed elementwise.
    Either way the result is one bool per value and the measurement cost is
    exactly ``len(values)``, so batching never changes counts or results.
    """
    batch = getattr(oracle, "probe_many", None)
    if batch is not None:
        return [bool(p) for p in batch(values)]
    return [bool(oracle(v)) for v in values]


class SearchError(RuntimeError):
    """Raised when a search cannot run (bad bracket, no state change...)."""


class PassRegion(enum.Enum):
    """Which side of the trip point is the device pass region."""

    LOW = "low"  # eq. (3): pass below, fail above
    HIGH = "high"  # eq. (4): pass above, fail below

    @classmethod
    def of(cls, parameter: DeviceParameter) -> "PassRegion":
        """The pass side of ``parameter``'s compare level.

        A min-limited parameter (``T_DQ``) passes below its trip point,
        eq. (3); a max-limited one (peak supply current) passes above its
        clamp trip point, eq. (4).
        """
        if parameter.direction is SpecDirection.MIN_IS_WORST:
            return cls.LOW
        return cls.HIGH

    def toward_fail(self) -> float:
        """Unit direction from pass region toward fail region."""
        return 1.0 if self is PassRegion.LOW else -1.0


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one trip-point search.

    Attributes
    ----------
    trip_point:
        Last passing sweep value (edge of the pass region), or ``None`` when
        no boundary exists in the bracket.
    measurements:
        Oracle probes spent — the cost metric of the whole paper.
    history:
        ``(value, passed)`` per probe, in order (used to draw fig. 1-style
        search traces).
    bracket:
        Final ``(pass_side, fail_side)`` bracket, when one was established.
    """

    trip_point: Optional[float]
    measurements: int
    history: Tuple[Tuple[float, bool], ...] = ()
    bracket: Optional[Tuple[float, float]] = None

    @property
    def found(self) -> bool:
        """True when a trip point was located."""
        return self.trip_point is not None


class _ProbeRecorder:
    """Wraps an oracle, counting and recording every probe."""

    def __init__(self, oracle: Oracle) -> None:
        self._oracle = oracle
        self.history: List[Tuple[float, bool]] = []

    def __call__(self, value: float) -> bool:
        passed = bool(self._oracle(value))
        self.history.append((value, passed))
        return passed

    def probe_many(self, values: Sequence[float]) -> List[bool]:
        """Record a batch of probes; delegates to the oracle's batch face."""
        results = probe_batch(self._oracle, values)
        self.history.extend(zip(values, results))
        return results

    @property
    def measurements(self) -> int:
        return len(self.history)

    def outcome(
        self,
        trip_point: Optional[float],
        bracket: Optional[Tuple[float, float]] = None,
    ) -> SearchOutcome:
        """Package the recorded probes into a :class:`SearchOutcome`."""
        return SearchOutcome(
            trip_point=trip_point,
            measurements=self.measurements,
            history=tuple(self.history),
            bracket=bracket,
        )


class TripPointSearcher(abc.ABC):
    """Base class of every search method.

    Parameters
    ----------
    resolution:
        Termination resolution: the returned trip point is within one
        resolution step of the true boundary (for a noise-free monotone
        oracle).
    pass_region:
        Boundary orientation, see :class:`PassRegion`.
    """

    def __init__(
        self,
        resolution: float = 0.1,
        pass_region: PassRegion = PassRegion.LOW,
    ) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self.pass_region = pass_region

    def search(self, oracle: Oracle, low: float, high: float) -> SearchOutcome:
        """Locate the trip point of ``oracle`` inside ``[low, high]``."""
        if low >= high:
            raise SearchError(f"invalid bracket [{low}, {high}]")
        if OBS.enabled:
            method = type(self).__name__
            OBS.bus.emit(
                event("search_started", method=method, low=low, high=high)
            )
        recorder = _ProbeRecorder(oracle)
        outcome = self._run(recorder, low, high)
        if OBS.enabled:
            method = type(self).__name__
            OBS.metrics.counter("search.searches").inc(label=method)
            OBS.metrics.histogram("search.probes_per_trip").observe(
                outcome.measurements
            )
            OBS.bus.emit(
                event(
                    "search_converged",
                    method=method,
                    trip_point=outcome.trip_point,
                    measurements=outcome.measurements,
                )
            )
        return outcome

    @abc.abstractmethod
    def _run(
        self, probe: _ProbeRecorder, low: float, high: float
    ) -> SearchOutcome:
        """Method-specific search body."""

    # -- shared helpers ----------------------------------------------------------
    def _pass_end(self, low: float, high: float) -> float:
        """The bracket end expected to pass."""
        return low if self.pass_region is PassRegion.LOW else high

    def _fail_end(self, low: float, high: float) -> float:
        """The bracket end expected to fail."""
        return high if self.pass_region is PassRegion.LOW else low

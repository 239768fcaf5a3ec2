"""Dispatch order and reference-trip-point broadcast.

Two farm-level levers from the paper's measurement-time argument live here:

* **Longest-first dispatch** — on a pool of ``W`` workers the makespan is
  dominated by whatever long unit starts last, so :func:`dispatch_order`
  sorts the queue by each unit's static ``cost_hint``, descending.  The
  order depends on the units alone, never on telemetry.
* **RTP broadcast** (section 4) — the first unit to complete a full-range
  bootstrap search offers its reference trip point to
  :class:`RTPBroadcast`; units dispatched afterwards carry the value as
  ``rtp_hint`` and start their SUTP walk from it instead of paying the
  full characterization-range search again.

Reordering never changes results — unit seeds are derived from unit keys,
and the executors pin the broadcast pilot to submission order — so the
dispatch order buys wall-clock time only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.farm.workunit import WorkUnit


def dispatch_order(units: Sequence[WorkUnit]) -> List[WorkUnit]:
    """Largest ``cost_hint`` first; ties by submission index, then key."""
    return sorted(units, key=lambda u: (-u.cost_hint, u.index, u.key))


class RTPBroadcast:
    """First-writer-wins holder for the farm-wide reference trip point."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """The broadcast RTP (``None`` until a unit offers one)."""
        return self._value

    def offer(self, rtp: Optional[float]) -> None:
        """Record ``rtp`` if no unit has established a reference yet."""
        if rtp is not None and self._value is None:
            self._value = float(rtp)

    def apply(self, unit: WorkUnit) -> WorkUnit:
        """The unit, carrying the current broadcast value (if any)."""
        return unit.with_rtp_hint(self._value)

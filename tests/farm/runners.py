"""Module-level work-unit runners for executor tests.

The process pool pickles runners by reference, so they must live in an
importable module rather than inside a test function.
"""

from __future__ import annotations

import os
import sys
import time

from repro.farm.workunit import UnitOutcome, WorkUnit
from repro.obs.events import event
from repro.obs.runtime import OBS


def echo_runner(unit: WorkUnit) -> UnitOutcome:
    """Returns the unit's identity — enough to verify merge order/seeds."""
    return UnitOutcome(
        value={"key": unit.key, "seed": unit.seed, "pid": os.getpid()},
        measurements=unit.index + 1,
    )


def rtp_runner(unit: WorkUnit) -> UnitOutcome:
    """Echoes the received hint; establishes RTP 42.0 when unhinted."""
    return UnitOutcome(
        value=unit.rtp_hint,
        measurements=1,
        rtp=42.0 if unit.rtp_hint is None else unit.rtp_hint,
    )


def flaky_runner(unit: WorkUnit) -> UnitOutcome:
    """Fails the first attempt, succeeds afterwards.

    Cross-process deterministic: the first call creates a marker file and
    raises; any later call (same or different process) sees the marker and
    succeeds.
    """
    marker = unit.payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(unit.key)
        raise RuntimeError("transient tester fault")
    return UnitOutcome(value=unit.key, measurements=1)


def failing_runner(unit: WorkUnit) -> UnitOutcome:
    """Fails every attempt."""
    raise RuntimeError("permanent tester fault")


def crashing_runner(unit: WorkUnit) -> UnitOutcome:
    """Kills the worker process outright (BrokenProcessPool path)."""
    os._exit(13)


def sleeping_runner(unit: WorkUnit) -> UnitOutcome:
    """Sleeps past any reasonable per-unit timeout."""
    time.sleep(unit.payload.get("sleep_s", 30.0))
    return UnitOutcome(value=unit.key)


def emitting_runner(unit: WorkUnit) -> UnitOutcome:
    """Emits telemetry like a real characterization runner would.

    Per unit: ``unit.index + 1`` measurement events, the same counter
    increments (labelled by the unit key), and one histogram observation
    per measurement — enough to verify worker-side capture, trace-context
    stamping and the deterministic merge.
    """
    n = unit.index + 1
    for i in range(n):
        if OBS.enabled:
            OBS.metrics.counter("ate.measurements").inc(label=unit.key)
            OBS.metrics.histogram("test.values").observe(
                float(unit.index * 100 + i)
            )
            OBS.bus.emit(
                event(
                    "measurement",
                    index=i,
                    test_name=unit.key,
                    strobe_ns=float(unit.index * 100 + i),
                    passed=True,
                )
            )
    return UnitOutcome(value=unit.key, measurements=n)


def forbidden_key_runner(unit: WorkUnit) -> UnitOutcome:
    """Raises for keys listed in the payload — proves checkpointed units
    are skipped rather than re-run."""
    if unit.key in unit.payload.get("forbidden", ()):
        raise AssertionError(f"unit {unit.key} was re-executed")
    return UnitOutcome(value=unit.key, measurements=1)


def stall_once_runner(unit: WorkUnit) -> UnitOutcome:
    """Stalls the first attempt anywhere, then returns ``payload["shared"]``.

    The first call creates the payload's marker file and sleeps past any
    reasonable timeout; every later call (same or a fresh process) sees
    the marker and echoes the shared value.
    """
    marker = unit.payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(unit.key)
        time.sleep(30.0)
    return UnitOutcome(value=unit.payload["shared"], measurements=1)


def import_probe_runner(unit: WorkUnit) -> UnitOutcome:
    """Runs the runner in ``payload["inner"]`` and lists what it imported.

    The outcome's value is ``(new_modules, inner_value)``: the sorted names
    the inner runner added to ``sys.modules`` in this worker, then its own
    value.  Measurements and RTP pass through unchanged.
    """
    before = set(sys.modules)
    outcome = unit.payload["inner"](unit)
    return UnitOutcome(
        value=(sorted(set(sys.modules) - before), outcome.value),
        measurements=outcome.measurements,
        rtp=outcome.rtp,
    )


def bus_tenure_runner(unit: WorkUnit) -> UnitOutcome:
    """Counts the units, this one included, run on this ``OBS.bus``.

    A worker that keeps one switchboard counts 1, 2, 3...; one that swaps
    in a fresh bus before every unit reads 1 each time.
    """
    OBS.bus.units_served = getattr(OBS.bus, "units_served", 0) + 1
    return UnitOutcome(value=OBS.bus.units_served, measurements=1)

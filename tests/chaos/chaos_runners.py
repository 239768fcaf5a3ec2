"""Module-level runners for the chaos suite.

Like :mod:`tests.farm.runners` these must be importable by reference
(``module:qualname``) from worker subprocesses, so they live at module
level and stay deterministic: the outcome is a pure function of the
unit, never of the worker, the attempt, or the wall clock.
"""

import time

from repro.farm.workunit import UnitOutcome, WorkUnit


def deterministic_runner(unit: WorkUnit) -> UnitOutcome:
    """Optionally slow, always reproducible.

    ``payload["sleep_s"]`` holds the unit long enough for chaos (kills,
    lease expiry) to strike mid-execution; the outcome itself depends
    only on key/seed/index so any attempt on any worker produces the
    same bytes.  ``payload["log"]`` names a file each execution appends
    its unit key to, so a test can count what actually ran.
    """
    sleep_s = float(unit.payload.get("sleep_s", 0.0))
    if sleep_s:
        time.sleep(sleep_s)
    log = unit.payload.get("log")
    if log:
        with open(log, "a") as handle:
            handle.write(unit.key + "\n")
    return UnitOutcome(
        value={"key": unit.key, "seed": unit.seed},
        measurements=unit.index + 1,
    )

"""Post-hoc datalog analysis.

A characterization session leaves behind a raw measurement log (test name,
operating point, compare level, pass/fail).  These tools reconstruct the
engineering artifacts from the log alone — without re-touching the device —
the way a test engineer mines yesterday's datalog:

* per-test pass/fail curves over the compare level;
* trip-point estimates (with noise handled by majority voting per level);
* measurement-cost accounting per test;
* a shmoo pass-count matrix rebuilt from logged (Vdd, level) points.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ate.datalog import Datalog
from repro.search.base import PassRegion


def per_test_curves(
    datalog: Datalog,
) -> Dict[str, List[Tuple[float, float, int]]]:
    """Aggregate each test's measurements into a pass-rate curve.

    Returns ``test_name -> [(level, pass_rate, n_measurements)]`` with
    levels ascending.  Repeated measurements of one level (noise studies,
    drift re-verification) aggregate into a pass *rate*.
    """
    # test -> level -> [measurements, passes]
    buckets: Dict[str, Dict[float, List[int]]] = defaultdict(dict)
    for name, level, passed in zip(
        datalog.column("test_name"),
        datalog.column("strobe_ns").tolist(),
        datalog.column("passed").tolist(),
    ):
        tally = buckets[name].setdefault(level, [0, 0])
        tally[0] += 1
        tally[1] += passed
    return {
        name: [(level, passes / n, n) for level, (n, passes) in sorted(levels.items())]
        for name, levels in buckets.items()
    }


@dataclass(frozen=True)
class TripPointEstimate:
    """Trip point reconstructed from logged measurements."""

    test_name: str
    trip_point: Optional[float]
    last_pass_level: Optional[float]
    first_fail_level: Optional[float]
    measurements: int
    ambiguous_levels: int  # levels where repeated measurements disagreed

    @property
    def found(self) -> bool:
        """True when both sides of the boundary were logged."""
        return self.trip_point is not None


def estimate_trip_points(
    datalog: Datalog,
    pass_region: PassRegion = PassRegion.LOW,
    majority: float = 0.5,
) -> Dict[str, TripPointEstimate]:
    """Reconstruct each test's trip point from the log.

    A level counts as passing when its logged pass rate exceeds
    ``majority`` (noise-voting).  The trip point is the midpoint between
    the outermost passing level and the innermost failing level; tests
    whose log never crossed the boundary yield ``trip_point=None``.
    """
    estimates: Dict[str, TripPointEstimate] = {}
    for name, curve in per_test_curves(datalog).items():
        levels = np.array([level for level, _, _ in curve])
        rates = np.array([rate for _, rate, _ in curve])
        counts = sum(n for _, _, n in curve)
        ambiguous = int(np.sum((rates > 0.0) & (rates < 1.0)))
        passing = rates > majority

        if pass_region is PassRegion.LOW:
            pass_levels = levels[passing]
            fail_levels = levels[~passing]
            last_pass = float(pass_levels.max()) if pass_levels.size else None
            first_fail = (
                float(fail_levels[fail_levels > (last_pass or -np.inf)].min())
                if fail_levels.size
                and np.any(fail_levels > (last_pass if last_pass is not None else -np.inf))
                else None
            )
        else:
            pass_levels = levels[passing]
            fail_levels = levels[~passing]
            last_pass = float(pass_levels.min()) if pass_levels.size else None
            first_fail = (
                float(fail_levels[fail_levels < (last_pass or np.inf)].max())
                if fail_levels.size
                and np.any(fail_levels < (last_pass if last_pass is not None else np.inf))
                else None
            )

        trip = None
        if last_pass is not None and first_fail is not None:
            trip = 0.5 * (last_pass + first_fail)
        estimates[name] = TripPointEstimate(
            test_name=name,
            trip_point=trip,
            last_pass_level=last_pass,
            first_fail_level=first_fail,
            measurements=counts,
            ambiguous_levels=ambiguous,
        )
    return estimates


def measurements_per_test(datalog: Datalog) -> Dict[str, int]:
    """Measurement-cost accounting per test name."""
    return dict(Counter(datalog.column("test_name")))


def reconstruct_shmoo_counts(
    datalog: Datalog,
    vdd_values: Sequence[float],
    level_values: Sequence[float],
    vdd_tolerance: float = 1e-6,
    level_tolerance: float = 1e-6,
) -> np.ndarray:
    """Rebuild a shmoo pass-count matrix from logged points.

    ``counts[i, j]`` is the number of logged *passing* measurements at
    ``vdd_values[i]`` / ``level_values[j]``.  Points not on the requested
    grid are ignored — the log may contain searches besides the shmoo.
    """
    vdds = np.asarray(list(vdd_values), dtype=float)
    levels = np.asarray(list(level_values), dtype=float)
    counts = np.zeros((len(vdds), len(levels)), dtype=int)
    if counts.size == 0:
        return counts
    passed = datalog.column("passed")
    rows = _first_match(vdds, datalog.column("vdd")[passed], vdd_tolerance)
    cols = _first_match(levels, datalog.column("strobe_ns")[passed], level_tolerance)
    on_grid = (rows >= 0) & (cols >= 0)
    np.add.at(counts, (rows[on_grid], cols[on_grid]), 1)
    return counts


def _first_match(grid: np.ndarray, values: np.ndarray, tolerance: float) -> np.ndarray:
    """Position of the first ``grid`` point within ``tolerance`` of each value.

    ``-1`` where no grid point matches.  Each distinct value is compared
    once, with the same ``abs(grid - value) <= tolerance`` test per point.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    matches = np.abs(grid[:, None] - distinct[None, :]) <= tolerance
    first = np.where(matches.any(axis=0), matches.argmax(axis=0), -1)
    return first[inverse.reshape(-1)]

"""Shmoo plot tool.

Reproduces the fig. 8 instrument: "The shmoo plot shows Vdd power supply in
Y-axis, and T_DQ timing parameters in X-axis.  There are 1000 tests
overlapping in a single shmoo plot, so that we can compare the differences
between them."

Two modes are offered:

* :meth:`ShmooPlotter.sweep` — the classic exhaustive grid shmoo of one
  test (every (Vdd, strobe) cell measured);
* :meth:`ShmooPlotter.overlay` — the paper's 1000-test overlay: per test
  and per Vdd row only the pass/fail *boundary* is located (binary search),
  and the plot renders how many tests still pass in each cell.  This keeps
  the measurement count tractable exactly the way a characterization
  engineer would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ate.tester import ATE
from repro.device.parameters import DeviceParameter
from repro.device.process import ProcessInstance
from repro.farm.workunit import UnitOutcome, WorkUnit, derive_seed
from repro.patterns.testcase import TestCase
from repro.search.base import PassRegion
from repro.search.binary import BinarySearch
from repro.search.oracles import make_ate_oracle

#: Density ramp used to render overlay cells (fraction of tests passing).
_DENSITY_CHARS = " .:-=+*#%@"

#: Work-unit kind for one test's rows of an overlaid shmoo.
SHMOO_TEST_UNIT = "shmoo_test"


@dataclass(frozen=True)
class ShmooPlot:
    """A rendered shmoo: axes plus a pass-count matrix.

    ``counts[i, j]`` is the number of tests passing at ``vdd_values[i]`` /
    ``strobe_values[j]``; ``total_tests`` normalizes it.  For a single-test
    sweep the counts are 0/1.
    """

    vdd_values: np.ndarray
    strobe_values: np.ndarray
    counts: np.ndarray
    total_tests: int
    boundaries: Tuple[Tuple[str, Tuple[Optional[float], ...]], ...] = ()

    def __post_init__(self) -> None:
        expected = (len(self.vdd_values), len(self.strobe_values))
        if self.counts.shape != expected:
            raise ValueError(
                f"counts shape {self.counts.shape} != axes shape {expected}"
            )

    def pass_fraction(self, vdd_index: int, strobe_index: int) -> float:
        """Fraction of tests passing in one cell."""
        return float(self.counts[vdd_index, strobe_index]) / self.total_tests

    def boundary_spread_ns(self, vdd: float) -> Optional[float]:
        """Trip-point spread (max - min) across tests at the given Vdd row.

        This is the paper's "worst case trip point variation" made visible
        by overlapping tests; ``None`` if fewer than two boundaries exist.
        """
        row = int(np.argmin(np.abs(self.vdd_values - vdd)))
        trips = [
            bounds[row]
            for _, bounds in self.boundaries
            if bounds[row] is not None
        ]
        if len(trips) < 2:
            return None
        return float(max(trips) - min(trips))

    def render(self, width_label: str = "T_DQ (ns)") -> str:
        """ASCII rendering, Vdd descending top to bottom (fig. 8 layout)."""
        lines: List[str] = []
        lines.append(f"shmoo: VDD (V) vs {width_label}  [{self.total_tests} test(s)]")
        for i in range(len(self.vdd_values) - 1, -1, -1):
            row_chars = []
            for j in range(len(self.strobe_values)):
                frac = self.pass_fraction(i, j)
                idx = min(
                    len(_DENSITY_CHARS) - 1,
                    int(frac * (len(_DENSITY_CHARS) - 1) + 0.5),
                )
                row_chars.append(_DENSITY_CHARS[idx])
            lines.append(f"{self.vdd_values[i]:5.2f} |{''.join(row_chars)}|")
        axis = self.strobe_values
        lines.append(
            "      " + f"{axis[0]:<8.1f}" + " " * max(0, len(axis) - 16)
            + f"{axis[-1]:>8.1f}"
        )
        return "\n".join(lines)


class ShmooPlotter:
    """Builds shmoo plots through a tester."""

    def __init__(self, ate: ATE) -> None:
        self.ate = ate

    def sweep(
        self,
        test: TestCase,
        vdd_values: Sequence[float],
        strobe_values: Sequence[float],
        engine: str = "batched",
    ) -> ShmooPlot:
        """Exhaustive grid shmoo of a single test.

        Each Vdd row is one full strobe grid, i.e. one legal batch: the
        default ``engine="batched"`` evaluates a whole row through
        :meth:`~repro.ate.tester.ATE.apply_batch` with results, counters
        and datalog bit-identical to the scalar cell-by-cell loop
        (``engine="scalar"``, kept for parity tests and benchmarking).
        """
        if engine not in ("batched", "scalar"):
            raise ValueError(f"unknown engine {engine!r}")
        vdds = np.asarray(list(vdd_values), dtype=float)
        strobes = np.asarray(list(strobe_values), dtype=float)
        counts = np.zeros((len(vdds), len(strobes)), dtype=int)
        for i, vdd in enumerate(vdds):
            conditioned = test.with_condition(test.condition.with_vdd(float(vdd)))
            if engine == "batched":
                counts[i, :] = self.ate.apply_batch(conditioned, strobes)
            else:
                for j, strobe in enumerate(strobes):
                    if self.ate.apply(conditioned, float(strobe)):
                        counts[i, j] = 1
        return ShmooPlot(vdds, strobes, counts, total_tests=1)

    def overlay(
        self,
        tests: Sequence[TestCase],
        vdd_values: Sequence[float],
        strobe_start: float,
        strobe_stop: float,
        strobe_step: float = 0.5,
        search_resolution: float = 0.1,
    ) -> ShmooPlot:
        """Overlaid multi-test shmoo via per-row boundary search.

        For every test and Vdd row, a binary search locates the trip point
        of the compare level on the chip parameter's pass side; each cell
        then counts the tests whose pass region holds the cell's level.
        Tests that fail the whole row (functional failure or boundary
        outside the window) contribute no passes.
        """
        if not tests:
            raise ValueError("overlay needs at least one test")
        vdds = np.asarray(list(vdd_values), dtype=float)
        strobes = np.arange(strobe_start, strobe_stop + 1e-9, strobe_step)
        counts = np.zeros((len(vdds), len(strobes)), dtype=int)
        pass_region = PassRegion.of(self.ate.chip.parameter)
        low_passes = pass_region is PassRegion.LOW
        searcher = BinarySearch(
            resolution=search_resolution, pass_region=pass_region
        )
        boundaries: List[Tuple[str, Tuple[Optional[float], ...]]] = []
        for test in tests:
            per_row: List[Optional[float]] = []
            for i, vdd in enumerate(vdds):
                conditioned = test.with_condition(
                    test.condition.with_vdd(float(vdd))
                )
                oracle = make_ate_oracle(self.ate, conditioned)
                outcome = searcher.search(oracle, strobe_start, strobe_stop)
                trip = outcome.trip_point
                per_row.append(trip)
                if trip is not None:
                    counts[i, :] += strobes <= trip if low_passes else strobes >= trip
            boundaries.append((test.name or "unnamed", tuple(per_row)))
        return ShmooPlot(
            vdds,
            strobes,
            counts,
            total_tests=len(tests),
            boundaries=tuple(boundaries),
        )


# -- tester-farm sharding --------------------------------------------------------
def shmoo_overlay_units(
    tests: Sequence[TestCase],
    vdd_values: Sequence[float],
    strobe_start: float,
    strobe_stop: float,
    strobe_step: float,
    search_resolution: float,
    die: ProcessInstance,
    parameter: DeviceParameter,
    noise_sigma: float,
    campaign_seed: int = 0,
) -> List[WorkUnit]:
    """Shard an overlay into one work unit per test.

    Each unit carries the full single-test overlay recipe and a seed
    derived from ``(campaign_seed, unit_key)``; :func:`merge_overlays`
    recombines the per-test plots in unit order.
    """
    units: List[WorkUnit] = []
    for index, test in enumerate(tests):
        name = test.name or f"test_{index}"
        key = f"shmoo/{index:03d}/{name}"
        units.append(
            WorkUnit(
                key=key,
                kind=SHMOO_TEST_UNIT,
                payload={
                    "test": test,
                    "vdd_values": tuple(float(v) for v in vdd_values),
                    "strobe_start": float(strobe_start),
                    "strobe_stop": float(strobe_stop),
                    "strobe_step": float(strobe_step),
                    "search_resolution": float(search_resolution),
                    "die": die,
                    "parameter": parameter,
                    "noise_sigma": float(noise_sigma),
                },
                seed=derive_seed(campaign_seed, key),
                index=index,
                cost_hint=float(test.cycles * len(vdd_values)),
            )
        )
    return units


def run_shmoo_unit(unit: WorkUnit) -> UnitOutcome:
    """Execute one ``shmoo_test`` work unit: one test's overlay rows.

    Module-level and self-contained (fresh insertion, noise stream from
    the unit seed) so it can run in a farm worker process.
    """
    cfg = unit.payload
    ate = ATE.fresh_insertion(
        cfg["die"], cfg["parameter"],
        noise_sigma=cfg["noise_sigma"], seed=unit.seed,
    )
    plot = ShmooPlotter(ate).overlay(
        [cfg["test"]],
        cfg["vdd_values"],
        strobe_start=cfg["strobe_start"],
        strobe_stop=cfg["strobe_stop"],
        strobe_step=cfg["strobe_step"],
        search_resolution=cfg["search_resolution"],
    )
    return UnitOutcome(value=plot, measurements=ate.measurement_count)


def merge_overlays(plots: Sequence[ShmooPlot]) -> ShmooPlot:
    """Deterministically merge per-test overlay plots into one.

    Counts are summed, boundaries concatenated and ``total_tests``
    accumulated in the given order, so merging farm results (returned in
    submission order) yields the same plot regardless of worker count.
    All plots must share both axes.
    """
    if not plots:
        raise ValueError("merge needs at least one plot")
    first = plots[0]
    counts = first.counts.copy()
    boundaries: List[Tuple[str, Tuple[Optional[float], ...]]] = list(
        first.boundaries
    )
    total = first.total_tests
    for plot in plots[1:]:
        if not np.array_equal(plot.vdd_values, first.vdd_values) or not (
            np.array_equal(plot.strobe_values, first.strobe_values)
        ):
            raise ValueError("cannot merge shmoo plots with different axes")
        counts = counts + plot.counts
        boundaries.extend(plot.boundaries)
        total += plot.total_tests
    return ShmooPlot(
        first.vdd_values,
        first.strobe_values,
        counts,
        total_tests=total,
        boundaries=tuple(boundaries),
    )

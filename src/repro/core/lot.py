"""Lot characterization and environmental sweeps.

Section 1 describes the conventional campaign the CI method slots into:
"select a statistically significant sample of devices, and repeat the test
for every combination of two or more environmental variables".  This module
provides both halves:

* :class:`LotCharacterizer` — runs a test set over a Monte-Carlo sample of
  dies (one tester insertion per die), collecting the worst case and the
  trip-point spread per die and across the lot;
* :class:`EnvironmentalSweep` — measures one test's trip point at every
  combination of two environmental variables (Vdd × temperature by
  default), yielding the characterization matrix engineers derate specs
  from.

Both shard their work into :mod:`repro.farm` units — one die (or one grid
cell) per unit, each with a seed derived from ``(campaign_seed,
unit_key)`` — so the same code path runs on one tester or a pool of
worker processes with bit-identical results, and an interrupted run
resumes from a :class:`~repro.farm.checkpoint.CheckpointStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.statistics import SummaryStats, summarize
from repro.ate.tester import ATE
from repro.core.database import WorstCaseDatabase, WorstCaseRecord
from repro.farm.executor import Executor, SerialExecutor
from repro.farm.workunit import UnitOutcome, WorkUnit, derive_seed
from repro.obs.runtime import OBS
from repro.obs.timing import span
from repro.core.trip_point import MultipleTripPointRunner
from repro.core.wcr import WCRClassifier, worst_case_ratio
from repro.device.parameters import DeviceParameter, SpecDirection, T_DQ_PARAMETER
from repro.device.process import ProcessCorner, ProcessInstance, ProcessModel
from repro.patterns.features import fill_features
from repro.patterns.testcase import TestCase

#: Work-unit kinds this module shards campaigns into.
LOT_DIE_UNIT = "lot_die"
ENV_CELL_UNIT = "env_cell"


@dataclass(frozen=True)
class DieResult:
    """One die's characterization outcome."""

    die: ProcessInstance
    worst_value: float
    worst_wcr: float
    worst_test_name: str
    stats: SummaryStats
    measurements: int


@dataclass
class LotReport:
    """Aggregate over a characterized lot."""

    parameter: DeviceParameter
    dies: List[DieResult] = field(default_factory=list)

    def worst_die(self) -> DieResult:
        """The die with the worst (largest-WCR) worst case."""
        if not self.dies:
            raise ValueError("empty lot report")
        return max(self.dies, key=lambda d: d.worst_wcr)

    def worst_values(self) -> List[float]:
        """Per-die worst-case values."""
        return [d.worst_value for d in self.dies]

    def lot_stats(self) -> SummaryStats:
        """Distribution of per-die worst cases across the lot."""
        return summarize(self.worst_values())

    def by_corner(self) -> Dict[ProcessCorner, List[DieResult]]:
        """Die results grouped by process corner."""
        grouped: Dict[ProcessCorner, List[DieResult]] = {}
        for die_result in self.dies:
            grouped.setdefault(die_result.die.corner, []).append(die_result)
        return grouped

    def to_database(self, tests: Sequence[TestCase]) -> WorstCaseDatabase:
        """Per-die worst cases as a :class:`WorstCaseDatabase`.

        ``tests`` must contain the test set the lot was characterized
        with; each die's worst test is looked up by name so the database
        records carry the full re-runnable test case.  Records are added
        in die order, making the export deterministic — serial and farm
        runs of the same lot produce byte-identical JSON.
        """
        by_name = {t.name: t for t in tests}
        classifier = WCRClassifier()
        database = WorstCaseDatabase()
        for die_result in self.dies:
            test = by_name.get(die_result.worst_test_name)
            if test is None:
                raise ValueError(
                    f"worst test {die_result.worst_test_name!r} of "
                    f"{die_result.die} not in the provided test set"
                )
            database.add(
                WorstCaseRecord(
                    test=test,
                    measured_value=die_result.worst_value,
                    wcr=die_result.worst_wcr,
                    wcr_class=classifier.classify(die_result.worst_wcr),
                    technique="lot",
                    note=str(die_result.die),
                )
            )
        return database

    def describe(self) -> str:
        """Engineering summary of the lot."""
        lines = [
            f"lot of {len(self.dies)} dies, parameter {self.parameter.name}:",
            f"  per-die worst cases: "
            f"{self.lot_stats().describe(self.parameter.unit)}",
        ]
        worst = self.worst_die()
        lines.append(
            f"  lot worst case: {worst.worst_value:.3f} {self.parameter.unit} "
            f"(WCR {worst.worst_wcr:.3f}) on {worst.die} "
            f"via test {worst.worst_test_name!r}"
        )
        for corner, members in sorted(
            self.by_corner().items(), key=lambda kv: kv[0].value
        ):
            values = [m.worst_value for m in members]
            lines.append(
                f"  corner {corner.value.upper()}: n={len(members)} "
                f"worst {min(values) if self._min_is_worst() else max(values):.3f}"
            )
        return "\n".join(lines)

    def _min_is_worst(self) -> bool:
        return self.parameter.direction is SpecDirection.MIN_IS_WORST


def run_lot_unit(unit: WorkUnit) -> UnitOutcome:
    """Execute one ``lot_die`` work unit: one die, one insertion.

    Module-level so a :class:`~repro.farm.executor.ParallelExecutor` can
    pickle it into worker processes.  The unit payload is the complete
    recipe — die, tests, parameter, search configuration — and the unit
    seed drives the measurement-noise stream, so the outcome depends on
    nothing outside the unit.
    """
    cfg = unit.payload
    parameter: DeviceParameter = cfg["parameter"]
    ate = ATE.fresh_insertion(
        cfg["die"], parameter, noise_sigma=cfg["noise_sigma"], seed=unit.seed
    )
    runner = MultipleTripPointRunner(
        ate,
        cfg["search_range"],
        strategy=cfg["strategy"],
        resolution=cfg["resolution"],
        search_factor=cfg["search_factor"],
    )
    if unit.rtp_hint is not None and cfg["strategy"] == "sutp":
        runner.sutp.seed_reference(unit.rtp_hint)
    dsv = runner.run(list(cfg["tests"]))
    worst = dsv.worst()
    die_result = DieResult(
        die=cfg["die"],
        worst_value=worst.value,
        worst_wcr=worst_case_ratio(worst.value, parameter),
        worst_test_name=worst.test.name,
        stats=summarize(dsv.values()),
        measurements=dsv.total_measurements,
    )
    return UnitOutcome(
        value=die_result,
        measurements=dsv.total_measurements,
        rtp=runner.sutp.reference_trip_point,
    )


class LotCharacterizer:
    """Characterize a test set over a Monte-Carlo die sample.

    Each die gets a fresh tester insertion (its own noise stream and cool
    thermal state); measurement cost is tracked per die.  :meth:`run`
    shards the lot into one work unit per die, so the same call scales
    from one tester (the default :class:`~repro.farm.executor.
    SerialExecutor`) to a farm of worker processes (a
    :class:`~repro.farm.executor.ParallelExecutor`) with identical
    results.

    Parameters
    ----------
    search_range:
        Generous characterization range of the compare level.
    parameter:
        Characterized parameter (defaults to ``T_DQ``).
    process:
        Die sampler; a default-configured one is created when omitted.
    noise_sigma:
        Tester comparator noise.
    strategy:
        Trip-point strategy per die (``"sutp"`` or ``"full"``).
    seed:
        Campaign seed; each die's noise stream uses a seed derived from
        ``(seed, unit_key)`` (see :func:`repro.farm.workunit.derive_seed`).
    """

    def __init__(
        self,
        search_range: Tuple[float, float],
        parameter: DeviceParameter = T_DQ_PARAMETER,
        process: Optional[ProcessModel] = None,
        noise_sigma: float = 0.04,
        strategy: str = "sutp",
        resolution: float = 0.05,
        search_factor: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.search_range = search_range
        self.parameter = parameter
        self.process = process if process is not None else ProcessModel(seed=seed)
        self.noise_sigma = noise_sigma
        self.strategy = strategy
        self.resolution = resolution
        self.search_factor = search_factor
        self.seed = seed

    # -- work-unit plumbing ---------------------------------------------------
    def _unit_payload(self, die: ProcessInstance, tests: Sequence[TestCase]):
        # Features depend on the pattern alone: extract them here, once per
        # deck, and every die unit pickles them along with the sequences.
        fill_features(test.sequence for test in tests)
        return {
            "die": die,
            # A deck tuple passed in is kept, not copied: units holding
            # one deck object ship it once per pool worker.
            "tests": tests if isinstance(tests, tuple) else tuple(tests),
            "parameter": self.parameter,
            "search_range": self.search_range,
            "noise_sigma": self.noise_sigma,
            "strategy": self.strategy,
            "resolution": self.resolution,
            "search_factor": self.search_factor,
        }

    def die_unit(
        self,
        die: ProcessInstance,
        tests: Sequence[TestCase],
        key: Optional[str] = None,
        index: int = 0,
    ) -> WorkUnit:
        """The work unit characterizing ``die`` with ``tests``."""
        key = key if key is not None else f"die/{die.die_id:04d}"
        return WorkUnit(
            key=key,
            kind=LOT_DIE_UNIT,
            payload=self._unit_payload(die, tests),
            seed=derive_seed(self.seed, key),
            index=index,
            cost_hint=float(sum(t.cycles for t in tests)),
        )

    def run(
        self,
        tests: Sequence[TestCase],
        n_dies: int,
        corner: Optional[ProcessCorner] = None,
        executor: Optional[Executor] = None,
        rtp_broadcast: bool = False,
    ) -> LotReport:
        """Characterize ``n_dies`` sampled dies with the same test set.

        Parameters
        ----------
        executor:
            The :mod:`repro.farm` executor the dies run on (a
            :class:`~repro.farm.executor.SerialExecutor` when omitted).
            Results are bit-identical for any worker count; an executor
            built with a checkpoint skips the dies a re-run finds in it.
        rtp_broadcast:
            Share the first die's reference trip point with every other
            die's SUTP bootstrap (section 4 across the farm).  Cheaper,
            still deterministic, but a different measurement sequence
            than the default per-die full bootstrap.
        """
        if n_dies < 1:
            raise ValueError("need at least one die")
        if not tests:
            raise ValueError("need at least one test")
        dies = self.process.sample_lot(n_dies, corner=corner)
        deck = tuple(tests)
        units = [
            self.die_unit(die, deck, index=i) for i, die in enumerate(dies)
        ]
        campaign = (
            f"lot:seed={self.seed}:dies={n_dies}"
            f":tests={len(tests)}:param={self.parameter.name}"
        )
        report = LotReport(parameter=self.parameter)
        with span("lot"):
            results = (executor or SerialExecutor()).run(
                units,
                run_lot_unit,
                rtp_broadcast=rtp_broadcast,
                campaign=campaign,
            )
        for result in results:
            report.dies.append(result.value)
            if OBS.enabled:
                OBS.metrics.counter("lot.dies").inc(
                    label=result.value.die.corner.value
                )
        return report


@dataclass(frozen=True)
class EnvSweepResult:
    """Trip points over a 2-D environmental grid."""

    parameter: DeviceParameter
    vdd_values: Tuple[float, ...]
    temperature_values: Tuple[float, ...]
    trip_points: np.ndarray  # shape (len(vdd), len(temp)); NaN = not found
    measurements: int

    def worst_cell(self) -> Tuple[int, int, float]:
        """Indices and value of the worst grid cell."""
        grid = self.trip_points
        if np.all(np.isnan(grid)):
            raise ValueError("no trip point found anywhere on the grid")
        if self.parameter.direction is SpecDirection.MIN_IS_WORST:
            flat = np.nanargmin(grid)
        else:
            flat = np.nanargmax(grid)
        i, j = np.unravel_index(flat, grid.shape)
        return int(i), int(j), float(grid[i, j])

    def margin_grid(self) -> np.ndarray:
        """Signed spec margin per cell (negative = violating)."""
        if self.parameter.direction is SpecDirection.MIN_IS_WORST:
            return self.trip_points - self.parameter.spec_limit
        return self.parameter.spec_limit - self.trip_points

    def render(self) -> str:
        """ASCII matrix, Vdd rows (descending) × temperature columns."""
        lines = [
            f"{self.parameter.name} trip points "
            f"({self.parameter.unit}) — Vdd rows x temperature columns"
        ]
        header = "  Vdd\\T  " + "".join(
            f"{t:>9.0f}" for t in self.temperature_values
        )
        lines.append(header)
        for i in range(len(self.vdd_values) - 1, -1, -1):
            cells = "".join(
                f"{self.trip_points[i, j]:>9.2f}"
                if not np.isnan(self.trip_points[i, j])
                else "        -"
                for j in range(len(self.temperature_values))
            )
            lines.append(f"  {self.vdd_values[i]:5.2f}  {cells}")
        return "\n".join(lines)


def run_env_unit(unit: WorkUnit) -> UnitOutcome:
    """Execute one ``env_cell`` work unit: one grid cell, fresh insertion.

    Every cell measures a freshly inserted (cool) device with its own
    derived noise stream, so no cell reads another's thermal or noise
    state and the grid is independent of worker count and scheduling.
    """
    cfg = unit.payload
    ate = ATE.fresh_insertion(
        cfg["die"], cfg["parameter"],
        noise_sigma=cfg["noise_sigma"], seed=unit.seed,
    )
    runner = MultipleTripPointRunner(
        ate,
        cfg["search_range"],
        strategy="sutp",
        resolution=cfg["resolution"],
        search_factor=cfg["search_factor"],
    )
    if unit.rtp_hint is not None:
        runner.sutp.seed_reference(unit.rtp_hint)
    test: TestCase = cfg["test"]
    condition = replace(
        test.condition, vdd=cfg["vdd"], temperature=cfg["temperature"]
    )
    entry = runner.measure_one(test.with_condition(condition))
    return UnitOutcome(
        value=(cfg["row"], cfg["column"], entry.value),
        measurements=entry.measurements,
        rtp=entry.value,
    )


class EnvironmentalSweep:
    """Trip point at every combination of two environmental variables.

    The classic characterization matrix of section 1: the same test is
    repeated at each (Vdd, temperature) grid point and its trip point
    recorded.

    :meth:`sweep` shards the grid into one work unit per cell and runs
    them on a :mod:`repro.farm` executor (a
    :class:`~repro.farm.executor.SerialExecutor` unless ``executor=``
    gives another).  The first cell's trip point is
    RTP-broadcast to all others, the farm form of SUTP along the sweep.
    Each cell gets a fresh insertion and a seed derived from
    ``(seed, cell_key)``, so the grid is the same for any worker count or
    backend.  Of ``ate`` only the die, the parameter and the noise sigma
    are read; the sweep never measures on it.
    """

    def __init__(
        self,
        ate: ATE,
        search_range: Tuple[float, float],
        resolution: float = 0.05,
        search_factor: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.ate = ate
        self.search_range = search_range
        self.resolution = resolution
        self.search_factor = search_factor
        self.seed = seed

    def cell_unit(
        self,
        test: TestCase,
        row: int,
        column: int,
        vdd: float,
        temperature: float,
        index: int = 0,
    ) -> WorkUnit:
        """The work unit measuring one (Vdd, temperature) grid cell.

        The payload holds the base ``test`` and the cell's operating
        point; the runner applies it, so every cell of a sweep holds one
        test object.
        """
        key = f"cell/v{row:02d}/t{column:02d}"
        return WorkUnit(
            key=key,
            kind=ENV_CELL_UNIT,
            payload={
                "die": self.ate.chip.die,
                "parameter": self.ate.chip.parameter,
                "test": test,
                "vdd": float(vdd),
                "temperature": float(temperature),
                "row": row,
                "column": column,
                "search_range": self.search_range,
                "resolution": self.resolution,
                "search_factor": self.search_factor,
                "noise_sigma": self.ate.measurement.noise_sigma_ns,
            },
            seed=derive_seed(self.seed, key),
            index=index,
            cost_hint=float(test.cycles),
        )

    def sweep(
        self,
        test: TestCase,
        vdd_values: Sequence[float],
        temperature_values: Sequence[float],
        executor: Optional[Executor] = None,
    ) -> EnvSweepResult:
        """Measure the full grid for one test, one work unit per cell,
        on ``executor`` as for :meth:`LotCharacterizer.run`.
        """
        if not vdd_values or not temperature_values:
            raise ValueError("both axes need at least one value")
        # Every cell measures the same pattern: its features ship with it.
        fill_features([test.sequence])
        units = []
        for i, vdd in enumerate(vdd_values):
            for j, temperature in enumerate(temperature_values):
                units.append(
                    self.cell_unit(
                        test, i, j, float(vdd), float(temperature),
                        index=len(units),
                    )
                )
        campaign = (
            f"sweep:seed={self.seed}:grid={len(vdd_values)}"
            f"x{len(temperature_values)}:test={test.name}"
        )
        grid = np.full((len(vdd_values), len(temperature_values)), np.nan)
        measurements = 0
        with span("sweep"):
            results = (executor or SerialExecutor()).run(
                units, run_env_unit, rtp_broadcast=True, campaign=campaign,
            )
        for result in results:
            row, column, value = result.value
            if value is not None:
                grid[row, column] = value
            measurements += result.measurements
        return EnvSweepResult(
            parameter=self.ate.chip.parameter,
            vdd_values=tuple(float(v) for v in vdd_values),
            temperature_values=tuple(float(t) for t in temperature_values),
            trip_points=grid,
            measurements=measurements,
        )

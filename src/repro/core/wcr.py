"""Worst-Case Ratio (eqs. 5/6) and its classification (fig. 6).

For a parameter value ``va`` measured in test ``n``:

* max-limited parameters (eq. 5): ``WCR(n) = |va(n) / vmax|``;
* min-limited parameters (eq. 6): ``WCR(n) = |vmin / va(n)|``.

Either way a *larger* WCR means *closer to (or beyond) the spec limit* —
"the worst case tests are given by the largest values of WCR".  Fig. 6
classifies: pass for ``0 <= WCR <= 0.8``, weakness for ``0.8 < WCR <= 1``,
fail for ``WCR > 1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.parameters import DeviceParameter, SpecDirection

if TYPE_CHECKING:  # lazy at runtime: repro.farm pulls in repro.ate
    from repro.farm.executor import Executor
    from repro.farm.workunit import UnitOutcome, WorkUnit


class WCRClass(enum.Enum):
    """Fig. 6 classification regions."""

    PASS = "pass"
    WEAKNESS = "weakness"
    FAIL = "fail"


def worst_case_ratio(value: float, parameter: DeviceParameter) -> float:
    """WCR of one measured value against the parameter's spec limit.

    Raises
    ------
    ValueError
        For a zero measured value of a min-limited parameter (the ratio
        would be unbounded; a measured 0 means the measurement is broken).
    """
    if parameter.direction is SpecDirection.MIN_IS_WORST:
        if value == 0.0:
            raise ValueError("measured value of 0 gives an unbounded WCR")
        return abs(parameter.spec_limit / value)
    return abs(value / parameter.spec_limit)


@dataclass(frozen=True)
class WCRClassifier:
    """Configurable fig. 6 region boundaries.

    Attributes
    ----------
    weakness_threshold:
        Upper edge of the pass region (paper: 0.8).
    fail_threshold:
        Upper edge of the weakness region (paper: 1.0).
    """

    weakness_threshold: float = 0.8
    fail_threshold: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.weakness_threshold < self.fail_threshold:
            raise ValueError("need 0 < weakness_threshold < fail_threshold")

    def classify(self, wcr: float) -> WCRClass:
        """Region of one WCR value."""
        if wcr < 0.0:
            raise ValueError("WCR is an absolute ratio and cannot be negative")
        if wcr <= self.weakness_threshold:
            return WCRClass.PASS
        if wcr <= self.fail_threshold:
            return WCRClass.WEAKNESS
        return WCRClass.FAIL

    def classify_value(
        self, value: float, parameter: DeviceParameter
    ) -> Tuple[float, WCRClass]:
        """WCR and region of a raw measured value."""
        wcr = worst_case_ratio(value, parameter)
        return wcr, self.classify(wcr)


def batch_wcr(
    values: Iterable[float], parameter: DeviceParameter
) -> List[float]:
    """WCR of each value in a batch."""
    return [worst_case_ratio(v, parameter) for v in values]


def worst_of(
    values: Sequence[float], parameter: DeviceParameter
) -> Tuple[int, float]:
    """Index and WCR of the worst (largest-WCR) value in a batch.

    Implements the outer ``Max`` over tests of eqs. (5)/(6): the worst case
    over ``N`` tests is the largest per-test ratio.
    """
    if not values:
        raise ValueError("empty batch has no worst case")
    ratios = batch_wcr(values, parameter)
    worst_index = max(range(len(ratios)), key=ratios.__getitem__)
    return worst_index, ratios[worst_index]


# -- grid-based classification screen ------------------------------------------------
#: Work-unit kind for one chunk of a WCR classification screen.
WCR_SCREEN_UNIT = "wcr_screen"


@dataclass(frozen=True)
class ScreenEntry:
    """One test's outcome in a WCR classification screen.

    ``trip_point`` is the last passing grid strobe (grid-resolution trip
    point); ``None`` when the test never passed on the grid (functional
    failure or a boundary outside the screened range), in which case the
    test is reported as :attr:`WCRClass.FAIL` with no ratio.
    """

    test_name: str
    trip_point: Optional[float]
    wcr: Optional[float]
    wcr_class: WCRClass
    measurements: int


@dataclass(frozen=True)
class ScreenReport:
    """A full classification screen: per-test entries over one strobe grid."""

    entries: Tuple[ScreenEntry, ...]

    def counts(self) -> Dict[WCRClass, int]:
        """Tests per fig. 6 region."""
        counts = {cls: 0 for cls in WCRClass}
        for entry in self.entries:
            counts[entry.wcr_class] += 1
        return counts

    def worst(self) -> ScreenEntry:
        """The worst entry: largest WCR, with tripless tests worst of all."""
        if not self.entries:
            raise ValueError("empty screen has no worst case")
        return max(
            self.entries,
            key=lambda e: float("inf") if e.wcr is None else e.wcr,
        )

    @property
    def measurements(self) -> int:
        """Total strobed measurements spent on the screen."""
        return sum(entry.measurements for entry in self.entries)

    def render(self) -> str:
        """One line per test: name, trip, WCR, region."""
        lines = ["test                          trip (ns)      WCR  class"]
        for e in self.entries:
            trip = "-" if e.trip_point is None else f"{e.trip_point:9.4f}"
            wcr = "-" if e.wcr is None else f"{e.wcr:7.4f}"
            lines.append(
                f"{e.test_name:<28}  {trip:>9}  {wcr:>7}  {e.wcr_class.value}"
            )
        counts = self.counts()
        lines.append(
            "totals: "
            + ", ".join(f"{cls.value}={counts[cls]}" for cls in WCRClass)
        )
        return "\n".join(lines)


class WCRScreen:
    """Grid-based WCR classification sweep over many tests (fig. 6 screen).

    Unlike the trip-point searches, a screen measures every test on the
    *same* full strobe grid — the production-style "characterize the lot
    at fixed levels" flow — and classifies each test's grid trip point
    against the spec limit.  The whole grid row is one legal batch, so
    the screen is the prime consumer of the batched measurement engine:
    ``engine="batched"`` routes each row through
    :meth:`~repro.ate.tester.ATE.apply_batch`, with results, counters and
    datalog bit-identical to the scalar loop (``engine="scalar"``).
    """

    def __init__(self, ate, classifier: WCRClassifier = WCRClassifier()) -> None:
        self.ate = ate
        self.classifier = classifier

    def run(
        self,
        tests: Sequence,
        strobe_start: float,
        strobe_stop: float,
        strobe_step: float = 0.5,
        engine: str = "batched",
    ) -> ScreenReport:
        """Screen every test over ``[start, stop]`` with ``step`` spacing."""
        if engine not in ("batched", "scalar"):
            raise ValueError(f"unknown engine {engine!r}")
        grid = np.arange(strobe_start, strobe_stop + 1e-9, strobe_step)
        if grid.size == 0:
            raise ValueError("empty strobe grid")
        parameter = self.ate.chip.parameter
        entries: List[ScreenEntry] = []
        for index, test in enumerate(tests):
            if engine == "batched":
                row = self.ate.apply_batch(test, grid)
            else:
                row = np.array(
                    [self.ate.apply(test, float(s)) for s in grid], dtype=bool
                )
            name = test.name or f"test_{index}"
            passing = np.flatnonzero(row)
            if passing.size == 0:
                entries.append(
                    ScreenEntry(name, None, None, WCRClass.FAIL, grid.size)
                )
                continue
            # The trip point is the last passing grid level: the largest
            # for a min-limited parameter (pass region below the boundary),
            # the smallest for a max-limited one.
            if parameter.direction is SpecDirection.MIN_IS_WORST:
                trip = float(grid[passing[-1]])
            else:
                trip = float(grid[passing[0]])
            wcr, wcr_class = self.classifier.classify_value(trip, parameter)
            entries.append(
                ScreenEntry(name, trip, wcr, wcr_class, grid.size)
            )
        return ScreenReport(entries=tuple(entries))


# -- tester-farm sharding --------------------------------------------------------
def wcr_screen_units(
    tests: Sequence,
    strobe_start: float,
    strobe_stop: float,
    strobe_step: float,
    die,
    parameter: DeviceParameter,
    noise_sigma: float,
    campaign_seed: int = 0,
    classifier: WCRClassifier = WCRClassifier(),
    chunk_size: int = 25,
) -> List["WorkUnit"]:
    """Shard a classification screen into chunked work units.

    Each unit screens ``chunk_size`` consecutive tests on a fresh chip with
    a seed derived from ``(campaign_seed, unit_key)``;
    :func:`merge_screens` recombines the per-chunk reports in unit order.
    """
    from repro.farm.workunit import WorkUnit, derive_seed

    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    units: List["WorkUnit"] = []
    for index, start in enumerate(range(0, len(tests), chunk_size)):
        chunk = list(tests[start : start + chunk_size])
        key = f"wcr/{index:03d}"
        units.append(
            WorkUnit(
                key=key,
                kind=WCR_SCREEN_UNIT,
                payload={
                    "tests": chunk,
                    "strobe_start": float(strobe_start),
                    "strobe_stop": float(strobe_stop),
                    "strobe_step": float(strobe_step),
                    "die": die,
                    "parameter": parameter,
                    "noise_sigma": float(noise_sigma),
                    "classifier": classifier,
                },
                seed=derive_seed(campaign_seed, key),
                index=index,
                cost_hint=float(sum(t.cycles for t in chunk)),
            )
        )
    return units


def run_wcr_unit(unit) -> "UnitOutcome":
    """Execute one ``wcr_screen`` work unit: one chunk's screen rows.

    Module-level and self-contained (fresh chip and tester, noise stream
    from the unit seed) so it can run in a farm worker process.
    """
    from repro.ate.tester import ATE
    from repro.farm.workunit import UnitOutcome

    cfg = unit.payload
    ate = ATE.fresh_insertion(
        cfg["die"], cfg["parameter"],
        noise_sigma=cfg["noise_sigma"], seed=unit.seed,
    )
    report = WCRScreen(ate, classifier=cfg["classifier"]).run(
        cfg["tests"],
        strobe_start=cfg["strobe_start"],
        strobe_stop=cfg["strobe_stop"],
        strobe_step=cfg["strobe_step"],
    )
    return UnitOutcome(value=report, measurements=ate.measurement_count)


def merge_screens(reports: Sequence[ScreenReport]) -> ScreenReport:
    """Deterministically merge per-chunk screen reports into one.

    Entries are concatenated in the given order, so merging farm results
    (returned in submission order) yields the same report regardless of
    worker count.
    """
    if not reports:
        raise ValueError("merge needs at least one report")
    entries: List[ScreenEntry] = []
    for report in reports:
        entries.extend(report.entries)
    return ScreenReport(entries=tuple(entries))


def run_screen_farm(
    tests: Sequence,
    strobe_start: float,
    strobe_stop: float,
    strobe_step: float,
    die,
    parameter: DeviceParameter,
    noise_sigma: float,
    campaign_seed: int = 0,
    classifier: WCRClassifier = WCRClassifier(),
    chunk_size: int = 25,
    executor: Optional[Executor] = None,
) -> ScreenReport:
    """Run a classification screen through the tester farm.

    Shards the tests into chunked work units, executes them on
    ``executor`` (serial when omitted), and merges the per-chunk reports
    in submission order — the merged report is identical for any worker
    count (each chunk's noise stream comes from its own derived seed).
    """
    from repro.farm.executor import SerialExecutor

    units = wcr_screen_units(
        tests,
        strobe_start,
        strobe_stop,
        strobe_step,
        die,
        parameter,
        noise_sigma,
        campaign_seed=campaign_seed,
        classifier=classifier,
        chunk_size=chunk_size,
    )
    campaign_id = (
        f"wcr-screen:seed={campaign_seed}:tests={len(tests)}"
        f":grid=[{strobe_start},{strobe_stop},{strobe_step}]"
    )
    results = (executor or SerialExecutor()).run(
        units, run_wcr_unit, campaign=campaign_id
    )
    return merge_screens([r.value for r in results])

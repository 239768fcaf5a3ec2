"""Wafer probing with worst-case test sets.

The paper's final analysis step re-runs worst-case tests "with ATE (e.g.
wafer probing analysis) to localize the design weakness efficiently".
:class:`WaferProber` touches down on every
:class:`~repro.device.wafer.DieSite`, characterizes a test set on that
die (through the same lot machinery as package-level characterization) and
renders the per-die worst-case WCR as an ASCII wafer map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.lot import DieResult, LotCharacterizer, run_lot_unit
from repro.farm.executor import Executor, SerialExecutor
from repro.device.parameters import DeviceParameter, T_DQ_PARAMETER
from repro.device.wafer import DieSite, RadialVariationModel, Wafer
from repro.patterns.testcase import TestCase

#: Density ramp for the wafer map (low WCR -> high WCR).
_MAP_CHARS = ".:-=+*#%@"


@dataclass
class WaferProbeReport:
    """Per-site characterization results plus map rendering."""

    parameter: DeviceParameter
    grid_diameter: int
    results: Dict[DieSite, DieResult] = field(default_factory=dict)

    def worst_site(self) -> Tuple[DieSite, DieResult]:
        """Site with the largest worst-case WCR."""
        if not self.results:
            raise ValueError("empty wafer report")
        site = max(self.results, key=lambda s: self.results[s].worst_wcr)
        return site, self.results[site]

    def center_vs_edge(self) -> Tuple[float, float]:
        """Mean worst-case value for inner vs outer halves of the radius."""
        inner = [
            r.worst_value
            for s, r in self.results.items()
            if s.radius_norm <= 0.5
        ]
        outer = [
            r.worst_value
            for s, r in self.results.items()
            if s.radius_norm > 0.5
        ]
        if not inner or not outer:
            raise ValueError("need both inner and outer sites")
        return float(np.mean(inner)), float(np.mean(outer))

    def render_map(self) -> str:
        """ASCII wafer map of per-die worst-case WCR (darker = worse)."""
        wcrs = [r.worst_wcr for r in self.results.values()]
        lo, hi = min(wcrs), max(wcrs)
        span = max(hi - lo, 1e-9)
        by_position = {(s.x, s.y): r for s, r in self.results.items()}
        lines = [
            f"wafer map — worst-case WCR per die "
            f"(min {lo:.3f} '{_MAP_CHARS[0]}' .. max {hi:.3f} "
            f"'{_MAP_CHARS[-1]}')"
        ]
        for y in range(self.grid_diameter):
            row = []
            for x in range(self.grid_diameter):
                result = by_position.get((x, y))
                if result is None:
                    row.append(" ")
                else:
                    level = int(
                        (result.worst_wcr - lo) / span * (len(_MAP_CHARS) - 1)
                    )
                    row.append(_MAP_CHARS[level])
            lines.append("  " + " ".join(row))
        return "\n".join(lines)


class WaferProber:
    """Characterize every die site of a wafer with one test set."""

    def __init__(
        self,
        wafer: Wafer,
        variation: RadialVariationModel,
        search_range: Tuple[float, float],
        parameter: DeviceParameter = T_DQ_PARAMETER,
        noise_sigma: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.wafer = wafer
        self.variation = variation
        self.parameter = parameter
        self._lot = LotCharacterizer(
            search_range=search_range,
            parameter=parameter,
            process=variation.process,
            noise_sigma=noise_sigma,
            seed=seed,
        )

    def probe(
        self,
        tests: Sequence[TestCase],
        executor: Optional[Executor] = None,
        rtp_broadcast: bool = False,
    ) -> WaferProbeReport:
        """Touch down on every site and characterize the test set.

        Dies are sampled from the variation model in site order in the
        calling process, then sharded one work unit per site on
        ``executor`` (serial when omitted; a process pool is a probe-card
        farm).  Each site's noise stream is derived from
        ``(seed, site_key)``, so results are identical for any worker
        count, and an executor built with a checkpoint resumes an
        interrupted probe without re-touching finished sites.
        """
        if not tests:
            raise ValueError("need at least one test")
        report = WaferProbeReport(
            parameter=self.parameter, grid_diameter=self.wafer.grid_diameter
        )
        sites = list(self.wafer.sites)
        deck = tuple(tests)
        units = [
            self._lot.die_unit(
                self.variation.die_at(site),
                deck,
                key=f"site/{site.x:02d}x{site.y:02d}",
                index=i,
            )
            for i, site in enumerate(sites)
        ]
        campaign = (
            f"wafer:seed={self._lot.seed}:sites={len(sites)}"
            f":tests={len(tests)}:param={self.parameter.name}"
        )
        results = (executor or SerialExecutor()).run(
            units, run_lot_unit, rtp_broadcast=rtp_broadcast,
            campaign=campaign,
        )
        for site, result in zip(sites, results):
            report.results[site] = result.value
        return report

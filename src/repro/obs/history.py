"""Run-history store and cost-regression comparison.

Sommeregger & Pilz (arXiv:2501.07115) motivate watching characterization
cost drift *across* runs, not just within one.  This module gives each
campaign a ``runs.jsonl``: one JSON line per run, recording the
measurement cost (the paper's fig. 3 / eqs. 2-4 economics), wall clock
and per-test breakdown, plus a comparison that flags regressions against
a named baseline run — ``repro obs compare`` exits non-zero when the
total measurement cost regresses beyond the threshold.

The loader is deliberately tolerant: lines from unknown schema versions
(or other writers) are counted and kept best-effort rather than
rejected, so old baselines stay loadable as the format evolves.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.ioutil import durable_append_line, iter_jsonl
from repro.obs.metrics import MetricsRegistry

RUN_SCHEMA = 1
RUN_KIND = "repro.obs.run"


def build_run_record(
    name: str,
    registry: MetricsRegistry,
    campaign: str = "",
    command: str = "",
    wall_s: float = 0.0,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    cpu_user_s: Optional[float] = None,
    cpu_system_s: Optional[float] = None,
) -> Dict[str, object]:
    """One run's cost record, built from the live metrics registry.

    ``cpu_user_s``/``cpu_system_s`` are the process's cumulative CPU
    split (children included — see
    :func:`repro.obs.profile.process_cpu_seconds`); their sum is stored
    as ``cpu_s`` so comparisons gate one number.  ``None`` (old callers)
    records ``cpu_s: null`` and keeps CPU comparison advisory-n/a.
    """
    measurements = registry.counters.get("ate.measurements")
    units = registry.counters.get("farm.units")
    retries = registry.counters.get("farm.unit_retries")
    dropped = registry.counters.get("farm.checkpoint.dropped_lines")
    cpu_s: Optional[float] = None
    if cpu_user_s is not None or cpu_system_s is not None:
        cpu_s = round((cpu_user_s or 0.0) + (cpu_system_s or 0.0), 6)
    return {
        "schema": RUN_SCHEMA,
        "kind": RUN_KIND,
        "run": name,
        "campaign": campaign,
        "command": command,
        "ts": time.time(),
        "wall_s": round(float(wall_s), 6),
        "cpu_user_s": None if cpu_user_s is None else round(cpu_user_s, 6),
        "cpu_system_s": None if cpu_system_s is None else round(cpu_system_s, 6),
        "cpu_s": cpu_s,
        "workers": workers,
        "seed": seed,
        "measurements": measurements.value if measurements else 0,
        "per_test": dict(measurements.by_label) if measurements else {},
        "farm_units": units.value if units else 0,
        "farm_retries": retries.value if retries else 0,
        "checkpoint_dropped_lines": dropped.value if dropped else 0,
    }


def bench_run_record(
    payload: Dict[str, object], name: Optional[str] = None
) -> Dict[str, object]:
    """Convert a ``BENCH_<bench>.json`` payload into a run record.

    A bench's machine-readable numbers live under ``data``; every key
    named ``measurements`` or ending in ``_measurements`` is treated as a
    measurement-cost series: the keys become ``per_test`` entries and
    their sum the record's gated ``measurements`` total, so
    :func:`compare_runs` (and ``repro obs compare``) gate benches exactly
    like campaign runs.  The record is named after the bench unless
    ``name`` overrides it (CI appends a suffix to compare a fresh run
    against the committed baseline of the same bench).
    """
    data = payload.get("data") or {}
    per_test: Dict[str, int] = {}
    if isinstance(data, dict):
        for key in sorted(data):
            if key == "measurements" or key.endswith("_measurements"):
                per_test[key] = int(data[key])
    return {
        "schema": RUN_SCHEMA,
        "kind": RUN_KIND,
        "run": name or str(payload.get("bench", "bench")),
        "campaign": "bench",
        "command": "bench",
        "ts": time.time(),
        "wall_s": round(float(payload.get("wall_s", 0.0) or 0.0), 6),
        "cpu_s": (
            round(float(payload["cpu_s"]), 6)
            if isinstance(payload.get("cpu_s"), (int, float))
            else None
        ),
        "workers": None,
        "seed": None,
        "measurements": sum(per_test.values()),
        "per_test": per_test,
        "farm_units": 0,
        "farm_retries": 0,
        "checkpoint_dropped_lines": 0,
    }


@dataclass
class HistoryLoad:
    """Result of a tolerant history load."""

    records: List[Dict[str, object]] = field(default_factory=list)
    dropped_lines: int = 0
    unknown_schema: int = 0


class RunHistory:
    """Append-only ``runs.jsonl`` store of run records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, record: Dict[str, object]) -> None:
        """Append one record, durably (flush + fsync).

        A run record is written once at campaign exit; a crash right
        then must not leave a torn line for the next load — or for a
        ``repro store import`` migration — to drop.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            durable_append_line(handle, json.dumps(record, sort_keys=True))

    def next_default_name(self) -> str:
        """``run-<n>`` with ``n`` = number of records already stored."""
        return f"run-{len(self.load().records)}"

    def load(self) -> HistoryLoad:
        """Every run record on disk, in append order — tolerantly.

        Unparseable lines are dropped (and counted); parseable records
        with an unrecognized ``schema`` are *kept* (and counted) so a
        newer writer's baselines remain usable as far as their fields
        overlap with ours.
        """
        loaded = HistoryLoad()
        if not self.path.exists():
            return loaded
        for _, record in iter_jsonl(self.path):
            if record is None or record.get("kind") != RUN_KIND:
                loaded.dropped_lines += 1
                continue
            if record.get("schema") != RUN_SCHEMA:
                loaded.unknown_schema += 1
            loaded.records.append(record)
        return loaded

    def find(self, name: str) -> Optional[Dict[str, object]]:
        """The most recent record named ``name`` (``None`` if absent)."""
        found = None
        for record in self.load().records:
            if record.get("run") == name:
                found = record
        return found

    def latest(self) -> Optional[Dict[str, object]]:
        """The most recently appended record."""
        records = self.load().records
        return records[-1] if records else None


def _delta_pct(baseline: float, current: float) -> Optional[float]:
    if not baseline:
        return None
    return (current - baseline) / baseline * 100.0


@dataclass
class RunComparison:
    """A run measured against a baseline run."""

    baseline: Dict[str, object]
    run: Dict[str, object]
    threshold_pct: float = 5.0
    #: Optional wall-clock gate, in percent.  ``None`` (the default) keeps
    #: wall clock purely advisory — the right setting for CI runners,
    #: whose speed varies run to run.
    wall_threshold_pct: Optional[float] = None
    #: Optional CPU-time gate, in percent.  CPU seconds are steadier than
    #: wall clock (no scheduling noise) but still host-dependent, so the
    #: delta is always *reported* and only gates when a threshold is set
    #: (``obs compare --cpu-threshold``).
    cpu_threshold_pct: Optional[float] = None

    @property
    def measurement_delta_pct(self) -> Optional[float]:
        return _delta_pct(
            float(self.baseline.get("measurements", 0) or 0),
            float(self.run.get("measurements", 0) or 0),
        )

    @property
    def wall_delta_pct(self) -> Optional[float]:
        return _delta_pct(
            float(self.baseline.get("wall_s", 0.0) or 0.0),
            float(self.run.get("wall_s", 0.0) or 0.0),
        )

    @property
    def wall_regressed(self) -> bool:
        """True when a wall-clock gate is set and exceeded."""
        if self.wall_threshold_pct is None:
            return False
        delta = self.wall_delta_pct
        return delta is not None and delta > self.wall_threshold_pct

    @property
    def cpu_delta_pct(self) -> Optional[float]:
        """CPU-seconds delta in percent (``None`` when either record
        predates the ``cpu_s`` field)."""
        baseline = self.baseline.get("cpu_s")
        current = self.run.get("cpu_s")
        if not isinstance(baseline, (int, float)) or not isinstance(
            current, (int, float)
        ):
            return None
        return _delta_pct(float(baseline), float(current))

    @property
    def cpu_regressed(self) -> bool:
        """True when a CPU-time gate is set and exceeded."""
        if self.cpu_threshold_pct is None:
            return False
        delta = self.cpu_delta_pct
        return delta is not None and delta > self.cpu_threshold_pct

    @property
    def regressed(self) -> bool:
        """True when measurement cost regressed beyond the threshold.

        Measurement count is the deterministic cost axis (the paper's
        argument); wall clock is reported but advisory — it varies with
        host load and worker count — unless an explicit
        ``wall_threshold_pct`` opts it into the gate.
        """
        delta = self.measurement_delta_pct
        if delta is not None and delta > self.threshold_pct:
            return True
        return self.wall_regressed or self.cpu_regressed

    def per_test_regressions(self, count: int = 10) -> List[Dict[str, object]]:
        """The largest per-test measurement increases, descending."""
        base: Dict[str, int] = dict(self.baseline.get("per_test") or {})
        cur: Dict[str, int] = dict(self.run.get("per_test") or {})
        rows = []
        for name in sorted(set(base) | set(cur)):
            before, after = int(base.get(name, 0)), int(cur.get(name, 0))
            if after > before:
                rows.append(
                    {"test": name, "baseline": before, "run": after,
                     "delta": after - before}
                )
        rows.sort(key=lambda r: (-r["delta"], r["test"]))
        return rows[:count]

    def render(self) -> str:
        """Human-readable comparison report."""

        def fmt(delta: Optional[float]) -> str:
            return "n/a" if delta is None else f"{delta:+.2f}%"

        lines = [
            f"== run comparison: {self.run.get('run')} vs baseline "
            f"{self.baseline.get('run')} ==",
            f"  measurements: {self.baseline.get('measurements', 0)} -> "
            f"{self.run.get('measurements', 0)} "
            f"({fmt(self.measurement_delta_pct)}, "
            f"threshold {self.threshold_pct:+.1f}%)",
            f"  wall clock:   {float(self.baseline.get('wall_s', 0) or 0):.3f}s"
            f" -> {float(self.run.get('wall_s', 0) or 0):.3f}s "
            f"({fmt(self.wall_delta_pct)}, "
            + (
                "advisory)"
                if self.wall_threshold_pct is None
                else f"threshold {self.wall_threshold_pct:+.1f}%)"
            ),
        ]

        def cpu(record: Dict[str, object]) -> str:
            value = record.get("cpu_s")
            return f"{float(value):.3f}s" if isinstance(value, (int, float)) else "n/a"

        lines.append(
            f"  cpu time:     {cpu(self.baseline)} -> {cpu(self.run)} "
            f"({fmt(self.cpu_delta_pct)}, "
            + (
                "advisory)"
                if self.cpu_threshold_pct is None
                else f"threshold {self.cpu_threshold_pct:+.1f}%)"
            )
        )
        worst = self.per_test_regressions()
        if worst:
            lines.append("  costlier tests:")
            for row in worst:
                lines.append(
                    f"    - {row['test']:<28} {row['baseline']:>6} -> "
                    f"{row['run']:>6} (+{row['delta']})"
                )
        if self.regressed:
            measurement_hit = (
                self.measurement_delta_pct is not None
                and self.measurement_delta_pct > self.threshold_pct
            )
            if measurement_hit:
                verdict = "MEASUREMENT COST REGRESSION"
            elif self.wall_regressed:
                verdict = "WALL CLOCK REGRESSION"
            else:
                verdict = "CPU TIME REGRESSION"
        else:
            verdict = "ok"
        lines.append("  verdict: " + verdict)
        return "\n".join(lines)


def compare_runs(
    history: RunHistory,
    baseline_name: str,
    run_name: Optional[str] = None,
    threshold_pct: float = 5.0,
    wall_threshold_pct: Optional[float] = None,
    cpu_threshold_pct: Optional[float] = None,
) -> RunComparison:
    """Compare ``run_name`` (default: the latest run) to the baseline.

    Raises
    ------
    KeyError
        When either run is not found in the history.
    """
    baseline = history.find(baseline_name)
    if baseline is None:
        raise KeyError(f"baseline run {baseline_name!r} not in {history.path}")
    run = history.find(run_name) if run_name else history.latest()
    if run is None:
        wanted = run_name if run_name else "<latest>"
        raise KeyError(f"run {wanted!r} not in {history.path}")
    return RunComparison(
        baseline=baseline,
        run=run,
        threshold_pct=threshold_pct,
        wall_threshold_pct=wall_threshold_pct,
        cpu_threshold_pct=cpu_threshold_pct,
    )

#!/usr/bin/env python
"""Cross-process farm telemetry: trace a parallel lot, then mine it.

A 4-worker lot characterization with tracing on.  Every worker captures
its own per-measurement telemetry into a spool, ships it back with the
unit outcome, and the parent merges everything in submission order — so
the merged trace reads exactly like a serial run's, with each event
stamped with the campaign (`trace_id`), the unit (`span_id`) and the
worker process that produced it.  The walkthrough then shows the four
inspection views the `repro obs` CLI family exposes:

1. the trace summary: event counts, per-worker busy time, costliest
   tests, drop warnings;
2. the slowest work units;
3. a Chrome-trace/Perfetto timeline (one track per worker — open the
   JSON at https://ui.perfetto.dev);
4. run history: record two runs, then compare their measurement cost
   the way `repro obs compare` gates a CI regression.

Usage::

    python examples/farm_trace.py [output_dir]
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.core.lot import LotCharacterizer
from repro.farm.executor import make_executor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

N_DIES = 8
N_TESTS = 6


def run_traced_lot(trace_path, seed):
    """One 4-worker lot with telemetry on; returns (report, wall clock)."""
    obs.configure(trace_path=trace_path)
    tests = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=seed).batch(N_TESTS)
    ]
    lot = LotCharacterizer(search_range=(15.0, 45.0), seed=seed)
    start = time.perf_counter()
    report = lot.run(tests, n_dies=N_DIES, executor=make_executor(4))
    return report, time.perf_counter() - start


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "lot.jsonl"

    # --- 1. run the lot on 4 workers with a JSONL trace sink ------------
    report, wall_s = run_traced_lot(trace_path, seed=8)
    measurements = sum(d.measurements for d in report.dies)
    print(f"lot done: {len(report.dies)} dies, "
          f"{measurements} measurements, {wall_s:.2f}s wall")

    # Record the run's cost in a history file before resetting (the
    # registry still holds the campaign's counters) — this is what
    # `--run-log FILE --run-name NAME` does at CLI exit.
    history = obs.RunHistory(out / "runs.jsonl")
    history.append(obs.build_run_record(
        "baseline", obs.OBS.metrics, campaign="example-lot",
        command="examples/farm_trace.py", wall_s=wall_s, workers=4, seed=8,
    ))
    obs.reset()

    # --- 2. the summary: `repro obs summary lot.jsonl` ------------------
    fold = obs.TraceFold()
    records = list(fold.read(trace_path))
    print()
    print(obs.render_trace_summary(fold))

    # --- 3. the slowest units: `repro obs slowest lot.jsonl -n 5` -------
    print()
    print(obs.render_slowest(fold, count=5))

    # --- 4. the timeline: `repro obs timeline lot.jsonl` ----------------
    timeline = obs.build_chrome_trace(records)
    timeline_path = out / "timeline.json"
    timeline_path.write_text(json.dumps(timeline))
    print()
    print(f"timeline: {len(timeline['traceEvents'])} trace event(s) in "
          f"{timeline_path} — open at ui.perfetto.dev")

    # --- 5. run history: a second run, then the regression gate ---------
    report2, wall2 = run_traced_lot(out / "lot2.jsonl", seed=8)
    history.append(obs.build_run_record(
        history.next_default_name(), obs.OBS.metrics, campaign="example-lot",
        command="examples/farm_trace.py", wall_s=wall2, workers=4, seed=8,
    ))
    obs.reset()

    comparison = obs.compare_runs(history, "baseline")
    print()
    print(comparison.render())
    # Same seed, same campaign: the measurement cost is identical, so the
    # comparison passes.  A code change that made searches more expensive
    # would flip `comparison.regressed` — `repro obs compare` exits 1 on
    # that, which is the CI gate.
    assert not comparison.regressed


if __name__ == "__main__":
    main()

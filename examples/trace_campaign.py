#!/usr/bin/env python
"""Telemetry walkthrough: trace a small campaign, then mine the trace.

Enables the observability layer with a JSONL trace sink, runs a miniature
Table-1 style campaign (march + random + a short NN+GA hunt), and then
shows the three things the obs layer gives you:

1. the metrics summary (--metrics in the CLI): measurement counts per
   test, SUTP full-vs-incremental split, GA/NN progress, phase timings;
2. the fig. 3 per-test measurement-cost profile rebuilt from the trace;
3. raw event access for ad-hoc questions (here: how much of the total
   measurement budget the SUTP bootstrap searches consumed).

Runs in roughly half a minute.

Usage::

    python examples/trace_campaign.py [trace.jsonl]
"""

import sys
import tempfile
from pathlib import Path

from repro import DeviceCharacterizer, obs
from repro.core.learning import LearningConfig
from repro.core.optimization import OptimizationConfig
from repro.ga.engine import GAConfig
from repro.patterns.conditions import NOMINAL_CONDITION


def main() -> None:
    if len(sys.argv) > 1:
        trace_path = Path(sys.argv[1])
    else:
        trace_path = Path(tempfile.gettempdir()) / "repro_trace.jsonl"

    # 1. Turn telemetry on with a JSONL sink.  Everything below runs
    #    exactly as it would untraced — same seeds, same results.
    obs.configure(trace_path=trace_path)

    characterizer = DeviceCharacterizer.with_default_setup(seed=42)
    report = characterizer.run_table1_comparison(
        random_tests=60,
        learning_config=LearningConfig(
            tests_per_round=60,
            max_rounds=1,
            max_epochs=60,
            n_networks=3,
            pin_condition=NOMINAL_CONDITION,
            seed=42,
        ),
        optimization_config=OptimizationConfig(
            ga=GAConfig(population_size=12, n_populations=2, max_generations=10),
            n_seeds=8,
            seed_pool_size=120,
            pin_condition=NOMINAL_CONDITION,
            seed=42,
        ),
    )
    print(report.to_text())
    print()

    # 2. The metrics summary — what `--metrics` prints at CLI exit.
    print(obs.render_metrics_summary(obs.OBS.metrics))
    print()

    # 3. Flush the trace and mine it.
    obs.reset()
    fold = obs.TraceFold()
    records = list(fold.read(trace_path))
    print(f"trace: {fold.events} events in {trace_path}")
    print()
    print(obs.render_trace_cost_profile(fold, max_tests=15))
    print()

    # Ad-hoc analysis straight off the events: the cost of full-range
    # searches (eq. 2 bootstraps + fallbacks) vs the whole campaign.
    searches = [r for r in records if r["type"] == "search_converged"]
    full_cost = sum(int(r["measurements"]) for r in searches)
    total = fold.counts.get("measurement", 0)
    walk_steps = fold.counts.get("sutp_walk_step", 0)
    print(
        f"full-range searches: {len(searches)} costing {full_cost} "
        f"measurements; incremental walk steps: {walk_steps}; "
        f"campaign total: {total} measurements"
    )
    print(
        "every measurement NOT spent in a full search is the SUTP saving "
        "the paper's fig. 3 argues for"
    )


if __name__ == "__main__":
    main()

"""The trace's write-side shape: which event types a run writes, and the
key order of every line.

The check is value-free — no timestamp, float or count is compared — so
it holds across numpy versions.  It pins what the JSONL consumers (the
trace fold, the timeline, the service's event pages) can rely on: the
``type`` key first, then the event's fields in schema order, then the
write-time stamps (``ts`` and, inside a farm unit, the trace context).
"""

import json

from repro import obs
from repro.cli import main
from repro.farm.executor import available_cpus

_FARM_CONTEXT = ("ts", "trace_id", "span_id", "worker", "attempt")

TABLE1_FAST = {
    ("campaign_phase", ("type", "phase", "status", "duration_s", "ts")),
    (
        "ga_generation",
        (
            "type", "generation", "best_fitness", "mean_fitness",
            "evaluations", "restarts", "std_fitness", "sequence_diversity",
            "condition_diversity", "best_operator", "ts",
        ),
    ),
    ("measurement", ("type", "index", "test_name", "strobe_ns", "passed", "ts")),
    (
        "nn_calibration",
        (
            "type", "round", "labels", "matrix", "accuracy", "mean_entropy",
            "mean_margin", "ts",
        ),
    ),
    ("nn_epoch", ("type", "epoch", "train_loss", "val_loss", "ts")),
    (
        "nn_vote",
        (
            "type", "sample", "votes", "predicted", "actual", "entropy",
            "margin", "agreement", "ts",
        ),
    ),
    (
        "search_converged",
        ("type", "method", "trip_point", "measurements", "ts"),
    ),
    ("search_started", ("type", "method", "low", "high", "ts")),
    (
        "sutp_test_measured",
        (
            "type", "test_name", "trip_point", "measurements",
            "used_full_search", "iterations", "rtp", "drift", "ts",
        ),
    ),
    ("sutp_walk_step", ("type", "iteration", "value", "passed", "ts")),
    (
        "sutp_window_escalated",
        ("type", "iteration", "step", "window", "probes", "fallback", "ts"),
    ),
}

LOT_2_WORKERS = {
    ("campaign_phase", ("type", "phase", "status", "duration_s", "ts")),
    (
        "farm_run_started",
        ("type", "campaign", "units", "executor", "workers", "ts"),
    ),
    (
        "farm_unit_completed",
        (
            "type", "key", "kind", "attempt", "elapsed_s", "measurements",
            "worker", "ts",
        ),
    ),
    (
        "farm_unit_dispatched",
        ("type", "key", "kind", "attempt", "executor", "ts"),
    ),
    (
        "farm_unit_merged",
        (
            "type", "key", "events", "dropped_events", "measurements",
            "worker", "ts",
        ),
    ),
    ("farm_worker_pool", ("type", "status", "workers", "ts")),
    (
        "measurement",
        ("type", "index", "test_name", "strobe_ns", "passed") + _FARM_CONTEXT,
    ),
    (
        "search_converged",
        ("type", "method", "trip_point", "measurements") + _FARM_CONTEXT,
    ),
    ("search_started", ("type", "method", "low", "high") + _FARM_CONTEXT),
    (
        "sutp_test_measured",
        (
            "type", "test_name", "trip_point", "measurements",
            "used_full_search", "iterations", "rtp", "drift",
        )
        + _FARM_CONTEXT,
    ),
    (
        "sutp_walk_step",
        ("type", "iteration", "value", "passed") + _FARM_CONTEXT,
    ),
    (
        "sutp_window_escalated",
        ("type", "iteration", "step", "window", "probes", "fallback")
        + _FARM_CONTEXT,
    ),
}


def _shapes(tmp_path, argv):
    path = tmp_path / "trace.jsonl"
    try:
        assert main(["--trace", str(path)] + argv) == 0
    finally:
        obs.reset()
    with path.open() as handle:
        return {
            (record["type"], tuple(record))
            for record in map(json.loads, handle)
        }


def test_table1_fast_trace_shape(tmp_path):
    assert _shapes(tmp_path, ["table1", "--fast"]) == TABLE1_FAST


def test_two_worker_lot_trace_shape(tmp_path):
    expected = set(LOT_2_WORKERS)
    if available_cpus() < 2:
        # The pool is sized down to the CPUs, and says so.
        expected.add(
            ("farm_workers_clamped", ("type", "requested", "workers", "ts"))
        )
    argv = ["--workers", "2", "lot", "--dies", "4", "--tests", "3"]
    assert _shapes(tmp_path, argv) == expected

#!/usr/bin/env python
"""Tester-farm lot characterization: sharding, RTP broadcast, resume.

A real lab shards a lot across a farm of identical testers.  `repro.farm`
reproduces that workflow while keeping the result *byte-identical* to a
single-tester run:

1. run the same 8-die lot serially and on 4 worker processes and show the
   reports (and the exported worst-case databases) are identical;
2. turn on the RTP pilot broadcast — the first die's reference trip point
   seeds every other die's SUTP walk — and show the measurement saving;
3. checkpoint a run, "kill" it halfway by truncating the file, and resume
   without re-measuring the finished dies.

Usage::

    python examples/parallel_lot.py
"""

import tempfile
from pathlib import Path

from repro.core.lot import LotCharacterizer
from repro.farm.checkpoint import CheckpointStore
from repro.farm.executor import SerialExecutor, make_executor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator

N_DIES = 8


def make_lot():
    return LotCharacterizer(search_range=(15.0, 45.0), seed=8)


def main() -> None:
    tests = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=8).batch(6)
    ]

    # 1. Serial vs 4-worker farm: identical results.
    print(f"== {N_DIES}-die lot: serial vs 4-worker farm ==")
    serial = make_lot().run(tests, n_dies=N_DIES)
    farm = make_lot().run(tests, n_dies=N_DIES, executor=make_executor(4))
    print(f"identical die reports: {serial.dies == farm.dies}")

    with tempfile.TemporaryDirectory() as tmp:
        serial_json = Path(tmp) / "serial.json"
        farm_json = Path(tmp) / "farm.json"
        serial.to_database(tests).export_json(serial_json)
        farm.to_database(tests).export_json(farm_json)
        identical = serial_json.read_bytes() == farm_json.read_bytes()
    print(f"byte-identical database export: {identical}")
    worst = serial.worst_die()
    print(
        f"lot worst case: die #{worst.die.die_id} on {worst.worst_test_name!r}"
        f" -> {worst.worst_value:.2f} ns"
    )

    # 2. RTP broadcast: the pilot die's reference trip point seeds every
    #    other die's SUTP walk (the paper's section-4 economics, farmed).
    print()
    print("== RTP pilot broadcast ==")
    broadcast = make_lot().run(
        tests, n_dies=N_DIES, executor=make_executor(4), rtp_broadcast=True
    )
    plain_cost = sum(d.measurements for d in serial.dies)
    broadcast_cost = sum(d.measurements for d in broadcast.dies)
    print(f"without broadcast: {plain_cost} tester measurements")
    print(
        f"with broadcast:    {broadcast_cost} tester measurements "
        f"({plain_cost - broadcast_cost} saved)"
    )

    # 3. Checkpoint/resume: write a checkpoint, truncate it to simulate a
    #    kill after 3 dies, and resume.  The executor opens the file for
    #    each run and closes it after.
    print()
    print("== checkpoint / resume ==")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "lot.jsonl"
        executor = SerialExecutor(checkpoint=ckpt)
        make_lot().run(tests, n_dies=N_DIES, executor=executor)
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[:4]))  # header + 3 completed dies
        done = len(CheckpointStore(ckpt).load())
        print(f"simulated kill: checkpoint holds {done}/{N_DIES} dies")
        resumed = make_lot().run(tests, n_dies=N_DIES, executor=executor)
        remeasured = N_DIES - done
        print(
            f"resumed run re-measured {remeasured} dies, "
            f"matches full run: {resumed.dies == serial.dies}"
        )


if __name__ == "__main__":
    main()

"""A pool worker measures; it does not import.

Every ``lot``/``wafer``/``sweep``/``screen --workers N`` run forks a fresh
process pool, so a module a runner imports lazily is imported again in
every worker of every run.  Each of the four farm runners goes through a
one-worker :class:`~repro.farm.executor.ParallelExecutor` wrapped in
:func:`tests.farm.runners.import_probe_runner`, and every unit must leave
``sys.modules`` as it found it.

The pool is started from a fresh interpreter: a worker forked from the
test process would inherit whatever earlier tests imported and could not
show an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_PROBE_SCRIPT = """
import json
import sys
from dataclasses import replace

from repro.ate.shmoo import run_shmoo_unit, shmoo_overlay_units
from repro.ate.tester import ATE
from repro.core.lot import (
    EnvironmentalSweep, LotCharacterizer, run_env_unit, run_lot_unit,
)
from repro.core.wcr import run_wcr_unit, wcr_screen_units
from repro.device.memory_chip import MemoryTestChip
from repro.device.process import NOMINAL_DIE
from repro.farm.executor import ParallelExecutor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator
from tests.farm.runners import import_probe_runner

SEARCH_RANGE = (15.0, 45.0)
deck = tuple(
    t.with_condition(NOMINAL_CONDITION)
    for t in RandomTestGenerator(seed=3).batch(4)
)
parameter = MemoryTestChip().parameter
lot = LotCharacterizer(SEARCH_RANGE, seed=1)
sweep = EnvironmentalSweep(ATE(MemoryTestChip()), SEARCH_RANGE, seed=1)
batches = {
    "run_lot_unit": (run_lot_unit, [
        lot.die_unit(die, deck, index=i)
        for i, die in enumerate(lot.process.sample_lot(2))
    ]),
    "run_env_unit": (run_env_unit, [
        sweep.cell_unit(deck[0], row, 0, vdd, 25.0, index=row)
        for row, vdd in enumerate((1.7, 1.9))
    ]),
    "run_wcr_unit": (run_wcr_unit, wcr_screen_units(
        deck, *SEARCH_RANGE, 0.5, die=NOMINAL_DIE, parameter=parameter,
        noise_sigma=0.02, campaign_seed=5, chunk_size=2,
    )),
    "run_shmoo_unit": (run_shmoo_unit, shmoo_overlay_units(
        deck[:2], (1.7, 1.9), *SEARCH_RANGE, 0.5, 0.05,
        die=NOMINAL_DIE, parameter=parameter, noise_sigma=0.02,
    )),
}
report = {"parent_has_numpy_ma": "numpy.ma" in sys.modules}
for name, (inner, units) in batches.items():
    probed = [replace(u, payload={**u.payload, "inner": inner}) for u in units]
    results = ParallelExecutor(workers=1).run(probed, import_probe_runner)
    report[name] = [result.value[0] for result in results]
print(json.dumps(report))
"""


def test_farm_workers_import_nothing_while_they_measure():
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"}
    run = subprocess.run(
        [sys.executable, "-c", _PROBE_SCRIPT],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    # numpy.ma is the lazy import the probe was written for: the pool's
    # parent must not hold it, or the workers would inherit it unseen.
    assert report.pop("parent_has_numpy_ma") is False
    assert report == {
        runner: [[] for _ in units] for runner, units in report.items()
    }
    assert [len(units) for units in report.values()] == [2, 2, 2, 2]

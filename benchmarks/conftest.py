"""Shared benchmark fixtures.

Every bench regenerates one paper artifact (table or figure).  Numbers are
printed to stdout *and* appended to ``benchmarks/results/<bench>.txt`` so a
``pytest benchmarks/ --benchmark-only`` run leaves a reviewable record; the
EXPERIMENTS.md paper-vs-measured index is built from those records.

Each bench additionally leaves a machine-readable record,
``benchmarks/results/BENCH_<bench>.json``: wall clock, host CPU count and
python version, plus whatever numbers the bench reports via
``report_sink.json(...)`` (measurement counts, speedups, ...).  CI and the
run-history tooling consume these instead of scraping the text records.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.obs.profile import process_cpu_seconds
from repro.core.characterizer import DeviceCharacterizer
from repro.core.learning import LearningConfig, LearningScheme
from repro.core.trip_point import MultipleTripPointRunner
from repro.device.memory_chip import MemoryTestChip
from repro.farm.executor import available_cpus as host_cpus
from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SEARCH_RANGE = (15.0, 45.0)
RESOLUTION = 0.05


def fresh_ate(seed: int = 0, noise_sigma: float = 0.0) -> ATE:
    """A fresh chip + tester (quiet by default for exact boundaries)."""
    chip = MemoryTestChip()
    return ATE(chip, measurement=MeasurementModel(noise_sigma, seed=seed))


def fresh_characterizer(seed: int = 0) -> DeviceCharacterizer:
    """A fresh default characterizer."""
    return DeviceCharacterizer(fresh_ate(seed), seed=seed)


@pytest.fixture
def report_sink(request):
    """Callable that prints a line and appends it to the bench's record.

    ``report_sink.json(key=value, ...)`` stashes machine-readable numbers;
    at teardown they are written to ``BENCH_<bench>.json`` together with
    the bench's wall clock, the host CPU count and the python version.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = RESULTS_DIR / f"{request.node.name}.txt"
    record.write_text("")
    data = {}

    def sink(line: str = "") -> None:
        print(line)
        with record.open("a") as handle:
            handle.write(line + "\n")

    sink.json = data.update
    started = time.perf_counter()
    cpu_started = process_cpu_seconds(include_children=True)
    yield sink
    cpu_ended = process_cpu_seconds(include_children=True)
    payload = {
        "bench": request.node.name,
        "wall_s": round(time.perf_counter() - started, 6),
        "cpu_s": round(
            (cpu_ended[0] - cpu_started[0]) + (cpu_ended[1] - cpu_started[1]),
            6,
        ),
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "data": data,
    }
    _write_json_atomically(
        RESULTS_DIR / f"BENCH_{request.node.name}.json", payload
    )


def _write_json_atomically(path: Path, payload: dict) -> None:
    """Write-then-rename so a crashed or interrupted bench never leaves a
    truncated record for the CI gate (or EXPERIMENTS tooling) to choke on."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    staging = path.with_name(path.name + f".tmp{os.getpid()}")
    staging.write_text(text)
    os.replace(staging, path)


@pytest.fixture(scope="session")
def session_learning():
    """One trained fig. 4 learning result shared by the NN-dependent
    benches (table 1 runs its own pinned variant)."""
    ate = fresh_ate(seed=21)
    runner = MultipleTripPointRunner(
        ate, SEARCH_RANGE, strategy="sutp", resolution=RESOLUTION
    )
    space = ConditionSpace()
    config = LearningConfig(
        tests_per_round=150,
        max_rounds=2,
        max_epochs=80,
        pin_condition=NOMINAL_CONDITION,
        seed=21,
    )
    result = LearningScheme(runner, space, config).run()
    return ate, space, result

"""End-to-end determinism of farmed campaigns.

The farm's contract: a lot/wafer/sweep/screen/campaign-shmoo run sharded
over N worker processes is *identical* to the serial run — same trip points, same WCRs, same
database bytes — and a run interrupted mid-campaign resumes from its
checkpoint without re-measuring finished units.
"""

import gc
import sys
import warnings

import numpy as np
import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.lot import EnvironmentalSweep, LotCharacterizer
from repro.core.wafer_probe import WaferProber
from repro.device.memory_chip import MemoryTestChip
from repro.device.wafer import RadialVariationModel, Wafer
from repro.farm.checkpoint import CheckpointStore
from repro.farm.executor import ParallelExecutor, SerialExecutor, make_executor
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator


@pytest.fixture
def tests():
    generator = RandomTestGenerator(seed=61)
    return [t.with_condition(NOMINAL_CONDITION) for t in generator.batch(4)]


def _lot(**kwargs):
    return LotCharacterizer(
        search_range=(15.0, 45.0), noise_sigma=0.04, seed=3, **kwargs
    )


def _sweep():
    chip = MemoryTestChip()
    ate = ATE(chip, measurement=MeasurementModel(0.02, seed=11))
    return EnvironmentalSweep(ate, (15.0, 45.0), seed=5)


def _run_campaign(kind, tests, checkpoint):
    executor = SerialExecutor(checkpoint=checkpoint)
    if kind == "lot":
        return _lot().run(tests, n_dies=2, executor=executor)
    return _sweep().sweep(tests[0], (1.7, 1.9), (25.0,), executor=executor)


def _unclosed_files(run):
    """The ResourceWarnings raised while ``run()`` runs and its garbage
    is collected: a file closed by the collector, not by its owner."""
    raised = []
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error", ResourceWarning)
        # A warning raised in a finalizer goes to the unraisable hook.
        patch.setattr(
            sys, "unraisablehook", lambda info: raised.append(info.exc_value)
        )
        run()
        gc.collect()
    return [error for error in raised if isinstance(error, ResourceWarning)]


class TestLotDeterminism:
    def test_workers_1_vs_4_identical(self, tests):
        serial = _lot().run(tests, n_dies=8, executor=make_executor(1))
        parallel = _lot().run(tests, n_dies=8, executor=make_executor(4))
        assert serial.dies == parallel.dies

    def test_rtp_broadcast_identical_and_cheaper(self, tests):
        plain = _lot().run(tests, n_dies=6)
        serial = _lot().run(tests, n_dies=6, rtp_broadcast=True)
        parallel = _lot().run(
            tests, n_dies=6, executor=make_executor(4), rtp_broadcast=True
        )
        assert serial.dies == parallel.dies
        assert sum(d.measurements for d in serial.dies) < sum(
            d.measurements for d in plain.dies
        )

    def test_database_export_byte_identical(self, tests, tmp_path):
        serial = _lot().run(tests, n_dies=8, executor=make_executor(1))
        parallel = _lot().run(tests, n_dies=8, executor=make_executor(4))
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial.to_database(tests).export_json(serial_path)
        parallel.to_database(tests).export_json(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_database_merge_of_shards_matches_whole(self, tests, tmp_path):
        whole = _lot().run(tests, n_dies=6).to_database(tests)
        report = _lot().run(tests, n_dies=6)
        left, right = report.dies[:3], report.dies[3:]
        from repro.core.lot import LotReport

        merged = LotReport(
            parameter=report.parameter, dies=left
        ).to_database(tests)
        merged.merge(
            LotReport(parameter=report.parameter, dies=right).to_database(
                tests
            )
        )
        whole_path = tmp_path / "whole.json"
        merged_path = tmp_path / "merged.json"
        whole.export_json(whole_path)
        merged.export_json(merged_path)
        assert whole_path.read_bytes() == merged_path.read_bytes()


class TestLotResume:
    def test_interrupted_lot_resumes_without_remeasuring(
        self, tests, tmp_path
    ):
        path = tmp_path / "lot.jsonl"
        reference = _lot().run(tests, n_dies=6)
        # Full run writing the checkpoint, then "kill" it after 3 dies by
        # truncating the file.
        _lot().run(
            tests, n_dies=6,
            executor=SerialExecutor(checkpoint=CheckpointStore(path)),
        )
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))  # header + 3 results
        store = CheckpointStore(path)
        assert len(store.load()) == 3
        resumed = _lot().run(
            tests, n_dies=6,
            executor=SerialExecutor(checkpoint=CheckpointStore(path)),
        )
        assert resumed.dies == reference.dies

    def test_checkpoint_path_accepted_directly(self, tests, tmp_path):
        path = tmp_path / "lot.jsonl"
        executor = SerialExecutor(checkpoint=path)
        first = _lot().run(tests, n_dies=4, executor=executor)
        again = _lot().run(tests, n_dies=4, executor=executor)
        assert first.dies == again.dies

    @pytest.mark.parametrize("kind", ["lot", "sweep"])
    def test_checkpoint_path_is_closed_by_the_run(self, kind, tests, tmp_path):
        path = tmp_path / f"{kind}.jsonl"
        assert _unclosed_files(lambda: _run_campaign(kind, tests, path)) == []
        assert len(CheckpointStore(path).load()) == 2

    @pytest.mark.parametrize("kind", ["lot", "sweep"])
    def test_caller_store_stays_open(self, kind, tests, tmp_path):
        with CheckpointStore(tmp_path / f"{kind}.jsonl") as store:
            _run_campaign(kind, tests, store)
            assert store._handle is not None and not store._handle.closed


class TestWaferDeterminism:
    def test_workers_1_vs_4_identical(self, tests):
        def probe(workers):
            prober = WaferProber(
                Wafer(grid_diameter=5),
                RadialVariationModel(seed=2),
                search_range=(15.0, 45.0),
                seed=1,
            )
            return prober.probe(tests[:2], executor=make_executor(workers))

        serial = probe(1)
        parallel = probe(4)
        assert list(serial.results) == list(parallel.results)
        assert list(serial.results.values()) == list(
            parallel.results.values()
        )


class TestSweepDeterminism:
    def test_workers_1_vs_4_identical(self, tests):
        test = tests[0]
        vdds = (1.5, 1.8, 2.1)
        temps = (25.0, 85.0)
        serial = _sweep().sweep(test, vdds, temps, executor=make_executor(1))
        parallel = _sweep().sweep(test, vdds, temps, executor=make_executor(4))
        assert np.array_equal(
            serial.trip_points, parallel.trip_points, equal_nan=True
        )
        assert serial.measurements == parallel.measurements


def _screen(**farm):
    from repro.core.wcr import run_screen_farm

    chip = MemoryTestChip()
    generator = RandomTestGenerator(seed=62)
    tests = [t.with_condition(NOMINAL_CONDITION) for t in generator.batch(5)]
    return run_screen_farm(
        tests, 15.0, 45.0, 1.0, die=chip.die, parameter=chip.parameter,
        noise_sigma=0.04, campaign_seed=5, chunk_size=2, **farm,
    )


def _campaign_shmoo(**farm):
    from repro.core.campaign import run_campaign
    from repro.core.characterizer import DeviceCharacterizer
    from repro.core.learning import LearningConfig
    from repro.core.optimization import OptimizationConfig
    from repro.ga.engine import GAConfig

    report = run_campaign(
        DeviceCharacterizer.with_default_setup(seed=7),
        random_tests=40,
        shmoo_tests=3,
        vdd_values=(1.6, 2.0),
        learning_config=LearningConfig(
            tests_per_round=40, max_rounds=1, max_epochs=10, n_networks=2,
            pin_condition=NOMINAL_CONDITION, seed=7,
        ),
        optimization_config=OptimizationConfig(
            ga=GAConfig(population_size=6, n_populations=1, max_generations=2),
            n_seeds=3, seed_pool_size=20,
            pin_condition=NOMINAL_CONDITION, seed=7,
        ),
        **farm,
    )
    return report.shmoo.render(), report.total_measurements


def _sweep_grid(test, **farm):
    result = _sweep().sweep(test, (1.5, 1.8), (25.0, 85.0), **farm)
    return result.trip_points.tolist(), result.measurements


class TestNoFarmArguments:
    """Without farm arguments a sweep, a screen and a campaign's shmoo run
    their work units on a serial executor: the answer is the one any
    executor gives."""

    @pytest.mark.parametrize("kind", ["sweep", "screen", "campaign"])
    def test_equal_to_serial_and_two_workers(self, kind, tests):
        run = {
            "sweep": lambda **farm: _sweep_grid(tests[0], **farm),
            "screen": _screen,
            "campaign": _campaign_shmoo,
        }[kind]
        plain = run()
        assert plain == run(executor=SerialExecutor())
        assert plain == run(executor=ParallelExecutor(workers=2))

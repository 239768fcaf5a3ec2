"""Tests for the fig. 5 optimization scheme (small configs)."""

import pytest

from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.core.learning import LearningConfig, LearningScheme
from repro.core.objectives import CharacterizationObjective
from repro.core.optimization import OptimizationConfig, OptimizationScheme
from repro.core.trip_point import MultipleTripPointRunner
from repro.core.wcr import WCRClass
from repro.device.faults import StuckAtFault
from repro.device.memory_chip import MemoryTestChip
from repro.device.parameters import T_DQ_PARAMETER
from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, GAResult, MultiPopulationGA
from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import VectorSequence


SMALL_GA = GAConfig(
    population_size=10,
    n_populations=2,
    max_generations=10,
    migration_interval=4,
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared small learning result for the optimization tests."""
    chip = MemoryTestChip()
    ate = ATE(chip, measurement=MeasurementModel(0.0, seed=0))
    runner = MultipleTripPointRunner(ate, (15.0, 45.0), resolution=0.05)
    space = ConditionSpace()
    learning = LearningScheme(
        runner,
        space,
        LearningConfig(
            tests_per_round=60, max_rounds=2, max_epochs=40, n_networks=3, seed=5
        ),
    ).run()
    return ate, space, learning


class TestOptimizationConfig:
    def test_seed_validation(self):
        with pytest.raises(ValueError):
            OptimizationConfig(n_seeds=0)
        with pytest.raises(ValueError):
            OptimizationConfig(n_seeds=10, seed_pool_size=5)


class TestOptimizationScheme:
    def _scheme(self, trained, **overrides):
        ate, space, learning = trained
        runner = MultipleTripPointRunner(ate, (15.0, 45.0), resolution=0.05)
        config = OptimizationConfig(
            ga=SMALL_GA, n_seeds=8, seed_pool_size=60, seed=3, **overrides
        )
        objective = CharacterizationObjective.worst_case_for(T_DQ_PARAMETER)
        return OptimizationScheme(runner, space, learning, objective, config)

    def test_run_finds_worse_than_seeds(self, trained):
        scheme = self._scheme(trained)
        result = scheme.run()
        assert result.best_wcr is not None
        seed_scores = [
            scheme.objective.fitness(
                scheme.runner.ate.chip.true_parameter_value(
                    t, account_heating=False
                )
            )
            for t in result.nn_seed_tests
        ]
        assert result.ga_result.best.fitness >= max(seed_scores) - 1e-6

    def test_database_populated_and_ranked(self, trained):
        result = self._scheme(trained).run()
        assert len(result.database) >= 1
        worst = result.database.worst()
        assert worst.technique == "nn+ga"
        assert worst.wcr == result.database.ranked()[0].wcr

    def test_measurements_accounted(self, trained):
        result = self._scheme(trained).run()
        assert result.ate_measurements > 0

    def test_pinned_condition_produces_nominal_tests(self, trained):
        scheme = self._scheme(trained, pin_condition=NOMINAL_CONDITION)
        result = scheme.run()
        assert result.best_test.condition == NOMINAL_CONDITION

    def test_wcr_stop_rule_engaged_when_reachable(self, trained):
        """With condition evolution allowed, the GA can push WCR past 1.0
        at corner conditions and must stop by the WCR rule."""
        scheme = self._scheme(trained)
        result = scheme.run()
        if result.ga_result.stopped_by_wcr:
            assert result.ga_result.best.fitness >= 1.0

    def test_colliding_finalists_both_remeasured(self, trained, monkeypatch):
        """Finalists are deduplicated by sequence, not by its hash: two
        different sequences whose hashes collide are both re-measured."""
        scheme = self._scheme(trained)
        space = scheme.condition_space
        generator = RandomTestGenerator(seed=11, condition_space=space)
        first, second = (
            TestIndividual.from_test_case(test, space).with_fitness(fitness)
            for test, fitness in zip(generator.batch(2), (0.9, 0.8))
        )
        duplicate = TestIndividual(
            first.sequence, first.condition_genes
        ).with_fitness(0.85)
        monkeypatch.setattr(VectorSequence, "__hash__", lambda self: 7)
        monkeypatch.setattr(
            MultiPopulationGA,
            "run",
            lambda self, seeds, **kwargs: GAResult(
                best=first,
                best_per_population=[duplicate, second],
                generations_run=0,
            ),
        )
        measured = []
        measure_one = scheme.runner.measure_one

        def recording(test):
            measured.append(test.sequence)
            return measure_one(test)

        monkeypatch.setattr(scheme.runner, "measure_one", recording)
        scheme.run()
        assert measured == [first.sequence, second.sequence]


class TestFunctionalFailureRouting:
    def test_functional_failures_stored_separately(self):
        """A faulty die makes every pattern touching the bad cell a
        functional failure; those must land in the separate store with
        zero fitness rather than win the GA."""
        chip = MemoryTestChip(
            faults=[StuckAtFault(word=0, bit=0, stuck_value=1)]
        )
        ate = ATE(chip, measurement=MeasurementModel(0.0, seed=0))
        runner = MultipleTripPointRunner(ate, (15.0, 45.0), resolution=0.05)
        space = ConditionSpace()
        learning = LearningScheme(
            runner,
            space,
            LearningConfig(
                tests_per_round=60, max_rounds=1, max_epochs=30,
                n_networks=2, seed=5,
            ),
        ).run()
        scheme = OptimizationScheme(
            runner,
            space,
            learning,
            CharacterizationObjective.worst_case_for(T_DQ_PARAMETER),
            OptimizationConfig(ga=SMALL_GA, n_seeds=6, seed_pool_size=40, seed=1),
        )
        result = scheme.run()
        # Stuck-at word 0 is hit by many patterns; some failures must have
        # been routed to the separate store.
        assert result.database.failure_count > 0
        for record in result.database.failures():
            assert record.functional_failure
            assert record.wcr is None

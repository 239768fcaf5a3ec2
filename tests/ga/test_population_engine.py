"""Tests for populations, fitness caching and the multi-population engine.

Engine tests use a cheap synthetic fitness (no ATE) that rewards the same
feature conjunction as the device's hidden weakness, so they check real
optimization behaviour quickly.
"""

import numpy as np
import pytest

from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, MultiPopulationGA
from repro.ga.fitness import CachingFitness
from repro.ga.population import Population
from repro.patterns.conditions import ConditionSpace
from repro.patterns.features import extract_features
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import VectorSequence


def synthetic_fitness(test):
    """Smooth surrogate of the hidden weakness (no measurement)."""
    features = extract_features(test.sequence)
    return (
        0.5 * features["peak_window_activity"]
        + 0.3 * features["read_after_write_rate"]
        + 0.2 * features["addr_msb_toggle_rate"]
    )


@pytest.fixture
def space():
    return ConditionSpace()


def seed_individuals(space, count=6, seed=0):
    generator = RandomTestGenerator(seed=seed, condition_space=space)
    return [
        TestIndividual.from_test_case(test, space) for test in generator.batch(count)
    ]


class TestPopulation:
    def _population(self, space):
        members = [
            ind.with_fitness(f)
            for ind, f in zip(seed_individuals(space), [0.3, 0.9, 0.1, 0.6, 0.2, 0.8])
        ]
        return Population("p", members)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Population("p", [])

    def test_best_and_elite(self, space):
        population = self._population(space)
        assert population.best().fitness == pytest.approx(0.9)
        elite = population.elite(3)
        assert [e.fitness for e in elite] == [0.9, 0.8, 0.6]

    def test_worst_indices(self, space):
        population = self._population(space)
        worst = population.worst_indices(2)
        fitnesses = [population.individuals[i].fitness for i in worst]
        assert sorted(fitnesses) == [0.1, 0.2]

    def test_replace_preserves_size(self, space):
        population = self._population(space)
        with pytest.raises(ValueError):
            population.replace(population.individuals[:3])

    def test_replace_advances_generation_and_history(self, space):
        population = self._population(space)
        population.replace(list(population.individuals))
        assert population.generation == 1
        assert population.best_history == [pytest.approx(0.9)]

    def test_stagnation_detection(self, space):
        population = self._population(space)
        for _ in range(6):
            population.replace(list(population.individuals))
        assert population.stagnant_for(5)
        assert not population.stagnant_for(10)

    def test_mean_fitness(self, space):
        population = self._population(space)
        assert population.mean_fitness() == pytest.approx(
            np.mean([0.3, 0.9, 0.1, 0.6, 0.2, 0.8])
        )


class TestCachingFitness:
    def test_caches_identical_genomes(self, space):
        calls = []

        def fitness(test):
            calls.append(test)
            return 0.5

        cache = CachingFitness(fitness, space)
        individual = seed_individuals(space, 1)[0]
        a = cache.evaluate(individual)
        b = cache.evaluate(TestIndividual(individual.sequence, individual.condition_genes))
        assert a.fitness == b.fitness == pytest.approx(0.5)
        assert len(calls) == 1
        assert cache.raw_evaluations == 1

    def test_already_evaluated_passthrough(self, space):
        cache = CachingFitness(lambda t: 1.0, space)
        scored = seed_individuals(space, 1)[0].with_fitness(0.123)
        assert cache.evaluate(scored).fitness == pytest.approx(0.123)
        assert cache.raw_evaluations == 0

    def test_different_conditions_not_conflated(self, space):
        values = iter([0.1, 0.9])
        cache = CachingFitness(lambda t: next(values), space)
        base = seed_individuals(space, 1)[0]
        other = TestIndividual(
            base.sequence, np.clip(base.condition_genes + 0.2, 0, 1)
        )
        a = cache.evaluate(base)
        b = cache.evaluate(other)
        assert a.fitness != b.fitness
        assert cache.cache_size == 2

    def test_colliding_sequence_hashes_not_conflated(self, space, monkeypatch):
        """The cache keys on the sequence, so a hash collision between two
        different sequences costs a second measurement, not a shared
        fitness."""
        monkeypatch.setattr(VectorSequence, "__hash__", lambda self: 7)
        values = iter([0.1, 0.9])
        cache = CachingFitness(lambda t: next(values), space)
        first, second = seed_individuals(space, 2)
        second = TestIndividual(second.sequence, first.condition_genes)
        assert first.sequence != second.sequence
        assert hash(first.sequence) == hash(second.sequence)
        a = cache.evaluate(first)
        b = cache.evaluate(second)
        assert cache.raw_evaluations == 2
        assert (a.fitness, b.fitness) == (pytest.approx(0.1), pytest.approx(0.9))
        again = cache.evaluate(TestIndividual(first.sequence, first.condition_genes))
        assert again.fitness == pytest.approx(0.1)
        assert cache.raw_evaluations == 2


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=2)
        with pytest.raises(ValueError):
            GAConfig(elite_count=30, population_size=10)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(n_populations=0)


class TestEngine:
    def _run(self, space, generations=12, **kwargs):
        config = GAConfig(
            population_size=10,
            n_populations=2,
            max_generations=generations,
            elite_count=2,
            migration_interval=4,
            stagnation_patience=50,
            **kwargs,
        )
        engine = MultiPopulationGA(config, space, synthetic_fitness, seed=0)
        return engine.run(seed_individuals(space, 6))

    def test_requires_seeds(self, space):
        engine = MultiPopulationGA(GAConfig(), space, synthetic_fitness)
        with pytest.raises(ValueError):
            engine.run([])

    def test_fitness_improves_over_seeds(self, space):
        seeds = seed_individuals(space, 6)
        seed_best = max(synthetic_fitness(s.to_test_case(space)) for s in seeds)
        result = self._run(space)
        assert result.best.fitness > seed_best

    def test_history_is_monotone_best_so_far(self, space):
        result = self._run(space)
        history = result.fitness_history
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_stop_fitness_halts_early(self, space):
        result = self._run(space, generations=50, stop_fitness=0.5)
        assert result.stopped_by_wcr
        assert result.generations_run < 50
        assert result.best.fitness >= 0.5

    def test_evaluations_counted(self, space):
        result = self._run(space, generations=5)
        assert result.evaluations > 0

    def test_restart_uses_factory(self, space):
        factory_calls = []

        def factory():
            individual = seed_individuals(space, 1, seed=len(factory_calls) + 50)[0]
            factory_calls.append(individual)
            return individual

        config = GAConfig(
            population_size=8,
            n_populations=1,
            max_generations=8,
            stagnation_patience=2,
            motif_mutation_prob=0.0,
            point_mutation_rate=0.0,
            resize_mutation_prob=0.0,
            crossover_rate=0.0,
            condition_sigma=0.0,
        )
        engine = MultiPopulationGA(config, space, synthetic_fitness, seed=1)
        result = engine.run(seed_individuals(space, 4), restart_factory=factory)
        # With all variation disabled the population stagnates immediately
        # and the factory must be consulted.
        assert result.restarts > 0
        assert factory_calls

    def test_reproducible_runs(self, space):
        a = self._run(space, generations=6)
        b = self._run(space, generations=6)
        assert a.best.fitness == pytest.approx(b.best.fitness)
        assert a.fitness_history == pytest.approx(b.fitness_history)

    def test_elites_survive_generations(self, space):
        """Best-so-far fitness never decreases inside each population."""
        result = self._run(space, generations=10)
        assert result.best_per_population
        for individual in result.best_per_population:
            assert individual.fitness is not None

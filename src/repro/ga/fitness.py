"""Fitness evaluation.

"A fitness value is assigned to each individual in the GA population.
According to the analysis task, the fitness can be power consumption, peak
current, voltage or other functionalities obtained from ATE" (section 6).
In this reproduction the canonical fitness is the Worst-Case Ratio of the
SUTP-measured trip point, so *higher fitness = closer to the worst case*
regardless of the parameter's spec direction.

:class:`CachingFitness` wraps any fitness function with an exact-genome
cache, because GA elitism re-submits unchanged individuals every
generation and each raw evaluation costs real ATE measurements.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.ga.chromosome import TestIndividual
from repro.patterns.conditions import ConditionSpace
from repro.patterns.testcase import TestCase

#: A fitness function maps an executable test case to a scalar
#: (higher = worse case = fitter for the optimization objective).
FitnessFunction = Callable[[TestCase], float]


class CachingFitness:
    """Memoizing adapter around a :data:`FitnessFunction`.

    The cache key is the genome content (the sequence itself + rounded
    condition genes), so re-evaluating elite survivors is free while any
    mutation produces a fresh measurement.  Keying on the sequence, not on
    its hash, lets the dict tell apart sequences whose hashes collide.
    """

    def __init__(
        self,
        fitness_fn: FitnessFunction,
        condition_space: ConditionSpace,
    ) -> None:
        self._fitness_fn = fitness_fn
        self._condition_space = condition_space
        self._cache: Dict[Tuple, float] = {}
        self.raw_evaluations = 0

    def _key(self, individual: TestIndividual) -> Tuple:
        genes = tuple(round(float(g), 6) for g in individual.condition_genes)
        return (individual.sequence, genes)

    def evaluate(self, individual: TestIndividual) -> TestIndividual:
        """Return the individual with fitness attached (cached or measured)."""
        if individual.evaluated:
            return individual
        key = self._key(individual)
        cached: Optional[float] = self._cache.get(key)
        if cached is not None:
            return individual.with_fitness(cached)
        test = individual.to_test_case(self._condition_space)
        fitness = float(self._fitness_fn(test))
        self._cache[key] = fitness
        self.raw_evaluations += 1
        return individual.with_fitness(fitness)

    @property
    def cache_size(self) -> int:
        """Distinct genomes evaluated so far."""
        return len(self._cache)

"""Multi-population GA engine (fig. 5 steps 3-4).

Several populations evolve in parallel with ring migration; both chromosome
species (sequence, condition) recombine and mutate; a stagnating population
is thrown away and re-seeded ("GA optimization process continues until GA
fitness value cannot improve anymore.  Then ... a brand new population will
start GA again"); the whole run stops at the generation budget or as soon
as the worst case is detected by the worst-case-ratio stop rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ga.chromosome import TestIndividual
from repro.ga.fitness import CachingFitness
from repro.obs.events import event
from repro.obs.runtime import OBS
from repro.ga.operators import (
    crossover_conditions,
    crossover_sequences,
    motif_mutate_sequence,
    mutate_conditions,
    point_mutate_sequence,
    resize_mutate_sequence,
    tournament_select,
)
from repro.ga.population import Population
from repro.patterns.conditions import ConditionSpace
from repro.patterns.features import fill_features


@dataclass(frozen=True)
class GAConfig:
    """Engine hyperparameters."""

    population_size: int = 20
    n_populations: int = 3
    max_generations: int = 40
    crossover_rate: float = 0.85
    point_mutation_rate: float = 0.02
    motif_mutation_prob: float = 0.35
    resize_mutation_prob: float = 0.10
    condition_sigma: float = 0.08
    tournament_k: int = 3
    elite_count: int = 2
    migration_interval: int = 8
    migration_count: int = 2
    stagnation_patience: int = 10
    #: Stop as soon as any individual's fitness (a WCR) reaches this value;
    #: ``None`` disables the early stop.
    stop_fitness: Optional[float] = None
    evolve_conditions: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.n_populations < 1:
            raise ValueError("need at least one population")
        if self.elite_count >= self.population_size:
            raise ValueError("elite_count must be smaller than population_size")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")


@dataclass
class GAResult:
    """Outcome of one engine run."""

    best: TestIndividual
    best_per_population: List[TestIndividual]
    generations_run: int
    fitness_history: List[float] = field(default_factory=list)
    evaluations: int = 0
    restarts: int = 0
    stopped_by_wcr: bool = False
    stopped_by_budget: bool = False


class MultiPopulationGA:
    """The engine.

    Parameters
    ----------
    config:
        Hyperparameters.
    condition_space:
        Decoding space of the condition chromosome.
    fitness:
        Fitness function or an already-wrapped :class:`CachingFitness`.
    seed:
        RNG seed for all stochastic operators.
    """

    def __init__(
        self,
        config: GAConfig,
        condition_space: ConditionSpace,
        fitness,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.condition_space = condition_space
        if isinstance(fitness, CachingFitness):
            self.fitness = fitness
        else:
            self.fitness = CachingFitness(fitness, condition_space)
        self._rng = np.random.default_rng(seed)
        # Operator attribution for the insight layer: maps the id() of each
        # individual created this generation to the operator chain that
        # produced it.  Cleared at the top of every generation; only live
        # objects (still referenced by a population) are ever looked up.
        self._operator_log: Dict[int, str] = {}

    # -- population construction -----------------------------------------------
    def _initial_populations(
        self, seeds: Sequence[TestIndividual]
    ) -> List[Population]:
        if not seeds:
            raise ValueError("the GA needs at least one seed individual")
        populations = []
        for p in range(self.config.n_populations):
            members: List[TestIndividual] = []
            for i in range(self.config.population_size):
                seed_ind = seeds[(p * self.config.population_size + i) % len(seeds)]
                if i < len(seeds) and p == 0:
                    members.append(self.fitness.evaluate(seed_ind))
                else:
                    members.append(self.fitness.evaluate(self._variant(seed_ind)))
            populations.append(Population(f"pop{p}", members))
        return populations

    def _variant(self, individual: TestIndividual) -> TestIndividual:
        """A mutated copy used to diversify seed copies and restarts."""
        sequence = point_mutate_sequence(
            individual.sequence, self._rng, rate=0.05
        )
        if self._rng.random() < 0.5:
            sequence = motif_mutate_sequence(sequence, self._rng)
        genes = individual.condition_genes
        if self.config.evolve_conditions:
            genes = mutate_conditions(genes, self._rng, sigma=0.15)
        return TestIndividual(sequence=sequence, condition_genes=genes)

    # -- variation pipeline ---------------------------------------------------------
    def _offspring(self, population: Population) -> List[TestIndividual]:
        cfg = self.config
        next_gen: List[TestIndividual] = list(population.elite(cfg.elite_count))
        for elite in next_gen:
            self._operator_log[id(elite)] = "elite"
        # Build every child first, then evaluate them in the same order: the
        # fitness never draws from the GA stream, so the draws are unchanged,
        # and the children's features are extracted in one batch.
        children: List[Tuple[TestIndividual, str]] = []
        while len(next_gen) + len(children) < cfg.population_size:
            parent_a = tournament_select(
                population.individuals, self._rng, cfg.tournament_k
            )
            parent_b = tournament_select(
                population.individuals, self._rng, cfg.tournament_k
            )
            if self._rng.random() < cfg.crossover_rate:
                seq_a, seq_b = crossover_sequences(
                    parent_a.sequence, parent_b.sequence, self._rng
                )
                genes_a, genes_b = crossover_conditions(
                    parent_a.condition_genes, parent_b.condition_genes, self._rng
                )
                base_op = "crossover"
            else:
                seq_a, seq_b = parent_a.sequence, parent_b.sequence
                genes_a, genes_b = (
                    parent_a.condition_genes,
                    parent_b.condition_genes,
                )
                base_op = "clone"
            for sequence, genes in ((seq_a, genes_a), (seq_b, genes_b)):
                if len(next_gen) + len(children) >= cfg.population_size:
                    break
                ops = base_op
                sequence = point_mutate_sequence(
                    sequence, self._rng, cfg.point_mutation_rate
                )
                if self._rng.random() < cfg.motif_mutation_prob:
                    sequence = motif_mutate_sequence(sequence, self._rng)
                    ops += "+motif"
                if self._rng.random() < cfg.resize_mutation_prob:
                    sequence = resize_mutate_sequence(sequence, self._rng)
                    ops += "+resize"
                if cfg.evolve_conditions:
                    genes = mutate_conditions(
                        genes, self._rng, cfg.condition_sigma
                    )
                children.append(
                    (TestIndividual(sequence=sequence, condition_genes=genes), ops)
                )
        fill_features(child.sequence for child, _ in children)
        for child, ops in children:
            evaluated = self.fitness.evaluate(child)
            self._operator_log[id(evaluated)] = ops
            next_gen.append(evaluated)
        return next_gen

    def _migrate(self, populations: List[Population]) -> None:
        """Ring migration: each population's elite displaces the next's worst."""
        if len(populations) < 2:
            return
        count = self.config.migration_count
        elites = [pop.elite(count) for pop in populations]
        for index, population in enumerate(populations):
            donors = elites[(index - 1) % len(populations)]
            slots = population.worst_indices(len(donors))
            for slot, donor in zip(slots, donors):
                population.individuals[slot] = donor

    # -- the run ------------------------------------------------------------------
    def run(
        self,
        seeds: Sequence[TestIndividual],
        restart_factory: Optional[Callable[[], TestIndividual]] = None,
        budget_exhausted: Optional[Callable[[], bool]] = None,
    ) -> GAResult:
        """Evolve from ``seeds``; returns the best genome found.

        ``restart_factory`` supplies fresh individuals when a stagnant
        population is re-seeded (fig. 5 wires the fuzzy-neural test
        generator here); without it, restarts use mutated elites.

        ``budget_exhausted`` is polled after every generation; returning
        True ends the run (used to cap real ATE measurement time — the
        cost currency of the whole method).
        """
        cfg = self.config
        evals_seen = self.fitness.raw_evaluations
        populations = self._initial_populations(seeds)
        result = GAResult(
            best=max(
                (pop.best() for pop in populations),
                key=lambda ind: ind.fitness or -np.inf,
            ),
            best_per_population=[pop.best() for pop in populations],
            generations_run=0,
        )
        restarts = 0

        for generation in range(1, cfg.max_generations + 1):
            self._operator_log.clear()
            for population in populations:
                population.replace(self._offspring(population))
                if population.stagnant_for(cfg.stagnation_patience):
                    self._restart(population, restart_factory)
                    restarts += 1
                    if OBS.enabled:
                        OBS.metrics.counter("ga.restarts").inc(
                            label=population.name
                        )
            if generation % cfg.migration_interval == 0:
                self._migrate(populations)

            generation_best = max(
                (pop.best() for pop in populations),
                key=lambda ind: ind.fitness or -np.inf,
            )
            if (generation_best.fitness or -np.inf) > (result.best.fitness or -np.inf):
                result.best = generation_best
            result.fitness_history.append(result.best.fitness or float("nan"))
            result.generations_run = generation

            if OBS.enabled:
                fitnesses = [
                    ind.fitness
                    for pop in populations
                    for ind in pop.individuals
                    if ind.fitness is not None
                ]
                mean_fitness = (
                    float(sum(fitnesses) / len(fitnesses))
                    if fitnesses
                    else float("nan")
                )
                evals_total = self.fitness.raw_evaluations
                OBS.metrics.counter("ga.generations").inc()
                OBS.metrics.counter("ga.fitness_evals").inc(
                    evals_total - evals_seen
                )
                evals_seen = evals_total
                OBS.metrics.gauge("ga.best_fitness").set(
                    result.best.fitness or float("nan")
                )
                std_fitness = (
                    float(np.std(fitnesses))
                    if len(fitnesses) >= 2
                    else 0.0
                )
                sequence_diversity = float(
                    np.mean([pop.sequence_diversity() for pop in populations])
                )
                condition_diversity = float(
                    np.mean([pop.condition_diversity() for pop in populations])
                )
                best_operator = self._operator_log.get(
                    id(generation_best), "carryover"
                )
                OBS.metrics.counter("ga.best_operator").inc(
                    label=best_operator
                )
                OBS.metrics.gauge("ga.sequence_diversity").set(
                    sequence_diversity
                )
                OBS.metrics.gauge("ga.condition_diversity").set(
                    condition_diversity
                )
                OBS.bus.emit(
                    event(
                        "ga_generation",
                        generation=generation,
                        best_fitness=float(result.best.fitness or float("nan")),
                        mean_fitness=mean_fitness,
                        evaluations=evals_total,
                        restarts=restarts,
                        std_fitness=std_fitness,
                        sequence_diversity=sequence_diversity,
                        condition_diversity=condition_diversity,
                        best_operator=best_operator,
                    )
                )

            if (
                cfg.stop_fitness is not None
                and result.best.fitness is not None
                and result.best.fitness >= cfg.stop_fitness
            ):
                result.stopped_by_wcr = True
                break
            if budget_exhausted is not None and budget_exhausted():
                result.stopped_by_budget = True
                break

        result.best_per_population = [pop.best() for pop in populations]
        result.evaluations = self.fitness.raw_evaluations
        result.restarts = restarts
        return result

    def _restart(
        self,
        population: Population,
        restart_factory: Optional[Callable[[], TestIndividual]],
    ) -> None:
        """Re-seed a stagnant population, keeping one elite survivor."""
        survivor = population.best()
        self._operator_log[id(survivor)] = "elite"
        fresh: List[TestIndividual] = [survivor]
        while len(fresh) < population.size:
            if restart_factory is not None:
                candidate = restart_factory()
            else:
                candidate = self._variant(survivor)
            evaluated = self.fitness.evaluate(candidate)
            self._operator_log[id(evaluated)] = "restart"
            fresh.append(evaluated)
        population.individuals = fresh
        population.best_history.clear()

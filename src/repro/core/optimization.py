"""Intelligent characterization optimization scheme (fig. 5).

1. initialize GA populations from sub-optimal tests selected by the
   fuzzy-neural test generator (the NN weight file from fig. 4);
2. define the characterization objective (max/min drift);
3. optimize with the GA — fitness is the trip point measured via ATE using
   eqs. (2)/(3)/(4), expressed as the Worst-Case Ratio;
4. on stagnation, restart with a brand-new (NN-proposed) population; stop
   at the optimization budget or when the worst case is detected by the
   WCR stop rule.  Final worst-case tests land in the database; functional
   failure patterns are stored separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.database import WorstCaseDatabase, WorstCaseRecord
from repro.core.learning import FuzzyNeuralTestGenerator, LearningResult
from repro.core.objectives import CharacterizationObjective
from repro.core.trip_point import MultipleTripPointRunner
from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, GAResult, MultiPopulationGA
from repro.obs.runtime import OBS
from repro.obs.timing import span, timed
from repro.patterns.conditions import ConditionSpace, TestCondition
from repro.patterns.testcase import TestCase


@dataclass(frozen=True)
class OptimizationConfig:
    """Fig. 5 hyperparameters."""

    ga: GAConfig = field(default_factory=GAConfig)
    n_seeds: int = 16
    seed_pool_size: int = 300
    #: How many final records to keep in the worst-case database.
    top_k_database: int = 10
    #: When set, every individual runs at this fixed operating point and
    #: the condition chromosome is frozen (Table-1 mode).
    pin_condition: Optional[TestCondition] = None
    #: Hard cap on ATE measurements spent by the GA (tester time budget);
    #: the run ends at the first generation boundary past the cap.
    max_ate_measurements: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValueError("need at least one NN seed")
        if self.seed_pool_size < self.n_seeds:
            raise ValueError("seed_pool_size must be >= n_seeds")


@dataclass
class OptimizationResult:
    """Outcome of the fig. 5 scheme."""

    best_test: TestCase
    best_value: Optional[float]
    best_wcr: Optional[float]
    ga_result: GAResult
    database: WorstCaseDatabase
    ate_measurements: int
    nn_seed_tests: List[TestCase] = field(default_factory=list)


class OptimizationScheme:
    """Executes fig. 5 against a tester.

    Parameters
    ----------
    runner:
        Multiple-trip-point runner bound to the ATE (fitness measurements
        use SUTP through it).
    condition_space:
        Decoding space of the GA's condition chromosome.
    learning:
        Fig. 4 output feeding the fuzzy-neural test generator.
    objective:
        What "worst" means (fig. 5 step 2).
    config:
        Scheme hyperparameters.
    """

    def __init__(
        self,
        runner: MultipleTripPointRunner,
        condition_space: ConditionSpace,
        learning: LearningResult,
        objective: CharacterizationObjective,
        config: OptimizationConfig = OptimizationConfig(),
    ) -> None:
        self.runner = runner
        self.condition_space = condition_space
        self.learning = learning
        self.objective = objective
        self.config = config
        self.database = WorstCaseDatabase()

    # -- fitness (fig. 5 step 3) ---------------------------------------------------
    def fitness(self, test: TestCase) -> float:
        """GA fitness: WCR of the SUTP-measured trip point.

        A test whose trip point cannot be located is either a functional
        failure (stored separately, per the paper) or a boundary outside
        the characterization range; both score zero so the GA does not
        pursue them as parametric worst cases.
        """
        entry = self.runner.measure_one(test)
        if entry.value is not None:
            wcr = self.objective.fitness(entry.value)
            if OBS.enabled:
                OBS.metrics.counter("ga.wcr_class").inc(
                    label=self.objective.classifier.classify(wcr).value
                )
            return wcr
        functional = self.runner.ate.chip.run_functional(test.sequence)
        if not functional.passed:
            if OBS.enabled:
                OBS.metrics.counter("ga.functional_failures").inc()
            self.database.add(
                WorstCaseRecord(
                    test=test,
                    measured_value=None,
                    wcr=None,
                    wcr_class=None,
                    technique="nn+ga",
                    functional_failure=True,
                    note=f"{functional.failure_count} read miscompare(s)",
                )
            )
        return 0.0

    # -- the run --------------------------------------------------------------------
    @timed("optimization")
    def run(self) -> OptimizationResult:
        """Execute the full fig. 5 scheme; returns the worst case found."""
        cfg = self.config
        measurements_before = self.runner.ate.measurement_count

        # (1) NN-proposed sub-optimal seeds.
        nn_generator = FuzzyNeuralTestGenerator(
            self.learning,
            self.condition_space,
            seed=cfg.seed,
            pin_condition=cfg.pin_condition,
        )
        with span("optimization.nn_seeding"):
            seed_tests = nn_generator.propose(cfg.n_seeds, cfg.seed_pool_size)
        seeds = [
            TestIndividual.from_test_case(test, self.condition_space, origin="nn")
            for test in seed_tests
        ]

        # (3)/(4) GA optimization with WCR stop rule and NN restarts.
        ga_config = cfg.ga
        overrides = {}
        if ga_config.stop_fitness is None:
            overrides["stop_fitness"] = self.objective.classifier.fail_threshold
        if cfg.pin_condition is not None and ga_config.evolve_conditions:
            overrides["evolve_conditions"] = False
        if overrides:
            ga_config = GAConfig(**{**ga_config.__dict__, **overrides})
        engine = MultiPopulationGA(
            ga_config, self.condition_space, self.fitness, seed=cfg.seed
        )
        budget_exhausted = None
        if cfg.max_ate_measurements is not None:
            budget = cfg.max_ate_measurements

            def budget_exhausted() -> bool:
                return (
                    self.runner.ate.measurement_count - measurements_before
                    >= budget
                )

        with span("optimization.ga"):
            ga_result = engine.run(
                seeds,
                restart_factory=nn_generator.fresh_individual,
                budget_exhausted=budget_exhausted,
            )

        # Final database: re-measure the distinct best genomes.
        finalists: List[TestIndividual] = [ga_result.best]
        finalists.extend(ga_result.best_per_population)
        seen = set()
        rank = 0
        for individual in sorted(
            finalists, key=lambda ind: ind.fitness or 0.0, reverse=True
        ):
            if individual.sequence in seen:
                continue
            seen.add(individual.sequence)
            if rank >= cfg.top_k_database:
                break
            test = individual.to_test_case(
                self.condition_space, name=f"nnga_{rank:02d}"
            )
            entry = self.runner.measure_one(test)
            if entry.value is None:
                continue
            wcr = self.objective.fitness(entry.value)
            self.database.add(
                WorstCaseRecord(
                    test=test,
                    measured_value=entry.value,
                    wcr=wcr,
                    wcr_class=self.objective.classifier.classify(wcr),
                    technique="nn+ga",
                )
            )
            rank += 1

        if len(self.database):
            best_record = self.database.worst()
            best_test = best_record.test
            best_value = best_record.measured_value
            best_wcr = best_record.wcr
        else:
            best_test = ga_result.best.to_test_case(
                self.condition_space, name="nnga_best"
            )
            best_value = None
            best_wcr = ga_result.best.fitness

        return OptimizationResult(
            best_test=best_test,
            best_value=best_value,
            best_wcr=best_wcr,
            ga_result=ga_result,
            database=self.database,
            ate_measurements=self.runner.ate.measurement_count
            - measurements_before,
            nn_seed_tests=seed_tests,
        )

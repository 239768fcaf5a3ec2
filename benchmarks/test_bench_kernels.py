"""Substrate kernel micro-benchmarks.

Not paper artifacts — these time the hot paths every experiment rides on
(random test generation per style, feature extraction, functional
simulation, NN inference, one tester measurement, a farm unit's deck
pickle, one point mutation, one GA generation of variation) so
performance regressions are visible in CI.
"""

import pickle

import numpy as np
import pytest

from benchmarks.conftest import fresh_ate
from repro.device.faults import CouplingFault, StuckAtFault, TransitionFault
from repro.device.memory_chip import MemoryTestChip
from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, MultiPopulationGA
from repro.ga.operators import point_mutate_sequence
from repro.ga.population import Population
from repro.nn.mlp import MLP
from repro.patterns.conditions import NOMINAL_CONDITION, ConditionSpace
from repro.patterns.features import extract_features
from repro.patterns.random_gen import STYLES, RandomTestGenerator


@pytest.fixture(scope="module")
def thousand_cycle_test():
    generator = RandomTestGenerator(seed=67, min_cycles=1000, max_cycles=1000)
    return generator.generate().with_condition(NOMINAL_CONDITION)


@pytest.mark.benchmark(group="kernels")
def test_kernel_feature_extraction(benchmark, thousand_cycle_test):
    result = benchmark(extract_features, thousand_cycle_test.sequence)
    assert len(result.values) > 0


@pytest.mark.benchmark(group="kernels")
@pytest.mark.parametrize(
    "style", [None] + [name for name, _ in STYLES], ids=lambda style: style or "mix"
)
def test_kernel_random_generation(benchmark, style):
    """One fresh random test, of one style or (None) the default mix."""
    generator = RandomTestGenerator(seed=67)

    result = benchmark(generator.generate, style)
    assert result.origin == "random"


@pytest.mark.benchmark(group="kernels")
def test_kernel_point_mutation(benchmark):
    """Point mutation of one 550-cycle sequence at the default rate 0.02."""
    sequence = RandomTestGenerator(
        seed=67, min_cycles=550, max_cycles=550
    ).generate("uniform").sequence
    rng = np.random.default_rng(67)

    result = benchmark(point_mutate_sequence, sequence, rng, 0.02)
    assert len(result) == 550


@pytest.mark.benchmark(group="kernels")
def test_kernel_functional_simulation(benchmark, thousand_cycle_test):
    ate = fresh_ate(seed=67)
    sequence = thousand_cycle_test.sequence

    def run():
        # Bypass the cache: functional sim cost is what we measure.
        ate.chip._functional_cache.clear()
        return ate.chip.run_functional(sequence)

    result = benchmark(run)
    assert result.passed


@pytest.mark.benchmark(group="kernels")
def test_kernel_functional_simulation_faulty(benchmark, thousand_cycle_test):
    """A die with injected faults: the per-cycle array simulation."""
    chip = MemoryTestChip(
        faults=[
            StuckAtFault(word=3, bit=0, stuck_value=1),
            TransitionFault(word=5, bit=2),
            CouplingFault(aggressor_word=1, aggressor_bit=0,
                          victim_word=2, victim_bit=0, invert_victim=True),
        ]
    )
    sequence = thousand_cycle_test.sequence

    def run():
        chip._functional_cache.clear()
        return chip.run_functional(sequence)

    result = benchmark(run)
    assert result.cycles == len(sequence)


@pytest.mark.benchmark(group="kernels")
def test_kernel_deck_pickle(benchmark):
    """Pickle round trip of a 100-test deck: a lot-farm die unit's payload."""
    deck = RandomTestGenerator(seed=67).batch(100)

    restored = benchmark(lambda: pickle.loads(pickle.dumps(deck)))
    assert restored == deck


@pytest.mark.benchmark(group="kernels")
def test_kernel_ga_offspring(benchmark):
    """One generation of sequence variation (selection, splice, point,
    motif and resize mutation, fitness-cache lookup) for a 20-individual
    population, with a free fitness so only the operators are timed."""
    space = ConditionSpace()
    tests = RandomTestGenerator(seed=67, condition_space=space).batch(20)
    population = Population("bench", [
        TestIndividual.from_test_case(test, space).with_fitness(index / 20)
        for index, test in enumerate(tests)
    ])

    def offspring():
        engine = MultiPopulationGA(GAConfig(), space, lambda test: 0.0, seed=67)
        return engine._offspring(population)

    children = benchmark(offspring)
    assert len(children) == len(population)


@pytest.mark.benchmark(group="kernels")
def test_kernel_single_measurement(benchmark, thousand_cycle_test):
    """One ATE.apply with warm caches — the unit of all search costs."""
    ate = fresh_ate(seed=67)
    ate.apply(thousand_cycle_test, 25.0)  # warm caches

    result = benchmark(ate.apply, thousand_cycle_test, 25.0)
    assert isinstance(result, bool)


@pytest.mark.benchmark(group="kernels")
def test_kernel_apply_batch_row(benchmark, thousand_cycle_test):
    """One 601-strobe ATE.apply_batch row (a fig. 6 WCR screen row), warm caches."""
    ate = fresh_ate(seed=67, noise_sigma=0.04)
    strobes = np.linspace(15.0, 45.0, 601)
    ate.apply_batch(thousand_cycle_test, strobes)  # warm feature + static caches

    # The log is emptied between rounds, untimed, so it cannot grow unbounded.
    result = benchmark.pedantic(
        ate.apply_batch, args=(thousand_cycle_test, strobes),
        setup=ate.datalog.clear, rounds=300, warmup_rounds=5,
    )
    assert result.shape == (601,) and len(ate.datalog) == 601


@pytest.mark.benchmark(group="kernels")
def test_kernel_nn_ensemble_inference(benchmark):
    """Batch severity scoring — the fig. 5 step-1 screening kernel."""
    network = MLP([21, 24, 12, 4], seed=67)
    batch = np.random.default_rng(67).random((300, 21))

    probabilities = benchmark(network.predict, batch)
    assert probabilities.shape == (300, 4)

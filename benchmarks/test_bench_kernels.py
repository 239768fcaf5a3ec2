"""Substrate kernel micro-benchmarks.

Not paper artifacts — these time the hot paths every experiment rides on
(random test generation, feature extraction, functional simulation, NN
inference, one tester measurement) so performance regressions are visible
in CI.
"""

import numpy as np
import pytest

from benchmarks.conftest import fresh_ate
from repro.nn.mlp import MLP
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.features import extract_features
from repro.patterns.random_gen import RandomTestGenerator


@pytest.fixture(scope="module")
def thousand_cycle_test():
    generator = RandomTestGenerator(seed=67, min_cycles=1000, max_cycles=1000)
    return generator.generate().with_condition(NOMINAL_CONDITION)


@pytest.mark.benchmark(group="kernels")
def test_kernel_feature_extraction(benchmark, thousand_cycle_test):
    result = benchmark(extract_features, thousand_cycle_test.sequence)
    assert len(result.values) > 0


@pytest.mark.benchmark(group="kernels")
def test_kernel_random_generation(benchmark):
    """One fresh random test from the default style mix."""
    generator = RandomTestGenerator(seed=67)

    result = benchmark(generator.generate)
    assert result.origin == "random"


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
def test_kernel_single_measurement(benchmark, thousand_cycle_test):
    """One ATE.apply with warm caches — the unit of all search costs."""
    ate = fresh_ate(seed=67)
    ate.apply(thousand_cycle_test, 25.0)  # warm caches

    result = benchmark(ate.apply, thousand_cycle_test, 25.0)
    assert isinstance(result, bool)


@pytest.mark.benchmark(group="kernels")
def test_kernel_nn_ensemble_inference(benchmark):
    """Batch severity scoring — the fig. 5 step-1 screening kernel."""
    network = MLP([21, 24, 12, 4], seed=67)
    batch = np.random.default_rng(67).random((300, 21))

    probabilities = benchmark(network.predict, batch)
    assert probabilities.shape == (300, 4)

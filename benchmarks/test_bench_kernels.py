"""Substrate kernel micro-benchmarks.

Not paper artifacts — these time the hot paths every experiment rides on
(random test generation per style, feature extraction one test and a deck
at a time, functional simulation, NN inference, one tester measurement and
its memo lookups, a farm unit's deck pickle, one point mutation, one GA
generation of variation, one voting-machine fit) so performance
regressions are visible in CI.
"""

import pickle
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import fresh_ate
from repro.device.faults import CouplingFault, StuckAtFault, TransitionFault
from repro.device.memory_chip import MemoryTestChip
from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, MultiPopulationGA
from repro.ga.operators import point_mutate_sequence
from repro.ga.population import Population
from repro.nn.ensemble import VotingEnsemble
from repro.nn.losses import CrossEntropyLoss
from repro.nn.mlp import MLP
from repro.nn.trainer import Trainer
from repro.patterns.conditions import NOMINAL_CONDITION, ConditionSpace
from repro.patterns.features import FEATURE_NAMES, extract_features_batch
from repro.patterns.random_gen import STYLES, RandomTestGenerator
from tests.nn import trainer_reference
from tests.patterns.features_reference import per_sequence_features


@pytest.fixture(scope="module")
def thousand_cycle_test():
    generator = RandomTestGenerator(seed=67, min_cycles=1000, max_cycles=1000)
    return generator.generate().with_condition(NOMINAL_CONDITION)


@pytest.fixture(scope="module")
def feature_deck():
    """100 generated tests of 100 to 1000 cycles: one lot deck."""
    return [test.sequence for test in RandomTestGenerator(seed=67).batch(100)]


def _features_per_call(per_call):
    def run(deck):
        for lo in range(0, len(deck), per_call):
            extract_features_batch(deck[lo:lo + per_call])

    return run


def _reference_features(deck):
    for sequence in deck:
        per_sequence_features(sequence)


def _us_per_test(run, reference, deck, rounds=7):
    """Median µs per test of ``run`` and ``reference`` over ``deck``, timed
    alternately so host drift hits both alike."""
    times = {run: [], reference: []}
    for _ in range(rounds):
        for fn, samples in times.items():
            start = time.perf_counter()
            fn(deck)
            samples.append(time.perf_counter() - start)
    return [statistics.median(times[fn]) / len(deck) * 1e6 for fn in (run, reference)]


def _report_against_reference(report_sink, label, us, reference_us, **extra):
    report_sink.json(
        us_per_test=round(us, 2),
        reference_us_per_test=round(reference_us, 2),
        ratio=round(us / reference_us, 4),
        **extra,
    )
    report_sink(
        f"{label}: {us:.1f} µs/test; the per-sequence kernel it replaced "
        f"{reference_us:.1f} µs/test ({us / reference_us:.2f}x)"
    )


@pytest.mark.benchmark(group="kernels")
def test_kernel_feature_extraction(benchmark, report_sink, thousand_cycle_test):
    """One 1000-cycle test through the batch kernel (a batch of one, no memo)."""
    batch = [thousand_cycle_test.sequence]
    result = benchmark(extract_features_batch, batch)
    assert result.shape == (1, len(FEATURE_NAMES))
    us, reference_us = _us_per_test(
        extract_features_batch, _reference_features, batch, rounds=25
    )
    _report_against_reference(
        report_sink, "feature kernel, one 1000-cycle test", us, reference_us
    )


@pytest.mark.benchmark(group="kernels")
@pytest.mark.parametrize("per_call", [1, 16, 100])
def test_kernel_feature_batch(benchmark, report_sink, feature_deck, per_call):
    """A 100-test deck through the feature kernel, ``per_call`` tests a call
    (one kernel call takes at most ``FEATURE_BATCH_CAP`` of them)."""
    run = _features_per_call(per_call)
    benchmark(run, feature_deck)
    us, reference_us = _us_per_test(run, _reference_features, feature_deck)
    _report_against_reference(
        report_sink, f"feature kernel, {per_call} tests per call", us, reference_us,
        per_call=per_call,
    )


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


def _forget_functional(chip):
    """Empty the chip's functional memo, newest-entry shortcut included."""
    chip._functional_cache.clear()
    chip._newest_functional = None


@pytest.mark.benchmark(group="kernels")
def test_kernel_functional_simulation(benchmark, thousand_cycle_test):
    ate = fresh_ate(seed=67)
    sequence = thousand_cycle_test.sequence

    def run():
        # Bypass the cache: functional sim cost is what we measure.
        _forget_functional(ate.chip)
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
        _forget_functional(chip)
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
def test_kernel_apply_warm(benchmark, report_sink, thousand_cycle_test):
    """ATE.apply on an already-memoized test, and apart from it the three
    memo lookups it makes (pattern memory, functional result, static
    value): the lookup layer of the warm measurement path.

    Each probe here passes the very objects the previous one did, as an
    SUTP walk's probes of one test do, so every lookup takes its memo's
    newest-entry shortcut: one identity check instead of a hash, a pop
    and a re-insert.  A probe through an equal-content copy still pays
    the content lookup."""
    ate = fresh_ate(seed=67)
    ate.apply(thousand_cycle_test, 25.0)  # fill every memo
    chip, memory = ate.chip, ate.pattern_memory
    sequence = thousand_cycle_test.sequence

    def lookups():
        memory.load(sequence)
        chip.run_functional(sequence)
        chip._parametric_static(thousand_cycle_test)

    def us_per_call(fn, calls=2000):
        ate.datalog.clear()  # so the log cannot grow unbounded
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls * 1e6

    benchmark(lookups)
    # Alternate the two, so host drift hits both alike.
    samples = [
        (us_per_call(lambda: ate.apply(thousand_cycle_test, 25.0)), us_per_call(lookups))
        for _ in range(9)
    ]
    apply_us, lookup_us = (statistics.median(column) for column in zip(*samples))
    assert memory.load_count == 1
    report_sink.json(
        apply_us=round(apply_us, 3), lookup_us=round(lookup_us, 3),
        lookup_share=round(lookup_us / apply_us, 4),
    )
    report_sink(
        f"warm ATE.apply: {apply_us:.2f} µs; its three memo lookups "
        f"{lookup_us:.2f} µs ({lookup_us / apply_us:.0%})"
    )


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


@pytest.mark.benchmark(group="kernels")
def test_kernel_nn_ensemble_fit(benchmark, report_sink):
    """One voting-machine fit at a learning round's shapes: 5 members of
    ``[21, 24, 12, 4]``, 34 training rows each (70% of 48), batch 24,
    12 validation rows and the default learning config.  Timed against the
    per-member loop the stacked one replaced, with equal results."""
    rng = np.random.default_rng(67)
    x, val_x = rng.random((48, 21)), rng.random((12, 21))
    y, val_y = (np.eye(4)[rng.integers(0, 4, size=n)] for n in (48, 12))
    trainer = Trainer(
        CrossEntropyLoss(), learning_rate=0.08, momentum=0.9, batch_size=24,
        max_epochs=150, patience=15, seed=67,
    )

    def ensemble():
        return VotingEnsemble(MLP([21, 24, 12, 4], seed=67), n_networks=5, seed=67)

    def stacked():
        fitted = ensemble()
        return fitted, fitted.fit(trainer, x, y, val_x, val_y).histories

    def per_member():
        fitted = ensemble()
        return fitted, trainer_reference.ensemble_fit(fitted, trainer, x, y, val_x, val_y)[0]

    fitted, histories = benchmark(stacked)
    reference, reference_histories = per_member()
    assert [h.train_loss for h in histories] == [h.train_loss for h in reference_histories]
    for member, twin in zip(fitted.members, reference.members):
        for a, b in zip(member.get_parameters(), twin.get_parameters()):
            assert np.array_equal(a, b)

    # Alternate the two, so host drift hits both alike.
    times = {stacked: [], per_member: []}
    for _ in range(7):
        for fn, samples in times.items():
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    ms, reference_ms = (statistics.median(times[fn]) * 1e3 for fn in (stacked, per_member))
    epochs = [h.epochs_run for h in histories]
    report_sink.json(
        ms_per_fit=round(ms, 3), reference_ms_per_fit=round(reference_ms, 3),
        ratio=round(ms / reference_ms, 4), member_epochs=epochs,
    )
    report_sink(
        f"ensemble fit, 5 members, epochs {epochs}: {ms:.1f} ms; the "
        f"per-member loop it replaced {reference_ms:.1f} ms ({ms / reference_ms:.2f}x)"
    )

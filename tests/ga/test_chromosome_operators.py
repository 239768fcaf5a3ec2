"""Tests for GA chromosomes and variation operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ga.chromosome import TestIndividual
from repro.ga.operators import (
    MOTIF_NAMES,
    crossover_conditions,
    crossover_sequences,
    motif_mutate_sequence,
    mutate_conditions,
    point_mutate_sequence,
    resize_mutate_sequence,
    tournament_select,
)
from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    Operation,
    TestVector,
    VectorSequence,
)


@pytest.fixture
def sequence():
    return RandomTestGenerator(seed=5).generate().sequence


@pytest.fixture
def space():
    return ConditionSpace()


class TestTestIndividual:
    def test_gene_shape_validation(self, sequence):
        with pytest.raises(ValueError):
            TestIndividual(sequence, np.zeros(2))

    def test_gene_range_validation(self, sequence):
        with pytest.raises(ValueError):
            TestIndividual(sequence, np.array([0.5, 1.5, 0.5]))

    def test_fitness_lifecycle(self, sequence):
        individual = TestIndividual(sequence, np.full(3, 0.5))
        assert not individual.evaluated
        scored = individual.with_fitness(0.7)
        assert scored.evaluated
        assert scored.fitness == pytest.approx(0.7)
        assert not individual.evaluated  # immutable original

    def test_test_case_roundtrip(self, sequence, space):
        test = TestCase(sequence, NOMINAL_CONDITION, name="x", origin="nn")
        individual = TestIndividual.from_test_case(test, space)
        decoded = individual.to_test_case(space)
        assert decoded.sequence is sequence
        assert decoded.condition.vdd == pytest.approx(1.8, abs=1e-6)

    def test_decoded_condition_inside_space(self, sequence, space, rng):
        genes = rng.random(3)
        individual = TestIndividual(sequence, genes)
        assert space.contains(individual.to_test_case(space).condition)


class TestSelection:
    def test_empty_population_rejected(self, rng):
        with pytest.raises(ValueError):
            tournament_select([], rng)

    def test_prefers_fitter(self, sequence, rng):
        weak = TestIndividual(sequence, np.full(3, 0.5)).with_fitness(0.1)
        strong = TestIndividual(sequence, np.full(3, 0.5)).with_fitness(0.9)
        winners = [
            tournament_select([weak, strong], rng, k=2) for _ in range(20)
        ]
        assert all(w.fitness == pytest.approx(0.9) for w in winners)

    def test_unevaluated_loses(self, sequence, rng):
        blank = TestIndividual(sequence, np.full(3, 0.5))
        scored = TestIndividual(sequence, np.full(3, 0.5)).with_fitness(0.01)
        winner = tournament_select([blank, scored], rng, k=2)
        assert winner is scored


class TestSequenceOperators:
    def test_crossover_children_lengths(self, rng):
        generator = RandomTestGenerator(seed=1)
        a = generator.generate().sequence
        b = generator.generate().sequence
        child1, child2 = crossover_sequences(a, b, rng)
        assert 1 <= len(child1) <= MAX_SEQUENCE_CYCLES
        assert 1 <= len(child2) <= MAX_SEQUENCE_CYCLES

    def test_point_mutation_rate_zero_is_identity(self, sequence, rng):
        assert point_mutate_sequence(sequence, rng, rate=0.0) is sequence

    def test_point_mutation_rate_one_rewrites(self, sequence, rng):
        mutated = point_mutate_sequence(sequence, rng, rate=1.0)
        assert mutated is not sequence
        differing = sum(
            1 for a, b in zip(sequence, mutated) if a != b
        )
        assert differing > len(sequence) * 0.8

    def test_point_mutation_validates_rate(self, sequence, rng):
        with pytest.raises(ValueError):
            point_mutate_sequence(sequence, rng, rate=1.5)

    def test_motif_mutation_preserves_length(self, sequence, rng):
        mutated = motif_mutate_sequence(sequence, rng)
        assert len(mutated) == len(sequence)

    def test_motif_mutation_changes_content(self, sequence, rng):
        mutated = motif_mutate_sequence(sequence, rng)
        assert mutated != sequence

    def test_resize_respects_bounds(self, rng):
        short = VectorSequence(
            [TestVector(Operation.NOP, 0, 0)] * MIN_SEQUENCE_CYCLES
        )
        for _ in range(20):
            resized = resize_mutate_sequence(short, rng, max_change=400)
            assert MIN_SEQUENCE_CYCLES <= len(resized) <= MAX_SEQUENCE_CYCLES

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 999))
    def test_mutated_sequences_always_valid(self, seed):
        """Any chain of operators yields a well-formed sequence."""
        rng = np.random.default_rng(seed)
        seq = RandomTestGenerator(seed=seed).generate().sequence
        seq = point_mutate_sequence(seq, rng, 0.05)
        seq = motif_mutate_sequence(seq, rng)
        seq = resize_mutate_sequence(seq, rng)
        for vector in seq:
            vector.validate(seq.addr_bits, seq.data_bits)


class TestMotifProfiles:
    """Each motif must inject its namesake activity."""

    def _motif_sequence(self, name, rng):
        base = VectorSequence([TestVector(Operation.NOP, 0, 0)] * 200)
        from repro.ga import operators

        builder = operators._MOTIF_BUILDERS[name]
        return VectorSequence.from_columns(*builder(rng, 200, 10, 8))

    def test_all_motifs_registered(self):
        assert set(MOTIF_NAMES) == {"toggle_burst", "raw_pairs", "msb_hop"}

    def test_toggle_burst_profile(self, rng):
        from repro.patterns.features import extract_features

        features = extract_features(self._motif_sequence("toggle_burst", rng))
        assert features["data_toggle_density"] == pytest.approx(1.0)
        assert features["peak_window_activity"] == pytest.approx(1.0)

    def test_raw_pairs_profile(self, rng):
        from repro.patterns.features import extract_features

        features = extract_features(self._motif_sequence("raw_pairs", rng))
        assert features["read_after_write_rate"] > 0.4

    def test_msb_hop_profile(self, rng):
        from repro.patterns.features import extract_features

        features = extract_features(self._motif_sequence("msb_hop", rng))
        assert features["addr_msb_toggle_rate"] == pytest.approx(1.0)


class TestConditionOperators:
    def test_blend_crossover_stays_in_cube(self, rng):
        a, b = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0])
        c1, c2 = crossover_conditions(a, b, rng)
        for child in (c1, c2):
            assert np.all(child >= 0.0) and np.all(child <= 1.0)

    def test_blend_crossover_conserves_sum(self, rng):
        a, b = np.array([0.2, 0.4, 0.6]), np.array([0.8, 0.6, 0.4])
        c1, c2 = crossover_conditions(a, b, rng)
        assert np.allclose(c1 + c2, a + b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_blend_crossover_equals_numpy_form(self, genes, alpha):
        """The Python-float blend is the array blend, bit for bit."""

        class FixedDraw:
            def random(self):
                return alpha

        a, b = np.array(genes[:3]), np.array(genes[3:])
        a.flags.writeable = b.flags.writeable = False
        numpy_form = (
            np.clip(alpha * a + (1.0 - alpha) * b, 0.0, 1.0),
            np.clip((1.0 - alpha) * a + alpha * b, 0.0, 1.0),
        )
        for child, expected in zip(crossover_conditions(a, b, FixedDraw()), numpy_form):
            assert child.dtype == np.float64 and child.shape == (3,)
            assert child.tobytes() == expected.tobytes()

    def test_mutation_clips(self, rng):
        genes = np.array([0.0, 1.0, 0.5])
        for _ in range(30):
            mutated = mutate_conditions(genes, rng, sigma=0.5)
            assert np.all(mutated >= 0.0) and np.all(mutated <= 1.0)

    def test_mutation_zero_sigma_identity(self, rng):
        genes = np.array([0.3, 0.6, 0.9])
        assert np.allclose(mutate_conditions(genes, rng, sigma=0.0), genes)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            mutate_conditions(np.zeros(3), rng, sigma=-0.1)

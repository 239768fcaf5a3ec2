"""The column GA operators and diversity against their per-vector reference.

The reference below is how the sequence operators were written before they
worked on columns: lists of :class:`TestVector`, one vector per cycle.  The
column operators must produce equal children and leave the RNG stream at
the same point, so a GA run draws the same numbers and evolves the same
genomes.
"""

import numpy as np
import pytest

from repro.ga.chromosome import TestIndividual
from repro.ga.operators import (
    MOTIF_NAMES,
    _MOTIF_BUILDERS,
    crossover_sequences,
    motif_mutate_sequence,
    point_mutate_sequence,
    resize_mutate_sequence,
)
from repro.ga.population import Population
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    Operation,
    TestVector,
    VectorSequence,
)


def reference_splice(a, b, cut_a, cut_b):
    vecs = list(a.vectors[:cut_a]) + list(b.vectors[cut_b:])
    if not vecs:
        vecs = [a.vectors[0]]
    return VectorSequence(vecs[:MAX_SEQUENCE_CYCLES], a.addr_bits, a.data_bits, name=a.name)


def reference_crossover(a, b, rng):
    cut_a = int(rng.integers(1, len(a)))
    cut_b = int(rng.integers(1, len(b)))
    return reference_splice(a, b, cut_a, cut_b), reference_splice(b, a, cut_b, cut_a)


def reference_random_vector(rng, addr_bits, data_bits):
    op = rng.choice([Operation.READ, Operation.WRITE, Operation.NOP],
                    p=[0.45, 0.45, 0.10])
    return TestVector(
        op,
        int(rng.integers(0, 1 << addr_bits)),
        int(rng.integers(0, 1 << data_bits)),
    )


def reference_point_mutate(sequence, rng, rate=0.02):
    vectors = list(sequence.vectors)
    mutated = False
    for i in range(len(vectors)):
        if rng.random() < rate:
            vectors[i] = reference_random_vector(rng, sequence.addr_bits, sequence.data_bits)
            mutated = True
    if not mutated:
        return sequence
    return VectorSequence(vectors, sequence.addr_bits, sequence.data_bits, name=sequence.name)


def reference_toggle_burst(rng, length, addr_bits, data_bits):
    mask = (1 << data_bits) - 1
    full = (1 << addr_bits) - 1
    word = int(rng.integers(0, 1 << data_bits))
    addr = int(rng.integers(0, 1 << addr_bits))
    out = []
    for _ in range(length):
        word ^= mask
        addr ^= full
        out.append(TestVector(Operation.WRITE, addr, word))
    return out


def reference_raw_pairs(rng, length, addr_bits, data_bits):
    half = 1 << (addr_bits - 1)
    mask = (1 << data_bits) - 1
    word = int(rng.integers(0, 1 << data_bits))
    addr = int(rng.integers(0, 1 << addr_bits))
    out = []
    while len(out) < length:
        word ^= mask
        addr ^= half
        out.append(TestVector(Operation.WRITE, addr, word))
        out.append(TestVector(Operation.READ, addr, 0))
    return out[:length]


def reference_msb_hop(rng, length, addr_bits, data_bits):
    half = 1 << (addr_bits - 1)
    addr = int(rng.integers(0, 1 << addr_bits))
    out = []
    for _ in range(length):
        addr ^= half
        data = int(rng.integers(0, 1 << data_bits))
        out.append(TestVector(Operation.WRITE, addr, data))
    return out


REFERENCE_MOTIFS = {
    "toggle_burst": reference_toggle_burst,
    "raw_pairs": reference_raw_pairs,
    "msb_hop": reference_msb_hop,
}


def reference_motif_mutate(sequence, rng, min_length=16, max_length=96):
    name = str(rng.choice(MOTIF_NAMES))
    length = int(rng.integers(min_length, max_length + 1))
    length = min(length, len(sequence))
    start = int(rng.integers(0, len(sequence) - length + 1))
    motif = REFERENCE_MOTIFS[name](rng, length, sequence.addr_bits, sequence.data_bits)
    vectors = list(sequence.vectors)
    vectors[start : start + length] = motif
    return VectorSequence(
        vectors[:MAX_SEQUENCE_CYCLES], sequence.addr_bits, sequence.data_bits,
        name=sequence.name,
    )


def reference_resize_mutate(sequence, rng, max_change=64):
    change = int(rng.integers(-max_change, max_change + 1))
    target = int(np.clip(len(sequence) + change, MIN_SEQUENCE_CYCLES, MAX_SEQUENCE_CYCLES))
    vectors = list(sequence.vectors)
    if target <= len(vectors):
        vectors = vectors[:target]
    else:
        while len(vectors) < target:
            vectors.append(reference_random_vector(rng, sequence.addr_bits, sequence.data_bits))
    return VectorSequence(vectors, sequence.addr_bits, sequence.data_bits, name=sequence.name)


GEOMETRIES = (
    {},
    {"addr_bits": 12, "data_bits": 16},
    {"addr_bits": 3, "data_bits": 3},
)
SEEDS = range(50)


def _parents(seed, geometry):
    generator = RandomTestGenerator(seed=seed, **geometry)
    return generator.generate().sequence, generator.generate().sequence


def _assert_same(operator, reference, seed, geometry, *args):
    a, b = _parents(seed, geometry)
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = operator(a, *([b] if operator is crossover_sequences else []), rng, *args)
    want = reference(a, *([b] if reference is reference_crossover else []), ref_rng, *args)
    assert got == want
    if isinstance(got, tuple):
        assert [s.name for s in got] == [s.name for s in want]
    else:
        assert got.name == want.name
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=["default", "12x16", "3x3"])
class TestColumnOperatorsMatchReference:
    def test_crossover(self, geometry):
        for seed in SEEDS:
            _assert_same(crossover_sequences, reference_crossover, seed, geometry)

    @pytest.mark.parametrize("rate", [0.0, 0.02, 0.3, 1.0])
    def test_point_mutation(self, geometry, rate):
        for seed in SEEDS:
            _assert_same(point_mutate_sequence, reference_point_mutate, seed, geometry, rate)

    def test_motif_mutation(self, geometry):
        for seed in SEEDS:
            _assert_same(motif_mutate_sequence, reference_motif_mutate, seed, geometry)

    @pytest.mark.parametrize("max_change", [64, 400])
    def test_resize_mutation(self, geometry, max_change):
        for seed in SEEDS:
            _assert_same(
                resize_mutate_sequence, reference_resize_mutate, seed, geometry, max_change
            )

    @pytest.mark.parametrize("motif", MOTIF_NAMES)
    def test_motif_builders(self, geometry, motif):
        addr_bits = geometry.get("addr_bits", 10)
        data_bits = geometry.get("data_bits", 8)
        for seed in SEEDS:
            length = 1 + seed * 3
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = VectorSequence.from_columns(
                *_MOTIF_BUILDERS[motif](rng, length, addr_bits, data_bits),
                addr_bits, data_bits,
            )
            want = VectorSequence(
                REFERENCE_MOTIFS[motif](ref_rng, length, addr_bits, data_bits),
                addr_bits, data_bits,
            )
            assert got == want
            assert rng.random() == ref_rng.random()


def test_chained_generation_matches_reference():
    """A GA-like chain of operators stays aligned over many steps."""
    rng = np.random.default_rng(7)
    ref_rng = np.random.default_rng(7)
    a, b = _parents(7, {})
    ref_a, ref_b = a, b
    for _ in range(30):
        a, b = crossover_sequences(a, b, rng)
        ref_a, ref_b = reference_crossover(ref_a, ref_b, ref_rng)
        a = motif_mutate_sequence(point_mutate_sequence(a, rng, 0.05), rng)
        ref_a = reference_motif_mutate(reference_point_mutate(ref_a, ref_rng, 0.05), ref_rng)
        b = resize_mutate_sequence(b, rng)
        ref_b = reference_resize_mutate(ref_b, ref_rng)
        assert (a, b) == (ref_a, ref_b)
    assert rng.random() == ref_rng.random()


def reference_sequence_diversity(population):
    """Population.sequence_diversity as written before it read columns."""
    reference = list(population.best().sequence)
    distances = []
    for individual in population.individuals:
        sequence = list(individual.sequence)
        longest = max(len(reference), len(sequence))
        mismatches = sum(1 for a, b in zip(reference, sequence) if a != b)
        mismatches += abs(len(reference) - len(sequence))
        distances.append(mismatches / longest)
    return float(np.mean(distances))


@pytest.mark.parametrize("seed", range(10))
def test_sequence_diversity_matches_reference(seed):
    rng = np.random.default_rng(seed)
    generator = RandomTestGenerator(seed=seed)
    base = generator.generate().sequence
    sequences = [base, generator.generate().sequence]
    for _ in range(8):
        child = point_mutate_sequence(base, rng, 0.1)
        if rng.random() < 0.5:
            child = resize_mutate_sequence(child, rng, max_change=200)
        sequences.append(child)
    population = Population("p", [
        TestIndividual(sequence, np.full(3, 0.5)).with_fitness(float(rng.random()))
        for sequence in sequences
    ])
    assert population.sequence_diversity() == reference_sequence_diversity(population)

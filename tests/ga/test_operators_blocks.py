"""Block-drawn point and resize mutation against their scalar loops.

The reference below is how the two operators were written before they
drew whole blocks: one ``random()`` per cycle, and a ``choice`` plus two
``integers`` per rewritten or grown cycle.  The block operators must give
the same children and leave the Generator in the same state, cached 32-bit
half included, so a GA run evolves the same genomes.
"""

from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ga.operators import point_mutate_sequence, resize_mutate_sequence
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    OPS,
    VectorSequence,
)


def reference_random_cycle(rng, addr_bits, data_bits):
    op = int(rng.choice(len(OPS), p=[0.45, 0.45, 0.10]))
    return (
        op,
        int(rng.integers(0, 1 << addr_bits)),
        int(rng.integers(0, 1 << data_bits)),
    )


def reference_point_mutate(sequence, rng, rate=0.02):
    columns: Optional[Tuple[np.ndarray, ...]] = None
    for i in range(len(sequence)):
        if rng.random() < rate:
            if columns is None:
                columns = tuple(column.copy() for column in sequence.columns)
            ops, addresses, data = columns
            ops[i], addresses[i], data[i] = reference_random_cycle(
                rng, sequence.addr_bits, sequence.data_bits
            )
    if columns is None:
        return sequence
    return VectorSequence.from_columns(
        *columns, sequence.addr_bits, sequence.data_bits, name=sequence.name
    )


def reference_resize_mutate(sequence, rng, max_change=64):
    change = int(rng.integers(-max_change, max_change + 1))
    target = int(
        np.clip(len(sequence) + change, MIN_SEQUENCE_CYCLES, MAX_SEQUENCE_CYCLES)
    )
    grown = [
        reference_random_cycle(rng, sequence.addr_bits, sequence.data_bits)
        for _ in range(target - len(sequence))
    ]
    columns = [column[:target] for column in sequence.columns]
    if grown:
        columns = [
            np.concatenate((column, added))
            for column, added in zip(columns, zip(*grown))
        ]
    return VectorSequence.from_columns(
        *columns, sequence.addr_bits, sequence.data_bits, name=sequence.name
    )


def _parent(seed, addr_bits, data_bits, cycles):
    generator = RandomTestGenerator(
        seed=seed, addr_bits=addr_bits, data_bits=data_bits,
        min_cycles=cycles, max_cycles=cycles,
    )
    return generator.generate("uniform").sequence


def _pair(seed, cached):
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        # One odd 32-bit draw leaves the high half of a word cached.
        for rng in rngs:
            rng.integers(0, 8)
    return rngs


def _assert_same(got, want, rng, ref_rng):
    assert got == want
    assert got.name == want.name
    for x, y in zip(got.columns, want.columns):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


cases = dict(
    seed=st.integers(0, 2**32 - 1),
    bits=st.tuples(st.integers(1, 63), st.integers(1, 63)),
    cycles=st.integers(1, 1000),
    cached=st.booleans(),
)


class TestBlockOperatorsMatchScalarLoops:
    @settings(max_examples=400, deadline=None)
    @given(rate=st.sampled_from([0.0, 1e-3, 0.02, 0.05, 1.0]), **cases)
    def test_point_mutation(self, rate, seed, bits, cycles, cached):
        sequence = _parent(seed, *bits, cycles)
        rng, ref_rng = _pair(seed, cached)
        got = point_mutate_sequence(sequence, rng, rate)
        want = reference_point_mutate(sequence, ref_rng, rate)
        _assert_same(got, want, rng, ref_rng)
        if rate == 0.0:
            assert got is sequence

    @settings(max_examples=300, deadline=None)
    @given(max_change=st.sampled_from([0, 64, 400, 1000]), **cases)
    def test_resize_mutation(self, max_change, seed, bits, cycles, cached):
        sequence = _parent(seed, *bits, cycles)
        rng, ref_rng = _pair(seed, cached)
        got = resize_mutate_sequence(sequence, rng, max_change)
        want = reference_resize_mutate(sequence, ref_rng, max_change)
        _assert_same(got, want, rng, ref_rng)


@pytest.mark.parametrize(
    "operator", [point_mutate_sequence, resize_mutate_sequence]
)
def test_non_pcg64_generator_raises_type_error(operator):
    sequence = _parent(0, 10, 8, 100)
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        operator(sequence, rng)

"""GA children built without the whole-column check equal checked twins.

Point, motif and resize mutation and splice crossover build their children
through ``VectorSequence._derived``, which adopts the columns without
validating them.  Each child must equal the sequence that the public,
validating ``from_columns`` builds from the same columns: the same columns
in the same dtypes, the same name and the same hash.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ga.operators import (
    crossover_sequences,
    motif_mutate_sequence,
    point_mutate_sequence,
    resize_mutate_sequence,
)
from repro.patterns.random_gen import STYLES, RandomTestGenerator
from repro.patterns.vectors import VectorSequence

STORAGE_DTYPES = (np.int8, np.int64, np.int64)


def _parent(seed, addr_bits, data_bits, style, cycles):
    generator = RandomTestGenerator(
        seed=seed, addr_bits=addr_bits, data_bits=data_bits,
        min_cycles=cycles, max_cycles=cycles,
    )
    return generator.generate(style).sequence


def _assert_checked_twin(child):
    twin = VectorSequence.from_columns(
        *child.columns, child.addr_bits, child.data_bits, name=child.name
    )
    for mine, theirs, dtype in zip(child.columns, twin.columns, STORAGE_DTYPES):
        assert mine.dtype == theirs.dtype == dtype
        assert np.array_equal(mine, theirs)
        assert not mine.flags.writeable
    assert child == twin and hash(child) == hash(twin)
    assert child.name == twin.name
    assert child.features_memo is None


parents = st.builds(
    _parent,
    seed=st.integers(0, 2**32 - 1),
    addr_bits=st.integers(1, 16),
    data_bits=st.integers(1, 16),
    style=st.sampled_from([name for name, _ in STYLES]),
    cycles=st.integers(1, 1000),
)


@settings(max_examples=150, deadline=None)
@given(parent=parents, seed=st.integers(0, 2**32 - 1),
       rate=st.sampled_from([0.0, 0.02, 0.2, 1.0]))
def test_point_mutation_child(parent, seed, rate):
    _assert_checked_twin(
        point_mutate_sequence(parent, np.random.default_rng(seed), rate)
    )


@settings(max_examples=150, deadline=None)
@given(parent=parents, seed=st.integers(0, 2**32 - 1))
def test_motif_mutation_child(parent, seed):
    _assert_checked_twin(motif_mutate_sequence(parent, np.random.default_rng(seed)))


@settings(max_examples=150, deadline=None)
@given(parent=parents, seed=st.integers(0, 2**32 - 1),
       max_change=st.sampled_from([0, 64, 1000]))
def test_resize_mutation_child(parent, seed, max_change):
    _assert_checked_twin(
        resize_mutate_sequence(parent, np.random.default_rng(seed), max_change)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_crossover_children(data, seed):
    a = data.draw(parents.filter(lambda sequence: len(sequence) > 1))
    b = data.draw(st.builds(
        _parent, seed=st.integers(0, 2**32 - 1), addr_bits=st.just(a.addr_bits),
        data_bits=st.just(a.data_bits),
        style=st.sampled_from([name for name, _ in STYLES]),
        cycles=st.integers(2, 1000),
    ))
    for child in crossover_sequences(a, b, np.random.default_rng(seed)):
        _assert_checked_twin(child)

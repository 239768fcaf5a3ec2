"""The ragged batch feature kernel and the feature memo on sequences.

Every row of :func:`extract_features_batch` must equal the per-sequence
kernel it replaced (kept in ``features_reference``) bit for bit, whatever
the other sequences in the call, their order or the chunk size.  The memo
is a cache only: it travels in a pickle bit for bit (so a farmed deck is
extracted once), never reaches a derived sequence and never changes
equality or hashing.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.patterns import features as features_module
from repro.patterns.features import (
    FEATURE_BATCH_CAP,
    FEATURE_NAMES,
    extract_features,
    extract_features_batch,
    fill_features,
    popcount,
)
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import (
    NOP_CODE,
    READ_CODE,
    WRITE_CODE,
    TestVector,
    Operation,
    VectorSequence,
    checkerboard_word,
)
from tests.patterns.features_reference import per_sequence_features

#: Op-code mixes: everything, no writes, all NOPs, all writes, reads/writes.
_ALPHABETS = (
    (READ_CODE, WRITE_CODE, NOP_CODE),
    (READ_CODE, NOP_CODE),
    (NOP_CODE,),
    (WRITE_CODE,),
    (READ_CODE, WRITE_CODE),
)
#: Odd and power-of-two buses, 5 and 12 bits in particular.
_BUS_BITS = st.one_of(st.sampled_from([5, 8, 12, 16]), st.integers(1, 16))


def _columns_sequence(seed, cycles, addr_bits, data_bits, alphabet, address_pool):
    """A sequence from seeded columns; a small address pool makes repeats."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(np.array(alphabet), size=cycles)
    pool = rng.integers(0, 1 << addr_bits, size=address_pool)
    addresses = pool[rng.integers(0, address_pool, size=cycles)]
    data = rng.integers(0, 1 << data_bits, size=cycles)
    return VectorSequence.from_columns(ops, addresses, data, addr_bits, data_bits)


@st.composite
def sequences(draw, max_cycles=300):
    return _columns_sequence(
        seed=draw(st.integers(0, 2**32 - 1)),
        cycles=draw(st.one_of(st.just(1), st.integers(1, max_cycles))),
        addr_bits=draw(_BUS_BITS),
        data_bits=draw(_BUS_BITS),
        alphabet=draw(st.sampled_from(_ALPHABETS)),
        address_pool=draw(st.sampled_from([1, 2, 5, 1000])),
    )


def _rows_by_reference(batch):
    return np.array([per_sequence_features(sequence) for sequence in batch])


def _fixed(cycles, addr_bits, data_bits, alphabet=_ALPHABETS[0], seed=0):
    return _columns_sequence(seed, cycles, addr_bits, data_bits, alphabet, 1000)


_EDGE_BATCH = [
    _fixed(1, 5, 12),
    _fixed(40, 12, 5, (NOP_CODE,)),
    _fixed(300, 5, 12, (READ_CODE, NOP_CODE)),
    _fixed(17, 16, 16, (WRITE_CODE,)),
    _fixed(16, 1, 1),
    _fixed(2, 12, 12),
]


class TestBatchMatchesPerSequenceKernel:
    @settings(max_examples=150, deadline=None)
    @given(batch=st.lists(sequences(), min_size=1, max_size=20))
    @example(batch=_EDGE_BATCH)
    def test_every_row_is_bit_identical(self, batch):
        assert np.array_equal(extract_features_batch(batch), _rows_by_reference(batch))

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_decks(self, seed):
        deck = [test.sequence for test in RandomTestGenerator(seed=seed).batch(40)]
        assert np.array_equal(extract_features_batch(deck), _rows_by_reference(deck))

    def test_empty_batch(self):
        assert extract_features_batch([]).shape == (0, len(FEATURE_NAMES))


class TestRowIndependence:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(sequences(max_cycles=120), min_size=2, max_size=24),
        order_seed=st.integers(0, 2**16),
        cap=st.sampled_from([1, 2, 3, 7, FEATURE_BATCH_CAP]),
    )
    def test_row_ignores_companions_order_and_chunk_size(self, batch, order_seed, cap):
        expected = np.array([extract_features_batch([s])[0] for s in batch])
        order = np.random.default_rng(order_seed).permutation(len(batch))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features_module, "FEATURE_BATCH_CAP", cap)
            shuffled = extract_features_batch([batch[i] for i in order])
        assert np.array_equal(shuffled, expected[order])

    def test_rows_are_read_only(self):
        rows = extract_features_batch([_fixed(50, 10, 8)])
        with pytest.raises(ValueError):
            rows[0, 0] = 0.5


class TestFeatureMemo:
    def test_extract_features_fills_and_reuses_the_memo(self):
        sequence = _fixed(120, 10, 8)
        assert sequence.features_memo is None
        features = extract_features(sequence)
        assert sequence.features_memo is features
        assert extract_features(sequence) is features

    def test_fill_features_matches_one_row_calls(self):
        deck = [test.sequence for test in RandomTestGenerator(seed=5).batch(37)]
        deck.append(deck[0])  # the same object twice
        fill_features(deck)
        for sequence in deck:
            assert sequence.features_memo is not None
            assert np.array_equal(
                sequence.features_memo.values, per_sequence_features(sequence)
            )

    def test_fill_features_keeps_existing_memos(self):
        sequence = _fixed(80, 10, 8)
        features = extract_features(sequence)
        fill_features([sequence, _fixed(80, 10, 8, seed=1)])
        assert sequence.features_memo is features

    @settings(max_examples=40, deadline=None)
    @given(sequence=sequences())
    def test_memo_is_pickled_and_leaves_identity_alone(self, sequence):
        blank = VectorSequence.from_columns(
            *sequence.columns, sequence.addr_bits, sequence.data_bits
        )
        pickled, hashed = pickle.dumps(sequence), hash(sequence)
        assert pickle.loads(pickled).features_memo is None
        extract_features(sequence)
        copy = pickle.loads(pickle.dumps(sequence))
        assert np.array_equal(
            copy.features_memo.values, per_sequence_features(sequence)
        )
        assert copy.features_memo.values.tobytes() == (
            sequence.features_memo.values.tobytes()
        )
        with pytest.raises(ValueError):
            copy.features_memo.values[0] = 0.5
        assert hash(sequence) == hash(copy) == hashed == hash(blank)
        assert sequence == copy == blank and blank.features_memo is None
        # The memo is appended to the column state, which stays as it was.
        assert pickle.dumps(blank) == pickled
        assert sequence.__getstate__()[:6] == blank.__getstate__()

    def test_never_featured_sequence_pickles_to_the_column_only_bytes(self):
        # The bytes a sequence pickled to before the memo joined the state
        # (little-endian columns), so older pickles and checkpoints agree.
        sequence = VectorSequence.from_columns(
            [0, 1, 2], [1, 2, 3], [0, 7, 0], 4, 3, name="g"
        )
        assert pickle.dumps(sequence, protocol=4) == (
            b"\x80\x04\x95x\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.patterns.vectors"
            b"\x94\x8c\x0eVectorSequence\x94\x93\x94)\x81\x94(C\x03\x00\x01\x02\x94"
            b"C\x18\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
            b"\x03\x00\x00\x00\x00\x00\x00\x00\x94C\x18\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
            b"\x94K\x04K\x03\x8c\x01g\x94t\x94b."
        )

    @pytest.mark.parametrize(
        "row",
        [
            None,  # a 6-tuple state, as a sequence pickled without a memo
            np.zeros(len(FEATURE_NAMES) - 1).tobytes(),  # an older feature set
            np.zeros(len(FEATURE_NAMES) + 1).tobytes(),
            b"\x00" * 7,  # not a whole float64
        ],
    )
    def test_state_without_a_fitting_row_loads_without_a_memo(self, row):
        sequence = _fixed(40, 10, 8)
        state = sequence.__getstate__()
        assert len(state) == 6
        loaded = VectorSequence.__new__(VectorSequence)
        loaded.__setstate__(state if row is None else state + (row,))
        assert loaded.features_memo is None
        assert loaded == sequence and hash(loaded) == hash(sequence)
        assert np.array_equal(
            extract_features(loaded).values, per_sequence_features(sequence)
        )

    def test_derived_sequences_start_without_a_memo(self):
        sequence = _fixed(60, 10, 8)
        other = _fixed(60, 10, 8, seed=3)
        extract_features(sequence)
        derived = (
            sequence.with_name("renamed"),
            sequence.replaced(0, TestVector(Operation.WRITE, 1, 2)),
            sequence.spliced(other, 30, 10),
        )
        for copy in derived:
            assert copy.features_memo is None
            assert np.array_equal(
                extract_features(copy).values, per_sequence_features(copy)
            )


class TestBitHelpers:
    @pytest.mark.parametrize("bits", range(1, 63))
    def test_odd_bit_mask_is_the_checkerboard_word(self, bits):
        mask = (1 << bits) - 1
        assert features_module._ODD_BITS & mask == checkerboard_word(0, bits)

    @pytest.mark.parametrize("bits", [1, 5, 8, 12, 16, 17, 24, 40])
    def test_popcount(self, bits):
        values = np.random.default_rng(bits).integers(0, 1 << bits, size=500)
        expected = [bin(int(value)).count("1") for value in values]
        assert popcount(values, bits).tolist() == expected

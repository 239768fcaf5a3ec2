"""Unit and property tests for the vector-sequence data model."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    OPS,
    Operation,
    TestVector,
    VectorSequence,
    checkerboard_word,
    sequence_from_ops,
    solid_word,
)


def make_seq(n=10, addr_bits=10, data_bits=8):
    vectors = [
        TestVector(Operation.WRITE if i % 2 else Operation.READ, i % 16, i % 256)
        for i in range(n)
    ]
    return VectorSequence(vectors, addr_bits, data_bits, name="t")


class TestTestVector:
    def test_validate_accepts_in_range(self):
        TestVector(Operation.WRITE, 1023, 255).validate(10, 8)

    def test_validate_rejects_address_overflow(self):
        with pytest.raises(ValueError, match="address"):
            TestVector(Operation.READ, 1024, 0).validate(10, 8)

    def test_validate_rejects_negative_address(self):
        with pytest.raises(ValueError, match="address"):
            TestVector(Operation.READ, -1, 0).validate(10, 8)

    def test_validate_rejects_data_overflow(self):
        with pytest.raises(ValueError, match="data"):
            TestVector(Operation.WRITE, 0, 256).validate(10, 8)

    def test_str_format(self):
        assert str(TestVector(Operation.WRITE, 0x2A, 0x0F)) == "w@002a:0f"


class TestVectorSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one cycle"):
            VectorSequence([])

    def test_validates_members_on_construction(self):
        with pytest.raises(ValueError):
            VectorSequence([TestVector(Operation.READ, 9999, 0)])

    def test_len_iter_getitem(self):
        seq = make_seq(5)
        assert len(seq) == 5
        assert list(seq)[2] == seq[2]

    def test_equality_ignores_name(self):
        a = make_seq().with_name("a")
        b = make_seq().with_name("b")
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_distinguishes_geometry(self):
        vecs = [TestVector(Operation.READ, 1, 1)]
        assert VectorSequence(vecs, 10, 8) != VectorSequence(vecs, 11, 8)

    def test_count_by_operation(self):
        seq = make_seq(10)
        assert seq.count(Operation.READ) == 5
        assert seq.count(Operation.WRITE) == 5
        assert seq.count(Operation.NOP) == 0

    def test_data_words_zero_for_reads(self):
        seq = sequence_from_ops([("r", 0, 0), ("w", 1, 42)])
        assert seq.data_words() == [0, 42]

    def test_replaced_returns_new_sequence(self):
        seq = make_seq(4)
        new_vec = TestVector(Operation.NOP, 0, 0)
        replaced = seq.replaced(2, new_vec)
        assert replaced[2] == new_vec
        assert seq[2] != new_vec  # original untouched

    def test_replaced_rejects_bad_index(self):
        with pytest.raises(IndexError):
            make_seq(4).replaced(4, TestVector(Operation.NOP, 0, 0))

    def test_spliced_combines_prefix_and_suffix(self):
        a, b = make_seq(6), make_seq(8)
        child = a.spliced(b, 3, 5)
        assert len(child) == 3 + 3
        assert child.vectors[:3] == a.vectors[:3]
        assert child.vectors[3:] == b.vectors[5:]

    def test_spliced_rejects_geometry_mismatch(self):
        a = make_seq(6, addr_bits=10)
        b = make_seq(6, addr_bits=8)
        with pytest.raises(ValueError, match="geometry"):
            a.spliced(b, 3, 3)

    def test_spliced_never_empty(self):
        a, b = make_seq(4), make_seq(4)
        child = a.spliced(b, 0, 4)
        assert len(child) >= 1

    def test_spliced_clamps_to_max_cycles(self):
        a = make_seq(MAX_SEQUENCE_CYCLES)
        b = make_seq(MAX_SEQUENCE_CYCLES)
        child = a.spliced(b, MAX_SEQUENCE_CYCLES, 0)
        assert len(child) == MAX_SEQUENCE_CYCLES


class TestBackgrounds:
    def test_solid_word_values(self):
        assert solid_word(0, 8) == 0x00
        assert solid_word(1, 8) == 0xFF

    def test_solid_word_rejects_other_bits(self):
        with pytest.raises(ValueError):
            solid_word(2, 8)

    def test_checkerboard_alternates_between_addresses(self):
        w0 = checkerboard_word(0, 8)
        w1 = checkerboard_word(1, 8)
        assert w0 ^ w1 == 0xFF  # adjacent addresses are inverted

    def test_checkerboard_inverted_phase(self):
        assert checkerboard_word(0, 8) ^ checkerboard_word(0, 8, inverted=True) == 0xFF

    def test_checkerboard_bits_alternate(self):
        word = checkerboard_word(0, 8)
        bits = [(word >> i) & 1 for i in range(8)]
        assert bits == [0, 1, 0, 1, 0, 1, 0, 1]


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["r", "w", "n"]),
            st.integers(0, 1023),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_sequence_from_ops_roundtrip(ops):
    """Every well-formed op triple builds, and streams reproduce the input."""
    seq = sequence_from_ops(ops)
    assert len(seq) == len(ops)
    assert seq.addresses() == [a for _, a, _ in ops]
    for vec, (op, addr, data) in zip(seq, ops):
        assert vec.op.value == op
        assert vec.address == addr


@given(
    n_a=st.integers(1, 40),
    n_b=st.integers(1, 40),
    data=st.data(),
)
def test_spliced_length_property(n_a, n_b, data):
    """Splice length is len(prefix) + len(suffix), clamped and nonzero."""
    a, b = make_seq(n_a), make_seq(n_b)
    cut_a = data.draw(st.integers(0, n_a))
    cut_b = data.draw(st.integers(0, n_b))
    child = a.spliced(b, cut_a, cut_b)
    expected = max(1, cut_a + (n_b - cut_b))
    assert len(child) == min(expected, MAX_SEQUENCE_CYCLES)


# -- column storage --------------------------------------------------------------
# A sequence built from columns and one built from the same cycles as
# TestVectors are the same value: every view, the hash and the pickle agree.


@st.composite
def geometries_and_cycles(draw):
    addr_bits = draw(st.integers(1, 16))
    data_bits = draw(st.integers(1, 16))
    cycles = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, (1 << addr_bits) - 1),
                st.integers(0, (1 << data_bits) - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return addr_bits, data_bits, cycles


def _both(addr_bits, data_bits, cycles):
    from_vectors = VectorSequence(
        [TestVector(op, address, data) for op, address, data in cycles],
        addr_bits, data_bits, name="v",
    )
    from_columns = VectorSequence.from_columns(
        np.array([OPS.index(op) for op, _, _ in cycles]),
        [address for _, address, _ in cycles],
        np.array([data for _, _, data in cycles], dtype=np.int32),
        addr_bits, data_bits, name="c",
    )
    return from_vectors, from_columns


class TestColumnStorage:
    @settings(max_examples=200, deadline=None)
    @given(case=geometries_and_cycles())
    def test_column_and_vector_constructors_agree(self, case):
        addr_bits, data_bits, cycles = case
        a, b = _both(addr_bits, data_bits, cycles)
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len(a) == len(b) == len(cycles)
        assert list(a) == list(b) == [TestVector(*cycle) for cycle in cycles]
        assert a.vectors == b.vectors
        for index in (0, len(cycles) // 2, -1):
            assert a[index] == b[index] == TestVector(*cycles[index])
        assert a[1:3] == b[1:3]
        assert a.addresses() == b.addresses()
        assert a.data_words() == b.data_words()
        assert a.operations() == b.operations() == [op for op, _, _ in cycles]
        for op in OPS:
            assert a.count(op) == b.count(op)
            assert a.count(op) == sum(1 for cycle in cycles if cycle[0] is op)
        for x, y in zip(a.columns, b.columns):
            assert x.dtype == y.dtype and np.array_equal(x, y)

    @settings(max_examples=200, deadline=None)
    @given(case=geometries_and_cycles(), data=st.data())
    def test_first_out_of_range_cycle_raises_its_vector_error(self, case, data):
        addr_bits, data_bits, cycles = case
        corrupt = data.draw(
            st.lists(st.integers(0, len(cycles) - 1), min_size=1, max_size=3)
        )
        for index in corrupt:
            op, address, word = cycles[index]
            which = data.draw(st.sampled_from(["address", "data", "negative"]))
            if which == "address":
                address = data.draw(st.integers(1 << addr_bits, 1 << 40))
            elif which == "data":
                word = data.draw(st.integers(1 << data_bits, 1 << 40))
            else:
                address = data.draw(st.integers(-(1 << 40), -1))
            cycles[index] = (op, address, word)
        first = min(corrupt)
        with pytest.raises(ValueError) as expected:
            TestVector(*cycles[first]).validate(addr_bits, data_bits)
        with pytest.raises(ValueError) as from_vectors:
            VectorSequence([TestVector(*cycle) for cycle in cycles], addr_bits, data_bits)
        with pytest.raises(ValueError) as from_columns:
            VectorSequence.from_columns(
                [OPS.index(op) for op, _, _ in cycles],
                [address for _, address, _ in cycles],
                [word for _, _, word in cycles],
                addr_bits, data_bits,
            )
        assert str(from_vectors.value) == str(expected.value)
        assert str(from_columns.value) == str(expected.value)

    def test_value_beyond_int64_raises_its_vector_error(self):
        cycles = [(Operation.READ, 1, 2), (Operation.WRITE, 3, 1 << 70)]
        with pytest.raises(ValueError, match="data 0x4") as error:
            VectorSequence([TestVector(*cycle) for cycle in cycles])
        with pytest.raises(ValueError) as from_columns:
            VectorSequence.from_columns([0, 1], [1, 3], [2, 1 << 70])
        assert str(from_columns.value) == str(error.value)

    @settings(max_examples=50, deadline=None)
    @given(case=geometries_and_cycles())
    def test_pickle_round_trip_is_equal(self, case):
        sequence = _both(*case)[1]
        restored = pickle.loads(pickle.dumps(sequence))
        assert restored == sequence
        assert hash(restored) == hash(sequence)
        assert restored.name == sequence.name
        assert list(restored) == list(sequence)
        for column in restored.columns:
            assert not column.flags.writeable

    def test_pickle_ships_columns_not_vectors(self):
        sequence = make_seq(200)
        before = len(pickle.dumps(sequence))
        sequence.vectors  # builds the per-cycle view
        assert len(pickle.dumps(sequence)) == before
        assert "TestVector" not in str(pickle.dumps(sequence))

    def test_columns_reject_writes(self):
        ops = np.array([0, 1, 2])
        sequence = VectorSequence.from_columns(ops, [1, 2, 3], [4, 5, 6])
        for column in sequence.columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        ops[0] = 2  # the caller's array is copied, not adopted
        assert sequence[0].op is Operation.READ

    def test_hash_is_stable_across_processes(self):
        """The hash is a digest of the columns, not of salted strings."""
        script = (
            "from repro.patterns.vectors import sequence_from_ops;"
            "print(hash(sequence_from_ops([('w', 1, 2), ('r', 1, 0)])))"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        seen = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1")
        }
        assert len(seen) == 1

    def test_rejects_bad_op_codes_and_ragged_columns(self):
        for codes in ([3], [-1], np.array([256]), np.array([1, 259])):
            with pytest.raises(ValueError, match="op codes"):
                VectorSequence.from_columns(codes, [0] * len(codes), [0] * len(codes))
        with pytest.raises(ValueError, match="equally long"):
            VectorSequence.from_columns([0, 1], [0], [0, 0])
        with pytest.raises(ValueError, match="at least one cycle"):
            VectorSequence.from_columns([], [], [])

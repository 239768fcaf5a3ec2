"""Tests for pattern feature extraction."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.patterns.features import (
    FEATURE_NAMES,
    PEAK_WINDOW_CYCLES,
    PatternFeatures,
    extract_features,
)
from repro.patterns.march import compile_march, get_march_test
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.vectors import (
    Operation,
    TestVector,
    VectorSequence,
    sequence_from_ops,
)


def seq_of(vectors):
    return VectorSequence(vectors)


class TestPatternFeatures:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PatternFeatures(np.zeros(3))

    def test_named_access(self):
        features = extract_features(seq_of([TestVector(Operation.READ, 0, 0)] * 5))
        assert features["read_fraction"] == pytest.approx(1.0)

    def test_unknown_name_raises(self):
        features = extract_features(seq_of([TestVector(Operation.READ, 0, 0)] * 5))
        with pytest.raises(KeyError):
            features["no_such_feature"]

    def test_as_dict_covers_all_names(self):
        features = extract_features(seq_of([TestVector(Operation.NOP, 0, 0)] * 5))
        assert set(features.as_dict()) == set(FEATURE_NAMES)


class TestExtremes:
    def test_all_nop_sequence_is_inert(self):
        features = extract_features(seq_of([TestVector(Operation.NOP, 0, 0)] * 50))
        assert features["nop_fraction"] == pytest.approx(1.0)
        assert features["peak_window_activity"] == pytest.approx(0.0)
        assert features["data_toggle_density"] == pytest.approx(0.0)

    def test_single_cycle_sequence(self):
        """Degenerate one-cycle sequences extract without error."""
        features = extract_features(seq_of([TestVector(Operation.WRITE, 5, 7)]))
        assert features["write_fraction"] == pytest.approx(1.0)
        assert features["addr_transition_density"] == pytest.approx(0.0)

    def test_full_toggle_writes_maximize_activity(self):
        vectors = []
        word, addr = 0, 0
        for _ in range(64):
            word ^= 0xFF
            addr ^= 0x3FF
            vectors.append(TestVector(Operation.WRITE, addr, word))
        features = extract_features(seq_of(vectors))
        assert features["data_toggle_density"] == pytest.approx(1.0)
        assert features["addr_transition_density"] == pytest.approx(1.0)
        assert features["peak_window_activity"] == pytest.approx(1.0)
        assert features["addr_msb_toggle_rate"] == pytest.approx(1.0)

    def test_constant_address_stream(self):
        vectors = [TestVector(Operation.WRITE, 9, i % 256) for i in range(32)]
        features = extract_features(seq_of(vectors))
        assert features["addr_transition_density"] == pytest.approx(0.0)
        assert features["addr_jump_distance"] == pytest.approx(0.0)
        assert features["addr_repeat_run"] > 0.5

    def test_read_after_write_detection(self):
        ops = []
        for i in range(20):
            ops.append(("w", 7, 0xAA))
            ops.append(("r", 7, 0))
        features = extract_features(sequence_from_ops(ops))
        # Every w->r transition at the same address counts: 20 of 39.
        assert features["read_after_write_rate"] == pytest.approx(20 / 39)

    def test_read_after_write_requires_same_address(self):
        ops = []
        for i in range(20):
            ops.append(("w", i, 0xAA))
            ops.append(("r", i + 100, 0))
        features = extract_features(sequence_from_ops(ops))
        assert features["read_after_write_rate"] == pytest.approx(0.0)

    def test_burst_runs_capped_at_one(self):
        vectors = [TestVector(Operation.READ, 0, 0)] * 200
        features = extract_features(seq_of(vectors))
        assert features["burst_read_run"] == pytest.approx(1.0)

    def test_addr_coverage(self):
        vectors = [TestVector(Operation.READ, a, 0) for a in range(512)]
        features = extract_features(seq_of(vectors))
        assert features["addr_coverage"] == pytest.approx(0.5)

    def test_bus_holds_last_write_through_reads(self):
        """Reads do not toggle the write-data bus model."""
        ops = [("w", 0, 0xFF)] + [("r", i, 0) for i in range(1, 30)]
        features = extract_features(sequence_from_ops(ops))
        assert features["data_toggle_density"] == pytest.approx(0.0)


class TestKnownPatterns:
    def test_march_c_is_benign(self):
        """March C- must sit far below the weakness thresholds."""
        features = extract_features(compile_march(get_march_test("march_c-")))
        assert features["peak_window_activity"] < 0.3
        # Element boundaries contribute a couple of same-address w->r
        # transitions; the rate must still be negligible.
        assert features["read_after_write_rate"] < 0.01
        assert features["addr_msb_toggle_rate"] < 0.1

    def test_march_y_has_read_after_write(self):
        """March Y's (r0,w1,r1) element reads right after writing."""
        features = extract_features(compile_march(get_march_test("march_y")))
        assert features["read_after_write_rate"] > 0.2


class TestDeterminismAndRange:
    def test_extraction_is_deterministic(self):
        generator = RandomTestGenerator(seed=3)
        seq = generator.generate().sequence
        a = extract_features(seq).values
        b = extract_features(seq).values
        assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_all_features_in_unit_interval(self, seed):
        """Invariant: every feature of any random test lies in [0, 1]."""
        generator = RandomTestGenerator(seed=seed, min_cycles=20, max_cycles=120)
        features = extract_features(generator.generate().sequence)
        assert np.all(features.values >= 0.0)
        assert np.all(features.values <= 1.0)

    def test_fraction_features_sum_to_one(self):
        generator = RandomTestGenerator(seed=11)
        features = extract_features(generator.generate().sequence)
        total = (
            features["write_fraction"]
            + features["read_fraction"]
            + features["nop_fraction"]
        )
        assert total == pytest.approx(1.0)


# -- per-vector reference ------------------------------------------------------
# The extraction as it was written before it became array code: one Python
# pass per column and a per-word checkerboard loop.  The array kernel must
# reproduce it bit for bit, so the device model and the NN inputs do not move.


def _reference_popcount(values):
    counts = np.zeros_like(values)
    work = values.copy()
    while np.any(work):
        counts += work & 1
        work >>= 1
    return counts


def _reference_checkerboard_distance(address, data, data_bits):
    phase0 = 0
    for bit in range(data_bits):
        phase0 |= ((address + bit) & 1) << bit
    phase1 = phase0 ^ ((1 << data_bits) - 1)
    dist0 = bin(data ^ phase0).count("1")
    dist1 = bin(data ^ phase1).count("1")
    return min(dist0, dist1) / data_bits


def _reference_run_lengths(mask):
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return changes[1::2] - changes[::2]


def reference_extract_features(sequence):
    n = len(sequence)
    addr_bits = sequence.addr_bits
    data_bits = sequence.data_bits
    addresses = np.array(sequence.addresses(), dtype=np.int64)
    ops = np.array(
        [0 if op is Operation.NOP else (1 if op is Operation.READ else 2)
         for op in sequence.operations()],
        dtype=np.int64,
    )
    is_read = ops == 1
    is_write = ops == 2
    is_active = ops != 0
    raw_data = np.array(
        [vec.data if vec.op is Operation.WRITE else -1 for vec in sequence],
        dtype=np.int64,
    )
    write_positions = np.where(raw_data >= 0, np.arange(n), -1)
    last_write_index = np.maximum.accumulate(write_positions)
    bus_data = np.where(
        last_write_index >= 0, raw_data[np.maximum(last_write_index, 0)], 0
    )

    features = np.zeros(len(FEATURE_NAMES), dtype=float)
    index = {name: i for i, name in enumerate(FEATURE_NAMES)}
    if n >= 2:
        addr_hamming = _reference_popcount(addresses[1:] ^ addresses[:-1])
        features[index["addr_transition_density"]] = float(
            np.mean(addr_hamming) / addr_bits
        )
        msb = (addresses >> (addr_bits - 1)) & 1
        features[index["addr_msb_toggle_rate"]] = float(np.mean(msb[1:] != msb[:-1]))
        features[index["addr_jump_distance"]] = float(
            np.mean(np.abs(np.diff(addresses))) / max(1, (1 << addr_bits) - 1)
        )
        repeat = addresses[1:] == addresses[:-1]
        runs = _reference_run_lengths(repeat)
        mean_run = float(np.mean(runs)) if repeat.any() else 0.0
        features[index["addr_repeat_run"]] = min(1.0, mean_run / 8.0)
        data_xor = bus_data[1:] ^ bus_data[:-1]
        features[index["data_toggle_density"]] = float(
            np.mean(_reference_popcount(data_xor)) / data_bits
        )
        op_flip = (is_read[1:] & is_write[:-1]) | (is_write[1:] & is_read[:-1])
        features[index["rw_alternation_rate"]] = float(np.mean(op_flip))
        raw = is_read[1:] & is_write[:-1] & (addresses[1:] == addresses[:-1])
        features[index["read_after_write_rate"]] = float(np.mean(raw))
        turnaround = (addresses[1:] == addresses[:-1]) & op_flip
        features[index["same_addr_turnaround_rate"]] = float(np.mean(turnaround))
        idle_to_active = is_active[1:] & ~is_active[:-1]
        features[index["idle_to_active_rate"]] = float(np.mean(idle_to_active))

    written = bus_data[is_write]
    if written.size:
        features[index["data_ones_density"]] = float(
            np.mean(_reference_popcount(written)) / data_bits
        )
        checker = np.array(
            [_reference_checkerboard_distance(a, d, data_bits)
             for a, d in zip(addresses[is_write], written)],
            dtype=float,
        )
        features[index["checkerboard_affinity"]] = float(1.0 - np.mean(checker))

    features[index["write_fraction"]] = float(np.mean(is_write))
    features[index["read_fraction"]] = float(np.mean(is_read))
    features[index["nop_fraction"]] = float(np.mean(~is_active))
    for name, mask in (("burst_read_run", is_read), ("burst_write_run", is_write)):
        longest = int(np.max(_reference_run_lengths(mask))) if mask.any() else 0
        features[index[name]] = min(1.0, longest / 64.0)
    features[index["addr_coverage"]] = float(
        np.unique(addresses).size / (1 << addr_bits)
    )
    if n >= 2:
        activity = (
            addr_hamming / addr_bits + _reference_popcount(data_xor) / data_bits
        ) / 2.0
        window = min(PEAK_WINDOW_CYCLES, activity.size)
        rolling = np.convolve(activity, np.ones(window) / window, mode="valid")
        features[index["peak_window_activity"]] = float(np.max(rolling))
    np.clip(features, 0.0, 1.0, out=features)
    return features


_OP_ALPHABETS = (
    (Operation.READ, Operation.WRITE, Operation.NOP),
    (Operation.READ, Operation.NOP),  # no writes
    (Operation.NOP,),
    (Operation.WRITE,),
    (Operation.READ, Operation.WRITE),
)


@st.composite
def vector_sequences(draw):
    """Sequences of any bus geometry from 1 to 16 bits, including ones
    without writes, all NOPs or all writes."""
    addr_bits = draw(st.integers(1, 16))
    data_bits = draw(st.integers(1, 16))
    alphabet = draw(st.sampled_from(_OP_ALPHABETS))
    vector = st.builds(
        TestVector,
        st.sampled_from(alphabet),
        st.integers(0, (1 << addr_bits) - 1),
        st.integers(0, (1 << data_bits) - 1),
    )
    vectors = draw(st.lists(vector, min_size=1, max_size=80))
    return VectorSequence(vectors, addr_bits, data_bits)


def _edge_sequence(ops, addr_bits=16, data_bits=16):
    vectors = [
        TestVector(op, (i * 40503) % (1 << addr_bits), (i * 4099) % (1 << data_bits))
        for i, op in enumerate(ops)
    ]
    return VectorSequence(vectors, addr_bits, data_bits)


class TestArrayKernelMatchesReference:
    """The array kernel reproduces the per-vector reference bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sequence=vector_sequences())
    @example(sequence=_edge_sequence([Operation.WRITE]))
    @example(sequence=_edge_sequence([Operation.READ]))
    @example(sequence=_edge_sequence([Operation.NOP] * 20))
    @example(sequence=_edge_sequence([Operation.WRITE] * 40))
    @example(sequence=_edge_sequence([Operation.READ, Operation.NOP] * 20))
    @example(sequence=_edge_sequence([Operation.WRITE, Operation.READ] * 9, 1, 1))
    def test_bit_identical(self, sequence):
        assert np.array_equal(
            extract_features(sequence).values,
            reference_extract_features(sequence),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_on_generated_tests(self, seed):
        generator = RandomTestGenerator(seed=seed)
        for test in generator.batch(25):
            assert np.array_equal(
                extract_features(test.sequence).values,
                reference_extract_features(test.sequence),
            )

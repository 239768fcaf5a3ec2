"""The per-sequence feature kernel, kept as the batch kernel's reference.

``per_sequence_features`` is the array extraction of one sequence as it
ran before feature extraction became one ragged batch kernel
(:func:`repro.patterns.features.extract_features_batch`).  Every batch row
must equal it bit for bit.  Its popcount is the byte-table one it used.
"""

import numpy as np

from repro.patterns.features import FEATURE_NAMES, PEAK_WINDOW_CYCLES
from repro.patterns.vectors import (
    NOP_CODE,
    READ_CODE,
    WRITE_CODE,
    checkerboard_word,
)

_FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)],
                          dtype=np.int64)


def popcount(values, bits):
    counts = _BYTE_POPCOUNT[values & 0xFF]
    for shift in range(8, bits, 8):
        counts += _BYTE_POPCOUNT[(values >> shift) & 0xFF]
    return counts


def _mean_count(values):
    """Mean of an integer or boolean array.

    The integer sum divided once: bit-identical to ``np.mean``, whose
    float64 sum of integers below 2**53 is exact, at a fraction of its
    call overhead.
    """
    return int(values.sum()) / values.size


def _mean_run_length(mask):
    """Average length of maximal runs of True in ``mask`` (0.0 if none)."""
    if not mask.any():
        return 0.0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return _mean_count(ends - starts)


def _max_run_length(mask):
    """Longest maximal run of True in ``mask``."""
    if not mask.any():
        return 0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return int(np.max(ends - starts))


def per_sequence_features(sequence):
    """The features of one sequence, as the per-sequence kernel computed them."""
    ops, addresses, data = sequence.columns
    n = len(ops)
    addr_bits = sequence.addr_bits
    data_bits = sequence.data_bits
    is_read = ops == READ_CODE
    is_write = ops == WRITE_CODE
    is_active = ops != NOP_CODE

    # Written data stream (holds the last written word through reads/NOPs so
    # bus toggle reflects what actually switches on the data bus).
    write_positions = np.where(is_write, np.arange(n), -1)
    last_write_index = np.maximum.accumulate(write_positions)
    bus_data = np.where(
        last_write_index >= 0,
        data[np.maximum(last_write_index, 0)],
        0,
    )

    features = np.zeros(len(FEATURE_NAMES), dtype=float)
    index = _FEATURE_INDEX

    if n >= 2:
        addr_hamming = popcount(addresses[1:] ^ addresses[:-1], addr_bits)
        features[index["addr_transition_density"]] = (
            _mean_count(addr_hamming) / addr_bits
        )
        msb = (addresses >> (addr_bits - 1)) & 1
        features[index["addr_msb_toggle_rate"]] = _mean_count(msb[1:] != msb[:-1])
        jumps = np.abs(np.diff(addresses))
        features[index["addr_jump_distance"]] = (
            _mean_count(jumps) / max(1, (1 << addr_bits) - 1)
        )
        repeat = addresses[1:] == addresses[:-1]
        features[index["addr_repeat_run"]] = min(
            1.0, _mean_run_length(repeat) / 8.0
        )
        data_hamming = popcount(bus_data[1:] ^ bus_data[:-1], data_bits)
        features[index["data_toggle_density"]] = (
            _mean_count(data_hamming) / data_bits
        )
        op_flip = (is_read[1:] & is_write[:-1]) | (is_write[1:] & is_read[:-1])
        features[index["rw_alternation_rate"]] = _mean_count(op_flip)
        raw = is_read[1:] & is_write[:-1] & repeat
        features[index["read_after_write_rate"]] = _mean_count(raw)
        features[index["same_addr_turnaround_rate"]] = _mean_count(repeat & op_flip)
        idle_to_active = is_active[1:] & ~is_active[:-1]
        features[index["idle_to_active_rate"]] = _mean_count(idle_to_active)

    written = bus_data[is_write]
    if written.size:
        features[index["data_ones_density"]] = (
            _mean_count(popcount(written, data_bits)) / data_bits
        )
        # Every address's two checkerboard phases are the same pair of words,
        # a checkerboard word and its complement, so the distance to the
        # nearer one does not depend on the address.
        dist0 = popcount(written ^ checkerboard_word(0, data_bits), data_bits)
        checker = np.minimum(dist0, data_bits - dist0) / data_bits
        features[index["checkerboard_affinity"]] = float(1.0 - np.mean(checker))

    features[index["write_fraction"]] = _mean_count(is_write)
    features[index["read_fraction"]] = _mean_count(is_read)
    features[index["nop_fraction"]] = _mean_count(~is_active)
    features[index["burst_read_run"]] = min(1.0, _max_run_length(is_read) / 64.0)
    features[index["burst_write_run"]] = min(1.0, _max_run_length(is_write) / 64.0)
    ordered = np.sort(addresses)
    distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1])
    features[index["addr_coverage"]] = distinct / (1 << addr_bits)

    if n >= 2:
        activity = (addr_hamming / addr_bits + data_hamming / data_bits) / 2.0
        window = min(PEAK_WINDOW_CYCLES, activity.size)
        kernel = np.ones(window) / window
        rolling = np.convolve(activity, kernel, mode="valid")
        features[index["peak_window_activity"]] = float(np.max(rolling))

    np.clip(features, 0.0, 1.0, out=features)
    return features

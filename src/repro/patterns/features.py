"""Pattern feature extraction.

The limits of device operating values "are heavily dependent on input tests"
(section 1).  What the physics actually responds to is the *activity profile*
of a pattern: address/data bus switching, read-after-write hazards, peak
switching windows (power-supply noise), decoder stress from long address
jumps, and so on.

This module reduces a :class:`~repro.patterns.vectors.VectorSequence` to a
fixed vector of such activity features, each normalized to ``[0, 1]``.  The
features serve two independent consumers:

* the **device simulator**'s sensitivity model, which maps (a nonlinear
  combination of) features to parameter degradation, and
* the **NN encoder**, which presents the features as network inputs.

The feature set is deliberately richer than what the device model uses, so
the learning task is a genuine variable-selection problem rather than an
identity mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.patterns.vectors import (
    NOP_CODE,
    READ_CODE,
    WRITE_CODE,
    VectorSequence,
    checkerboard_word,
)

#: Canonical feature order.  Extend only by appending — NN weight files
#: record the feature dimension they were trained with.
FEATURE_NAMES: Tuple[str, ...] = (
    "addr_transition_density",
    "addr_msb_toggle_rate",
    "addr_jump_distance",
    "addr_repeat_run",
    "data_toggle_density",
    "data_ones_density",
    "checkerboard_affinity",
    "write_fraction",
    "read_fraction",
    "nop_fraction",
    "read_after_write_rate",
    "same_addr_turnaround_rate",
    "rw_alternation_rate",
    "burst_read_run",
    "burst_write_run",
    "peak_window_activity",
    "idle_to_active_rate",
    "addr_coverage",
)

#: Human-readable definition of each feature (reports, weight files).
FEATURE_DESCRIPTIONS = {
    "addr_transition_density": "mean Hamming distance of consecutive addresses / addr bits",
    "addr_msb_toggle_rate": "toggle rate of the top address bit (row-decoder stress)",
    "addr_jump_distance": "mean |address delta| / address-space size",
    "addr_repeat_run": "mean run length of repeated addresses (capped at 8)",
    "data_toggle_density": "mean Hamming distance of consecutive bus data words / data bits",
    "data_ones_density": "mean ones density of written data",
    "checkerboard_affinity": "1 - distance of written data to the nearer checkerboard phase",
    "write_fraction": "fraction of write cycles",
    "read_fraction": "fraction of read cycles",
    "nop_fraction": "fraction of idle cycles",
    "read_after_write_rate": "rate of same-address write-then-read transitions",
    "same_addr_turnaround_rate": "rate of same-address read/write direction turnarounds",
    "rw_alternation_rate": "rate of read<->write operation flips",
    "burst_read_run": "longest consecutive-read run / 64 (capped)",
    "burst_write_run": "longest consecutive-write run / 64 (capped)",
    "peak_window_activity": "max combined addr+data switching over a sliding window",
    "idle_to_active_rate": "rate of NOP-to-active transitions (bus wakeups)",
    "addr_coverage": "distinct addresses touched / address-space size",
}

#: Sliding window (cycles) for the peak switching-activity feature — roughly
#: the supply-decoupling time constant of the simulated chip.
PEAK_WINDOW_CYCLES = 16

_FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass(frozen=True)
class PatternFeatures:
    """Named view over an extracted feature vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"feature vector must have shape ({len(FEATURE_NAMES)},), "
                f"got {self.values.shape}"
            )

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[FEATURE_NAMES.index(name)])
        except ValueError as exc:
            raise KeyError(f"unknown feature {name!r}") from exc

    def as_dict(self) -> Dict[str, float]:
        """Feature name → value mapping."""
        return {name: float(v) for name, v in zip(FEATURE_NAMES, self.values)}

    def __len__(self) -> int:
        return len(self.values)


#: Set bits of every byte value; :func:`_popcount` looks words up a byte at
#: a time (``np.bitwise_count`` needs numpy >= 2.0).
_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)],
                          dtype=np.int64)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Population count of non-negative integers narrower than ``bits``."""
    counts = _BYTE_POPCOUNT[values & 0xFF]
    for shift in range(8, bits, 8):
        counts += _BYTE_POPCOUNT[(values >> shift) & 0xFF]
    return counts


def _mean_count(values: np.ndarray) -> float:
    """Mean of an integer or boolean array.

    The integer sum divided once: bit-identical to ``np.mean``, whose
    float64 sum of integers below 2**53 is exact, at a fraction of its
    call overhead.
    """
    return int(values.sum()) / values.size


def _mean_run_length(mask: np.ndarray) -> float:
    """Average length of maximal runs of True in ``mask`` (0.0 if none)."""
    if not mask.any():
        return 0.0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return _mean_count(ends - starts)


def _max_run_length(mask: np.ndarray) -> int:
    """Longest maximal run of True in ``mask``."""
    if not mask.any():
        return 0
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return int(np.max(ends - starts))


def extract_features(sequence: VectorSequence) -> PatternFeatures:
    """Extract the canonical activity features of a vector sequence.

    Every feature is normalized to ``[0, 1]``.  Extraction is deterministic
    and linear in the sequence length.
    """
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
        addr_hamming = _popcount(addresses[1:] ^ addresses[:-1], addr_bits)
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
        data_hamming = _popcount(bus_data[1:] ^ bus_data[:-1], data_bits)
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
            _mean_count(_popcount(written, data_bits)) / data_bits
        )
        # Every address's two checkerboard phases are the same pair of words,
        # a checkerboard word and its complement, so the distance to the
        # nearer one does not depend on the address.
        dist0 = _popcount(written ^ checkerboard_word(0, data_bits), data_bits)
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
    return PatternFeatures(features)

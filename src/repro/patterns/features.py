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

One kernel, :func:`extract_features_batch`, scores many sequences per call;
:func:`extract_features` is its one-row call.  A sequence is immutable, so
its features are memoized on it: code that holds a batch of tests (a deck,
an encoder batch, a GA generation's offspring) fills the memos with
:func:`fill_features` in one batch before it measures, and every later
:func:`extract_features` call returns the memo.  The memo is part of a
sequence's pickled state, so a farm that fills a deck's memos before it
shards the deck into work units ships the features with the deck, and no
worker extracts them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.patterns.vectors import (
    NOP_CODE,
    READ_CODE,
    WRITE_CODE,
    VectorSequence,
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


#: Set bits of every 16-bit value; :func:`popcount` looks words up 16 bits
#: at a time (``np.bitwise_count`` needs numpy >= 2.0).
_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)
_WORD_POPCOUNT = (_BYTE_POPCOUNT[:, None] + _BYTE_POPCOUNT[None, :]).ravel()


def popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Population count of non-negative integers narrower than ``bits``."""
    if bits <= 16:
        return _WORD_POPCOUNT[values]
    counts = _WORD_POPCOUNT[values & 0xFFFF].astype(np.int64)
    for shift in range(16, bits, 16):
        counts += _WORD_POPCOUNT[(values >> shift) & 0xFFFF]
    return counts


#: Most sequences one kernel call concatenates.  The kernel's working set
#: is some 400 bytes per cycle held (1.7 MB for 8 generated tests); more
#: tests per call make a test barely cheaper but raise peak memory.
FEATURE_BATCH_CAP = 8

#: Bits 1, 3, 5, ...: masked to a bus, ``checkerboard_word(0, data_bits)``.
_ODD_BITS = 0x2AAAAAAAAAAAAAAA

_PEAK_KERNEL = np.ones(PEAK_WINDOW_CYCLES) / PEAK_WINDOW_CYCLES

#: ``ops == _OP_ROWS`` is the (read, write, idle) mask of every cycle.
_OP_ROWS = np.array([[READ_CODE], [WRITE_CODE], [NOP_CODE]], dtype=np.int8)

#: The bus data before a sequence's first write.
_IDLE_BUS = np.zeros(1, dtype=np.int64)

# Rows of the kernel's integer table, one column per cycle.  A pair row
# holds the pair (cycle, next cycle) and is zero where the next cycle
# starts another sequence; the cycle rows count the cycle itself.
(_ADDR_HAMMING, _MSB_TOGGLE, _JUMP, _REPEAT, _REPEAT_START, _DATA_HAMMING,
 _NEW_ADDRESS, _RW_FLIP, _RAW, _WAKE, _TURNAROUND,
 _PAIR_ROWS) = range(12)
_READ, _WRITE, _IDLE, _WRITTEN_ONES, _CHECKER, _TABLE_ROWS = range(_PAIR_ROWS, 17)


def extract_features(sequence: VectorSequence) -> PatternFeatures:
    """The canonical activity features of a vector sequence.

    Every feature is normalized to ``[0, 1]``.  The result is memoized on
    the (immutable) sequence: the first call runs the batch kernel on this
    one sequence, later calls return the same object.
    """
    features = sequence.features_memo
    if features is None:
        features = PatternFeatures(extract_features_batch([sequence])[0])
        sequence._features = features
    return features


def fill_features(sequences: Iterable[VectorSequence]) -> None:
    """Memoize the features of every sequence that has none yet.

    Batch owners (a deck about to be measured, an encoder batch, a GA
    generation's offspring) call this once, so the kernel scores them
    together instead of one :func:`extract_features` call per test.
    """
    todo = [sequence for sequence in sequences if sequence.features_memo is None]
    for sequence, row in zip(todo, extract_features_batch(todo)):
        sequence._features = PatternFeatures(row)


def extract_features_batch(sequences: Sequence[VectorSequence]) -> np.ndarray:
    """Features of many sequences: row ``i`` belongs to ``sequences[i]``.

    A row equals the one-sequence extraction bit for bit, whatever the
    other sequences in the call.  Sequences may differ in length and bus
    geometry.  One kernel call takes at most :data:`FEATURE_BATCH_CAP`
    sequences.  The rows are read-only.
    """
    rows = np.array(
        [
            row
            for lo in range(0, len(sequences), FEATURE_BATCH_CAP)
            for row in _segment_features(sequences[lo:lo + FEATURE_BATCH_CAP])
        ],
        dtype=float,
    ).reshape(len(sequences), len(FEATURE_NAMES))
    np.clip(rows, 0.0, 1.0, out=rows)
    rows.flags.writeable = False
    return rows


def _segment_features(sequences: Sequence[VectorSequence]) -> List[List[float]]:
    """The batch kernel: one feature list per sequence.

    The sequences' columns are concatenated into one cycle axis cut into
    segments, and every per-sequence count is one ``np.add.reduceat`` over
    the segment starts of a stacked integer table.  An integer count
    divided once is the float ``np.mean`` of its 0/1 or integer terms bit
    for bit, since every partial sum is exactly represented.  Segment
    bookkeeping stays in Python ints, and the steps that only separate
    segments are skipped when there is one.
    """
    k = len(sequences)
    lengths = [len(sequence) for sequence in sequences]
    addr_bits = [sequence.addr_bits for sequence in sequences]
    data_bits = [sequence.data_bits for sequence in sequences]
    starts = [0, *accumulate(lengths[:-1])]
    total = starts[-1] + lengths[-1]
    if k == 1:
        ops, addresses, data = sequences[0].columns
    else:
        ops, addresses, data = (
            np.concatenate(column)
            for column in zip(*(sequence.columns for sequence in sequences))
        )
    # Each cycle's segment start and bus widths (ints when all share one).
    segment_start = _per_cycle(starts, lengths)
    cycle_addr_bits = _per_cycle(addr_bits, lengths)
    cycle_data_bits = _per_cycle(data_bits, lengths)
    wide_addr, wide_data = max(addr_bits), max(data_bits)
    cross = [start - 1 for start in starts[1:]]  # pairs that cross segments
    counter = np.arange(total + 1)
    index = counter[:-1]

    table = np.empty((_TABLE_ROWS, total), dtype=np.int64)
    pairs = table[:_PAIR_ROWS, :-1]
    table[:_PAIR_ROWS, -1] = 0
    is_op = ops == _OP_ROWS
    is_read, is_write, is_idle = is_op
    table[_READ:_IDLE + 1] = is_op

    address_flips = addresses[1:] ^ addresses[:-1]
    addr_hamming = popcount(address_flips, wide_addr)
    pairs[_ADDR_HAMMING] = addr_hamming
    # A flip word is narrower than its bus: its top bit is the msb toggle.
    np.right_shift(
        address_flips, _pairwise(cycle_addr_bits) - 1, out=pairs[_MSB_TOGGLE]
    )
    np.subtract(addresses[1:], addresses[:-1], out=pairs[_JUMP])
    np.abs(pairs[_JUMP], out=pairs[_JUMP])
    repeat = address_flips == 0
    if cross:
        repeat[cross] = False
    pairs[_REPEAT] = repeat
    pairs[_REPEAT_START, :1] = repeat[:1]
    np.greater(repeat[1:], repeat[:-1], out=pairs[_REPEAT_START, 1:])
    # In (segment, address) order every new value is a new distinct address.
    segment_addresses = (
        addresses if k == 1
        else addresses + (np.repeat(np.arange(k), lengths) << wide_addr)
    )
    ordered = np.sort(segment_addresses)
    np.not_equal(ordered[1:], ordered[:-1], out=pairs[_NEW_ADDRESS])
    # Op pairs: a write then a read, a read/write flip, an idle cycle then
    # an active one.
    write_read = is_write[:-1] & is_read[1:]
    flips = write_read | (is_read[:-1] & is_write[1:])
    pairs[_RW_FLIP] = flips
    np.logical_and(write_read, repeat, out=pairs[_RAW])
    np.greater(is_idle[:-1], is_idle[1:], out=pairs[_WAKE])
    np.logical_and(flips, repeat, out=pairs[_TURNAROUND])

    # The data bus holds the last written word through reads and NOPs; a
    # write in an earlier segment does not reach this one.
    last_write = np.where(is_write, counter[1:], 0)
    np.maximum.accumulate(last_write, out=last_write)
    if cross:
        last_write[last_write <= segment_start] = 0
    bus_data = np.concatenate((_IDLE_BUS, data))[last_write]
    data_hamming = popcount(bus_data[1:] ^ bus_data[:-1], wide_data)
    pairs[_DATA_HAMMING] = data_hamming

    # Every address's two checkerboard phases are the same pair of words,
    # a checkerboard word and its complement, so the distance to the
    # nearer one does not depend on the address.  Only writes count: the
    # zero word a non-write gets has no ones and no distance.
    table[_WRITTEN_ONES] = popcount(np.where(is_write, data, 0), wide_data)
    checker_flips = np.where(
        is_write, data ^ (_ODD_BITS & ((1 << cycle_data_bits) - 1)), 0
    )
    dist0 = popcount(checker_flips, wide_data)
    np.minimum(dist0, cycle_data_bits - dist0, out=table[_CHECKER])
    if cross:
        table[:_PAIR_ROWS, cross] = 0
    sums = np.add.reduceat(table, starts, axis=1).T.tolist()

    # Longest read and write runs: a cycle's run so far reaches back to the
    # last cycle outside the run, or to the cycle before its segment.
    runs = np.where(is_op[:2], segment_start - 1, index)
    np.maximum.accumulate(runs, axis=1, out=runs)
    np.subtract(index, runs, out=runs)
    longest = np.maximum.reduceat(runs, starts, axis=1).T.tolist()

    activity = addr_hamming / _pairwise(cycle_addr_bits)
    activity += data_hamming / _pairwise(cycle_data_bits)
    activity /= 2.0
    peaks = _peak_window_activity(activity, lengths, starts)
    checkers = _odd_bus_checker(table[_CHECKER], is_write, lengths, data_bits, starts)
    return [
        _feature_row(*row)
        for row in zip(lengths, addr_bits, data_bits, sums, longest, peaks, checkers)
    ]


def _feature_row(
    n: int,
    addr_bits: int,
    data_bits: int,
    counts: List[int],
    runs: List[int],
    peak: float,
    checker: Optional[float],
) -> List[float]:
    """One sequence's features, in :data:`FEATURE_NAMES` order, from its
    table sums, longest (read, write) runs and peak window activity."""
    pairs = max(n - 1, 1)  # a one-cycle sequence's pair counts are all 0
    writes = counts[_WRITE]
    repeat_runs = counts[_REPEAT_START]
    if checker is None:  # a power-of-two bus: the quotients sum exactly
        checker = 1.0 - counts[_CHECKER] / data_bits / writes if writes else 0.0
    return [
        counts[_ADDR_HAMMING] / pairs / addr_bits,
        counts[_MSB_TOGGLE] / pairs,
        counts[_JUMP] / pairs / max(1, (1 << addr_bits) - 1),
        min(1.0, counts[_REPEAT] / repeat_runs / 8.0) if repeat_runs else 0.0,
        counts[_DATA_HAMMING] / pairs / data_bits,
        counts[_WRITTEN_ONES] / writes / data_bits if writes else 0.0,
        checker,
        writes / n,
        counts[_READ] / n,
        counts[_IDLE] / n,
        counts[_RAW] / pairs,
        counts[_TURNAROUND] / pairs,
        counts[_RW_FLIP] / pairs,
        min(1.0, runs[0] / 64.0),
        min(1.0, runs[1] / 64.0),
        peak,
        counts[_WAKE] / pairs,
        (1 + counts[_NEW_ADDRESS]) / (1 << addr_bits),
    ]


def _per_cycle(values: List[int], lengths: List[int]) -> Union[int, np.ndarray]:
    """A per-sequence value for every cycle: one int when all are equal."""
    if len(set(values)) == 1:
        return values[0]
    return np.repeat(np.array(values), lengths)


def _pairwise(per_cycle: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """A per-cycle value for every pair: the pair's first cycle's."""
    return per_cycle if isinstance(per_cycle, int) else per_cycle[:-1]


def _odd_bus_checker(
    checker: np.ndarray,
    is_write: np.ndarray,
    lengths: List[int],
    data_bits: List[int],
    starts: List[int],
) -> List[Optional[float]]:
    """``checkerboard_affinity`` of each sequence whose data bus is not a
    power of two (``None`` for the others).

    The feature is one minus the float mean of the per-write quotients
    ``distance / data_bits``.  On a power-of-two bus every quotient and
    every partial sum is exact, so the integer sum divided once is the
    same float.  On any other bus the quotients round and their mean
    depends on numpy's summation order, so it is taken as numpy takes it,
    one sequence at a time.
    """
    affinity: List[Optional[float]] = [None] * len(lengths)
    for i, (n, bits) in enumerate(zip(lengths, data_bits)):
        if bits & (bits - 1):
            cycles = slice(starts[i], starts[i] + n)
            quotients = checker[cycles][is_write[cycles]] / bits
            affinity[i] = float(1.0 - np.mean(quotients)) if quotients.size else 0.0
    return affinity


def _peak_window_activity(
    activity: np.ndarray, lengths: List[int], starts: List[int]
) -> List[float]:
    """Max of each sequence's sliding-window mean of its pair ``activity``.

    A window spans :data:`PEAK_WINDOW_CYCLES` pairs, or all pairs of a
    shorter sequence.  Full windows come from one ``np.convolve`` over the
    concatenated pairs: each output is the same 16-term dot product as in
    a one-sequence call.  Windows that reach into the next sequence are
    masked before each sequence's maximum.
    """
    peaks = [0.0] * len(lengths)
    full = [n > PEAK_WINDOW_CYCLES for n in lengths]
    if any(full):
        rolling = np.convolve(activity, _PEAK_KERNEL, mode="valid")
        if len(lengths) == 1:
            peaks[0] = float(rolling.max())
        else:
            last_start = np.repeat(
                np.add(starts, lengths) - (PEAK_WINDOW_CYCLES + 1), lengths
            )
            rolling[np.arange(rolling.size) > last_start[:rolling.size]] = -1.0
            rolling = np.concatenate((rolling, np.full(PEAK_WINDOW_CYCLES, -1.0)))
            maxima = np.maximum.reduceat(rolling, starts).tolist()
            peaks = [peak if is_full else 0.0 for peak, is_full in zip(maxima, full)]
    for i, n in enumerate(lengths):
        if 2 <= n <= PEAK_WINDOW_CYCLES:
            window = n - 1
            segment = activity[starts[i]:starts[i] + window]
            rolling = np.convolve(segment, np.ones(window) / window, mode="valid")
            peaks[i] = float(rolling.max())
    return peaks

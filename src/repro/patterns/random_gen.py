"""Non-deterministic random test generator.

Implements the "random test generator based on [9-10]" used by the multiple
trip point procedure (section 3, fig. 2).  The generator is seeded and fully
reproducible; it mixes several stimulus *styles* so that the random test
population explores qualitatively different activity profiles:

``uniform``
    Independent uniform operations, addresses and data every cycle.
``burst``
    Alternating read/write bursts at a random base address — high
    read-after-write and turnaround activity.
``sweep``
    Linear address sweeps with random stride — march-like regular activity.
``hammer``
    Repeated accesses to a tiny address set — row-hammer style locality.
``toggle``
    Data-bus worst-case toggling (AA/55-style alternation) at random
    addresses — high switching-noise profile.

A pure ``uniform`` generator finds mediocre worst cases; the style mix is
what gives the NN a learnable spread of activity profiles, mirroring the
"non-deterministic random tests, such as bus control signals in real
application board" of section 3.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.patterns._draws import WordBlock, bounded, bounded_words, choice_cdf, doubles, pcg64
from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import (
    DEFAULT_ADDR_BITS,
    DEFAULT_DATA_BITS,
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    Columns,
    READ_CODE,
    WRITE_CODE,
    VectorSequence,
)

#: Stimulus styles and their default mixing weights.
STYLES: Tuple[Tuple[str, float], ...] = (
    ("uniform", 0.30),
    ("burst", 0.20),
    ("sweep", 0.15),
    ("hammer", 0.15),
    ("toggle", 0.20),
)

_STYLE_NAMES = tuple(name for name, _ in STYLES)
_STYLE_WEIGHTS = np.array([weight for _, weight in STYLES])
_STYLE_CDF = choice_cdf(_STYLE_WEIGHTS / _STYLE_WEIGHTS.sum())
#: The op-code draw of a ``uniform`` cycle, ``choice(3, p=...)``.
_UNIFORM_OP_CDF = choice_cdf([0.45, 0.45, 0.10])


class RandomTestGenerator:
    """Seeded generator of random :class:`~repro.patterns.testcase.TestCase`.

    Parameters
    ----------
    seed:
        RNG seed; two generators with the same seed emit identical streams.
    condition_space:
        Admissible environmental region; ``None`` pins every test to the
        nominal condition (pattern-only studies, e.g. the fig. 2 bench).
    addr_bits, data_bits:
        DUT bus geometry.
    min_cycles, max_cycles:
        Sequence length bounds (paper: 100-1000).
    """

    def __init__(
        self,
        seed: int = 0,
        condition_space: Optional[ConditionSpace] = None,
        addr_bits: int = DEFAULT_ADDR_BITS,
        data_bits: int = DEFAULT_DATA_BITS,
        min_cycles: int = MIN_SEQUENCE_CYCLES,
        max_cycles: int = MAX_SEQUENCE_CYCLES,
    ) -> None:
        if min_cycles < 1 or max_cycles < min_cycles:
            raise ValueError("need 1 <= min_cycles <= max_cycles")
        self._rng = np.random.default_rng(seed)
        self.condition_space = condition_space
        self.addr_bits = addr_bits
        self.data_bits = data_bits
        self.min_cycles = min_cycles
        self.max_cycles = max_cycles
        self._counter = 0

    # -- public API ----------------------------------------------------------
    def generate(self, style: Optional[str] = None) -> TestCase:
        """Emit the next random test case.

        ``style`` forces a stimulus style; by default the style is drawn from
        the :data:`STYLES` mixing weights.
        """
        rng = self._rng
        if style is None:
            style = self._draw_style(rng)
        cycles = int(rng.integers(self.min_cycles, self.max_cycles + 1))
        builder = getattr(self, f"_build_{style}", None)
        if builder is None:
            raise ValueError(f"unknown stimulus style {style!r}")
        ops, addresses, data = builder(rng, cycles)
        name = f"rnd_{self._counter:05d}_{style}"
        self._counter += 1
        sequence = VectorSequence.from_columns(
            ops, addresses, data, self.addr_bits, self.data_bits, name=name
        )
        if self.condition_space is not None:
            condition = self.condition_space.sample(rng)
        else:
            condition = NOMINAL_CONDITION
        return TestCase(sequence, condition, name=name, origin="random")

    def batch(self, count: int) -> List[TestCase]:
        """Emit ``count`` test cases."""
        return [self.generate() for _ in range(count)]

    def stream(self) -> Iterator[TestCase]:
        """Endless test-case stream (learning scheme step 1, fig. 4)."""
        while True:
            yield self.generate()

    def _draw_style(self, rng: np.random.Generator) -> str:
        """A style from the :data:`STYLES` weights: the ``random()`` double
        that ``rng.choice(names, p=weights / weights.sum())`` reads, decoded
        through the cdf that it searches."""
        return _STYLE_NAMES[_STYLE_CDF.searchsorted(rng.random(), side="right")]

    # -- style builders --------------------------------------------------------
    # Each builder returns the ``(op codes, addresses, data)`` columns of
    # ``cycles`` cycles.
    def _rand_addr(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.addr_bits))

    def _rand_data(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.data_bits))

    def _build_uniform(self, rng: np.random.Generator, cycles: int) -> Columns:
        # ``choice(3, size=cycles, p=...)`` reads one random() word per
        # cycle; then every cycle draws its address and its data word.
        block = WordBlock(rng, 2 * cycles)
        ops = _UNIFORM_OP_CDF.searchsorted(doubles(block.words[:cycles]), side="right")
        if max(self.addr_bits, self.data_bits) > 32:
            block.commit(cycles)
            # Addresses and data in one call, interleaved as the per-cycle
            # scalar draws (address, then data) would consume the stream.
            draws = rng.integers(
                0, np.tile([1 << self.addr_bits, 1 << self.data_bits], cycles)
            )
            return ops, draws[0::2], draws[1::2]
        # Both draws read 32-bit halves, the cached one first: 2 * cycles
        # halves take the next ``cycles`` words whatever the cache holds.
        fresh = np.arange(cycles, 2 * cycles)
        halves = block.halves(fresh)
        block.commit(2 * cycles, fresh, 2 * cycles)
        return (
            ops,
            bounded(halves[0 : 2 * cycles : 2], self.addr_bits),
            bounded(halves[1 : 2 * cycles : 2], self.data_bits),
        )

    def _build_burst(self, rng: np.random.Generator, cycles: int) -> Columns:
        # Burst k draws (base address, length in [2, 8], data word) and
        # spans 2 * length cycles.  Draw enough triples for the shortest
        # bursts, count how many the sequence needs, then rewind and draw
        # exactly those: the stream moves as the per-burst scalar calls,
        # rejected length draws included.
        bit_generator = pcg64(rng)
        start = bit_generator.state
        most = -(-cycles // 4)
        lows = np.tile([0, 2, 0], most)
        highs = np.tile([1 << self.addr_bits, 9, 1 << self.data_bits], most)
        lengths = rng.integers(lows, highs)[1::3]
        bursts = int(np.searchsorted(np.cumsum(2 * lengths), cycles)) + 1
        bit_generator.state = start
        draws = rng.integers(lows[: 3 * bursts], highs[: 3 * bursts])
        bases, lengths, words = draws[0::3], draws[1::3], draws[2::3]
        # Write word ^ offset, masked to the data bus, to base + offset,
        # then read it back.
        offsets = np.arange(lengths.sum()) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        addresses = (np.repeat(bases, lengths) + offsets) % (1 << self.addr_bits)
        data = np.zeros(2 * len(offsets), dtype=np.int64)
        data[0::2] = (np.repeat(words, lengths) ^ offsets) & (
            (1 << self.data_bits) - 1
        )
        ops = np.tile(np.array([WRITE_CODE, READ_CODE]), len(offsets))
        return ops[:cycles], np.repeat(addresses, 2)[:cycles], data[:cycles]

    def _build_sweep(self, rng: np.random.Generator, cycles: int) -> Columns:
        stride = int(rng.integers(1, 17))
        addr = self._rand_addr(rng)
        word = self._rand_data(rng)
        write_phase = bool(rng.integers(0, 2))
        # The phase flips with probability 0.02 after each cycle, so cycle i
        # runs in the initial phase iff an even number of the first i draws
        # flipped it.
        flips = rng.random(cycles) < 0.02
        flipped = np.cumsum(flips) - flips
        writes = write_phase ^ (flipped % 2 == 1)
        addresses = (addr + stride * np.arange(cycles)) % (1 << self.addr_bits)
        return (
            np.where(writes, WRITE_CODE, READ_CODE),
            addresses,
            np.full(cycles, word),
        )

    def _build_hammer(self, rng: np.random.Generator, cycles: int) -> Columns:
        count = int(rng.integers(1, 4))
        hot = rng.integers(0, 1 << self.addr_bits, size=count)
        # Per cycle the scalar loop draws a random() (a write iff < 0.5)
        # and, on a write, one data draw.  Up to 32 bits every second write
        # takes a fresh word, whose cached high half feeds the write after
        # it; a wider draw takes a whole word per write.
        wide = self.data_bits > 32
        block = WordBlock(rng, 2 * cycles)
        uniforms = doubles(block.words)
        fresh: List[int] = []
        cached = block.cached
        for write in np.flatnonzero(uniforms < 0.5).tolist():
            if fresh and write == fresh[-1]:
                continue  # a data word, not a cycle's random()
            if write - len(fresh) >= cycles:
                break
            if wide or not cached:
                fresh.append(write + 1)
            cached = not cached
        consumed = cycles + len(fresh)
        tests = np.ones(consumed, dtype=bool)
        tests[fresh] = False
        writes = uniforms[:consumed][tests] < 0.5
        data = np.zeros(cycles, dtype=np.int64)
        if wide:
            data[writes] = bounded_words(block.words[fresh], self.data_bits)
            block.commit(consumed)
        else:
            used = int(np.count_nonzero(writes))
            data[writes] = bounded(block.halves(fresh)[:used], self.data_bits)
            block.commit(consumed, fresh, used)
        ops = np.where(writes, WRITE_CODE, READ_CODE)
        return ops, np.tile(hot, -(-cycles // count))[:cycles], data

    def _build_toggle(self, rng: np.random.Generator, cycles: int) -> Columns:
        mask = (1 << self.data_bits) - 1
        word = int(rng.integers(0, 1 << self.data_bits))
        addr = self._rand_addr(rng)
        # Even cycles jump to a random address, odd cycles flip the address
        # MSB; the data word toggles the full bus (AA/55-style) every cycle.
        steps = np.full(cycles, 1 << (self.addr_bits - 1), dtype=np.int64)
        steps[0::2] = rng.integers(0, 1 << self.addr_bits, size=(cycles + 1) // 2)
        addresses = addr ^ np.bitwise_xor.accumulate(steps)
        data = np.full(cycles, word)
        data[0::2] ^= mask
        return np.full(cycles, WRITE_CODE), addresses, data

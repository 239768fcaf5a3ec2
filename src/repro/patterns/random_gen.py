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

from repro.patterns.conditions import ConditionSpace, NOMINAL_CONDITION
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import (
    DEFAULT_ADDR_BITS,
    DEFAULT_DATA_BITS,
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    OPS,
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
            names = [name for name, _ in STYLES]
            weights = np.array([w for _, w in STYLES])
            style = str(rng.choice(names, p=weights / weights.sum()))
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

    # -- style builders --------------------------------------------------------
    # Each builder returns the ``(op codes, addresses, data)`` columns of
    # ``cycles`` cycles.
    def _rand_addr(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.addr_bits))

    def _rand_data(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.data_bits))

    def _build_uniform(self, rng: np.random.Generator, cycles: int) -> Columns:
        # Choosing among three codes consumes the same draws as choosing
        # among the three operations.
        ops = rng.choice(len(OPS), size=cycles, p=[0.45, 0.45, 0.10])
        # Addresses and data in one call, interleaved as the per-cycle
        # scalar draws (address, then data) would consume the stream.
        draws = rng.integers(
            0, np.tile([1 << self.addr_bits, 1 << self.data_bits], cycles)
        )
        return ops, draws[0::2], draws[1::2]

    def _build_burst(self, rng: np.random.Generator, cycles: int) -> Columns:
        addresses: List[int] = []
        data: List[int] = []
        while len(addresses) < cycles:
            base = self._rand_addr(rng)
            burst = int(rng.integers(2, 9))
            word = self._rand_data(rng)
            for offset in range(burst):
                addr = (base + offset) % (1 << self.addr_bits)
                addresses += (addr, addr)
                data += (word ^ offset, 0)
        # Write, read, write, read, ...
        ops = np.tile(np.array([WRITE_CODE, READ_CODE]), len(addresses) // 2)
        return ops[:cycles], addresses[:cycles], data[:cycles]

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
        hot = [self._rand_addr(rng) for _ in range(int(rng.integers(1, 4)))]
        ops: List[int] = []
        data: List[int] = []
        for _ in range(cycles):
            if rng.random() < 0.5:
                ops.append(WRITE_CODE)
                data.append(self._rand_data(rng))
            else:
                ops.append(READ_CODE)
                data.append(0)
        addresses = np.resize(np.array(hot), cycles)
        return ops, addresses, data

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

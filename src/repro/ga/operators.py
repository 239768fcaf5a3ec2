"""GA variation operators, per chromosome species.

Sequence chromosome
    * single-point **splice crossover** between two parents' sequences;
    * **point mutation** — rewrite individual cycles with random operations;
    * **motif mutation** — overwrite a random segment with a coherent
      stimulus motif (full-bus toggle burst, same-address read-after-write
      pairs, MSB-hopping writes).  Motifs give the GA composable activity
      building blocks, which is what lets it assemble block-structured
      worst-case patterns no uniform random test contains.

Condition chromosome
    * **blend crossover** (arithmetic mix with a random coefficient);
    * **Gaussian mutation** with clipping to ``[0, 1]``.

Selection is k-tournament on fitness (higher fitness = closer to the
characterization objective's worst case).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.ga.chromosome import TestIndividual
from repro.patterns._draws import DOUBLE_SCALE, choice_cdf, doubles, pcg64
from repro.patterns.vectors import (
    MAX_SEQUENCE_CYCLES,
    MIN_SEQUENCE_CYCLES,
    Columns,
    READ_CODE,
    WRITE_CODE,
    VectorSequence,
)

#: Names of the available sequence motifs.
MOTIF_NAMES = ("toggle_burst", "raw_pairs", "msb_hop")


# -- selection --------------------------------------------------------------------
def tournament_select(
    population: Sequence[TestIndividual],
    rng: np.random.Generator,
    k: int = 3,
) -> TestIndividual:
    """k-tournament: best fitness among k uniform picks.

    Unevaluated individuals lose every tournament against evaluated ones.
    """
    if not population:
        raise ValueError("cannot select from an empty population")
    k = min(k, len(population))
    picks = rng.choice(len(population), size=k, replace=False)
    contenders = [population[i] for i in picks]
    return max(
        contenders,
        key=lambda ind: ind.fitness if ind.fitness is not None else -np.inf,
    )


# -- sequence species ------------------------------------------------------------
def crossover_sequences(
    a: VectorSequence,
    b: VectorSequence,
    rng: np.random.Generator,
) -> Tuple[VectorSequence, VectorSequence]:
    """Single-point splice producing two children."""
    cut_a = int(rng.integers(1, len(a)))
    cut_b = int(rng.integers(1, len(b)))
    return a.spliced(b, cut_a, cut_b), b.spliced(a, cut_b, cut_a)


#: Op-code weights of a uniform random cycle, indexed like ``OPS``.
_OP_WEIGHTS = (0.45, 0.45, 0.10)
#: The cdf that ``choice(3, p=_OP_WEIGHTS)`` searches, as Python floats.
_OP_CDF = choice_cdf(_OP_WEIGHTS).tolist()


@lru_cache(maxsize=None)
def _cycle_steps(addr_bits: int, data_bits: int) -> Tuple[Tuple[int, bool], ...]:
    """``[cached]``: the words one uniform random cycle reads, and whether a
    32-bit half is cached after it.

    The cycle reads one word for its op-code double, then draws its
    address and its data: a bus of up to 32 bits reads a 32-bit half, the
    cached one if any, else the low half of a fresh word whose high half it
    caches; a wider bus reads one whole word and leaves the cache alone.
    """
    steps = []
    for cached in (False, True):
        words = 1
        for bits in (addr_bits, data_bits):
            if bits > 32:
                words += 1
            else:
                words += not cached
                cached = not cached
        steps.append((words, cached))
    return tuple(steps)


def _random_cycles(
    bit_generator: np.random.PCG64,
    words: Sequence[int],
    count: int,
    cached: bool,
    half: int,
    addr_bits: int,
    data_bits: int,
) -> Columns:
    """``count`` uniform random cycles decoded from ``words``, the words
    they read as :func:`_cycle_steps` says, in order, from a Generator whose
    cache held ``half`` if ``cached``.

    ``bit_generator`` stands after the words; it is left with the cache
    that the scalar calls would leave, stale high half included.
    """
    ops: List[int] = []
    addresses: List[int] = []
    data: List[int] = []
    buses = ((addr_bits, addresses), (data_bits, data))
    start = (cached, half)
    take = iter(words).__next__
    for _ in range(count):
        ops.append(bisect_right(_OP_CDF, (take() >> 11) * DOUBLE_SCALE))
        for bits, column in buses:
            if bits > 32:
                column.append(take() >> (64 - bits))
            elif cached:
                column.append((half << bits) >> 32)
                cached = False
            else:
                word = take()
                column.append(((word & 0xFFFFFFFF) << bits) >> 32)
                half, cached = word >> 32, True
    if (cached, half) != start:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(cached), half
        bit_generator.state = state
    return ops, addresses, data


def point_mutate_sequence(
    sequence: VectorSequence,
    rng: np.random.Generator,
    rate: float = 0.02,
) -> VectorSequence:
    """Rewrite each cycle independently with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    bit_generator = pcg64(rng)
    state = bit_generator.state
    cached, half = bool(state["has_uint32"]), state["uinteger"]
    addr_bits, data_bits = sequence.addr_bits, sequence.data_bits
    steps = _cycle_steps(addr_bits, data_bits)
    # Per cycle the scalar loop reads one test double; a hit then reads its
    # random cycle.  Draw the n test words, then the words the hits read,
    # and again for the hits among those, until no new word is a hit.
    n = len(sequence)
    words = block = bit_generator.random_raw(n)
    cycles: List[int] = []
    reads: List[int] = []  # the positions of the words that hits read
    flag = cached
    scanned = after = 0
    while True:
        for position in (doubles(block) < rate).nonzero()[0].tolist():
            position += scanned
            if position < after:
                continue  # a word of the previous hit's cycle
            cycles.append(position - len(reads))
            cost, flag = steps[flag]
            after = position + 1 + cost
            reads.extend(range(position + 1, after))
        if n + len(reads) == len(words):
            break
        scanned = len(words)
        block = bit_generator.random_raw(n + len(reads) - scanned)
        words = np.concatenate((words, block))
    if not cycles:
        return sequence
    rewritten = _random_cycles(
        bit_generator, words[reads].tolist(), len(cycles),
        cached, half, addr_bits, data_bits,
    )
    columns = [column.copy() for column in sequence.columns]
    for column, values in zip(columns, rewritten):
        column[cycles] = values
    # Decoded op codes and bounded draws fit the bus: no re-check.
    return sequence._derived(*columns)


# -- motifs ----------------------------------------------------------------------
# Each motif builder returns the ``(op codes, addresses, data)`` columns of
# ``length`` cycles.

def _alternating(start: int, flip: int, length: int) -> np.ndarray:
    """``start ^ flip, start, start ^ flip, ...``: a value toggled each cycle."""
    values = np.full(length, start, dtype=np.int64)
    values[0::2] ^= flip
    return values


def _motif_toggle_burst(
    rng: np.random.Generator, length: int, addr_bits: int, data_bits: int
) -> Columns:
    """Hot window: full data-bus and address-bus toggling writes."""
    mask = (1 << data_bits) - 1
    full = (1 << addr_bits) - 1
    word = int(rng.integers(0, 1 << data_bits))
    addr = int(rng.integers(0, 1 << addr_bits))
    return (
        np.full(length, WRITE_CODE, dtype=np.int8),
        _alternating(addr, full, length),
        _alternating(word, mask, length),
    )


def _motif_raw_pairs(
    rng: np.random.Generator, length: int, addr_bits: int, data_bits: int
) -> Columns:
    """Same-address write-then-read pairs with MSB-hopping addresses."""
    half = 1 << (addr_bits - 1)
    mask = (1 << data_bits) - 1
    word = int(rng.integers(0, 1 << data_bits))
    addr = int(rng.integers(0, 1 << addr_bits))
    # Pair k writes (word, addr) toggled k + 1 times, then reads it back.
    pairs = (length + 1) // 2
    ops = np.tile(np.array([WRITE_CODE, READ_CODE], dtype=np.int8), pairs)
    addresses = np.repeat(_alternating(addr, half, pairs), 2)
    data = np.repeat(_alternating(word, mask, pairs), 2)
    data[1::2] = 0
    return ops[:length], addresses[:length], data[:length]


def _motif_msb_hop(
    rng: np.random.Generator, length: int, addr_bits: int, data_bits: int
) -> Columns:
    """Writes hopping between the two address halves every cycle."""
    half = 1 << (addr_bits - 1)
    addr = int(rng.integers(0, 1 << addr_bits))
    # One bound per element: the same draws as one scalar call per cycle.
    data = rng.integers(0, np.full(length, 1 << data_bits))
    return (
        np.full(length, WRITE_CODE, dtype=np.int8),
        _alternating(addr, half, length),
        data,
    )


_MOTIF_BUILDERS = {
    "toggle_burst": _motif_toggle_burst,
    "raw_pairs": _motif_raw_pairs,
    "msb_hop": _motif_msb_hop,
}


def motif_mutate_sequence(
    sequence: VectorSequence,
    rng: np.random.Generator,
    min_length: int = 16,
    max_length: int = 96,
) -> VectorSequence:
    """Overwrite a random segment with a random stimulus motif."""
    # ``rng.choice(MOTIF_NAMES)`` draws this index, through a string array.
    name = MOTIF_NAMES[int(rng.integers(0, len(MOTIF_NAMES)))]
    length = int(rng.integers(min_length, max_length + 1))
    length = min(length, len(sequence))
    start = int(rng.integers(0, len(sequence) - length + 1))
    motif = _MOTIF_BUILDERS[name](
        rng, length, sequence.addr_bits, sequence.data_bits
    )
    columns = [column.copy() for column in sequence.columns]
    for column, segment in zip(columns, motif):
        column[start : start + length] = segment
    # Every motif writes op codes and values that fit the bus: no re-check.
    return sequence._derived(*columns)


def resize_mutate_sequence(
    sequence: VectorSequence,
    rng: np.random.Generator,
    max_change: int = 64,
) -> VectorSequence:
    """Grow or shrink the sequence within the paper's 100-1000 cycle bounds."""
    bit_generator = pcg64(rng)
    change = int(rng.integers(-max_change, max_change + 1))
    target = min(max(len(sequence) + change, MIN_SEQUENCE_CYCLES), MAX_SEQUENCE_CYCLES)
    columns = [column[:target] for column in sequence.columns]
    grow = target - len(sequence)
    if grow > 0:
        state = bit_generator.state
        cached, half = bool(state["has_uint32"]), state["uinteger"]
        addr_bits, data_bits = sequence.addr_bits, sequence.data_bits
        # Grown cycles read their words back to back.
        steps = _cycle_steps(addr_bits, data_bits)
        flag, count = cached, 0
        for _ in range(grow):
            cost, flag = steps[flag]
            count += cost
        grown = _random_cycles(
            bit_generator, bit_generator.random_raw(count).tolist(), grow,
            cached, half, addr_bits, data_bits,
        )
        ops, addresses, data = (
            np.concatenate((column, added))
            for column, added in zip(columns, grown)
        )
        columns = [ops.astype(np.int8), addresses, data]
    # A prefix of the parent plus decoded cycles fits the bus: no re-check.
    return sequence._derived(*columns)


# -- condition species --------------------------------------------------------------
def crossover_conditions(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Arithmetic blend with a uniform mixing coefficient per child."""
    alpha = rng.random()
    beta = 1.0 - alpha
    # Three genes: Python floats in numpy's operation order beat six array ops.
    pairs = list(zip(a.tolist(), b.tolist()))
    child1 = [min(max(alpha * x + beta * y, 0.0), 1.0) for x, y in pairs]
    child2 = [min(max(beta * x + alpha * y, 0.0), 1.0) for x, y in pairs]
    return np.array(child1), np.array(child2)


def mutate_conditions(
    genes: np.ndarray, rng: np.random.Generator, sigma: float = 0.08
) -> np.ndarray:
    """Gaussian perturbation of all genes, clipped to ``[0, 1]``."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    return np.clip(genes + rng.normal(0.0, sigma, size=genes.shape), 0.0, 1.0)

"""Test vector sequences.

A :class:`TestVector` describes one tester cycle applied to the device under
test: an operation (read / write / nop), an address and — for writes — a data
word.  A :class:`VectorSequence` is an immutable, validated run of cycles,
stored column-wise (op codes, addresses, data) in read-only arrays; the
paper uses short sequences of 100 to 1000 cycles so that a worst-case
test can be pin-pointed precisely (section 3).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

#: Default address width of the simulated memory test chip (1024 words).
DEFAULT_ADDR_BITS = 10
#: Default data width of the simulated memory test chip.
DEFAULT_DATA_BITS = 8

#: Sequence-length bounds recommended by the paper (section 3): "we define
#: small test sequences in between 100 to 1000 vector cycles".
MIN_SEQUENCE_CYCLES = 100
MAX_SEQUENCE_CYCLES = 1000


class Operation(enum.Enum):
    """Per-cycle tester operation."""

    READ = "r"
    WRITE = "w"
    NOP = "n"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Operations in op-code order: a sequence's op column holds indices into
#: this tuple.
OPS: Tuple[Operation, ...] = (Operation.READ, Operation.WRITE, Operation.NOP)
#: Op codes of :data:`OPS`.
READ_CODE, WRITE_CODE, NOP_CODE = range(len(OPS))

#: Per-cycle ``(op codes, addresses, data)`` columns, as producers such as
#: the random builders and GA motifs return them.
Columns = Tuple[ArrayLike, ArrayLike, ArrayLike]

@dataclass(frozen=True)
class TestVector:
    """One tester cycle: ``(operation, address, data)``.

    ``data`` is only meaningful for :attr:`Operation.WRITE`; reads compare
    against the behavioural memory model inside the device simulator, and
    NOPs idle the bus for one cycle.
    """

    op: Operation
    address: int = 0
    data: int = 0

    def validate(self, addr_bits: int, data_bits: int) -> None:
        """Raise :class:`ValueError` if the vector does not fit the DUT bus."""
        if not 0 <= self.address < (1 << addr_bits):
            raise ValueError(
                f"address {self.address} out of range for {addr_bits} address bits"
            )
        if not 0 <= self.data < (1 << data_bits):
            raise ValueError(
                f"data {self.data:#x} out of range for {data_bits} data bits"
            )

    def __str__(self) -> str:
        return f"{self.op.value}@{self.address:04x}:{self.data:02x}"


class VectorSequence:
    """An immutable sequence of tester cycles, stored as three columns.

    The cycles live in read-only numpy arrays: an ``int8`` op code indexing
    :data:`OPS`, ``int64`` addresses and ``int64`` data words.  Producers
    (the random generator, GA operators) write columns and consumers
    (feature extraction, the device model) read them through
    :attr:`columns`.  :class:`TestVector` is the per-cycle view, built
    lazily when the sequence is iterated or indexed.

    Parameters
    ----------
    vectors:
        The per-cycle vectors, in application order.
    addr_bits, data_bits:
        Bus geometry used to validate every vector.
    name:
        Optional human-readable label (e.g. ``"march_cm"`` or ``"rnd_0042"``).
    """

    __slots__ = (
        "_ops", "_addresses", "_data", "_vectors", "_hash",
        "addr_bits", "data_bits", "name",
    )

    def __init__(
        self,
        vectors: Iterable[TestVector],
        addr_bits: int = DEFAULT_ADDR_BITS,
        data_bits: int = DEFAULT_DATA_BITS,
        name: str = "",
    ) -> None:
        vecs: Tuple[TestVector, ...] = tuple(vectors)
        columns = _checked_columns(
            [OPS.index(vec.op) for vec in vecs],
            [vec.address for vec in vecs],
            [vec.data for vec in vecs],
            addr_bits,
            data_bits,
        )
        self._init(*columns, addr_bits, data_bits, name)

    @classmethod
    def from_columns(
        cls,
        ops: ArrayLike,
        addresses: ArrayLike,
        data: ArrayLike,
        addr_bits: int = DEFAULT_ADDR_BITS,
        data_bits: int = DEFAULT_DATA_BITS,
        name: str = "",
    ) -> "VectorSequence":
        """Build a sequence from per-cycle columns.

        ``ops`` holds indices into :data:`OPS`.  The inputs are copied, so
        the caller may keep modifying its own arrays.
        """
        sequence = cls.__new__(cls)
        columns = _checked_columns(ops, addresses, data, addr_bits, data_bits)
        sequence._init(*columns, addr_bits, data_bits, name)
        return sequence

    def _init(
        self,
        ops: np.ndarray,
        addresses: np.ndarray,
        data: np.ndarray,
        addr_bits: int,
        data_bits: int,
        name: str,
    ) -> None:
        """Adopt owned, validated columns and freeze them."""
        for column in (ops, addresses, data):
            column.flags.writeable = False
        self._ops = ops
        self._addresses = addresses
        self._data = data
        self._vectors: Optional[Tuple[TestVector, ...]] = None
        self._hash: Optional[int] = None
        self.addr_bits = addr_bits
        self.data_bits = data_bits
        self.name = name

    def _derived(
        self, ops: np.ndarray, addresses: np.ndarray, data: np.ndarray
    ) -> "VectorSequence":
        """A same-geometry, same-name sequence over columns taken from
        already validated sequences (no copy, no check)."""
        sequence = VectorSequence.__new__(VectorSequence)
        sequence._init(ops, addresses, data, self.addr_bits, self.data_bits, self.name)
        return sequence

    # -- columns ------------------------------------------------------------
    @property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``(op codes, addresses, data)`` columns."""
        return self._ops, self._addresses, self._data

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[TestVector]:
        return iter(self.vectors)

    def __getitem__(self, index: int) -> TestVector:
        return self.vectors[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorSequence):
            return NotImplemented
        return self is other or (
            self.addr_bits == other.addr_bits
            and self.data_bits == other.data_bits
            and np.array_equal(self._ops, other._ops)
            and np.array_equal(self._addresses, other._addresses)
            and np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:
        # A digest of the column bytes, not ``hash()`` of them: the value
        # must not depend on the interpreter's string-hash salt.
        if self._hash is None:
            digest = hashlib.blake2b(digest_size=8)
            for column in (self._ops, self._addresses, self._data):
                digest.update(column.tobytes())
            digest.update(f"{self.addr_bits}:{self.data_bits}".encode("ascii"))
            self._hash = int.from_bytes(digest.digest(), "little", signed=True)
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"VectorSequence({label!r}, cycles={len(self)})"

    # -- pickling: the columns only, as raw bytes ---------------------------
    def __getstate__(self) -> Tuple[bytes, bytes, bytes, int, int, str]:
        return (
            self._ops.tobytes(), self._addresses.tobytes(), self._data.tobytes(),
            self.addr_bits, self.data_bits, self.name,
        )

    def __setstate__(self, state: Tuple[bytes, bytes, bytes, int, int, str]) -> None:
        ops, addresses, data, addr_bits, data_bits, name = state
        self._init(
            np.frombuffer(ops, dtype=np.int8),
            np.frombuffer(addresses, dtype=np.int64),
            np.frombuffer(data, dtype=np.int64),
            addr_bits, data_bits, name,
        )

    # -- derived views ------------------------------------------------------
    @property
    def vectors(self) -> Tuple[TestVector, ...]:
        """The per-cycle vectors (built on first use, then cached)."""
        if self._vectors is None:
            self._vectors = tuple(map(
                TestVector,
                map(OPS.__getitem__, self._ops.tolist()),
                self._addresses.tolist(),
                self._data.tolist(),
            ))
        return self._vectors

    def addresses(self) -> List[int]:
        """Per-cycle address stream."""
        return self._addresses.tolist()

    def data_words(self) -> List[int]:
        """Per-cycle data stream (zero for reads and NOPs)."""
        return np.where(self._ops == WRITE_CODE, self._data, 0).tolist()

    def operations(self) -> List[Operation]:
        """Per-cycle operation stream."""
        return [OPS[code] for code in self._ops.tolist()]

    def count(self, op: Operation) -> int:
        """Number of cycles performing ``op``."""
        if op not in OPS:
            return 0
        return int(np.count_nonzero(self._ops == OPS.index(op)))

    def with_name(self, name: str) -> "VectorSequence":
        """Return a renamed copy sharing the same columns."""
        sequence = self._derived(self._ops, self._addresses, self._data)
        sequence.name = name
        return sequence

    def replaced(self, index: int, vector: TestVector) -> "VectorSequence":
        """Return a copy with the cycle at ``index`` replaced.

        Used by GA mutation operators, which must not modify sequences
        in place (sequences may be shared between population members).
        """
        if not 0 <= index < len(self):
            raise IndexError(f"cycle index {index} out of range")
        vector.validate(self.addr_bits, self.data_bits)
        ops, addresses, data = (column.copy() for column in self.columns)
        ops[index] = OPS.index(vector.op)
        addresses[index] = vector.address
        data[index] = vector.data
        return self._derived(ops, addresses, data)

    def spliced(
        self, other: "VectorSequence", cut_self: int, cut_other: int
    ) -> "VectorSequence":
        """Single-point crossover helper: ``self[:cut_self] + other[cut_other:]``.

        The result is clamped to :data:`MAX_SEQUENCE_CYCLES` and validated to
        contain at least one cycle; bus geometry must match.
        """
        if (self.addr_bits, self.data_bits) != (other.addr_bits, other.data_bits):
            raise ValueError("cannot splice sequences with different bus geometry")
        ops, addresses, data = (
            np.concatenate((mine[:cut_self], theirs[cut_other:]))
            for mine, theirs in zip(self.columns, other.columns)
        )
        if not len(ops):
            ops, addresses, data = (column[:1] for column in self.columns)
        return self._derived(
            ops[:MAX_SEQUENCE_CYCLES],
            addresses[:MAX_SEQUENCE_CYCLES],
            data[:MAX_SEQUENCE_CYCLES],
        )


def _checked_columns(
    ops: ArrayLike,
    addresses: ArrayLike,
    data: ArrayLike,
    addr_bits: int,
    data_bits: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy three columns into their storage dtypes and validate them.

    Raises the :class:`ValueError` that :meth:`TestVector.validate` raises
    for the first cycle that does not fit the DUT bus.
    """
    try:
        op_codes = np.asarray(ops)
        address_column = np.array(addresses, dtype=np.int64)
        data_column = np.array(data, dtype=np.int64)
    except OverflowError:
        # A value beyond int64 fits no bus: find the first such cycle.
        for address, word in zip(addresses, data):  # type: ignore[call-overload]
            TestVector(Operation.NOP, int(address), int(word)).validate(
                addr_bits, data_bits
            )
        raise
    n = op_codes.size
    if not n:
        raise ValueError("a vector sequence must contain at least one cycle")
    if op_codes.shape != (n,) or address_column.shape != (n,) or data_column.shape != (n,):
        raise ValueError("op, address and data columns must be 1-D and equally long")
    if op_codes.min() < 0 or op_codes.max() >= len(OPS):
        raise ValueError(f"op codes must index the {len(OPS)} operations")
    op_column = op_codes.astype(np.int8)
    if (
        int(address_column.min()) < 0
        or int(address_column.max()) >> addr_bits
        or int(data_column.min()) < 0
        or int(data_column.max()) >> data_bits
    ):
        bad = (address_column < 0) | (data_column < 0)
        bad |= (address_column >> min(addr_bits, 63)) != 0
        bad |= (data_column >> min(data_bits, 63)) != 0
        first = int(np.argmax(bad))
        TestVector(
            OPS[op_column[first]],
            int(address_column[first]),
            int(data_column[first]),
        ).validate(addr_bits, data_bits)
    return op_column, address_column, data_column


def checkerboard_word(address: int, data_bits: int, inverted: bool = False) -> int:
    """Checkerboard data background word for ``address``.

    Alternating 0/1 cells in both address and bit dimensions — the classic
    memory-test background.  ``inverted`` flips every bit.
    """
    base = 0
    for bit in range(data_bits):
        cell = (address + bit) & 1
        base |= cell << bit
    if inverted:
        base ^= (1 << data_bits) - 1
    return base


def solid_word(value_bit: int, data_bits: int) -> int:
    """All-zeros (``value_bit == 0``) or all-ones data background word."""
    if value_bit not in (0, 1):
        raise ValueError("value_bit must be 0 or 1")
    return ((1 << data_bits) - 1) if value_bit else 0


def sequence_from_ops(
    ops: Sequence[Tuple[str, int, int]],
    addr_bits: int = DEFAULT_ADDR_BITS,
    data_bits: int = DEFAULT_DATA_BITS,
    name: str = "",
) -> VectorSequence:
    """Build a sequence from ``("r"|"w"|"n", address, data)`` triples.

    Convenience constructor for tests and examples.
    """
    vectors = [TestVector(Operation(op), addr, data) for op, addr, data in ops]
    return VectorSequence(vectors, addr_bits, data_bits, name=name)

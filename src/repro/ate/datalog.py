"""Characterization datalog.

Records every measurement the tester performs — test name, operating point,
programmed strobe, pass/fail — in application order.  The datalog is the raw
material of the shmoo tool and of post-hoc analyses, and its length is the
measurement-count metric SUTP minimizes.

The log is stored as seven parallel columns (index, test name, Vdd,
temperature, clock period, strobe, pass/fail), not as one object per
measurement.  The tester writes a batched strobe sweep as one block
(:meth:`Datalog.log_batch`) and a single measurement as one row
(:meth:`Datalog.log_measurement`); :class:`DatalogRecord` is the per-record
view, built only when a record is read.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    MutableSequence,
    Optional,
    Tuple,
    Union,
)

import numpy as np


def _quote_name(name: str) -> str:
    """CSV-quote a test name when it needs it (commas or quotes).

    Newlines are rejected outright: a datalog row is one physical line and
    :meth:`Datalog.from_csv` parses line by line.
    """
    if "\n" in name or "\r" in name:
        raise ValueError(f"test name may not contain newlines: {name!r}")
    if "," in name or '"' in name:
        return '"' + name.replace('"', '""') + '"'
    return name


def _split_row(line: str) -> List[str]:
    """Split one CSV row honoring double-quoted fields.

    Raises
    ------
    ValueError
        On an unbalanced quote.
    """
    fields: List[str] = []
    current: List[str] = []
    in_quotes = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    current.append('"')
                    i += 1
                else:
                    in_quotes = False
            else:
                current.append(ch)
        elif ch == '"':
            in_quotes = True
        elif ch == ",":
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if in_quotes:
        raise ValueError("unbalanced quote")
    fields.append("".join(current))
    return fields


@dataclass(frozen=True)
class DatalogRecord:
    """One measurement event."""

    index: int
    test_name: str
    vdd: float
    temperature: float
    clock_period: float
    strobe_ns: float
    passed: bool

    CSV_HEADER = "index,test_name,vdd,temperature,clock_period,strobe_ns,passed"

    def to_csv_row(self) -> str:
        """Comma-separated rendering matching :attr:`CSV_HEADER`.

        The test name is CSV-quoted when it contains commas or quotes, so
        :meth:`Datalog.from_csv` round-trips any printable name.
        """
        return (
            f"{self.index},{_quote_name(self.test_name)},{self.vdd:.4f},"
            f"{self.temperature:.2f},{self.clock_period:.2f},"
            f"{self.strobe_ns:.4f},{int(self.passed)}"
        )


class Datalog:
    """Append-only measurement log with simple query helpers.

    ``capacity`` bounds the log: the oldest records are evicted when full,
    and a batch longer than ``capacity`` keeps its last ``capacity``
    records.  Evicted rows are dropped from the columns in bulk once they
    make up ``capacity`` rows, so eviction is amortized O(1) per record.
    """

    #: Column names, in :class:`DatalogRecord` field order.
    COLUMNS = (
        "index",
        "test_name",
        "vdd",
        "temperature",
        "clock_period",
        "strobe_ns",
        "passed",
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._capacity = capacity
        self._index = array("q")
        self._test_name: List[str] = []
        self._vdd = array("d")
        self._temperature = array("d")
        self._clock_period = array("d")
        self._strobe_ns = array("d")
        self._passed = bytearray()  # 0/1 per record
        self._columns: Tuple[MutableSequence[Any], ...] = (
            self._index,
            self._test_name,
            self._vdd,
            self._temperature,
            self._clock_period,
            self._strobe_ns,
            self._passed,
        )
        # Physical position of the oldest live record: rows before it are
        # evicted but not yet deleted from the columns.
        self._start = 0

    @property
    def capacity(self) -> Optional[int]:
        """Maximum record count (``None`` = unbounded)."""
        return self._capacity

    # -- writers ---------------------------------------------------------------
    def log_measurement(
        self,
        index: int,
        test_name: str,
        vdd: float,
        temperature: float,
        clock_period: float,
        strobe_ns: float,
        passed: bool,
    ) -> None:
        """Store one measurement; drops the oldest record when over capacity."""
        size = len(self._index)
        try:
            self._index.append(index)
            self._vdd.append(vdd)
            self._temperature.append(temperature)
            self._clock_period.append(clock_period)
            self._strobe_ns.append(strobe_ns)
        except BaseException:
            self._truncate(size)
            raise
        self._test_name.append(test_name)
        self._passed.append(1 if passed else 0)
        if self._capacity is not None:
            self._evict(self._capacity)

    def log_batch(
        self,
        first_index: int,
        test_name: str,
        vdd: float,
        temperature: float,
        clock_period: float,
        strobes_ns,
        passed,
    ) -> None:
        """Store one test's strobe batch as a block of records.

        Record ``k`` gets index ``first_index + k``, the shared test name and
        operating point, and element ``k`` of ``strobes_ns``/``passed``.
        Equivalent to one :meth:`log_measurement` per element, in order.
        """
        strobes = np.ascontiguousarray(strobes_ns, dtype=np.float64)
        outcomes = np.ascontiguousarray(passed, dtype=bool)
        if strobes.ndim != 1 or outcomes.shape != strobes.shape:
            raise ValueError("strobes and passed must be equal-length 1-D batches")
        n = strobes.size
        indices = np.arange(first_index, first_index + n, dtype=np.int64)
        point = [array("d", [value]) * n for value in (vdd, temperature, clock_period)]
        self._index.frombytes(indices.tobytes())
        self._test_name.extend(repeat(test_name, n))
        self._vdd.extend(point[0])
        self._temperature.extend(point[1])
        self._clock_period.extend(point[2])
        self._strobe_ns.frombytes(strobes.tobytes())
        self._passed += outcomes.tobytes()
        if self._capacity is not None:
            self._evict(self._capacity)

    def append(self, record: DatalogRecord) -> None:
        """Store one record; drops the oldest when over capacity."""
        self.log_measurement(
            record.index,
            record.test_name,
            record.vdd,
            record.temperature,
            record.clock_period,
            record.strobe_ns,
            record.passed,
        )

    def extend(self, records: Iterable[DatalogRecord]) -> None:
        """Store a batch of records in order; evicts like :meth:`append`."""
        if records is self:
            records = list(self)  # iterating the live columns would never end
        for record in records:
            self.append(record)

    def clear(self) -> None:
        """Discard all records."""
        self._truncate(0)

    def _truncate(self, size: int) -> None:
        for column in self._columns:
            del column[size:]
        self._start = min(self._start, size)

    def _evict(self, capacity: int) -> None:
        excess = len(self._index) - self._start - capacity
        if excess > 0:
            self._start += excess
            if self._start >= capacity:
                for column in self._columns:
                    del column[: self._start]
                self._start = 0

    # -- readers ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index) - self._start

    def _record(self, position: int) -> DatalogRecord:
        """The view of the record at physical ``position``."""
        return DatalogRecord(
            index=self._index[position],
            test_name=self._test_name[position],
            vdd=self._vdd[position],
            temperature=self._temperature[position],
            clock_period=self._clock_period[position],
            strobe_ns=self._strobe_ns[position],
            passed=bool(self._passed[position]),
        )

    def _rows(self) -> Iterator[tuple]:
        """Live rows as raw column tuples (``passed`` as 0/1), oldest first."""
        return zip(*(islice(column, self._start, None) for column in self._columns))

    @staticmethod
    def _views(rows: Iterable[tuple]) -> Iterator[DatalogRecord]:
        for index, name, vdd, temperature, period, strobe, passed in rows:
            yield DatalogRecord(
                index, name, vdd, temperature, period, strobe, bool(passed)
            )

    def __iter__(self) -> Iterator[DatalogRecord]:
        return self._views(self._rows())

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DatalogRecord, List[DatalogRecord]]:
        live = range(self._start, len(self._index))
        if isinstance(index, slice):
            # Physical positions of the slice; a reversed slice that runs to
            # the first row stops at -1, which as a slice bound means "None".
            rows = live[index]
            cut = slice(rows.start, rows.stop if rows.stop >= 0 else None, rows.step)
            return list(self._views(zip(*(column[cut] for column in self._columns))))
        try:
            return self._record(live[index])
        except IndexError:
            raise IndexError("datalog index out of range") from None

    def column(self, name: str) -> Union[np.ndarray, List[str]]:
        """A copy of one column's live values, oldest first.

        ``test_name`` is a list of strings; the numeric columns are numpy
        arrays (``index`` int64, ``passed`` bool, the rest float64).
        """
        if name not in self.COLUMNS:
            raise KeyError(f"no datalog column {name!r}")
        values = self._columns[self.COLUMNS.index(name)]
        if name == "test_name":
            return values[self._start :]
        dtype = {"index": np.int64, "passed": bool}.get(name, np.float64)
        return np.frombuffer(values, dtype=dtype)[self._start :].copy()

    def filter(
        self, predicate: Callable[[DatalogRecord], bool]
    ) -> List[DatalogRecord]:
        """All records satisfying ``predicate``, in order."""
        return [record for record in self if predicate(record)]

    def for_test(self, test_name: str) -> List[DatalogRecord]:
        """All records of one test."""
        return [
            self._record(position)
            for position in range(self._start, len(self._index))
            if self._test_name[position] == test_name
        ]

    def pass_count(self) -> int:
        """Number of passing measurements."""
        return self._passed.count(1, self._start)

    def fail_count(self) -> int:
        """Number of failing measurements."""
        return len(self) - self.pass_count()

    def to_csv(self) -> str:
        """Full CSV dump (header + rows)."""
        buffer = io.StringIO()
        buffer.write(DatalogRecord.CSV_HEADER + "\n")
        for index, name, vdd, temperature, period, strobe, passed in self._rows():
            buffer.write(
                f"{index},{_quote_name(name)},{vdd:.4f},{temperature:.2f},"
                f"{period:.2f},{strobe:.4f},{passed}\n"
            )
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Datalog":
        """Parse a :meth:`to_csv` dump back into a datalog.

        Raises
        ------
        ValueError
            On a missing/mismatched header or malformed row; the message
            carries the offending 1-based line number.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != DatalogRecord.CSV_HEADER:
            raise ValueError("not a datalog CSV (header mismatch)")
        log = cls()
        for line_number, line in enumerate(lines[1:], start=2):
            try:
                parts = _split_row(line)
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from exc
            if len(parts) != 7:
                raise ValueError(
                    f"line {line_number}: expected 7 fields, got {len(parts)}"
                )
            try:
                log.append(
                    DatalogRecord(
                        index=int(parts[0]),
                        test_name=parts[1],
                        vdd=float(parts[2]),
                        temperature=float(parts[3]),
                        clock_period=float(parts[4]),
                        strobe_ns=float(parts[5]),
                        passed=bool(int(parts[6])),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from exc
        return log

"""Pattern file I/O.

Worst-case tests are only useful if they survive the session: the paper's
final step stores them so they "can be re-simulated or analyzed in detail
with ATE".  This module defines a minimal, diff-friendly text format — one
header block plus one line per cycle — with exact round-tripping::

    # repro-pattern v1
    # name: nnga_00
    # addr_bits: 10
    # data_bits: 8
    # vdd: 1.800000
    # temperature: 25.000000
    # clock_period: 40.000000
    # origin: ga
    w 3ff ff
    r 3ff 00
    n 000 00
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.patterns.conditions import TestCondition
from repro.patterns.testcase import TestCase
from repro.patterns.vectors import OPS, Operation, VectorSequence

FORMAT_TAG = "repro-pattern v1"


def dump_test(test: TestCase) -> str:
    """Serialize a test case (pattern + condition) to the text format."""
    sequence = test.sequence
    lines: List[str] = [
        f"# {FORMAT_TAG}",
        f"# name: {test.name or sequence.name or 'unnamed'}",
        f"# addr_bits: {sequence.addr_bits}",
        f"# data_bits: {sequence.data_bits}",
        f"# vdd: {test.condition.vdd:.6f}",
        f"# temperature: {test.condition.temperature:.6f}",
        f"# clock_period: {test.condition.clock_period:.6f}",
        f"# origin: {test.origin}",
    ]
    addr_width = (sequence.addr_bits + 3) // 4
    data_width = (sequence.data_bits + 3) // 4
    ops, addresses, data = (column.tolist() for column in sequence.columns)
    for op, address, word in zip(ops, addresses, data):
        lines.append(
            f"{OPS[op].value} {address:0{addr_width}x} {word:0{data_width}x}"
        )
    return "\n".join(lines) + "\n"


def load_test(text: str) -> TestCase:
    """Parse the text format back into a test case.

    Raises
    ------
    ValueError
        On a missing format tag, malformed header or malformed cycle line.
    """
    lines = text.splitlines()
    if not lines or FORMAT_TAG not in lines[0]:
        raise ValueError(f"not a {FORMAT_TAG!r} file")

    header = {}
    body_start = 0
    for index, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = index
            break
        if ":" in line:
            key, _, value = line.lstrip("# ").partition(":")
            header[key.strip()] = value.strip()
    else:
        body_start = len(lines)

    try:
        addr_bits = int(header["addr_bits"])
        data_bits = int(header["data_bits"])
    except KeyError as exc:
        raise ValueError(f"pattern header missing {exc}") from exc
    name = header.get("name", "unnamed")
    origin = header.get("origin", "random")
    condition = TestCondition(
        vdd=float(header.get("vdd", 1.8)),
        temperature=float(header.get("temperature", 25.0)),
        clock_period=float(header.get("clock_period", 40.0)),
    )

    ops: List[int] = []
    addresses: List[int] = []
    data: List[int] = []
    for line_number, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"line {line_number}: expected 'op addr data'")
        op_code, addr_hex, data_hex = parts
        try:
            ops.append(OPS.index(Operation(op_code)))
            addresses.append(int(addr_hex, 16))
            data.append(int(data_hex, 16))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from exc
    if not ops:
        raise ValueError("pattern file contains no cycles")

    sequence = VectorSequence.from_columns(
        ops, addresses, data, addr_bits, data_bits, name=name
    )
    return TestCase(sequence, condition, name=name, origin=origin)


def save_test(test: TestCase, path: Union[str, Path]) -> None:
    """Write a test case to a ``.pat`` file."""
    Path(path).write_text(dump_test(test))


def load_test_file(path: Union[str, Path]) -> TestCase:
    """Read a test case from a ``.pat`` file."""
    return load_test(Path(path).read_text())

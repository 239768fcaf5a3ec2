"""Crash-safe JSONL and file primitives: one writer pair, one reader.

Campaign state is persisted as it happens — the ``runs.jsonl`` run
history, the farm's checkpoint store, the telemetry trace and the
worst-case database export.  All of them are read back by later
commands, so a torn line or half-written file is not just a local
nuisance: it is a corrupt record every later reader would have to
forgive.  This module centralizes
the two disciplines that prevent torn data (the same ones
``benchmarks/conftest.py`` applies to BENCH records) and the one
definition of what reading "tolerantly" means:

* **appends** — :func:`durable_append_line`: write the whole line, then
  ``flush`` + ``os.fsync`` so the line either exists completely after a
  crash or not at all (JSONL framing makes a missing trailing line
  recoverable; a buffered half-line is not distinguishable from data);
* **rewrites** — :func:`atomic_write_text`: write to a same-directory
  temp file and ``os.replace`` it over the target, so readers never see
  a truncated file even if the writer dies mid-write;
* **reads** — :func:`iter_jsonl`: stream a JSONL file as
  ``(line_number, record)`` pairs, where ``record`` is ``None`` for a
  line that is not a UTF-8 JSON object.  Each caller decides what a
  ``None`` costs (a counted drop, or a typed error); none of them can
  be crashed by a stray byte.

Deliberately dependency-free (stdlib only, no ``repro`` imports) so any
layer — ``repro.obs``, ``repro.farm``, ``repro.core``, ``repro.store``
— can use it without import cycles.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Tuple, Union


def fsync_handle(handle: IO[str]) -> None:
    """Flush python *and* OS buffers for an open text handle.

    Files without a real descriptor (``io.StringIO`` in tests, pipes on
    exotic platforms) just flush — the durability guarantee is
    best-effort there, matching what the OS can offer.
    """
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except (OSError, ValueError, AttributeError):
        pass


def durable_append_line(handle: IO[str], line: str) -> None:
    """Append one newline-terminated record and make it durable.

    Accepts the record with or without its trailing newline (JSONL
    records never embed one); writing line + terminator in a single call
    keeps the torn-write window to one buffer flush instead of two.
    """
    if not line.endswith("\n"):
        line += "\n"
    handle.write(line)
    fsync_handle(handle)


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Replace ``path`` with ``text`` atomically (write-temp + rename).

    The temp file lives next to the target (``os.replace`` must not
    cross filesystems) and is named per-pid so concurrent writers cannot
    collide on the staging file.  Returns the target path.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    with staging.open("w") as handle:
        handle.write(text)
        fsync_handle(handle)
    os.replace(staging, target)
    return target


def iter_jsonl(
    path: Union[str, Path],
    offset: int = 0,
    limit: Optional[int] = None,
    complete_lines_only: bool = False,
) -> Iterator[Tuple[int, Optional[Dict[str, object]]]]:
    """Stream ``(line_number, record)`` pairs from a JSONL file.

    The file is read as bytes and decoded one line at a time, so a bad
    byte, a torn write or a line of valid JSON that is not an object
    costs exactly that line: it is yielded with ``record=None``.  Blank
    lines are neither records nor damage and are skipped.  Memory stays
    proportional to one line, never to the file.

    Line numbers are 1-based file lines, which makes them stable cursors
    for a file that is still growing: ``offset`` skips the first
    ``offset`` lines, ``limit`` caps the number of pairs yielded, and
    ``complete_lines_only`` stops before a final line that lacks its
    newline (the write still in flight), leaving it for the next read.
    A missing file raises :class:`FileNotFoundError`.
    """
    if limit is not None and limit < 1:
        return
    yielded = 0
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            if number <= offset:
                continue
            if complete_lines_only and not raw.endswith(b"\n"):
                return
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError):
                # Bad UTF-8 and bad JSON both raise ValueError; a line
                # nested too deeply for the decoder raises RecursionError.
                record = None
            yield number, record if isinstance(record, dict) else None
            yielded += 1
            if yielded == limit:
                return


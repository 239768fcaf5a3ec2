"""Worst-case test database (fig. 5, final step).

"At last, final worst case tests are generated and stored in the database"
with "functional failure patterns (if any) ... stored separately" (section
6).  Records carry everything needed to re-run the test later on ATE or in
circuit-level simulation: the test case, the measured value, its WCR and
fig. 6 class, and provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.wcr import WCRClass
from repro.ioutil import atomic_write_text
from repro.patterns.testcase import TestCase


@dataclass(frozen=True)
class WorstCaseRecord:
    """One stored worst-case (or functional-failure) test."""

    test: TestCase
    measured_value: Optional[float]
    wcr: Optional[float]
    wcr_class: Optional[WCRClass]
    technique: str
    functional_failure: bool = False
    note: str = ""

    def summary(self) -> Dict[str, object]:
        """JSON-friendly view (the vector data itself is not serialized)."""
        return {
            "test_name": self.test.name,
            "technique": self.technique,
            "cycles": self.test.cycles,
            "condition": self.test.condition.as_dict(),
            "measured_value": self.measured_value,
            "wcr": self.wcr,
            "wcr_class": self.wcr_class.value if self.wcr_class else None,
            "functional_failure": self.functional_failure,
            "note": self.note,
        }


class WorstCaseDatabase:
    """Ranked store of worst-case tests plus the separate failure store."""

    def __init__(self) -> None:
        self._records: List[WorstCaseRecord] = []
        self._failures: List[WorstCaseRecord] = []

    def add(self, record: WorstCaseRecord) -> None:
        """Store a record; functional failures go to the separate store."""
        if record.functional_failure:
            self._failures.append(record)
        else:
            if record.wcr is None:
                raise ValueError("non-failure records must carry a WCR")
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def failure_count(self) -> int:
        """Functional failure patterns stored separately."""
        return len(self._failures)

    def failures(self) -> List[WorstCaseRecord]:
        """The separate functional-failure store."""
        return list(self._failures)

    def ranked(self) -> List[WorstCaseRecord]:
        """All parametric records, worst (largest WCR) first."""
        return sorted(self._records, key=lambda r: r.wcr, reverse=True)

    def top(self, count: int = 1) -> List[WorstCaseRecord]:
        """The ``count`` worst records."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.ranked()[:count]

    def worst(self) -> WorstCaseRecord:
        """The single worst record."""
        if not self._records:
            raise ValueError("database is empty")
        return self.ranked()[0]

    def by_class(self, wcr_class: WCRClass) -> List[WorstCaseRecord]:
        """All records in one fig. 6 region."""
        return [r for r in self._records if r.wcr_class is wcr_class]

    def by_technique(self, technique: str) -> List[WorstCaseRecord]:
        """All records produced by one technique."""
        return [r for r in self._records if r.technique == technique]

    def merge(self, other: "WorstCaseDatabase") -> "WorstCaseDatabase":
        """Fold another database into this one; returns self.

        The farm merge helper: per-shard databases from a parallel run are
        combined in shard order, so the merged store — and therefore its
        export — is deterministic.  Records and functional failures keep
        their separation.  A database merged into itself holds every
        entry twice: merge is a multiset union, kept in merge order.
        """
        # ``extend``, not a loop of ``add``: it reads ``other``'s lists
        # once, even when ``other`` is ``self``.
        self._records.extend(other._records)
        self._failures.extend(other._failures)
        return self

    def export_payload(self) -> Dict[str, object]:
        """The export as plain data (what :meth:`export_json` writes).

        Shared with :mod:`repro.store`, whose worst-case table exports
        the same shape so a store-backed export diffs cleanly against a
        direct one.
        """
        return {
            "records": [r.summary() for r in self.ranked()],
            "functional_failures": [r.summary() for r in self._failures],
        }

    def export_json(self, path: Union[str, Path]) -> None:
        """Write record summaries (not raw vectors) as JSON.

        Keys are sorted and the file ends in a newline so exports from
        merged parallel runs diff cleanly against serial ones.  The
        write is atomic (write-temp + rename): an export interrupted
        mid-write never leaves a truncated database on disk.
        """
        atomic_write_text(
            path, json.dumps(self.export_payload(), indent=2, sort_keys=True) + "\n"
        )

    def export_patterns(self, directory: Union[str, Path]) -> List[Path]:
        """Write every stored test as a ``.pat`` file for re-simulation.

        Returns the written paths.  Worst-case records come first (ranked),
        then functional failures (prefixed ``fail_``), matching the paper's
        final step: stored tests "can be re-simulated or analyzed in detail
        with ATE ... to localize the design weakness efficiently".
        """
        from repro.patterns.io import save_test

        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for rank, record in enumerate(self.ranked()):
            name = record.test.name or f"record_{rank:03d}"
            path = target / f"{rank:03d}_{name}.pat"
            save_test(record.test, path)
            written.append(path)
        for index, record in enumerate(self._failures):
            name = record.test.name or f"failure_{index:03d}"
            path = target / f"fail_{index:03d}_{name}.pat"
            save_test(record.test, path)
            written.append(path)
        return written

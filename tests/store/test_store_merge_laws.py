"""Merge laws of the result store's worst-wins upsert.

``ResultStore.import_wcdb_payload`` keeps one row per ``(scope,
test_name, condition)``: the worst record it has seen.  A functional
failure beats a parametric record; between two of the same kind the
larger WCR wins, and a record without a WCR loses to one with.  Unlike
``WorstCaseDatabase.merge`` (a multiset union, see
``tests/core/test_database_merge_laws.py``) the upsert is a maximum, so:

* it is idempotent: re-importing a payload changes no row and reports 0;
* when no WCRs tie, the row kept for each key is the worst one whatever
  the order of the imports.  (With a tie the first import keeps its row.)
"""

import contextlib
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.store import ResultStore

_CONDITIONS = (
    {"clock_period": 30.0, "temperature": 25.0, "vdd": 1.8},
    {"clock_period": 25.0, "temperature": 85.0, "vdd": 1.6},
)


def _summary(name, condition, wcr, failure, technique):
    """One record in the ``WorstCaseDatabase.export_payload`` shape."""
    return {
        "test_name": name,
        "technique": technique,
        "cycles": 100,
        "condition": _CONDITIONS[condition],
        "measured_value": None if wcr is None else 30.0 * wcr,
        "wcr": wcr,
        "wcr_class": "fail" if failure else "pass",
        "functional_failure": failure,
        "note": "",
    }


SUMMARIES = st.lists(
    st.builds(
        _summary,
        name=st.sampled_from(["a", "b"]),
        condition=st.sampled_from(range(len(_CONDITIONS))),
        # Shared values make ties common.
        wcr=st.one_of(st.none(), st.sampled_from([0.5, 1.2]), st.floats(0.0, 2.0)),
        failure=st.booleans(),
        technique=st.sampled_from(["random", "nn", "ga"]),
    ),
    max_size=8,
)


def _payload(summaries):
    return {
        "records": [s for s in summaries if not s["functional_failure"]],
        "functional_failures": [s for s in summaries if s["functional_failure"]],
    }


@contextlib.contextmanager
def _store():
    with tempfile.TemporaryDirectory() as scratch:
        yield ResultStore(Path(scratch) / "store.db")


def _key(summary):
    return summary["test_name"], json.dumps(summary["condition"], sort_keys=True)


def _severity(summary):
    wcr = summary["wcr"]
    return summary["functional_failure"], float("-inf") if wcr is None else wcr


def _kept(store):
    """The exported row of each key."""
    payload = store.export_wcdb_payload()
    rows = payload["records"] + payload["functional_failures"]
    kept = {_key(row): row for row in rows}
    assert len(kept) == len(rows)
    return kept


@settings(max_examples=100, deadline=None)
@given(summaries=SUMMARIES, scope=st.sampled_from(["", "lot"]))
def test_reimport_is_idempotent(summaries, scope):
    with _store() as store:
        store.import_wcdb_payload(_payload(summaries), scope=scope)
        before = store.export_wcdb_payload()
        assert store.import_wcdb_payload(_payload(summaries), scope=scope) == 0
        assert store.export_wcdb_payload() == before


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_worst_row_wins_whatever_the_import_order(data):
    summaries = data.draw(SUMMARIES)
    wcrs = [s["wcr"] for s in summaries]
    # Untied: distinct WCRs, and at most one record without one.
    summaries = [
        s for i, s in enumerate(summaries) if s["wcr"] not in wcrs[:i]
    ]
    shuffled = data.draw(st.permutations(summaries))
    expected = {}
    for summary in summaries:
        best = expected.get(_key(summary))
        if best is None or _severity(summary) > _severity(best):
            expected[_key(summary)] = summary
    with _store() as forward, _store() as backward, _store() as batched:
        for summary in summaries:
            forward.import_wcdb_payload(_payload([summary]))
        for summary in shuffled:
            backward.import_wcdb_payload(_payload([summary]))
        batched.import_wcdb_payload(_payload(shuffled))
        for store in (forward, backward, batched):
            assert _kept(store) == expected

"""Algebra of ``WorstCaseDatabase.merge`` over generated record sets.

A farm combines per-shard databases in shard order, and serial, process
and remote runs export the same bytes only if the grouping of those merges
does not matter.  Merge is a multiset union kept in merge order, so:

* it is associative and the empty database is its identity (exact export);
* it is commutative up to order: records with equal WCR rank in merge
  order, and functional failures are listed in merge order, so two orders
  export the same entries, and the same ``records`` list when no WCRs tie;
* it is not idempotent: a database merged into itself holds every entry
  twice.  What holds is that the set of distinct entries is unchanged.
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.database import WorstCaseDatabase, WorstCaseRecord
from repro.core.wcr import WCRClass
from repro.patterns.random_gen import RandomTestGenerator

_TESTS = RandomTestGenerator(seed=5, min_cycles=100, max_cycles=120).batch(3)


def _record(test_index, name, wcr, failure, technique):
    test = replace(_TESTS[test_index], name=name)
    if failure:
        return WorstCaseRecord(
            test=test, measured_value=None, wcr=None, wcr_class=None,
            technique=technique, functional_failure=True,
        )
    wcr_class = WCRClass.PASS if wcr <= 0.8 else (
        WCRClass.WEAKNESS if wcr <= 1.0 else WCRClass.FAIL
    )
    return WorstCaseRecord(
        test=test, measured_value=30.0 * wcr, wcr=wcr, wcr_class=wcr_class,
        technique=technique,
    )


RECORDS = st.builds(
    _record,
    test_index=st.integers(0, len(_TESTS) - 1),
    name=st.sampled_from(["a", "b", "c", "d"]),
    # A few shared values make WCR ties common.
    wcr=st.one_of(st.sampled_from([0.5, 0.9, 1.2]), st.floats(0.0, 2.0)),
    failure=st.booleans(),
    technique=st.sampled_from(["random", "nn", "ga"]),
)
RECORD_SETS = st.lists(RECORDS, max_size=6)


def _db(records):
    database = WorstCaseDatabase()
    for record in records:
        database.add(record)
    return database


def _merged(*record_sets):
    database = _db(record_sets[0])
    for records in record_sets[1:]:
        database.merge(_db(records))
    return database.export_payload()


def _entries(payload):
    """A payload's entries as one sorted multiset."""
    return sorted(
        json.dumps(entry, sort_keys=True)
        for key in ("records", "functional_failures")
        for entry in payload[key]
    )


@settings(max_examples=150)
@given(a=RECORD_SETS, b=RECORD_SETS, c=RECORD_SETS)
def test_merge_is_associative(a, b, c):
    left = _db(a).merge(_db(b)).merge(_db(c))
    right = _db(a).merge(_db(b).merge(_db(c)))
    assert left.export_payload() == right.export_payload()


@given(a=RECORD_SETS)
def test_the_empty_database_is_the_identity(a):
    payload = _db(a).export_payload()
    assert _merged([], a) == payload
    assert _merged(a, []) == payload


def _named(records, prefix):
    """The records with distinct test names."""
    return [
        replace(r, test=replace(r.test, name=f"{prefix}{i}"))
        for i, r in enumerate(records)
    ]


@settings(max_examples=150)
@given(a=RECORD_SETS, b=RECORD_SETS)
def test_merge_commutes_up_to_the_order_of_ties(a, b):
    a, b = _named(a, "a"), _named(b, "b")
    forward, backward = _merged(a, b), _merged(b, a)
    assert _entries(forward) == _entries(backward)
    wcrs = [r.wcr for r in a + b if not r.functional_failure]
    if len(set(wcrs)) == len(wcrs):
        assert forward["records"] == backward["records"]
    if not all(any(r.functional_failure for r in side) for side in (a, b)):
        assert forward["functional_failures"] == backward["functional_failures"]


@given(a=RECORD_SETS)
def test_a_self_merge_doubles_every_entry(a):
    database = _db(a)
    before = database.export_payload()
    database.merge(database)
    after = database.export_payload()
    assert after == _merged(a, a)
    assert sorted(set(_entries(after))) == sorted(set(_entries(before)))
    assert len(database) == 2 * len(before["records"])
    assert database.failure_count == 2 * len(before["functional_failures"])


def test_tied_records_rank_in_merge_order():
    """Why commutativity holds only up to ties: the ranking sort is stable."""
    a, b = [_record(0, "a", 0.9, False, "ga")], [_record(1, "b", 0.9, False, "nn")]
    names = [[r["test_name"] for r in _merged(*order)["records"]] for order in ((a, b), (b, a))]
    assert names == [["a", "b"], ["b", "a"]]

"""Column-native :class:`Datalog` against a deque-of-records reference.

``ReferenceDatalog`` is the record-per-measurement implementation the
column store replaced: a :class:`collections.deque` of frozen
:class:`DatalogRecord` objects, fed by the tester exactly as the
record-building ``ATE.apply``/``apply_batch`` did.  Hypothesis drives both
through the same mixes of ``append``, ``extend``, tester writes (scalar
``apply`` and batched ``apply_batch``), ``clear`` and ``capacity``, and every
reader must agree: ``len``, iteration, indexing, slicing, ``for_test``,
pass/fail counts, the exact ``to_csv`` text and the ``from_csv`` round trip.
"""

import collections
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ate import datalog as datalog_module
from repro.ate.datalog import Datalog, DatalogRecord
from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.device.memory_chip import MemoryTestChip
from repro.device.parameters import IDD_PEAK_PARAMETER, T_DQ_PARAMETER
from repro.patterns.conditions import ConditionSpace
from repro.patterns.random_gen import RandomTestGenerator


class ReferenceDatalog:
    """The deque-of-records datalog, kept as the behavioural reference."""

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._records = collections.deque(maxlen=capacity)

    @property
    def capacity(self):
        return self._records.maxlen

    def append(self, record):
        self._records.append(record)

    def extend(self, records):
        self._records.extend(records)

    # The tester's two writers, building one record per measurement as the
    # record-based ``ATE.apply`` and ``ATE.apply_batch`` did.
    def log_measurement(self, index, test_name, vdd, temperature, clock_period,
                        strobe_ns, passed):
        self.append(DatalogRecord(index=index, test_name=test_name, vdd=vdd,
                                  temperature=temperature, clock_period=clock_period,
                                  strobe_ns=strobe_ns, passed=passed))

    def log_batch(self, first_index, test_name, vdd, temperature, clock_period,
                  strobes_ns, passed):
        self.extend(
            DatalogRecord(index=first_index + k, test_name=test_name, vdd=vdd,
                          temperature=temperature, clock_period=clock_period,
                          strobe_ns=strobe, passed=ok)
            for k, (strobe, ok) in enumerate(zip(strobes_ns.tolist(), passed.tolist()))
        )

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records)[index]
        return self._records[index]

    def for_test(self, test_name):
        return [r for r in self._records if r.test_name == test_name]

    def pass_count(self):
        return sum(1 for r in self._records if r.passed)

    def fail_count(self):
        return len(self._records) - self.pass_count()

    def to_csv(self):
        buffer = io.StringIO()
        buffer.write(DatalogRecord.CSV_HEADER + "\n")
        for record in self._records:
            buffer.write(record.to_csv_row() + "\n")
        return buffer.getvalue()

    def clear(self):
        self._records.clear()


NAMES = ["t0", "t,1", 'q"2', ""]

records = st.builds(
    DatalogRecord,
    index=st.integers(-(2**40), 2**40),
    test_name=st.sampled_from(NAMES),
    vdd=st.floats(0.5, 3.0),
    temperature=st.floats(-40.0, 125.0),
    clock_period=st.floats(20.0, 100.0),
    strobe_ns=st.floats(-1e3, 1e3),
    passed=st.booleans(),
)
strobe_levels = st.lists(st.floats(10.0, 50.0), max_size=40)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), records),
        st.tuples(st.just("extend"), st.lists(records, max_size=12)),
        st.tuples(st.just("apply"), st.integers(0, 2), st.floats(10.0, 50.0)),
        st.tuples(st.just("apply_batch"), st.integers(0, 2), strobe_levels),
        st.tuples(st.just("clear")),
    ),
    max_size=25,
)
capacities = st.one_of(st.none(), st.integers(1, 50))
SLICES = [
    slice(None), slice(2, None), slice(-3, None), slice(None, -2), slice(1, -1),
    slice(-5, -1), slice(None, None, 2), slice(1, None, 2), slice(None, None, -1),
    slice(-2, 1, -1), slice(3, 3), slice(5, 2), slice(-100, 100),
]


def _tester_tests():
    """Three tests: two generated, one at a numpy-valued GA condition."""
    generated = RandomTestGenerator(seed=5).batch(2)
    ga_condition = ConditionSpace().denormalize(np.array([0.3, 0.6, 0.2]))
    return generated + [generated[0].with_condition(ga_condition)]


TESTS = _tester_tests()


def _ate(datalog, parameter):
    chip = MemoryTestChip(parameter=parameter)
    return ATE(chip, measurement=MeasurementModel(0.04, seed=11), datalog=datalog)


def _drive(log, ate, ops):
    for op in ops:
        kind = op[0]
        if kind == "append":
            log.append(op[1])
        elif kind == "extend":
            log.extend(iter(op[1]))
        elif kind == "apply":
            ate.apply(TESTS[op[1]], op[2])
        elif kind == "apply_batch":
            ate.apply_batch(TESTS[op[1]], op[2])
        else:
            log.clear()


def assert_same_log(log, reference):
    assert len(log) == len(reference)
    views = list(log)
    assert views == list(reference)
    for record in views:
        assert type(record.index) is int and type(record.test_name) is str
        assert all(type(v) is float for v in (record.vdd, record.temperature,
                                               record.clock_period, record.strobe_ns))
        assert type(record.passed) is bool
    n = len(reference)
    assert [log[i] for i in range(-n, n)] == [reference[i] for i in range(-n, n)]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            log[bad]
    for cut in SLICES:
        assert log[cut] == reference[cut], cut
    for name in NAMES + ["absent"]:
        assert log.for_test(name) == reference.for_test(name)
    assert log.pass_count() == reference.pass_count()
    assert log.fail_count() == reference.fail_count()
    text = log.to_csv()
    assert text == reference.to_csv()
    assert list(Datalog.from_csv(text)) == [
        DatalogRecord(r.index, r.test_name, float(f"{r.vdd:.4f}"),
                      float(f"{r.temperature:.2f}"), float(f"{r.clock_period:.2f}"),
                      float(f"{r.strobe_ns:.4f}"), bool(r.passed))
        for r in reference
    ]
    assert Datalog.from_csv(text).to_csv() == text


@settings(max_examples=60, deadline=None)
@given(capacity=capacities, ops=operations,
       parameter=st.sampled_from([T_DQ_PARAMETER, IDD_PEAK_PARAMETER]))
def test_column_log_matches_reference(capacity, ops, parameter):
    log, reference = Datalog(capacity), ReferenceDatalog(capacity)
    ate, reference_ate = _ate(log, parameter), _ate(reference, parameter)
    assert log.capacity == reference.capacity
    _drive(log, ate, ops)
    _drive(reference, reference_ate, ops)
    assert ate.measurement_count == reference_ate.measurement_count
    assert_same_log(log, reference)


@settings(max_examples=40, deadline=None)
@given(capacity=st.integers(1, 30), batches=st.lists(st.integers(0, 70), min_size=1,
                                                     max_size=6))
def test_batches_longer_than_capacity_keep_the_tail(capacity, batches):
    log, reference = Datalog(capacity), ReferenceDatalog(capacity)
    first = 1
    for size in batches:
        strobes = np.linspace(15.0, 45.0, size)
        passed = np.arange(size) % 3 == 0
        for target in (log, reference):
            target.log_batch(first, "sweep", 1.8, 25.0, 40.0, strobes, passed)
        first += size
    assert_same_log(log, reference)


def test_every_slice_form_on_an_evicting_log():
    log, reference = Datalog(capacity=7), ReferenceDatalog(capacity=7)
    for i in range(1, 20):
        record = DatalogRecord(i, NAMES[i % 4], 1.8, 25.0, 40.0, 20.0 + i, i % 2 == 0)
        log.append(record)
        reference.append(record)
    assert [r.index for r in log] == list(range(13, 20))
    for cut in SLICES:
        assert log[cut] == reference[cut], cut
    assert log[7:] == [] and log[::-1][0].index == 19


def test_slice_builds_only_the_records_it_returns(monkeypatch):
    log = Datalog()
    log.log_batch(1, "sweep", 1.8, 25.0, 40.0, np.linspace(15.0, 45.0, 500),
                  np.ones(500, dtype=bool))
    built = []

    def counting_record(*fields):
        built.append(fields[0])
        return DatalogRecord(*fields)

    monkeypatch.setattr(datalog_module, "DatalogRecord", counting_record)
    assert [r.index for r in log[495:]] == [496, 497, 498, 499, 500]
    assert [r.index for r in log[-3:-8:-2]] == [498, 496, 494]
    assert built == [496, 497, 498, 499, 500, 498, 496, 494]


def test_failed_write_leaves_columns_aligned():
    log = Datalog()
    log.log_measurement(1, "t", 1.8, 25.0, 40.0, 20.0, True)
    with pytest.raises(TypeError):
        log.log_measurement(2, "t", "not a voltage", 25.0, 40.0, 21.0, False)
    with pytest.raises(ValueError):
        log.log_batch(3, "t", 1.8, 25.0, 40.0, np.zeros(3), np.zeros(2, dtype=bool))
    assert [r.index for r in log] == [1]
    log.log_measurement(4, "t", 1.8, 25.0, 40.0, 22.0, False)
    assert [(r.index, r.passed) for r in log] == [(1, True), (4, False)]


def test_columns_are_copies_in_log_order():
    log = Datalog(capacity=3)
    for i in range(1, 6):
        log.log_measurement(i, f"t{i}", 1.8, 25.0, 40.0, 20.0 + i, i % 2 == 1)
    assert log.column("index").tolist() == [3, 4, 5]
    assert log.column("test_name") == ["t3", "t4", "t5"]
    assert log.column("passed").tolist() == [True, False, True]
    assert log.column("strobe_ns").dtype == np.float64
    log.column("strobe_ns")[0] = -1.0
    log.column("test_name").append("x")
    assert log[0].strobe_ns == 23.0 and len(log) == 3
    with pytest.raises(KeyError):
        log.column("operator")


def test_extend_with_itself_copies_once():
    log = Datalog(capacity=5)
    for i in (1, 2):
        log.log_measurement(i, "t", 1.8, 25.0, 40.0, 20.0, True)
    log.extend(log)
    assert [r.index for r in log] == [1, 2, 1, 2]
    log.extend(log)
    assert [r.index for r in log] == [2, 1, 2, 1, 2]

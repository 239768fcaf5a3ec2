"""Tests for the datalog and the pattern memory."""

import pytest

from repro.ate.datalog import Datalog, DatalogRecord
from repro.ate.pattern_memory import PatternMemory
from repro.patterns.vectors import Operation, TestVector, VectorSequence


def record(index=1, name="t", passed=True, strobe=20.0):
    return DatalogRecord(
        index=index,
        test_name=name,
        vdd=1.8,
        temperature=25.0,
        clock_period=40.0,
        strobe_ns=strobe,
        passed=passed,
    )


def make_sequence(cycles, address=0):
    return VectorSequence([TestVector(Operation.NOP, address, 0)] * cycles)


class TestDatalog:
    def test_append_and_len(self):
        log = Datalog()
        log.append(record(1))
        log.append(record(2))
        assert len(log) == 2

    def test_capacity_drops_oldest(self):
        log = Datalog(capacity=2)
        for i in range(1, 5):
            log.append(record(i))
        assert [r.index for r in log] == [3, 4]

    def test_for_test_filter(self):
        log = Datalog()
        log.append(record(1, name="a"))
        log.append(record(2, name="b"))
        log.append(record(3, name="a"))
        assert [r.index for r in log.for_test("a")] == [1, 3]

    def test_pass_fail_counts(self):
        log = Datalog()
        log.append(record(1, passed=True))
        log.append(record(2, passed=False))
        log.append(record(3, passed=False))
        assert log.pass_count() == 1
        assert log.fail_count() == 2

    def test_csv_roundtrip_shape(self):
        log = Datalog()
        log.append(record(1))
        csv = log.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == DatalogRecord.CSV_HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "t"

    def test_clear(self):
        log = Datalog()
        log.append(record(1))
        log.clear()
        assert len(log) == 0

    def test_capacity_property_and_validation(self):
        assert Datalog().capacity is None
        assert Datalog(capacity=7).capacity == 7
        with pytest.raises(ValueError):
            Datalog(capacity=0)

    def test_slicing_and_negative_index(self):
        log = Datalog()
        for i in range(1, 6):
            log.append(record(i))
        assert log[-1].index == 5
        assert [r.index for r in log[1:3]] == [2, 3]
        assert [r.index for r in log[::2]] == [1, 3, 5]

    def test_csv_roundtrip_with_commas_and_quotes_in_name(self):
        log = Datalog()
        log.append(record(1, name="sweep, vdd=1.8"))
        log.append(record(2, name='said "go", twice'))
        log.append(record(3, name="plain"))
        restored = Datalog.from_csv(log.to_csv())
        assert [r.test_name for r in restored] == [
            "sweep, vdd=1.8",
            'said "go", twice',
            "plain",
        ]
        assert [r.index for r in restored] == [1, 2, 3]

    def test_newline_in_name_rejected(self):
        log = Datalog()
        log.append(record(1, name="bad\nname"))
        with pytest.raises(ValueError):
            log.to_csv()

    def test_from_csv_errors_carry_line_numbers(self):
        log = Datalog()
        log.append(record(1))
        good = log.to_csv()
        # Line numbers refer to the file, header included.
        with pytest.raises(ValueError, match="line 3"):
            Datalog.from_csv(good + 'broken "row\n')
        with pytest.raises(ValueError, match="line 3"):
            Datalog.from_csv(good + "1,short\n")


class TestPatternMemory:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PatternMemory(capacity_cycles=0)

    def test_load_then_hit(self):
        memory = PatternMemory()
        seq = make_sequence(10)
        assert memory.load(seq) is True
        assert memory.load(seq) is False
        assert memory.load_count == 1
        assert memory.hit_count == 1

    def test_oversized_sequence_rejected(self):
        memory = PatternMemory(capacity_cycles=5)
        with pytest.raises(ValueError, match="exceeds"):
            memory.load(make_sequence(10))

    def test_lru_eviction(self):
        memory = PatternMemory(capacity_cycles=25)
        a, b, c = (make_sequence(10, address) for address in range(3))
        memory.load(a)
        memory.load(b)
        memory.load(c)  # evicts a (oldest)
        assert not memory.is_resident(a)
        assert memory.is_resident(b)
        assert memory.is_resident(c)
        assert memory.used_cycles == 20

    def test_hit_refreshes_lru_order(self):
        memory = PatternMemory(capacity_cycles=25)
        a, b, c = (make_sequence(10, address) for address in range(3))
        memory.load(a)
        memory.load(b)
        memory.load(a)  # refresh a; b becomes oldest
        memory.load(c)
        assert memory.is_resident(a)
        assert not memory.is_resident(b)

    def test_loaded_cycles_accounting(self):
        memory = PatternMemory()
        memory.load(make_sequence(10))
        memory.load(make_sequence(20))
        assert memory.loaded_cycles_total == 30

    def test_equal_content_is_resident(self):
        memory = PatternMemory()
        seq = make_sequence(10)
        memory.load(seq)
        assert memory.is_resident(make_sequence(10))
        assert memory.load(seq.with_name("copy")) is False
        assert memory.load_count == 1

    def test_clear_keeps_counters(self):
        memory = PatternMemory()
        memory.load(make_sequence(10))
        memory.clear()
        assert memory.resident_count == 0
        assert memory.load_count == 1

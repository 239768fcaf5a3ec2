"""The scalar measurement face against its reference model.

``ATE.apply`` resolves each probe through three memos (pattern memory, the
chip's functional memo and its static memo), and each returns at once when
asked for the very object it resolved last.  The shortcut is exact because
the newest entry is always the last lookup, so the pop-and-re-insert it
skips changes nothing.  These properties drive one tester built on the
shortcut and one built on the memos of ``tests/ate/memo_reference.py``
through the same generated interleavings, with the same objects, and
compare everything either can observe after every step.

The strobe quantization lost its ``np.clip``; its reference is the numpy
form, compared bit for bit.
"""

import copy
import math
import pickle
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ate.measurement import MeasurementModel
from repro.ate.pattern_memory import PatternMemory
from repro.ate.tester import ATE
from repro.ate.timing_generator import TimingGenerator
from repro.device.faults import StuckAtFault
from repro.device.memory_chip import MemoryTestChip
from repro.device.parameters import F_MAX_PARAMETER, IDD_PEAK_PARAMETER, T_DQ_PARAMETER
from repro.patterns.conditions import TestCondition
from repro.patterns.random_gen import RandomTestGenerator
from tests.ate.memo_reference import ReferenceChip, ReferencePatternMemory

DECK_SIZE = 5
#: Holds two to four deck patterns, so loads evict.
CAPACITY_CYCLES = 450
#: Chip memo size while the properties run, so the memos evict too.
SMALL_MEMO = 3

_DECK = RandomTestGenerator(seed=21, min_cycles=100, max_cycles=200).batch(DECK_SIZE)
_OVERSIZE = RandomTestGenerator(seed=22, min_cycles=500, max_cycles=500).generate()

_INDEX = st.integers(0, DECK_SIZE - 1)
_STROBE = st.floats(10.0, 50.0)
STEPS = st.one_of(
    st.tuples(st.just("apply"), _INDEX, _STROBE),
    st.tuples(st.just("apply_renamed"), _INDEX, _STROBE),
    st.tuples(st.just("apply_pickled"), _INDEX, _STROBE),
    st.tuples(st.just("apply_condition_copy"), _INDEX, _STROBE),
    st.tuples(st.just("apply_batch"), _INDEX, st.lists(_STROBE, max_size=4)),
    st.tuples(st.just("functional_test"), _INDEX),
    st.tuples(st.just("run_functional"), _INDEX),
    st.tuples(st.just("clear")),
    st.tuples(st.just("evict")),
    st.tuples(st.just("oversize"), _STROBE),
    st.tuples(st.just("pickle_chip")),
    st.tuples(st.just("deepcopy_chip")),
)
CHIPS = st.tuples(
    st.sampled_from([T_DQ_PARAMETER, F_MAX_PARAMETER, IDD_PEAK_PARAMETER]),
    st.sampled_from([(), (StuckAtFault(word=3, bit=0, stuck_value=1),)]),
)


def _tester(chip_class, memory_class, parameter, faults):
    chip = chip_class(parameter=parameter, faults=faults)
    return ATE(
        chip,
        measurement=MeasurementModel(0.04, seed=3),
        pattern_memory=memory_class(CAPACITY_CYCLES),
    )


def _operand(step, evictor):
    """The object a step passes to both testers, made once per step."""
    kind = step[0]
    if kind in ("clear", "pickle_chip", "deepcopy_chip"):
        return None
    if kind == "evict":
        return evictor.generate()
    if kind == "oversize":
        return _OVERSIZE
    test = _DECK[step[1]]
    if kind == "apply_renamed":
        return replace(test, sequence=test.sequence.with_name("renamed"))
    if kind == "apply_pickled":
        return pickle.loads(pickle.dumps(test))
    if kind == "apply_condition_copy":
        return replace(test, condition=TestCondition(**test.condition.as_dict()))
    return test


def _run(ate, step, operand):
    """Apply one step to one tester; returns what the caller would see."""
    kind = step[0]
    if kind == "clear":
        ate.pattern_memory.clear()
    elif kind == "evict":
        # A pattern made for this step fills the memory on its own.
        return ate.functional_test(operand)
    elif kind == "pickle_chip":
        ate.chip = pickle.loads(pickle.dumps(ate.chip))
    elif kind == "deepcopy_chip":
        ate.chip = copy.deepcopy(ate.chip)
    elif kind == "oversize":
        with pytest.raises(ValueError, match="exceeds pattern memory"):
            ate.apply(operand, step[1])
    elif kind == "apply_batch":
        return ate.apply_batch(operand, step[2]).tolist()
    elif kind == "functional_test":
        return ate.functional_test(operand)
    elif kind == "run_functional":
        return ate.chip.run_functional(operand.sequence)
    else:
        return ate.apply(operand, step[2])
    return None


def _keys(memo):
    """Identities of a memo's keys, oldest first (a static key is a pair)."""
    return [
        tuple(id(part) for part in key) if isinstance(key, tuple) else id(key)
        for key in memo
    ]


def _observables(ate):
    memory, chip = ate.pattern_memory, ate.chip
    return {
        "memory": (
            memory.load_count, memory.hit_count, memory.loaded_cycles_total,
            memory.used_cycles,
        ),
        "resident": _keys(memory._resident),
        "functional_memo": _keys(chip._functional_cache),
        "static_memo": _keys(chip._static_cache),
        "tester": (ate.measurement_count, ate.functional_count, ate.executed_cycles_total),
        "datalog": ate.datalog.to_csv(),
        "noise": ate.measurement._rng.bit_generator.state,
        "heating": chip.timing.heating.derating_ns,
    }


@settings(max_examples=120, deadline=None)
@given(chip=CHIPS, steps=st.lists(STEPS, max_size=30))
@example(chip=(T_DQ_PARAMETER, ()), steps=[("apply", 0, 20.0), ("clear",), ("apply", 0, 20.0)])
@example(
    chip=(T_DQ_PARAMETER, ()),
    steps=[("apply", 0, 20.0), ("pickle_chip",), ("apply", 0, 20.0)],
)
def test_interleavings_match_the_reference(chip, steps):
    parameter, faults = chip
    with mock.patch.object(MemoryTestChip, "_MEMO_SIZE", SMALL_MEMO):
        shortcut = _tester(MemoryTestChip, PatternMemory, parameter, faults)
        reference = _tester(ReferenceChip, ReferencePatternMemory, parameter, faults)
        evictor = RandomTestGenerator(
            seed=23, min_cycles=CAPACITY_CYCLES, max_cycles=CAPACITY_CYCLES
        )
        for step in steps:
            operand = _operand(step, evictor)
            seen = _run(shortcut, step, operand)
            assert seen == _run(reference, step, operand), step
            assert _observables(shortcut) == _observables(reference), step


def test_a_shipped_chip_carries_no_sequence():
    """The newest entries go with the memos when a chip is pickled or
    deep-copied (farm units, correctness snapshots): the copy is exactly as
    large as a chip that never probed anything."""
    chip = MemoryTestChip()
    for test in _DECK:
        chip.run_functional(test.sequence)
        chip.true_parameter_value(test, account_heating=False)
    assert len(pickle.dumps(chip)) == len(pickle.dumps(MemoryTestChip()))
    clone = copy.deepcopy(chip)
    assert clone._newest_functional is None and clone._newest_static is None


# -- quantization without numpy ---------------------------------------------------------
def _numpy_quantize(generator, edge_ns):
    """``TimingGenerator.quantize`` with its former ``np.clip`` clamp."""
    clamped = float(np.clip(edge_ns, generator.min_edge_ns, generator.max_edge_ns))
    steps = round(clamped / generator.resolution_ns)
    return float(steps * generator.resolution_ns)


def _bits(value):
    return type(value), struct.pack("<d", value)


GENERATORS = st.sampled_from([
    TimingGenerator(),
    TimingGenerator(resolution_ns=0.01, min_edge_ns=-5.0, max_edge_ns=0.0),
    TimingGenerator(resolution_ns=0.125, min_edge_ns=-0.0, max_edge_ns=60.0),
])
EDGES = st.one_of(
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-10**15, 10**15),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 200.0, 200.025, -1e-300]),
)


@given(generator=GENERATORS, edge=EDGES)
def test_quantize_matches_the_numpy_clamp(generator, edge):
    assert _bits(generator.quantize(edge)) == _bits(_numpy_quantize(generator, edge))


@pytest.mark.parametrize("nan", [math.nan, -math.nan, np.float64("nan")])
def test_quantize_rejects_nan_as_the_numpy_clamp_did(nan):
    generator = TimingGenerator()
    with pytest.raises(ValueError) as shortcut:
        generator.quantize(nan)
    with pytest.raises(ValueError) as reference:
        _numpy_quantize(generator, nan)
    assert str(shortcut.value) == str(reference.value)

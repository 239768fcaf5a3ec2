"""Seeded parity suite: batched vs scalar measurement paths.

The batched measurement engine's hard contract (see docs/performance.md):
under the same seeds, batched and scalar evaluation produce bit-identical
trip points, identical pass/fail maps, and identical measurement counts.
Every test here runs the same campaign twice — once through the scalar
``ATE.apply`` loop, once through the batched faces — and asserts exact
equality.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ate.measurement import MeasurementModel
from repro.ate.shmoo import ShmooPlotter
from repro.ate.tester import ATE
from repro.ate.timing_generator import TimingGenerator
from repro.core.sutp import SearchUntilTripPoint
from repro.core.wcr import WCRScreen
from repro.device.faults import StuckAtFault
from repro.device.memory_chip import MemoryTestChip
from repro.device.parameters import F_MAX_PARAMETER, IDD_PEAK_PARAMETER, T_DQ_PARAMETER
from repro.device.timing import SelfHeatingModel
from repro.patterns.random_gen import RandomTestGenerator
from repro.search.oracles import CountingOracle, majority_oracle, make_ate_oracle
from repro.search.successive import SuccessiveApproximation

SEARCH_RANGE = (15.0, 45.0)


def _tests(n=8, seed=9):
    return RandomTestGenerator(seed=seed).batch(n)


def _fresh_ate(seed=3, noise=0.04, **chip_kwargs):
    chip = MemoryTestChip(**chip_kwargs)
    return ATE(chip, measurement=MeasurementModel(noise, seed=seed))


def _datalog_rows(ate):
    return [(r.index, r.test_name, r.strobe_ns, r.passed) for r in ate.datalog]


# -- primitive draw-order / quantization contracts -----------------------------------
def test_noise_draw_order_contract():
    """One block draw == n sequential draws, bit for bit (the contract
    everything else rests on)."""
    scalar = MeasurementModel(0.07, seed=42)
    batched = MeasurementModel(0.07, seed=42)
    true_values = np.linspace(20.0, 30.0, 64)
    sequential = np.array([scalar.observed_value(v) for v in true_values])
    block = batched.observed_values(true_values)
    assert sequential.tolist() == block.tolist()
    # and the streams stay aligned afterwards
    assert scalar.observed_value(25.0) == batched.observed_value(25.0)


def test_noise_zero_sigma_consumes_nothing():
    model = MeasurementModel(0.0, seed=1)
    values = np.array([20.0, 21.0])
    assert model.observed_values(values).tolist() == values.tolist()


def test_quantize_many_matches_scalar():
    gen = TimingGenerator(resolution_ns=0.05, min_edge_ns=0.0, max_edge_ns=200.0)
    edges = np.concatenate(
        [np.linspace(-5.0, 205.0, 4211), np.array([0.025, 0.075, 33.125])]
    )
    batched = gen.quantize_many(edges)
    scalar = [gen.quantize(float(e)) for e in edges]
    assert batched.tolist() == scalar


def test_derating_sequence_matches_apply_loop():
    a, b = SelfHeatingModel(), SelfHeatingModel()
    seq = b.derating_sequence(0.7, 40)
    scalar = []
    for _ in range(40):
        a.apply(0.7)
        scalar.append(a.derating_ns)
    assert seq.tolist() == scalar
    assert a.rise_kelvin == b.rise_kelvin


# -- chip-level parametric face ------------------------------------------------------
@pytest.mark.parametrize(
    "chip_kwargs",
    [{}, {"parameter": F_MAX_PARAMETER}, {"parameter": IDD_PEAK_PARAMETER}],
    ids=["t_dq", "f_max", "idd_peak"],
)
def test_true_parameter_values_match_scalar(chip_kwargs):
    test = _tests(1)[0]
    scalar_chip = MemoryTestChip(**chip_kwargs)
    batch_chip = MemoryTestChip(**chip_kwargs)
    scalar = [scalar_chip.true_parameter_value(test) for _ in range(25)]
    batch = batch_chip.true_parameter_values(test, 25)
    assert batch.tolist() == scalar
    # thermal state advanced identically: the next scalar values agree too
    assert (
        batch_chip.true_parameter_value(test)
        == scalar_chip.true_parameter_value(test)
    )


def test_apply_batch_functional_failure_consumes_no_noise():
    from repro.device.faults import StuckAtFault
    from repro.patterns.conditions import NOMINAL_CONDITION
    from repro.patterns.march import compile_march, get_march_test
    from repro.patterns.testcase import TestCase

    test = TestCase(
        compile_march(get_march_test("march_c-")), NOMINAL_CONDITION,
        name="march_c-",
    )
    probe_model = MeasurementModel(0.04, seed=8)
    before = probe_model.observed_value(0.0)
    chip2 = MemoryTestChip(faults=(StuckAtFault(word=0, bit=0, stuck_value=1),))
    ate2 = ATE(chip2, measurement=MeasurementModel(0.04, seed=8))
    result = ate2.apply_batch(test, np.linspace(15.0, 45.0, 10))
    assert not result.any()
    # the batch drew no noise: the stream's first draw is still available
    assert ate2.measurement.observed_value(0.0) == before
    assert ate2.measurement_count == 10


# -- full campaign parity ------------------------------------------------------------
def test_grid_parity_pass_maps_counts_datalog():
    tests = _tests(4)
    strobes = np.linspace(15.0, 45.0, 301)

    scalar_ate = _fresh_ate()
    scalar_maps = [
        [scalar_ate.apply(t, float(s)) for s in strobes] for t in tests
    ]
    batched_ate = _fresh_ate()
    batched_maps = [batched_ate.apply_batch(t, strobes).tolist() for t in tests]

    assert scalar_maps == batched_maps
    assert scalar_ate.measurement_count == batched_ate.measurement_count
    assert scalar_ate.executed_cycles_total == batched_ate.executed_cycles_total
    assert _datalog_rows(scalar_ate) == _datalog_rows(batched_ate)


def test_sutp_parity_scalar_vs_batch_capable_oracle():
    """SUTP (bootstrap + walk + refine) with a plain callable vs the
    batch-protocol ATE oracle: identical trip points and counts."""
    tests = _tests(10)

    def campaign(batch_capable):
        ate = _fresh_ate()
        sutp = SearchUntilTripPoint(SEARCH_RANGE, resolution=0.05)
        out = []
        for t in tests:
            if batch_capable:
                oracle = make_ate_oracle(ate, t)
            else:
                oracle = lambda s, t=t: ate.apply(t, s)  # noqa: E731
            r = sutp.measure(oracle)
            out.append((r.trip_point, r.measurements, r.used_full_search))
        return out, ate.measurement_count, _datalog_rows(ate)

    scalar, scalar_count, scalar_log = campaign(False)
    batched, batched_count, batched_log = campaign(True)
    assert scalar == batched
    assert scalar_count == batched_count
    assert scalar_log == batched_log


def test_successive_approximation_records_batched_openers():
    tests = _tests(1)
    ate = _fresh_ate()
    sa = SuccessiveApproximation(resolution=0.05)
    outcome = sa.search(make_ate_oracle(ate, tests[0]), *SEARCH_RANGE)
    assert outcome.found
    # history still records the opener probes first, in order
    assert outcome.history[0][0] == SEARCH_RANGE[0]
    assert outcome.history[1][0] == 0.5 * (SEARCH_RANGE[0] + SEARCH_RANGE[1])
    assert outcome.measurements == len(outcome.history)
    assert outcome.measurements == ate.measurement_count


def test_majority_oracle_parity_and_counts():
    tests = _tests(3)

    def campaign(batch_capable):
        ate = _fresh_ate(noise=0.08, seed=5)
        sa = SuccessiveApproximation(resolution=0.05)
        out = []
        for t in tests:
            base = (
                make_ate_oracle(ate, t)
                if batch_capable
                else (lambda s, t=t: ate.apply(t, s))
            )
            counting = CountingOracle(base)
            voted = majority_oracle(counting, votes=3)
            r = sa.search(voted, *SEARCH_RANGE)
            out.append((r.trip_point, r.measurements, counting.count))
        return out, ate.measurement_count

    scalar, scalar_count = campaign(False)
    batched, batched_count = campaign(True)
    assert scalar == batched
    assert scalar_count == batched_count
    for _, decisions, underlying in scalar:
        assert underlying == 3 * decisions


def test_shmoo_sweep_engine_parity():
    test = _tests(1)[0]
    strobes = np.linspace(15.0, 45.0, 121)
    vdds = [1.6, 1.8, 2.0]

    scalar_ate = _fresh_ate(seed=2)
    scalar = ShmooPlotter(scalar_ate).sweep(test, vdds, strobes, engine="scalar")
    batched_ate = _fresh_ate(seed=2)
    batched = ShmooPlotter(batched_ate).sweep(
        test, vdds, strobes, engine="batched"
    )
    assert scalar.counts.tolist() == batched.counts.tolist()
    assert scalar_ate.measurement_count == batched_ate.measurement_count
    assert _datalog_rows(scalar_ate) == _datalog_rows(batched_ate)


def test_wcr_screen_engine_parity():
    tests = _tests(6)

    def screen(engine):
        ate = _fresh_ate(seed=7)
        report = WCRScreen(ate).run(tests, *SEARCH_RANGE, 0.25, engine=engine)
        return report, ate.measurement_count, _datalog_rows(ate)

    scalar, scalar_count, scalar_log = screen("scalar")
    batched, batched_count, batched_log = screen("batched")
    assert scalar == batched
    assert scalar_count == batched_count
    assert scalar_log == batched_log


def test_interleaved_scalar_and_batched_calls_share_one_stream():
    """Mixing the two faces mid-campaign keeps the streams aligned."""
    tests = _tests(4)
    strobes = np.linspace(15.0, 45.0, 101)

    reference = _fresh_ate(seed=11)
    ref_maps = [[reference.apply(t, float(s)) for s in strobes] for t in tests]

    mixed = _fresh_ate(seed=11)
    mixed_maps = []
    for i, t in enumerate(tests):
        if i % 2:
            mixed_maps.append(mixed.apply_batch(t, strobes).tolist())
        else:
            mixed_maps.append([mixed.apply(t, float(s)) for s in strobes])
    assert ref_maps == mixed_maps
    assert reference.measurement_count == mixed.measurement_count


def test_static_cache_is_bounded_and_pickle_clean():
    chip = MemoryTestChip()
    tests = RandomTestGenerator(seed=1).batch(chip._MEMO_SIZE + 40)
    for t in tests:
        chip.true_parameter_value(t)
    assert len(chip._static_cache) <= chip._MEMO_SIZE
    clone = pickle.loads(pickle.dumps(chip))
    assert len(clone._static_cache) == 0
    # the clone still answers (cold cache)
    assert isinstance(clone.true_parameter_value(tests[-1]), float)


# -- content-keyed memos --------------------------------------------------------------
def _copies(test):
    """Two distinct objects with ``test``'s content: a renamed sequence
    copy and a pickle round-trip."""
    renamed = replace(test, sequence=test.sequence.with_name("copy"))
    return renamed, pickle.loads(pickle.dumps(test))


def test_functional_memo_is_bounded():
    chip = MemoryTestChip()
    tests = RandomTestGenerator(seed=1, max_cycles=200).batch(chip._MEMO_SIZE + 40)
    for t in tests:
        chip.run_functional(t.sequence)
    assert len(chip._functional_cache) == chip._MEMO_SIZE


def test_equal_content_through_distinct_objects_loads_once():
    test = _tests(1)[0]
    copies = _copies(test)
    assert all(twin.sequence is not test.sequence for twin in copies)
    ate = _fresh_ate()
    for probe in (test,) + copies:
        ate.apply(probe, 25.0)
    assert ate.pattern_memory.load_count == 1
    assert ate.pattern_memory.hit_count == 2
    assert len(ate.chip._functional_cache) == 1
    assert len(ate.chip._static_cache) == 1


def _memo_deck():
    """More distinct tests than the chip memos hold, plus equal-content
    copies: one right after its original (a memo hit through a distinct
    object) and one after the whole deck (its original long evicted)."""
    base = RandomTestGenerator(seed=21, min_cycles=100, max_cycles=160).batch(
        MemoryTestChip._MEMO_SIZE + 12
    )
    deck = []
    for test in base:
        deck.append(test)
        if len(deck) % 10 == 1:
            deck.append(_copies(test)[0])
    return deck + [_copies(test)[1] for test in base[:6]]


_MEMO_DECK = _memo_deck()


@settings(max_examples=20, deadline=None)
@given(
    strobes=st.lists(st.floats(15.0, 45.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
    parameter=st.sampled_from([T_DQ_PARAMETER, F_MAX_PARAMETER, IDD_PEAK_PARAMETER]),
    faulty=st.booleans(),
)
def test_batched_matches_scalar_over_a_memo_evicting_deck(
    strobes, seed, parameter, faulty
):
    """Batched ≡ scalar for any strobe grid, noise seed, parameter and
    die, across memo eviction, recompute and equal-content copies."""
    # Eight stuck words fail about one test in seven functionally.
    faults = [StuckAtFault(word=w, bit=0, stuck_value=1) for w in range(8)]
    faults = faults if faulty else []

    def campaign(batched):
        ate = _fresh_ate(seed=seed, parameter=parameter, faults=faults)
        maps = [
            ate.apply_batch(t, strobes).tolist()
            if batched
            else [ate.apply(t, s) for s in strobes]
            for t in _MEMO_DECK
        ]
        counts = (
            ate.measurement_count,
            ate.executed_cycles_total,
            ate.pattern_memory.load_count,
        )
        return maps, _datalog_rows(ate), counts

    assert campaign(batched=False) == campaign(batched=True)

"""Tests for the timing model and self-heating drift."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.process import ProcessCorner, ProcessInstance
from repro.device.sensitivity import SensitivityModel
from repro.device.timing import SelfHeatingModel, TimingConfig, TimingModel
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.features import FEATURE_NAMES, PatternFeatures

import numpy as np


def features_with(**kwargs):
    values = np.zeros(len(FEATURE_NAMES))
    for name, value in kwargs.items():
        values[FEATURE_NAMES.index(name)] = value
    return PatternFeatures(values)


@pytest.fixture
def model():
    return TimingModel(SensitivityModel())


QUIET = features_with()


class TestEnvironmentalDerating:
    def test_quiet_nominal_equals_base(self, model):
        value = model.t_dq_ns(QUIET, NOMINAL_CONDITION, account_heating=False)
        assert value == pytest.approx(model.config.base_ns, abs=0.01)

    def test_lower_vdd_shrinks_window(self, model):
        nominal = model.t_dq_ns(QUIET, NOMINAL_CONDITION, account_heating=False)
        low = model.t_dq_ns(
            QUIET, NOMINAL_CONDITION.with_vdd(1.5), account_heating=False
        )
        assert low < nominal
        # 0.3 V droop at 5 ns/V is 1.5 ns.
        assert nominal - low == pytest.approx(1.5, abs=0.05)

    def test_higher_temperature_shrinks_window(self, model):
        import dataclasses

        hot = dataclasses.replace(NOMINAL_CONDITION, temperature=125.0)
        assert model.t_dq_ns(hot and QUIET, hot, account_heating=False) < (
            model.t_dq_ns(QUIET, NOMINAL_CONDITION, account_heating=False)
        )

    def test_slow_corner_die_has_smaller_window(self, model):
        ss_die = ProcessInstance(die_id=1, corner=ProcessCorner.SS)
        ff_die = ProcessInstance(die_id=2, corner=ProcessCorner.FF)
        ss = model.t_dq_ns(QUIET, NOMINAL_CONDITION, ss_die, account_heating=False)
        ff = model.t_dq_ns(QUIET, NOMINAL_CONDITION, ff_die, account_heating=False)
        assert ss < ff

    def test_weakness_amplified_by_undervoltage(self, model):
        weak = features_with(
            peak_window_activity=1.0,
            read_after_write_rate=0.6,
            addr_msb_toggle_rate=0.8,
        )
        nominal_drop = model.config.base_ns - model.t_dq_ns(
            weak, NOMINAL_CONDITION, account_heating=False
        )
        low_vdd = NOMINAL_CONDITION.with_vdd(1.4)
        low_drop = (
            model.config.base_ns
            + model.environmental_shift_ns(low_vdd, ProcessInstance(0))
            - model.t_dq_ns(weak, low_vdd, account_heating=False)
        )
        assert low_drop > nominal_drop  # extra weakness beyond the linear derating


class TestSelfHeating:
    def test_heating_accumulates_and_saturates(self):
        heater = SelfHeatingModel(
            heating_per_application=1.0, decay=1.0, max_rise_kelvin=3.0
        )
        for _ in range(10):
            heater.apply(activity=1.0)
        assert heater.rise_kelvin == pytest.approx(3.0)

    def test_quiet_patterns_do_not_heat(self):
        heater = SelfHeatingModel()
        heater.apply(activity=0.0)
        assert heater.rise_kelvin == pytest.approx(0.0)

    def test_decay_cools_between_applications(self):
        heater = SelfHeatingModel(heating_per_application=1.0, decay=0.5)
        heater.apply(1.0)  # 1.0
        heater.apply(0.0)  # 0.5
        assert heater.rise_kelvin == pytest.approx(0.5)

    def test_reset(self):
        heater = SelfHeatingModel(heating_per_application=1.0)
        heater.apply(1.0)
        heater.reset()
        assert heater.rise_kelvin == pytest.approx(0.0)

    def test_repeated_measurement_drifts_t_dq(self, model):
        """The drift successive approximation must cope with is real."""
        busy = features_with(peak_window_activity=1.0)
        first = model.t_dq_ns(busy, NOMINAL_CONDITION)
        for _ in range(200):
            model.t_dq_ns(busy, NOMINAL_CONDITION)
        later = model.t_dq_ns(busy, NOMINAL_CONDITION)
        assert later < first

    def test_account_heating_flag(self, model):
        busy = features_with(peak_window_activity=1.0)
        for _ in range(50):
            model.t_dq_ns(busy, NOMINAL_CONDITION, account_heating=False)
        assert model.heating.rise_kelvin == pytest.approx(0.0)

    def test_model_reset_cools(self, model):
        busy = features_with(peak_window_activity=1.0)
        for _ in range(20):
            model.t_dq_ns(busy, NOMINAL_CONDITION)
        model.reset()
        assert model.heating.rise_kelvin == pytest.approx(0.0)


CAP = 12.0
START_RISES = st.one_of(
    st.sampled_from([0.0, CAP, CAP - 1e-9, CAP - 0.15, CAP + 1.0]),
    st.floats(0.0, 2 * CAP),
)


@settings(max_examples=300, deadline=None)
@given(
    start=START_RISES,
    activity=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    count=st.integers(0, 700),
    decay=st.sampled_from([0.98, 1.0, 0.5]),
    heating=st.sampled_from([0.15, 1.0, 0.0]),
)
def test_derating_sequence_equals_apply_loop(start, activity, count, decay, heating):
    """Each derating and the final state equal ``count`` scalar applies, bit for bit."""
    kwargs = dict(heating_per_application=heating, decay=decay, max_rise_kelvin=CAP)
    batched = SelfHeatingModel(**kwargs, _rise_kelvin=start)
    scalar = SelfHeatingModel(**kwargs, _rise_kelvin=start)
    expected = []
    for _ in range(count):
        scalar.apply(activity)
        expected.append(scalar.derating_ns)
    deratings = batched.derating_sequence(activity, count)
    assert deratings.dtype == np.float64 and deratings.shape == (count,)
    assert deratings.tolist() == expected
    assert batched.rise_kelvin == scalar.rise_kelvin


class TestCalibration:
    """Guard the Table-1 calibration of the default surface (DESIGN.md)."""

    def test_march_c_lands_near_paper_value(self, model):
        from repro.patterns.march import compile_march, get_march_test
        from repro.patterns.features import extract_features

        features = extract_features(compile_march(get_march_test("march_c-")))
        value = model.t_dq_ns(features, NOMINAL_CONDITION, account_heating=False)
        assert 31.5 < value < 33.0  # paper: 32.3 ns

    def test_block_worst_case_lands_near_paper_value(self, model):
        """A crafted hot-window + RAW-block pattern reaches ~22 ns."""
        from repro.patterns.features import extract_features
        from repro.patterns.vectors import Operation, TestVector, VectorSequence

        vectors = []
        word, addr = 0, 0
        for _ in range(120):  # hot full-toggle window
            word ^= 0xFF
            addr ^= 0x3FF
            vectors.append(TestVector(Operation.WRITE, addr, word))
        while len(vectors) < 600:  # same-address RAW pairs, MSB hopping
            word ^= 0xFF
            addr ^= 0x200
            vectors.append(TestVector(Operation.WRITE, addr, word))
            vectors.append(TestVector(Operation.READ, addr, 0))
        features = extract_features(VectorSequence(vectors))
        value = model.t_dq_ns(features, NOMINAL_CONDITION, account_heating=False)
        assert 21.0 < value < 23.5  # paper NN+GA: 22.1 ns

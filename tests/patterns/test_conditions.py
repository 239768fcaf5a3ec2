"""Tests for test conditions and the condition space."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.patterns.conditions import (
    ConditionSpace,
    NOMINAL_CONDITION,
    TestCondition,
)


class TestTestCondition:
    def test_nominal_is_paper_operating_point(self):
        assert NOMINAL_CONDITION.vdd == pytest.approx(1.8)

    def test_validate_accepts_nominal(self):
        NOMINAL_CONDITION.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vdd": 0.0},
            {"vdd": -1.0},
            {"clock_period": 0.0},
            {"temperature": 500.0},
            {"temperature": -200.0},
        ],
    )
    def test_validate_rejects_nonphysical(self, kwargs):
        with pytest.raises(ValueError):
            TestCondition(**{**NOMINAL_CONDITION.as_dict(), **kwargs}).validate()

    def test_with_vdd_preserves_other_axes(self):
        shifted = NOMINAL_CONDITION.with_vdd(1.5)
        assert shifted.vdd == 1.5
        assert shifted.temperature == NOMINAL_CONDITION.temperature
        assert shifted.clock_period == NOMINAL_CONDITION.clock_period

    def test_as_dict_keys(self):
        assert set(NOMINAL_CONDITION.as_dict()) == {
            "vdd",
            "temperature",
            "clock_period",
        }


class TestConditionSpace:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            ConditionSpace(vdd_range=(2.0, 1.5))

    def test_contains_nominal(self, condition_space):
        assert condition_space.contains(NOMINAL_CONDITION)

    def test_contains_excludes_out_of_range(self, condition_space):
        assert not condition_space.contains(NOMINAL_CONDITION.with_vdd(3.0))

    def test_clamp_projects_into_space(self, condition_space):
        wild = TestCondition(vdd=9.0, temperature=200.0, clock_period=1.0)
        clamped = condition_space.clamp(wild)
        assert condition_space.contains(clamped)
        assert clamped.vdd == condition_space.vdd_range[1]

    def test_clamp_is_identity_inside(self, condition_space):
        assert condition_space.clamp(NOMINAL_CONDITION) == NOMINAL_CONDITION

    def test_sample_inside_space(self, condition_space, rng):
        for _ in range(50):
            assert condition_space.contains(condition_space.sample(rng))

    def test_sample_reproducible(self, condition_space):
        a = condition_space.sample(np.random.default_rng(5))
        b = condition_space.sample(np.random.default_rng(5))
        assert a == b

    def test_corners_count_and_membership(self, condition_space):
        corners = condition_space.corners()
        assert len(corners) == 8
        assert all(condition_space.contains(c) for c in corners)

    def test_normalize_bounds(self, condition_space):
        low = TestCondition(
            vdd=condition_space.vdd_range[0],
            temperature=condition_space.temperature_range[0],
            clock_period=condition_space.clock_period_range[0],
        )
        high = TestCondition(
            vdd=condition_space.vdd_range[1],
            temperature=condition_space.temperature_range[1],
            clock_period=condition_space.clock_period_range[1],
        )
        assert np.allclose(condition_space.normalize(low), 0.0)
        assert np.allclose(condition_space.normalize(high), 1.0)

    def test_denormalize_rejects_bad_shape(self, condition_space):
        with pytest.raises(ValueError):
            condition_space.denormalize(np.zeros(4))

    @given(
        genes=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3
        )
    )
    def test_normalize_denormalize_roundtrip(self, genes):
        """denormalize and normalize are mutual inverses on [0,1]^3."""
        space = ConditionSpace()
        condition = space.denormalize(np.array(genes))
        recovered = space.normalize(condition)
        assert np.allclose(recovered, genes, atol=1e-9)

    @given(
        vdd=st.floats(1.4, 2.2),
        temp=st.floats(-40.0, 125.0),
        period=st.floats(25.0, 80.0),
    )
    def test_clamp_idempotent(self, vdd, temp, period):
        space = ConditionSpace()
        condition = TestCondition(vdd=vdd, temperature=temp, clock_period=period)
        assert space.clamp(space.clamp(condition)) == space.clamp(condition)

    @given(
        values=st.lists(st.floats() | st.sampled_from([0.0, -0.0]), min_size=3, max_size=3),
        low=st.sampled_from([-0.0, 0.0, -40.0, 1.4]),
    )
    def test_clamp_is_bit_identical_to_np_clip(self, values, low):
        """Signed zeros at a bound, NaN and infinities included."""
        space = ConditionSpace((low, 2.2), (low, 125.0), (low, 80.0))
        clamped = space.clamp(TestCondition(*values)).as_dict().values()
        reference = [float(np.clip(v, low, high)) for v, high in zip(values, (2.2, 125.0, 80.0))]
        assert [struct.pack("<d", v) for v in clamped] == [
            struct.pack("<d", v) for v in reference
        ]

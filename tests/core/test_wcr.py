"""Tests for the Worst-Case Ratio (eqs. 5/6) and fig. 6 classification."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.core.wcr import (
    WCRClass,
    WCRClassifier,
    batch_wcr,
    worst_case_ratio,
    worst_of,
)
from repro.device.parameters import IDD_PEAK_PARAMETER, T_DQ_PARAMETER


class TestWorstCaseRatio:
    def test_paper_table1_values(self):
        """The exact WCR arithmetic of Table 1: vmin/va for T_DQ."""
        assert worst_case_ratio(32.3, T_DQ_PARAMETER) == pytest.approx(0.619, abs=0.001)
        assert worst_case_ratio(28.5, T_DQ_PARAMETER) == pytest.approx(0.702, abs=0.001)
        assert worst_case_ratio(22.1, T_DQ_PARAMETER) == pytest.approx(0.905, abs=0.001)

    def test_eq5_max_limited(self):
        assert worst_case_ratio(40.0, IDD_PEAK_PARAMETER) == pytest.approx(0.5)
        assert worst_case_ratio(88.0, IDD_PEAK_PARAMETER) == pytest.approx(1.1)

    def test_zero_value_min_limited_raises(self):
        with pytest.raises(ValueError):
            worst_case_ratio(0.0, T_DQ_PARAMETER)

    def test_absolute_value_semantics(self):
        assert worst_case_ratio(-40.0, IDD_PEAK_PARAMETER) == pytest.approx(0.5)

    @given(value=st.floats(0.1, 1000.0))
    def test_spec_violation_iff_wcr_above_one(self, value):
        """WCR > 1 exactly when the value violates the spec (both eqs.)."""
        for parameter in (T_DQ_PARAMETER, IDD_PEAK_PARAMETER):
            wcr = worst_case_ratio(value, parameter)
            assert (wcr > 1.0) == (not parameter.meets_spec(value))


class TestClassifier:
    def test_paper_regions(self):
        classifier = WCRClassifier()
        assert classifier.classify(0.0) is WCRClass.PASS
        assert classifier.classify(0.8) is WCRClass.PASS
        assert classifier.classify(0.81) is WCRClass.WEAKNESS
        assert classifier.classify(1.0) is WCRClass.WEAKNESS
        assert classifier.classify(1.01) is WCRClass.FAIL

    def test_negative_wcr_rejected(self):
        with pytest.raises(ValueError):
            WCRClassifier().classify(-0.1)

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            WCRClassifier(weakness_threshold=1.2, fail_threshold=1.0)
        with pytest.raises(ValueError):
            WCRClassifier(weakness_threshold=0.0)

    def test_classify_value_composes(self):
        wcr, region = WCRClassifier().classify_value(22.1, T_DQ_PARAMETER)
        assert wcr == pytest.approx(0.905, abs=0.001)
        assert region is WCRClass.WEAKNESS

    def test_custom_boundaries(self):
        strict = WCRClassifier(weakness_threshold=0.6, fail_threshold=0.9)
        assert strict.classify(0.7) is WCRClass.WEAKNESS
        assert strict.classify(0.95) is WCRClass.FAIL


_REGION_ORDER = {WCRClass.PASS: 0, WCRClass.WEAKNESS: 1, WCRClass.FAIL: 2}
_WCR = st.floats(0.0, 10.0, allow_nan=False)


class TestClassificationProperties:
    """Eqs. 5/6 feed fig. 6: the 0.8 and 1.0 edges are exact, and a larger
    WCR never lands in a milder region."""

    @pytest.mark.parametrize(
        "boundary, below, above",
        [(0.8, WCRClass.PASS, WCRClass.WEAKNESS), (1.0, WCRClass.WEAKNESS, WCRClass.FAIL)],
    )
    def test_paper_boundaries_are_exact(self, boundary, below, above):
        classifier = WCRClassifier()
        assert classifier.classify(math.nextafter(boundary, 0.0)) is below
        assert classifier.classify(boundary) is below
        assert classifier.classify(math.nextafter(boundary, math.inf)) is above

    @given(
        edges=st.lists(
            st.floats(1e-6, 100.0, allow_nan=False), min_size=2, max_size=2, unique=True
        )
    )
    def test_any_boundaries_are_exact(self, edges):
        weakness, fail = sorted(edges)
        # With adjacent thresholds one ulp below ``fail`` is ``weakness``
        # itself, a PASS; that pair has its own test below.
        assume(math.nextafter(weakness, math.inf) < fail)
        classifier = WCRClassifier(weakness_threshold=weakness, fail_threshold=fail)
        for edge, below, above in (
            (weakness, WCRClass.PASS, WCRClass.WEAKNESS),
            (fail, WCRClass.WEAKNESS, WCRClass.FAIL),
        ):
            assert classifier.classify(math.nextafter(edge, 0.0)) is below
            assert classifier.classify(edge) is below
            assert classifier.classify(math.nextafter(edge, math.inf)) is above

    def test_adjacent_boundaries_leave_one_weakness_value(self):
        weakness = 1e-06
        fail = math.nextafter(weakness, math.inf)
        classifier = WCRClassifier(weakness_threshold=weakness, fail_threshold=fail)
        assert classifier.classify(weakness) is WCRClass.PASS
        assert classifier.classify(fail) is WCRClass.WEAKNESS
        assert classifier.classify(math.nextafter(fail, math.inf)) is WCRClass.FAIL

    @given(a=_WCR, b=_WCR)
    def test_classification_is_monotone_in_wcr(self, a, b):
        classifier = WCRClassifier()
        low, high = sorted((a, b))
        assert (
            _REGION_ORDER[classifier.classify(low)]
            <= _REGION_ORDER[classifier.classify(high)]
        )

    @given(value=st.floats(0.1, 1000.0, allow_nan=False))
    def test_measured_values_classify_monotonically(self, value):
        """Through eq. 6 a smaller T_DQ (and through eq. 5 a larger I_DD)
        is never in a milder region."""
        classifier = WCRClassifier()
        for parameter, worse in ((T_DQ_PARAMETER, value * 0.9), (IDD_PEAK_PARAMETER, value * 1.1)):
            region = classifier.classify_value(value, parameter)[1]
            worse_region = classifier.classify_value(worse, parameter)[1]
            assert _REGION_ORDER[region] <= _REGION_ORDER[worse_region]


class TestBatchHelpers:
    def test_batch_wcr(self):
        ratios = batch_wcr([40.0, 25.0, 20.0], T_DQ_PARAMETER)
        assert ratios == pytest.approx([0.5, 0.8, 1.0])

    def test_worst_of_min_limited(self):
        """The outer Max over tests: smallest T_DQ has the largest WCR."""
        index, wcr = worst_of([32.3, 28.5, 22.1], T_DQ_PARAMETER)
        assert index == 2
        assert wcr == pytest.approx(0.905, abs=0.001)

    def test_worst_of_max_limited(self):
        index, wcr = worst_of([40.0, 75.0, 60.0], IDD_PEAK_PARAMETER)
        assert index == 1

    def test_worst_of_empty_raises(self):
        with pytest.raises(ValueError):
            worst_of([], T_DQ_PARAMETER)

    @given(
        values=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=20)
    )
    def test_worst_of_is_argmax_property(self, values):
        index, wcr = worst_of(values, T_DQ_PARAMETER)
        ratios = batch_wcr(values, T_DQ_PARAMETER)
        assert wcr == pytest.approx(max(ratios))
        assert ratios[index] == pytest.approx(wcr)

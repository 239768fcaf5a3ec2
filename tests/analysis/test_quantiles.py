"""The pure-Python linear quantile against numpy's, bit for bit.

``summarize`` (p05/p50/p95) and the fuzzy coder's calibration both call
``_linear_quantiles`` instead of numpy's quantile functions, so a farm
worker summarizing a die imports nothing.  Every value must equal numpy's
default ("linear") rule exactly: results are compared as ``float.hex``, so
a signed zero, an infinity and a NaN all count.

A generated sample holds zeros of one sign only.  ``+0.0`` and ``-0.0``
compare equal, and numpy's partition leaves them in an order it does not
specify, so the sign of a zero at a given rank of a mixed sample is not
part of numpy's rule.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis.statistics import _linear_quantiles, summarize

NUMPY_BEFORE_1_22 = tuple(int(p) for p in np.__version__.split(".")[:2]) < (1, 22)

EDGES = [
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, 0.0, 1.0, -1.0, 0.5,
]

floats = st.one_of(
    st.floats(allow_nan=False),  # subnormals and infinities included
    st.sampled_from(EDGES),
    st.integers(-3, 3).map(float),
)


@st.composite
def samples(draw):
    """1 to 500 values: free, or drawn from a few values (heavy ties)."""
    if draw(st.booleans()):
        pool = draw(st.lists(floats, min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=500))
    else:
        values = draw(st.lists(floats, min_size=1, max_size=500))
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = math.nan
    zero = draw(st.sampled_from([0.0, -0.0]))
    return [zero if v == 0.0 else v for v in values]


def hexes(values):
    return [float(v).hex() for v in values]


def numpy_percentiles(values, percents):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
        return [np.percentile(values, p) for p in percents]


def numpy_quantiles(values, qs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return [np.quantile(values, q) for q in qs]


def floor_rule_differs(values):
    """A lone ``-0.0``, which numpy < 1.22 gives back as ``+0.0``.

    Pinned apart in ``test_single_negative_zero``.
    """
    lone_negative_zero = (
        len(values) == 1 and values[0] == 0.0 and math.copysign(1.0, values[0]) < 0
    )
    return NUMPY_BEFORE_1_22 and lone_negative_zero


class TestLinearQuantiles:
    @settings(max_examples=400, deadline=None)
    @given(samples())
    @example([math.inf])
    @example([-math.inf, math.inf])
    @example([1.0, math.nan])
    def test_percentiles_equal_numpy(self, values):
        assume(not floor_rule_differs(values))
        ours = _linear_quantiles(values, [p / 100 for p in (5, 50, 95)])
        assert hexes(ours) == hexes(numpy_percentiles(values, (5, 50, 95)))

    @settings(max_examples=300, deadline=None)
    @given(samples(), st.integers(2, 8))
    @example([-0.0, -0.0], 4)
    @example([1.0, math.inf], 3)
    def test_fuzzy_coder_points_equal_numpy(self, values, k):
        assume(not floor_rule_differs(values))
        qs = np.linspace(0.05, 1.0, k)
        ours = _linear_quantiles(values, qs.tolist())
        assert hexes(ours) == hexes(numpy_quantiles(values, qs))

    @pytest.mark.xfail(
        NUMPY_BEFORE_1_22, strict=True,
        reason="numpy < 1.22 lerps a lone -0.0 as -0.0 + 0.0 = +0.0",
    )
    def test_single_negative_zero(self):
        ours = _linear_quantiles([-0.0], [0.05, 0.5, 0.95])
        assert hexes(ours) == hexes(numpy_percentiles([-0.0], (5, 50, 95)))

    @settings(max_examples=100, deadline=None)
    @given(samples())
    def test_summarize_percentiles_equal_numpy(self, values):
        assume(not floor_rule_differs(values))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # mean of inf
            stats = summarize(values)
        assert hexes([stats.p05, stats.p50, stats.p95]) == hexes(
            numpy_percentiles(values, (5, 50, 95))
        )

"""Codecs between test cases and numeric learning inputs.

The neural network of fig. 4 "learn[s] from a set of input tests"; what the
network actually consumes is a fixed-length real vector.  The
:class:`TestEncoder` concatenates the canonical pattern activity features
(:mod:`~repro.patterns.features`) with the normalized test condition, giving
an input that is invariant to sequence length and address-space size.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.patterns.conditions import ConditionSpace
from repro.patterns.features import FEATURE_NAMES, extract_features, fill_features
from repro.patterns.testcase import TestCase

#: Names of the condition inputs appended after the pattern features.
CONDITION_INPUT_NAMES = ("cond_vdd", "cond_temperature", "cond_clock_period")


class TestEncoder:
    """Encode :class:`~repro.patterns.testcase.TestCase` objects as NN inputs.

    Parameters
    ----------
    condition_space:
        Space used to normalize the environmental condition to ``[0, 1]``.
    include_condition:
        When False, only pattern features are emitted (used by pattern-only
        analyses where every test runs at the nominal condition).
    """

    def __init__(
        self,
        condition_space: ConditionSpace,
        include_condition: bool = True,
    ) -> None:
        self.condition_space = condition_space
        self.include_condition = include_condition

    @property
    def input_dim(self) -> int:
        """Dimension of the encoded vector."""
        extra = len(CONDITION_INPUT_NAMES) if self.include_condition else 0
        return len(FEATURE_NAMES) + extra

    @property
    def input_names(self) -> List[str]:
        """Human-readable name of each input component, in order."""
        names = list(FEATURE_NAMES)
        if self.include_condition:
            names.extend(CONDITION_INPUT_NAMES)
        return names

    def encode(self, test: TestCase) -> np.ndarray:
        """Encode a single test case as a ``[0, 1]`` vector."""
        features = extract_features(test.sequence).values
        if not self.include_condition:
            return features.copy()
        condition = self.condition_space.normalize(test.condition)
        return np.concatenate([features, condition])

    def encode_batch(self, tests: Sequence[TestCase]) -> np.ndarray:
        """Encode a batch of tests as a ``(len(tests), input_dim)`` matrix."""
        if not tests:
            return np.zeros((0, self.input_dim), dtype=float)
        fill_features(test.sequence for test in tests)
        return np.stack([self.encode(test) for test in tests])

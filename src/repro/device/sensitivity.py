"""Pattern-activity sensitivity model: the device's hidden response surface.

This is the ground truth the whole characterization flow tries to discover.
The measured ``T_DQ`` of the simulated chip is::

    t_dq = base(die, condition) - linear_drop(features) - weakness(features)

* ``linear_drop`` is a mild, smooth penalty on switching activity — every
  test sees it, and it alone explains the spread of ordinary random tests.
* ``weakness`` is a *nonlinear conjunction*: only when several specific
  activity features are simultaneously high (a saturating product of
  sigmoids) does a large extra degradation appear.  This models the paper's
  premise that "the true worst case test can provoke a large drift of the
  trip point values" which "is very difficult or not possible at all to
  obtain ... by any existing conventional single trip point and single test
  concept" (section 7):

  - march patterns are regular (low peak activity, no same-address
    read-after-write hazards in March C-) and never trigger it;
  - random tests rarely align all conjunct features at once;
  - a learner that models feature interactions can steer a GA into the
    conjunction.

All constants live in :class:`SensitivityConfig` so experiments can re-shape
the surface; the defaults are calibrated so the Table-1 ordering and rough
magnitudes of the paper emerge (march ≈ 32 ns, best random ≈ 28-29 ns,
global worst ≈ 22 ns at Vdd 1.8 V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.patterns.features import FEATURE_NAMES, PatternFeatures


def _sigmoid(x: float) -> float:
    """Numerically safe logistic function.

    ``np.exp``, not ``math.exp``: the two differ in the last bit for about
    one input in twenty (9,254 of 200,000 uniform on ``[-30, 30]`` with
    numpy 2.4), and every chip's ``T_DQ`` passes through here.
    """
    if x >= 0:
        z = np.exp(-x)
        return float(1.0 / (1.0 + z))
    z = np.exp(x)
    return float(z / (1.0 + z))


@dataclass(frozen=True)
class WeaknessSignature:
    """One conjunct of the hidden weakness.

    The activation of a signature is ``sigmoid(slope * (feature - threshold))``
    — close to 0 below the threshold, saturating to 1 above it.
    """

    feature: str
    threshold: float
    slope: float = 10.0

    def __post_init__(self) -> None:
        if self.feature not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")
        if self.slope <= 0.0:
            raise ValueError("slope must be positive")

    def activation(self, features: PatternFeatures) -> float:
        """Soft-threshold activation of this conjunct in ``[0, 1]``."""
        return _sigmoid(self.slope * (features[self.feature] - self.threshold))


#: Default weakness conjunction: simultaneous high peak switching activity,
#: same-address read-after-write hazards and heavy MSB (row-decoder) toggling.
DEFAULT_SIGNATURES: Tuple[WeaknessSignature, ...] = (
    WeaknessSignature("peak_window_activity", threshold=0.50, slope=12.0),
    WeaknessSignature("read_after_write_rate", threshold=0.25, slope=12.0),
    WeaknessSignature("addr_msb_toggle_rate", threshold=0.45, slope=10.0),
)


@dataclass(frozen=True)
class SensitivityConfig:
    """Tunable constants of the response surface."""

    #: Linear activity penalties, ns per unit feature.
    linear_coefficients: Dict[str, float] = field(
        default_factory=lambda: {
            "peak_window_activity": 4.0,
            "data_toggle_density": 0.8,
            "addr_transition_density": 0.8,
            "addr_jump_distance": 0.4,
            "burst_read_run": 0.2,
        }
    )
    #: Amplitude (ns) of the full three-way weakness conjunction.
    weakness_triple_ns: float = 8.0
    #: Amplitude (ns) of the average pairwise partial activation.
    weakness_pair_ns: float = 0.9
    #: Baseline (mA) and activity slope of the peak-supply-current model.
    idd_base_ma: float = 30.0
    idd_activity_ma: float = 55.0


class SensitivityModel:
    """Maps pattern activity features to parameter degradation.

    Parameters
    ----------
    config:
        Response-surface constants.
    signatures:
        Weakness conjuncts; at least two are required (the weakness is a
        conjunction by construction).
    """

    def __init__(
        self,
        config: SensitivityConfig = SensitivityConfig(),
        signatures: Tuple[WeaknessSignature, ...] = DEFAULT_SIGNATURES,
    ) -> None:
        if len(signatures) < 2:
            raise ValueError("the weakness must be a conjunction of >= 2 features")
        for name in config.linear_coefficients:
            if name not in FEATURE_NAMES:
                raise ValueError(f"unknown linear coefficient feature {name!r}")
        self.config = config
        self.signatures = signatures

    # -- timing ---------------------------------------------------------------
    def linear_drop_ns(self, features: PatternFeatures) -> float:
        """Smooth activity penalty seen by every test, in ns."""
        return sum(
            coeff * features[name]
            for name, coeff in self.config.linear_coefficients.items()
        )

    def weakness_activations(self, features: PatternFeatures) -> Tuple[float, ...]:
        """Per-conjunct activation levels (diagnostic view)."""
        return tuple(sig.activation(features) for sig in self.signatures)

    def weakness_drop_ns(self, features: PatternFeatures) -> float:
        """Extra degradation from the hidden weakness, in ns.

        Full product of all conjunct activations carries the large
        amplitude; the mean pairwise product contributes a small partial
        penalty so the surface has a gradient a learner can follow.
        """
        acts = self.weakness_activations(features)
        # Plain left-to-right float arithmetic: numpy reduces fewer than
        # eight terms in this order too, so the three default conjuncts
        # (three pairs) give the bits ``np.prod``/``np.mean`` gave.
        triple = 1.0
        for act in acts:
            triple *= act
        pair_total = 0.0
        pairs = 0
        for i in range(len(acts)):
            for j in range(i + 1, len(acts)):
                pair_total += acts[i] * acts[j]
                pairs += 1
        pair_mean = pair_total / pairs
        return (
            self.config.weakness_triple_ns * triple
            + self.config.weakness_pair_ns * pair_mean
        )

    def total_drop_ns(self, features: PatternFeatures) -> float:
        """Total test-dependent ``T_DQ`` degradation in ns."""
        return self.linear_drop_ns(features) + self.weakness_drop_ns(features)

    # -- supply current ---------------------------------------------------------
    def idd_peak_ma(self, features: PatternFeatures, vdd: float) -> float:
        """Peak dynamic supply current in mA (secondary, max-limited parameter)."""
        activity = 0.7 * features["peak_window_activity"] + 0.3 * features[
            "data_toggle_density"
        ]
        # Dynamic current scales with C * V * f; quadratic in Vdd is close
        # enough for the behavioural model.
        vdd_scale = (vdd / 1.8) ** 2
        return (
            self.config.idd_base_ma
            + self.config.idd_activity_ma * activity * vdd_scale
        )

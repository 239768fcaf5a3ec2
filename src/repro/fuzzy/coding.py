"""Trip-point value coding for NN supervision.

Fig. 4, step 3: "Trip point value coding using either fuzzy set data [8] or
simple numerical coding; then NN starts to learn from input random tests and
supervised by ATE detects TPV value."

Both coders translate a measured trip-point value into an NN training target
over ordered *severity classes* (from "far from the spec limit" to "at or
beyond the limit").  They are calibrated from a sample of measured values so
the classes discriminate within the actually observed range:

* :class:`TripPointFuzzyCoder` — the paper's recommendation: a triangular
  fuzzy partition on the WCR axis; targets are soft membership vectors, so
  a value near a class boundary supervises both neighbouring classes.
* :class:`NumericTripPointCoder` — the plain alternative: equal-width bins
  and hard one-hot targets.

The A1 ablation bench compares the two.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.statistics import _linear_quantiles
from repro.core.wcr import worst_case_ratio
from repro.device.parameters import DeviceParameter
from repro.fuzzy.variables import LinguisticVariable

#: Default severity labels, least to most severe.
DEFAULT_LABELS = (
    "far_from_limit",
    "approaching_limit",
    "close_to_limit",
    "at_limit",
)


class TripPointFuzzyCoder:
    """Fuzzy severity coding of trip-point values.

    The crisp axis is the worst-case ratio of the value against the
    parameter's spec limit (eqs. 5/6), so the coding is parameter-direction
    agnostic: higher WCR is always more severe.

    Parameters
    ----------
    parameter:
        The characterized device parameter (provides spec limit/direction).
    labels:
        Ordered severity labels (low to high WCR).
    wcr_range:
        Crisp universe; defaults derived from calibration samples via
        :meth:`from_samples`, or ``(0.5, 1.05)`` raw.
    centers:
        Optional explicit term centers on the WCR axis.
    """

    def __init__(
        self,
        parameter: DeviceParameter,
        labels: Sequence[str] = DEFAULT_LABELS,
        wcr_range: tuple = (0.5, 1.05),
        centers: Optional[Sequence[float]] = None,
    ) -> None:
        if len(labels) < 2:
            raise ValueError("need at least two severity classes")
        self.parameter = parameter
        self.variable = LinguisticVariable.partition_at(
            "wcr", wcr_range, list(labels), centers=centers
        )

    @classmethod
    def from_samples(
        cls,
        parameter: DeviceParameter,
        values: Sequence[float],
        labels: Sequence[str] = DEFAULT_LABELS,
    ) -> "TripPointFuzzyCoder":
        """Calibrate term centers from measured trip-point values.

        Centers sit at spread quantiles of the observed WCR distribution,
        with the top class pulled toward the worst observed tail so the
        severe end stays discriminative (the whole point of the coding is
        ranking candidates near the limit).
        """
        wcrs = np.array([worst_case_ratio(v, parameter) for v in values])
        if len(wcrs) < 8:
            raise ValueError("need at least 8 calibration samples")
        lo = float(np.min(wcrs))
        hi = float(np.max(wcrs))
        span = max(hi - lo, 1e-3)
        universe = (lo - 0.05 * span, hi + 0.25 * span)
        quantiles = np.linspace(0.05, 1.0, len(labels))
        centers = _linear_quantiles(wcrs.tolist(), quantiles[:-1].tolist())
        centers.append(hi + 0.10 * span)
        centers = sorted(set(centers))
        while len(centers) < len(labels):  # degenerate distributions
            centers.append(centers[-1] + 0.05 * span)
        return cls(parameter, labels, wcr_range=universe, centers=centers)

    @property
    def labels(self) -> List[str]:
        """Ordered severity labels."""
        return self.variable.labels

    @property
    def n_classes(self) -> int:
        """Number of severity classes."""
        return len(self.variable.labels)

    def wcr_of(self, value: float) -> float:
        """The crisp WCR of a measured value."""
        return worst_case_ratio(value, self.parameter)

    def encode(self, value: float) -> np.ndarray:
        """Soft target: normalized membership vector of the value's WCR."""
        vector = self.variable.membership_vector(self.wcr_of(value))
        total = vector.sum()
        if total <= 0.0:
            # Outside every support: attribute fully to the nearest edge class.
            index = 0 if self.wcr_of(value) < self.variable.universe[0] else -1
            vector = np.zeros(self.n_classes)
            vector[index] = 1.0
            return vector
        return vector / total

    def encode_batch(self, values: Sequence[float]) -> np.ndarray:
        """Soft targets for a batch of measured values."""
        return np.stack([self.encode(v) for v in values])

    def class_index(self, value: float) -> int:
        """Hard severity class of a value (argmax membership)."""
        return int(np.argmax(self.encode(value)))

    def severity_score(self, class_probabilities: np.ndarray) -> np.ndarray:
        """Scalar severity from NN class probabilities.

        The expected class index normalized to ``[0, 1]`` — used to rank
        candidate tests when pre-selecting GA seeds.
        """
        probs = np.atleast_2d(class_probabilities)
        indices = np.arange(self.n_classes)
        return (probs * indices).sum(axis=-1) / (self.n_classes - 1)

    def to_dict(self) -> dict:
        """JSON-friendly calibration state (stored in NN weight files)."""
        return {
            "kind": "fuzzy",
            "parameter": self.parameter.to_dict(),
            "labels": list(self.labels),
            "universe": list(self.variable.universe),
            "centers": [
                self.variable.term(label).center for label in self.labels
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TripPointFuzzyCoder":
        """Inverse of :meth:`to_dict`."""
        from repro.device.parameters import DeviceParameter

        return cls(
            DeviceParameter.from_dict(payload["parameter"]),
            labels=payload["labels"],
            wcr_range=tuple(payload["universe"]),
            centers=payload["centers"],
        )


class NumericTripPointCoder:
    """Plain equal-width bin coding (the paper's "simple numerical coding").

    Shares the WCR axis and the interface of :class:`TripPointFuzzyCoder`
    so the two are drop-in interchangeable in the learning scheme.
    """

    def __init__(
        self,
        parameter: DeviceParameter,
        n_classes: int = len(DEFAULT_LABELS),
        wcr_range: tuple = (0.5, 1.05),
    ) -> None:
        if n_classes < 2:
            raise ValueError("need at least two classes")
        lo, hi = wcr_range
        if lo >= hi:
            raise ValueError("wcr_range must satisfy low < high")
        self.parameter = parameter
        self._n_classes = n_classes
        self.wcr_range = (float(lo), float(hi))

    @classmethod
    def from_samples(
        cls,
        parameter: DeviceParameter,
        values: Sequence[float],
        n_classes: int = len(DEFAULT_LABELS),
    ) -> "NumericTripPointCoder":
        """Calibrate the bin range from measured values."""
        wcrs = np.array([worst_case_ratio(v, parameter) for v in values])
        if len(wcrs) < 8:
            raise ValueError("need at least 8 calibration samples")
        lo, hi = float(np.min(wcrs)), float(np.max(wcrs))
        span = max(hi - lo, 1e-3)
        return cls(parameter, n_classes, (lo - 0.05 * span, hi + 0.25 * span))

    @property
    def labels(self) -> List[str]:
        """Bin labels."""
        return [f"bin_{i}" for i in range(self._n_classes)]

    @property
    def n_classes(self) -> int:
        """Number of bins."""
        return self._n_classes

    def wcr_of(self, value: float) -> float:
        """The crisp WCR of a measured value."""
        return worst_case_ratio(value, self.parameter)

    def class_index(self, value: float) -> int:
        """Hard bin of a value."""
        lo, hi = self.wcr_range
        fraction = (self.wcr_of(value) - lo) / (hi - lo)
        return int(np.clip(int(fraction * self._n_classes), 0, self._n_classes - 1))

    def encode(self, value: float) -> np.ndarray:
        """One-hot target."""
        target = np.zeros(self._n_classes)
        target[self.class_index(value)] = 1.0
        return target

    def encode_batch(self, values: Sequence[float]) -> np.ndarray:
        """One-hot targets for a batch."""
        return np.stack([self.encode(v) for v in values])

    def severity_score(self, class_probabilities: np.ndarray) -> np.ndarray:
        """Expected bin index normalized to ``[0, 1]``."""
        probs = np.atleast_2d(class_probabilities)
        indices = np.arange(self._n_classes)
        return (probs * indices).sum(axis=-1) / (self._n_classes - 1)

    def to_dict(self) -> dict:
        """JSON-friendly calibration state (stored in NN weight files)."""
        return {
            "kind": "numeric",
            "parameter": self.parameter.to_dict(),
            "n_classes": self._n_classes,
            "wcr_range": list(self.wcr_range),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NumericTripPointCoder":
        """Inverse of :meth:`to_dict`."""
        from repro.device.parameters import DeviceParameter

        return cls(
            DeviceParameter.from_dict(payload["parameter"]),
            n_classes=payload["n_classes"],
            wcr_range=tuple(payload["wcr_range"]),
        )


def coder_from_dict(payload: dict):
    """Rebuild either coder kind from its :meth:`to_dict` form."""
    kind = payload.get("kind")
    if kind == "fuzzy":
        return TripPointFuzzyCoder.from_dict(payload)
    if kind == "numeric":
        return NumericTripPointCoder.from_dict(payload)
    raise ValueError(f"unknown coder kind {kind!r}")

"""Training losses.

A loss exposes ``values`` (the mean loss of each batch in a
``(..., batch, out)`` stack), ``value`` (one batch's, as a float) and
``gradient`` (w.r.t. the network output).  :class:`CrossEntropyLoss` is
meant to sit behind a softmax output layer and returns the combined
softmax-cross-entropy gradient ``(p - y) / batch``.
"""

from __future__ import annotations

import abc

import numpy as np

_EPS = 1e-12


class Loss(abc.ABC):
    """Base class of training losses."""

    name: str = "loss"

    def value(self, predicted: np.ndarray, target: np.ndarray) -> float:
        """Mean loss over one ``(batch, out)`` batch."""
        return float(self.values(predicted, target))

    @abc.abstractmethod
    def values(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Mean loss of each batch in a ``(..., batch, out)`` stack."""

    @abc.abstractmethod
    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Gradient of each batch's :meth:`values` w.r.t. ``predicted``."""

    @staticmethod
    def _check_shapes(predicted: np.ndarray, target: np.ndarray) -> None:
        if predicted.shape != target.shape:
            raise ValueError(
                f"prediction shape {predicted.shape} != target shape {target.shape}"
            )


class MSELoss(Loss):
    """Mean squared error (regression / fuzzy membership targets)."""

    name = "mse"

    def values(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        self._check_shapes(predicted, target)
        squared = (predicted - target) ** 2
        return np.mean(squared.reshape(squared.shape[:-2] + (-1,)), axis=-1)

    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        self._check_shapes(predicted, target)
        batch, width = predicted.shape[-2:]
        return 2.0 * (predicted - target) / (batch * width)


class CrossEntropyLoss(Loss):
    """Categorical cross-entropy over softmax probabilities.

    ``predicted`` must already be probabilities (the output of a softmax
    layer); ``target`` is a one-hot or soft-label distribution per row.
    The returned gradient is the combined softmax+CE gradient, matching the
    pass-through backward of :class:`~repro.nn.activations.Softmax`.
    """

    name = "cross_entropy"

    def values(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        self._check_shapes(predicted, target)
        log_p = np.log(predicted.clip(_EPS, 1.0))
        return -(target * log_p).sum(axis=-1).mean(axis=-1)

    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        self._check_shapes(predicted, target)
        return (predicted - target) / predicted.shape[-2]

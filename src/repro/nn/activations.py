"""Activation functions with analytic derivatives.

Each activation is a stateless callable pair: ``forward`` maps
pre-activations to activations, ``backward`` maps (upstream gradient,
forward output) to the gradient with respect to the pre-activations.
Passing the *forward output* rather than the input keeps backprop cheap for
the sigmoid family, whose derivatives are simplest in terms of the output.
"""

from __future__ import annotations

import abc

import numpy as np


class Activation(abc.ABC):
    """Base class of all activations."""

    name: str = "activation"

    @abc.abstractmethod
    def forward(self, z: np.ndarray) -> np.ndarray:
        """Apply the nonlinearity element-wise."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. pre-activations given upstream grad and forward output."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear pass-through (regression output layers)."""

    name = "identity"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return z

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_output


class Sigmoid(Activation):
    """Logistic sigmoid — the classic characterization-era MLP nonlinearity."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z, dtype=float)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_output * output * (1.0 - output)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - output * output)


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_output * (output > 0.0)


class Softmax(Activation):
    """Row-wise softmax for classification output layers.

    ``backward`` assumes the downstream loss is the categorical
    cross-entropy whose combined gradient is computed by the loss itself
    (:class:`~repro.nn.losses.CrossEntropyLoss`), so it passes the gradient
    through unchanged.  Pairing softmax with any other loss is a usage
    error and raises at loss-construction time, not here.
    """

    name = "softmax"

    def forward(self, z: np.ndarray) -> np.ndarray:
        exp_z = np.exp(z - z.max(axis=-1, keepdims=True))
        return exp_z / exp_z.sum(axis=-1, keepdims=True)

    def backward(self, grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
        return grad_output


_ACTIVATIONS = {
    cls.name: cls for cls in (Identity, Sigmoid, Tanh, ReLU, Softmax)
}


def activation_by_name(name: str) -> Activation:
    """Instantiate an activation from its registry name (weight-file I/O)."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError as exc:
        raise ValueError(
            f"unknown activation {name!r}; known: {sorted(_ACTIVATIONS)}"
        ) from exc

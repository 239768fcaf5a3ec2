"""Dense (fully connected) layers.

A :class:`DenseLayer` owns its weight matrix and bias vector.  Training
runs on the stacked parameters of :class:`~repro.nn.mlp.MLPStack`, so a
layer has only its forward pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.activations import Activation, Identity


class DenseLayer:
    """``y = activation(x @ W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Layer geometry.
    activation:
        Nonlinearity; :class:`~repro.nn.activations.Identity` by default.
    rng:
        Initialization RNG.  Weights use scaled-uniform (Glorot) init,
        biases start at zero.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[Activation] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weights = rng.uniform(-limit, limit, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.activation = activation if activation is not None else Identity()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output for a ``(batch, in_features)`` input."""
        width = len(self.weights)
        if inputs.ndim != 2 or inputs.shape[1] != width:
            raise ValueError(
                f"expected input of shape (batch, {width}), got {inputs.shape}"
            )
        return self.activation.forward(inputs @ self.weights + self.bias)

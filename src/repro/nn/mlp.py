"""Multilayer perceptron.

A plain feed-forward stack of dense layers — the network class of the
paper's refs [12][14].  Construction is by layer sizes plus activation
names, e.g. ``MLP([21, 24, 12, 4], hidden="tanh", output="softmax",
seed=7)``.  :class:`MLPStack` holds several same-architecture networks as
stacked arrays: the voting machine votes through its forward pass, and
the trainer backpropagates through it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.activations import activation_by_name
from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss


class MLP:
    """Feed-forward network.

    Parameters
    ----------
    layer_sizes:
        ``[input_dim, hidden..., output_dim]`` — at least two entries.
    hidden:
        Activation name for all hidden layers.
    output:
        Activation name for the output layer (``"softmax"`` for
        classification, ``"identity"`` for regression).
    seed:
        Weight initialization seed.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden: str = "tanh",
        output: str = "softmax",
        seed: int = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        rng = np.random.default_rng(seed)
        self.layer_sizes = list(layer_sizes)
        self.hidden_name = hidden
        self.output_name = output
        self.layers: List[DenseLayer] = []
        for i in range(len(layer_sizes) - 1):
            is_last = i == len(layer_sizes) - 2
            activation = activation_by_name(output if is_last else hidden)
            self.layers.append(
                DenseLayer(layer_sizes[i], layer_sizes[i + 1], activation, rng)
            )

    @property
    def input_dim(self) -> int:
        """Expected input feature count."""
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        """Output vector size."""
        return self.layer_sizes[-1]

    # -- inference ---------------------------------------------------------------
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Run the network on a ``(batch, input_dim)`` matrix."""
        out = np.atleast_2d(np.asarray(inputs, dtype=float))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def classify(self, inputs: np.ndarray) -> np.ndarray:
        """Argmax class index per row."""
        return np.argmax(self.predict(inputs), axis=-1)

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, inputs: np.ndarray, targets: np.ndarray, loss: Loss) -> float:
        """Mean loss on a dataset without updating weights."""
        return loss.value(self.predict(inputs), targets)

    def accuracy(self, inputs: np.ndarray, target_classes: np.ndarray) -> float:
        """Classification accuracy against integer class labels."""
        return float(np.mean(self.classify(inputs) == target_classes))

    # -- parameter access (weight file, GA-assisted training) ----------------------
    def get_parameters(self) -> List[np.ndarray]:
        """Flat list ``[W0, b0, W1, b1, ...]`` of parameter *copies*."""
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weights.copy())
            params.append(layer.bias.copy())
        return params

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_parameters`."""
        if len(params) != 2 * len(self.layers):
            raise ValueError(
                f"expected {2 * len(self.layers)} arrays, got {len(params)}"
            )
        for i, layer in enumerate(self.layers):
            weights, bias = params[2 * i], params[2 * i + 1]
            if weights.shape != layer.weights.shape or bias.shape != layer.bias.shape:
                raise ValueError(f"parameter shape mismatch at layer {i}")
            layer.weights = weights.copy()
            layer.bias = bias.copy()

    def clone_architecture(self, seed: int) -> "MLP":
        """Fresh network with the same architecture and new random weights."""
        return MLP(self.layer_sizes, self.hidden_name, self.output_name, seed=seed)


class MLPStack:
    """Same-architecture networks as stacked parameter arrays.

    ``parameters`` is :meth:`MLP.get_parameters`'s ``[W0, b0, W1, ...]``
    with a leading network axis: ``(M, in, out)`` weights, ``(M, out)``
    biases.  Slice ``m`` of a stacked matmul is network ``m``'s own matmul
    bit for bit, so :meth:`forward` and :meth:`gradients` equal each
    network's own forward pass and backprop.
    """

    def __init__(self, networks: Sequence[MLP]) -> None:
        kinds = {(tuple(n.layer_sizes), n.hidden_name, n.output_name) for n in networks}
        if len(kinds) != 1:
            raise ValueError("stacked networks must share one architecture")
        self.activations = [layer.activation for layer in networks[0].layers]
        self.parameters = [
            np.stack(arrays) for arrays in zip(*(n.get_parameters() for n in networks))
        ]

    def forward(self, inputs: np.ndarray) -> List[np.ndarray]:
        """Every layer's output, the input first.

        ``inputs`` is one ``(batch, in)`` matrix for all networks or an
        ``(M, batch, in)`` stack of one batch per network.
        """
        outputs = [inputs]
        params = self.parameters
        for weights, bias, activation in zip(params[::2], params[1::2], self.activations):
            outputs.append(activation.forward(outputs[-1] @ weights + bias[:, None, :]))
        return outputs

    def gradients(self, outputs: Sequence[np.ndarray], grad_output: np.ndarray) -> List[np.ndarray]:
        """The loss gradient of each of :attr:`parameters`.

        ``outputs`` are a :meth:`forward` of an ``(M, batch, in)`` stack and
        ``grad_output`` is the loss gradient w.r.t. the last of them.
        """
        grads: List[np.ndarray] = []
        grad = grad_output
        for i in reversed(range(len(self.activations))):
            grad = self.activations[i].backward(grad, outputs[i + 1])
            grads[:0] = [outputs[i].swapaxes(1, 2) @ grad, grad.sum(axis=1)]
            if i:
                grad = grad @ self.parameters[2 * i].swapaxes(1, 2)
        return grads

    def member(self, row: int) -> List[np.ndarray]:
        """A copy of the ``[W0, b0, W1, ...]`` of the network in ``row``."""
        return [param[row].copy() for param in self.parameters]

    def select(self, rows: Sequence[int]) -> None:
        """Keep only the networks in ``rows``, in that order."""
        self.parameters = [param[rows] for param in self.parameters]
